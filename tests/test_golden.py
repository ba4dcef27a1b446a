"""CLI outputs compared byte for byte with the files recorded in tests/data.

Region witnesses are the slack LP's optimal vertices, so a solver change
that moves a witness shows up here.  The files are a fixed reference:
rewrite them only with a documented change of output.
"""

from pathlib import Path

import pytest

from orbitchar.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    (["regions", "--type", "A3"], "regions_A3.json", None),
    (["regions", "--type", "A3", "--level", "3/2"], "regions_A3_level3-2.json", None),
    (["regions", "--type", "B3"], "regions_B3.json", None),
    (
        ["regions", "--type", "G2", "--module", "little-adjoint"],
        "regions_G2_little-adjoint.json",
        "regions_G2_little-adjoint.svg",
    ),
    (
        ["regions", "--module", "example-2x3"],
        "regions_example-2x3.json",
        "regions_example-2x3.svg",
    ),
    (
        ["characteristic", "--module", "example-2x3", "--orbit", "O5"],
        "characteristic_example-2x3_O5.json",
        "characteristic_example-2x3_O5.svg",
    ),
    (["plot", "--module", "example-2x3"], "plot_example-2x3.svg", None),
    (["plot", "--type", "B2", "--module", "little-adjoint"], "plot_B2_little-adjoint.svg", None),
    (
        ["characteristic", "--type", "A3", "--orbit", "2,2"],
        "characteristic_A3_2-2_nonempty.json",
        None,
    ),
    (
        ["characteristic", "--type", "A3", "--orbit", "2,2", "--mode", "dense"],
        "characteristic_A3_2-2_dense.json",
        None,
    ),
]


@pytest.mark.parametrize("argv, out, svg", CASES, ids=[c[1] for c in CASES])
def test_outputs_match_recorded_bytes(tmp_path, argv, out, svg):
    extra = ["--out", str(tmp_path / out)]
    if svg:
        extra += ["--svg", str(tmp_path / svg)]
    assert main(argv + extra) == 0
    for name in filter(None, (out, svg)):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
