"""CLI outputs compared byte for byte with the files recorded in tests/data.

Region witnesses are the phase-1 vertices of the homogenized strict
systems, read back as points, so a solver change that moves a witness
shows up here.  The files are a fixed reference:
rewrite them only with a documented change of output.
"""

from pathlib import Path

import pytest

from orbitchar import jsonio
from orbitchar.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    (["regions", "--type", "A3"], "regions_A3.json", None),
    (["regions", "--type", "A3", "--level", "3/2"], "regions_A3_level3-2.json", None),
    (["regions", "--type", "B3"], "regions_B3.json", None),
    (
        ["regions", "--type", "F4", "--module", "little-adjoint"],
        "regions_F4_little-adjoint.json",
        None,
    ),
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


JSON_CASES = [case for case in CASES if case[1].endswith(".json")]


def _recorded(items, into):
    for item in items:
        into.append(item)
        yield item


@pytest.mark.parametrize("argv, out, svg", JSON_CASES, ids=[c[1] for c in JSON_CASES])
def test_the_streamed_file_is_the_dumped_text(tmp_path, monkeypatch, argv, out, svg):
    # the command streams its document with write_doc; dump_doc of the same
    # objects, shared rows and weights included, gives the same bytes; a
    # regions document's regions are recorded as they stream
    docs, write_doc = [], jsonio.write_doc

    def recording(doc, stream):
        docs.append(dict(doc))
        if "regions" in doc:
            docs[-1]["regions"] = []
            doc = {**doc, "regions": _recorded(doc["regions"], docs[-1]["regions"])}
        write_doc(doc, stream)

    monkeypatch.setattr(jsonio, "write_doc", recording)
    assert main(argv + ["--out", str(tmp_path / out)]) == 0
    monkeypatch.undo()
    [doc] = docs
    assert (tmp_path / out).read_bytes() == jsonio.dump_doc(doc).encode()
