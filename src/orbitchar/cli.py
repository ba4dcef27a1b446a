"""Command-line interface.

Subcommands:

* regions         -- enumerate the arrangement, write regions.json
                     (optionally an SVG figure for rank-2 systems)
* characteristic  -- compute one orbit's characteristic, write
                     characteristics.json
* verify          -- run the verification batteries and print a table
* plot            -- render a rank-2 arrangement figure with region labels
                     and characteristic markers

Exit codes: 0 success; 1 error; 2 characteristic undefined in dense mode.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import jsonio, svg
from .arrangement import chamber_hyperplanes, enumerate_regions, region_weights
from .liecore import (
    build_root_system,
    highest_roots,
    highest_short_root,
    invariant_form,
    weight_system,
)
from .orbits import (
    AdjointSlModel,
    Example2x3Model,
    Module,
    OrbitModel,
    RegionAnalysis,
    characteristic,
)

Q = Fraction

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENSE_UNDEFINED = 2


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_factors(type_str: str):
    """Root-system factors from --type: one factor like "A3" or a product
    like "A1xA1" or "A2 x B2".  build_root_system decides which exist."""
    factors = []
    for piece in type_str.replace(" ", "").replace("X", "x").split("x"):
        rank = piece[1:]
        if not (rank.isascii() and rank.isdigit()):
            raise CliError(f"cannot parse root-system factor {piece!r}")
        factors.append((piece[0].upper(), int(rank)))
    return factors


def parse_rational(text: str, what: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse {what} {text!r} as a rational") from None


def parse_scales(text: str | None):
    if text is None:
        return None
    return tuple(parse_rational(p, "--scales entry") for p in text.split(","))


def parse_weight_list(text: str):
    """Explicit module weights "1,1;1,0" (semicolon-separated summands);
    weight_system checks them against the root system."""
    weights = []
    for chunk in text.split(";"):
        try:
            weights.append(tuple(int(p) for p in chunk.split(",")))
        except ValueError:
            raise CliError(f"cannot parse weight {chunk!r}") from None
    return tuple(weights)


def _resolve(args):
    """A request's (model, level, scales), its module resolved once.

    example-2x3 and the adjoint module of one A_n give their orbit models;
    every other module is a plain Module.
    """
    example = args.module == "example-2x3"
    if args.type is None and not example:
        raise CliError("--type is required for this configuration")
    factors = parse_factors("A1xA1" if args.type is None else args.type)
    if example and tuple(factors) != Example2x3Model.factors:
        raise CliError("the example-2x3 module lives on type A1xA1")
    level = parse_rational(args.level, "--level")
    scales = parse_scales(args.scales)
    if example:
        return Example2x3Model(), level, scales
    if args.module == "adjoint" and len(factors) == 1 and factors[0][0] == "A":
        return AdjointSlModel(factors[0][1] + 1), level, scales
    rs = build_root_system(factors)
    if args.module == "adjoint":
        weights = highest_roots(rs)
    elif args.module == "little-adjoint":
        weights = (highest_short_root(rs),)
    else:
        weights = parse_weight_list(args.module)
    return Module(rs, weights), level, scales


def _arrangement_parts(model: Module, level: Q, scales) -> RegionAnalysis:
    # Builds what RegionAnalysis.build builds.  It stays only for perfbench,
    # which plants at cli.enumerate_regions and spans names in vars(cli)
    # (ROADMAP items 1a and 6).
    rs = model.root_system
    ws = weight_system(rs, model.module_spec)
    form = invariant_form(rs, scales)
    hps = chamber_hyperplanes(ws, level)
    return RegionAnalysis(model, ws, form, level, hps, enumerate_regions(rs, hps))


def _figure(analysis: RegionAnalysis, marks) -> str:
    model = analysis.model
    labels = None
    if isinstance(model, Example2x3Model):
        hps = analysis.hyperplanes
        labels = model.region_labels({r.id: region_weights(hps, r) for r in analysis.regions})
    return svg.render_arrangement(
        model.root_system,
        analysis.form,
        analysis.hyperplanes,
        analysis.regions,
        region_labels=labels,
        marks=marks,
    )


def _require_rank_2(model: Module, what: str):
    """Reject a figure request before any arrangement work when the rank is not 2."""
    if model.root_system.rank != 2:
        raise CliError(f"{what} requires a rank-2 root system")


def _write(path: str, text: str, what: str):
    Path(path).write_text(text)
    print(f"wrote {what} to {path}")


def _write_doc(path: str, doc, what: str):
    """Stream a JSON document to path, so no copy of its text is held."""
    with open(path, "w") as out:
        jsonio.write_doc(doc, out)
    print(f"wrote {what} to {path}")


def cmd_regions(args) -> int:
    model, level, scales = _resolve(args)
    if args.svg:
        _require_rank_2(model, "--svg")
    analysis = _arrangement_parts(model, level, scales)
    what = f"{len(analysis.hyperplanes)} hyperplanes / {len(analysis.regions)} regions"
    _write_doc(args.out or "regions.json", jsonio.regions_doc(analysis), what)
    if args.svg:
        _write(args.svg, _figure(analysis, ()), "arrangement figure")
    return EXIT_OK


def cmd_characteristic(args) -> int:
    model, level, scales = _resolve(args)
    if args.svg:
        _require_rank_2(model, "--svg")
    if not isinstance(model, OrbitModel):
        raise CliError(
            "no orbit model for this configuration; supported models: "
            "--module adjoint with --type A<n> (sl_{n+1}), or --module example-2x3"
        )
    orbit = model.parse_orbit(args.orbit)
    analysis = RegionAnalysis.build(model, level, scales)
    ch = characteristic(analysis, orbit, mode=args.mode)
    if ch is None:
        print(
            f"orbit {model.descriptor(orbit)} fills no region densely; "
            "its dense-mode characteristic is undefined",
            file=sys.stderr,
        )
        return EXIT_DENSE_UNDEFINED
    doc = jsonio.characteristics_doc(analysis, ch)
    out = args.out or "characteristics.json"
    labels = ",".join(str(v) for v in ch.labels)
    _write_doc(out, doc, f"characteristic with labels ({labels})")
    if args.svg:
        marks = [(ch.point, model.caption(orbit))]
        _write(args.svg, _figure(analysis, marks), "arrangement figure")
    return EXIT_OK


def cmd_plot(args) -> int:
    model, level, scales = _resolve(args)
    _require_rank_2(model, "plot")
    analysis = RegionAnalysis.build(model, level, scales)
    by_point = {}
    if isinstance(model, OrbitModel):
        for orbit in model.orbit_ids():
            if orbit == model.zero_orbit:
                continue
            ch = characteristic(analysis, orbit, mode=args.mode)
            if ch is None:
                continue
            by_point.setdefault(ch.point, []).append(model.caption(orbit))
    marks = [(point, "=".join(names)) for point, names in sorted(by_point.items())]
    what = f"figure with {len(analysis.hyperplanes)} hyperplanes and {len(marks)} markers"
    _write(args.out or "figure.svg", _figure(analysis, marks), what)
    return EXIT_OK


def cmd_verify(args) -> int:
    # the batteries load for this command alone
    from . import verify

    if args.n < 2:
        raise CliError(f"--n {args.n}: the largest sl_n must be at least 2")
    names = args.suite or ["all"]
    if "all" in names:
        # every battery once; an unknown name stays for run_suites to refuse
        names = [name for name in names if name not in ["all", *verify.SUITES]] + verify.SUITE_ORDER
    rows = verify.run_suites(names, max_n=args.n)
    for row in rows:
        print(row.format())
    failed = [row for row in rows if not row.ok]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return EXIT_OK if not failed else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitchar",
        description=(
            "Region-based characteristics of nilpotent orbits: cut the "
            "dominant chamber by module-weight hyperplanes, attach subspaces "
            "to regions, and compute distinguished minimal-norm points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", help="root system: one factor or a product, e.g. A3, G2, A1xB2")
        p.add_argument(
            "--module",
            default="adjoint",
            help=(
                "module preset (adjoint, little-adjoint, example-2x3) or "
                "explicit weights like '1,1;1,0'"
            ),
        )
        p.add_argument("--level", default="2", help="hyperplane level (rational, default 2)")
        p.add_argument("--scales", help="per-factor form scales, e.g. '1,3/2'")

    p_regions = sub.add_parser("regions", help="enumerate regions, write regions.json")
    common(p_regions)
    # regions reads no seed, but perfbench/workloads.py passes it --seed.
    p_regions.add_argument("--seed", type=int, default=1, help="ignored")
    p_regions.add_argument("--out", help="output path (default regions.json)")
    p_regions.add_argument("--svg", help="also render the arrangement (rank 2 only)")
    p_regions.set_defaults(func=cmd_regions)

    p_char = sub.add_parser(
        "characteristic", help="compute an orbit characteristic, write characteristics.json"
    )
    common(p_char)
    p_char.add_argument(
        "--orbit",
        required=True,
        help="orbit: a partition like '2,2' (type A) or O2..O5 / 0 (example-2x3)",
    )
    p_char.add_argument("--out", help="output path (default characteristics.json)")
    p_char.add_argument("--svg", help="also render the figure with the point marked")
    p_char.set_defaults(func=cmd_characteristic)

    p_plot = sub.add_parser("plot", help="render a rank-2 arrangement as SVG")
    common(p_plot)
    p_plot.add_argument("--out", help="output path (default figure.svg)")
    p_plot.set_defaults(func=cmd_plot)

    for p in (p_char, p_plot):
        p.add_argument(
            "--mode",
            choices=["nonempty", "dense"],
            default="nonempty",
            help="orbit membership mode for characteristics",
        )

    p_verify = sub.add_parser("verify", help="run verification batteries")
    p_verify.add_argument(
        "--suite",
        action="append",
        help=(
            "battery to run: example, dynkin, theorem, sampling, minnorm, weights, "
            "lemma, catalan or all (repeatable; default all)"
        ),
    )
    p_verify.add_argument("--n", type=int, default=5, help="largest sl_n for dynkin/theorem")
    p_verify.set_defaults(func=cmd_verify)
    return parser


# One parser per process: each build leaves about 50 KB in reference cycles
# that only a full gc pass frees, and main() may run many times in-process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (CliError, ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
