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
from dataclasses import dataclass
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
    check_partition,
)
from .verify import SUITE_ORDER, run_suites

Q = Fraction

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENSE_UNDEFINED = 2

_SERIES = set("ABCDEFG")


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_factors(type_str: str | None, rank: int | None):
    """Root-system factors from --type (and --rank for a bare series letter).

    Accepts compact products like "A1xA1" or "A2 x B2", or a bare letter
    with --rank.
    """
    if type_str is None:
        raise CliError("--type is required for this configuration")
    text = type_str.replace(" ", "")
    if text.upper() in _SERIES:
        if rank is None:
            raise CliError(f"--type {type_str} needs --rank")
        return [(text.upper(), rank)]
    if rank is not None:
        raise CliError("--rank only applies to a bare series letter like --type A")
    factors = []
    for piece in text.replace("X", "x").split("x"):
        if len(piece) < 2 or piece[0].upper() not in _SERIES:
            raise CliError(f"cannot parse root-system factor {piece!r}")
        try:
            factors.append((piece[0].upper(), int(piece[1:])))
        except ValueError:
            raise CliError(f"cannot parse root-system factor {piece!r}") from None
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


def parse_weight_list(text: str, rank: int):
    """Explicit module weights "1,1;1,0" (semicolon-separated summands)."""
    weights = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != rank:
            raise CliError(
                f"weight {chunk!r} has {len(parts)} entries, expected {rank}"
            )
        try:
            weights.append(tuple(int(p) for p in parts))
        except ValueError:
            raise CliError(f"cannot parse weight {chunk!r}") from None
    return tuple(weights)


@dataclass
class RunConfig:
    """Resolved run configuration shared by the subcommands."""

    factors: list
    module: str
    level: Q
    scales: tuple | None


def _resolve_config(args) -> RunConfig:
    module = args.module
    if module == "example-2x3":
        factors = parse_factors(args.type or "A1xA1", args.rank)
        if factors != [("A", 1), ("A", 1)]:
            raise CliError("the example-2x3 module lives on type A1xA1")
    else:
        factors = parse_factors(args.type, args.rank)
    return RunConfig(
        factors=factors,
        module=module,
        level=parse_rational(args.level, "--level"),
        scales=parse_scales(args.scales),
    )


def _module_spec(cfg: RunConfig, rs):
    if cfg.module == "adjoint":
        return highest_roots(rs)
    if cfg.module == "little-adjoint":
        return (highest_short_root(rs),)
    if cfg.module == "example-2x3":
        return ((1, 1), (1, 0))
    return parse_weight_list(cfg.module, rs.rank)


def _resolve_model(cfg: RunConfig) -> Module:
    """Orbit model for the configuration, or the plain module when no model applies."""
    if cfg.module == "example-2x3":
        return Example2x3Model()
    if cfg.module == "adjoint" and len(cfg.factors) == 1 and cfg.factors[0][0] == "A":
        return AdjointSlModel(cfg.factors[0][1] + 1)
    rs = build_root_system(cfg.factors)
    return Module(rs, _module_spec(cfg, rs))


def parse_orbit(model, text: str):
    if isinstance(model, Example2x3Model):
        name = text.strip().upper().replace("_", "")
        if name in ("0", "ZERO"):
            return "0"
        if name in ("O2", "O3", "O4", "O5"):
            return name
        raise CliError(f"unknown orbit {text!r}; expected 0 or O2..O5")
    try:
        parts = tuple(
            int(p) for p in text.replace("+", ",").split(",") if p.strip()
        )
        return check_partition(tuple(sorted(parts, reverse=True)), model.n)
    except ValueError as e:
        raise CliError(str(e)) from None


def _arrangement_parts(cfg: RunConfig) -> RegionAnalysis:
    # perfbench pins this builder: a plant at cli.enumerate_regions, spans on vars(cli).
    rs = build_root_system(cfg.factors)
    ws = weight_system(rs, _module_spec(cfg, rs))
    form = invariant_form(rs, cfg.scales)
    hps = chamber_hyperplanes(ws, cfg.level)
    regions = enumerate_regions(rs, hps)
    subs = {r.id: region_weights(ws, hps, r) for r in regions}
    return RegionAnalysis(
        Module(rs, ws.module_spec), ws, form, cfg.level, hps, regions, subs, strata=None
    )


def _figure(cfg: RunConfig, analysis: RegionAnalysis, marks) -> str:
    labels = None
    if cfg.module == "example-2x3":
        labels = Example2x3Model().region_labels(analysis.subspaces.values())
    return svg.render_arrangement(
        analysis.model.root_system,
        analysis.form,
        analysis.hyperplanes,
        analysis.regions,
        region_labels=labels,
        marks=marks,
    )


def _require_rank_2(cfg: RunConfig, what: str):
    """Reject a figure request before any work when the rank is not 2."""
    if sum(n for _, n in cfg.factors) != 2:
        raise CliError(f"{what} requires a rank-2 root system")


def _write(path: str, text: str, what: str):
    Path(path).write_text(text)
    print(f"wrote {what} to {path}")


def cmd_regions(args) -> int:
    cfg = _resolve_config(args)
    if args.svg:
        _require_rank_2(cfg, "--svg")
    analysis = _arrangement_parts(cfg)
    hps, regions = analysis.hyperplanes, analysis.regions
    doc = jsonio.regions_doc(analysis)
    out = args.out or "regions.json"
    _write(out, jsonio.dump_doc(doc), f"{len(hps)} hyperplanes / {len(regions)} regions")
    if args.svg:
        _write(args.svg, _figure(cfg, analysis, ()), "arrangement figure")
    return EXIT_OK


def cmd_characteristic(args) -> int:
    cfg = _resolve_config(args)
    if args.svg:
        _require_rank_2(cfg, "--svg")
    model = _resolve_model(cfg)
    if not isinstance(model, OrbitModel):
        raise CliError(
            "no orbit model for this configuration; supported models: "
            "--module adjoint with --type A<n> (sl_{n+1}), or --module example-2x3"
        )
    orbit = parse_orbit(model, args.orbit)
    analysis = RegionAnalysis.build(model, cfg.level, cfg.scales)
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
    _write(out, jsonio.dump_doc(doc), f"characteristic with labels ({labels})")
    if args.svg:
        marks = [(ch.point, model.descriptor(orbit))]
        _write(args.svg, _figure(cfg, analysis, marks), "arrangement figure")
    return EXIT_OK


def cmd_plot(args) -> int:
    cfg = _resolve_config(args)
    _require_rank_2(cfg, "plot")
    model = _resolve_model(cfg)
    analysis = RegionAnalysis.build(model, cfg.level, cfg.scales)
    by_point = {}
    if isinstance(model, OrbitModel):
        for orbit in model.orbit_ids():
            if orbit == model.zero_orbit:
                continue
            ch = characteristic(analysis, orbit, mode=args.mode)
            if ch is None:
                continue
            caption = orbit if isinstance(orbit, str) else model.descriptor(orbit)
            by_point.setdefault(ch.point, []).append(caption)
    marks = [(point, "=".join(names)) for point, names in sorted(by_point.items())]
    what = f"figure with {len(analysis.hyperplanes)} hyperplanes and {len(marks)} markers"
    _write(args.out or "figure.svg", _figure(cfg, analysis, marks), what)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n < 2:
        raise CliError(f"--n {args.n}: the largest sl_n must be at least 2")
    if args.points < 1:
        raise CliError(f"--points {args.points}: the sample count must be at least 1")
    names = args.suite or ["all"]
    if "all" in names:
        names = SUITE_ORDER
    if "minnorm" in names:
        # the float reference of the minnorm battery is an optional extra
        try:
            import numpy  # noqa: F401
            import scipy.optimize  # noqa: F401
        except ImportError as e:
            missing = (e.name or "numpy or scipy").partition(".")[0]
            raise CliError(
                f"the minnorm suite needs {missing}, which is not installed; "
                "install it with: pip install -e .[verify]"
            ) from None
    rows = run_suites(names, max_n=args.n, points=args.points)
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
        p.add_argument("--type", help="root system, e.g. A2, B2, A1xA1, or a bare letter with --rank")
        p.add_argument("--rank", type=int, help="rank for a bare series letter")
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
        choices=SUITE_ORDER + ["all"],
        help="battery to run (repeatable; default all)",
    )
    p_verify.add_argument("--n", type=int, default=5, help="largest sl_n for dynkin/theorem")
    p_verify.add_argument(
        "--points", type=int, default=10000, help="sample count for the sampling battery"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


# One parser per process: each build leaves about 50 KB in reference cycles
# that only a full gc pass frees, and main() may run many times in-process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
