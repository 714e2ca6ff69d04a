"""Command-line front end: batch queries against catalog or spec-file surfaces.

Subcommands: cohomology, transform, catalog, oracle-check, scan. Class
vectors are entered in the surface's documented basis order (printed by
the catalog command); output is plain text or JSON.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from . import __version__
from .catalog import catalog_surface, load_surface, read_spec
from .cohomology import cohomology
from .errors import (
    ConsistencyError,
    IntegralityError,
    NotEffectiveError,
    RankMismatchError,
    SpecValidationError,
    UnknownSurfaceError,
)
from .lattice import DivisorClass, SurfaceModel
from .toric import ORACLE_NAMES, oracle_h0, toric_model
# is_effective and iterate_to_nef stay bound here: perfbench/tracer.py patches both in this module.
from .transform import is_effective, iterate_to_nef  # noqa: F401

_USAGE_ERROR = 2


class CliError(Exception):
    """User-facing failure; message printed to stderr, nonzero exit."""

    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _resolve_surface(arg: str) -> SurfaceModel:
    path = Path(arg)
    if path.suffix == ".json" or path.exists():
        if not path.exists():
            raise CliError(f"spec file {arg!r} does not exist")
        return load_surface(read_spec(path))
    return catalog_surface(arg)


def _parse_class(text: str, surface: SurfaceModel) -> DivisorClass:
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(
            f"--class expects comma-separated integers, got {text!r}", _USAGE_ERROR
        ) from None
    if len(coeffs) != surface.rank:
        basis = ", ".join(surface.basis_labels)
        raise CliError(
            f"class has {len(coeffs)} coefficients but surface "
            f"{surface.name!r} has rank {surface.rank} (basis: {basis})",
            _USAGE_ERROR,
        )
    return DivisorClass(coeffs)


def _parse_box(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise CliError(
            f"--box expects the form lo..hi, e.g. -6..6, got {text!r}", _USAGE_ERROR
        ) from None
    if lo > hi:
        raise CliError(f"empty box {text!r}", _USAGE_ERROR)
    return lo, hi


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        import json  # here, not at module level: text output never needs it

        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_cohomology(args: argparse.Namespace) -> int:
    surface = _resolve_surface(args.surface)
    d = _parse_class(args.class_vector, surface)
    result = cohomology(surface, d)
    lines = [result.summary_line(), f"detail: {result.certificate.detail}"]
    if result.trace is not None and result.trace.step_count:
        lines.append(f"input: {list(result.trace.input)}")
        lines.extend(result.trace.format_steps())
        lines.append(f"limit: {list(result.trace.limit)}")
    _emit(result.to_json(), lines, args.format)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    surface = _resolve_surface(args.surface)
    d = _parse_class(args.class_vector, surface)
    trace = iterate_to_nef(surface, d)
    lines = [f"input: {list(trace.input)}"]
    lines.extend(trace.format_steps())
    lines.append(f"limit: {list(trace.limit)}")
    lines.append(f"steps: {trace.step_count}")
    _emit(trace.to_json(), lines, args.format)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    surface = _resolve_surface(args.surface)
    payload = {
        "name": surface.name,
        "rank": surface.rank,
        "regime": surface.regime.value,
        "basis": list(surface.basis_labels),
        "intersection_matrix": [list(row) for row in surface.form.matrix],
        "canonical_class": list(surface.canonical_class),
        "chi_structure_sheaf": surface.chi_structure_sheaf,
        "negative_curve_count": len(surface.negative_curves),
        "negative_curves": [list(c) for c in surface.negative_curves],
        "mori_generators": [list(c) for c in surface.mori_generators],
        "effective_generators": [list(c) for c in surface.effective_generators],
    }
    lines = [
        f"surface: {surface.name} (rank {surface.rank}, regime {surface.regime.value})",
        f"basis: {', '.join(surface.basis_labels)}",
        f"canonical class: {list(surface.canonical_class)}",
        f"chi(O): {surface.chi_structure_sheaf}",
        f"negative curves ({len(surface.negative_curves)}):",
    ]
    lines.extend(f"  {list(c)}" for c in surface.negative_curves)
    lines.append(f"mori generators ({len(surface.mori_generators)}):")
    lines.extend(f"  {list(c)}" for c in surface.mori_generators)
    lines.append(f"effective generators ({len(surface.effective_generators)}):")
    lines.extend(f"  {list(c)}" for c in surface.effective_generators)
    _emit(payload, lines, args.format)
    return 0


def _oracle_for(args: argparse.Namespace, surface: SurfaceModel):
    name = args.oracle if args.oracle else surface.name
    try:
        toric, _ = toric_model(name)
    except UnknownSurfaceError:
        raise CliError(
            f"no lattice-point oracle for surface {name!r}; available: "
            f"{', '.join(ORACLE_NAMES)} (use --oracle to name one explicitly)",
            _USAGE_ERROR,
        ) from None
    return toric


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    surface = _resolve_surface(args.surface)
    d = _parse_class(args.class_vector, surface)
    toric = _oracle_for(args, surface)
    pipeline = cohomology(surface, d).h0
    oracle = oracle_h0(toric, d)
    match = pipeline == oracle
    payload = {
        "class": list(d),
        "pipeline_h0": pipeline,
        "oracle_h0": oracle,
        "match": match,
    }
    lines = [
        f"class: {list(d)}",
        f"pipeline h0: {'unknown' if pipeline is None else pipeline}",
        f"oracle h0: {oracle}",
        f"match: {'true' if match else 'false'}",
    ]
    _emit(payload, lines, args.format)
    return 0 if match else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    surface = _resolve_surface(args.surface)
    toric = _oracle_for(args, surface)
    lo, hi = _parse_box(args.box)
    total = effective = 0
    mismatches: list[dict] = []
    for coeffs in itertools.product(range(lo, hi + 1), repeat=surface.rank):
        d = DivisorClass(coeffs)
        total += 1
        result = cohomology(surface, d)
        # The h0 branch sets a trace exactly when the class has a section;
        # a class of the effective cone without one counts as not effective.
        if result.trace is not None:
            effective += 1
        pipeline = result.h0
        oracle = oracle_h0(toric, d)
        if pipeline != oracle:
            mismatches.append(
                {"class": list(coeffs), "pipeline": pipeline, "oracle": oracle}
            )
    payload = {
        "surface": surface.name,
        "oracle": toric.name,
        "box": [lo, hi],
        "classes": total,
        "effective": effective,
        "mismatches": len(mismatches),
        "mismatch_details": mismatches,
    }
    lines = [
        f"surface: {surface.name}  oracle: {toric.name}  box: {lo}..{hi}",
        f"classes: {total}",
        f"effective: {effective}",
    ]
    lines.extend(
        f"mismatch at {m['class']}: pipeline {m['pipeline']} oracle {m['oracle']}"
        for m in mismatches
    )
    lines.append(f"mismatches: {len(mismatches)}")
    _emit(payload, lines, args.format)
    return 0 if not mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfcoh",
        description=(
            "Exact line bundle cohomology on projective surfaces: transform "
            "effective classes to the nef cone and evaluate the topological "
            "index under vanishing certificates."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_class: bool) -> None:
        p.add_argument(
            "--surface",
            required=True,
            help="catalog name (dp0..dp8, fN, gdp2) or path to a surface spec JSON file",
        )
        if with_class:
            p.add_argument(
                "--class",
                dest="class_vector",
                required=True,
                help="comma-separated integer coefficients in the surface basis",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cohomology", help="h0/h1/h2/chi with certificate and trace")
    add_common(p, with_class=True)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("transform", help="iterate the transform to its nef limit")
    add_common(p, with_class=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("catalog", help="print surface data: basis, curves, cones")
    add_common(p, with_class=False)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("oracle-check", help="compare pipeline h0 with the lattice-point oracle")
    add_common(p, with_class=True)
    p.add_argument("--oracle", help="toric model name when the surface is a spec file")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("scan", help="sweep a coefficient box, comparing pipeline and oracle")
    add_common(p, with_class=False)
    p.add_argument("--box", required=True, help="coefficient range lo..hi, e.g. -6..6")
    p.add_argument("--oracle", help="toric model name when the surface is a spec file")
    p.set_defaults(func=_cmd_scan)
    return parser


def _absorb_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like -6..6 or -2,1 for option names; fold them
    # into --flag=value form so they parse as intended.
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("--box", "--class") and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_absorb_negative_values(list(argv)))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (
        SpecValidationError,
        UnknownSurfaceError,
        RankMismatchError,
        NotEffectiveError,
        IntegralityError,
        ConsistencyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # A spec file that is not JSON; json is loaded already if one was read.
        import json

        if not isinstance(exc, json.JSONDecodeError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
