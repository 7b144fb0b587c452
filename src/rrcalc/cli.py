"""Command-line front end.

One subcommand per computation, flags only (no config files), and a
single CommandResult on standard output as either a table or JSON.
Output is byte-identical across runs: keys are sorted, rationals are
printed as p/q strings, ring elements in canonical term order, and
nothing records time.  Exit codes: 0 success, 1 a verification ran and
failed, 2 usage error (including an input above its documented bound),
3 an internal invariant of the library broke (SpecMismatch,
InsufficientOrder, OutOfBounds, NonNilpotentArgument, NotReversible):
a fault in rrcalc, not in the arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import acceptance
from .applications import (
    AbstractCurve,
    AbstractSurface,
    CurveBundle,
    FormSingularityData,
    GRRMismatch,
    NonIntegerChi,
    SIGN_NOTE,
    SurfaceBundle,
    canonical_degree_hypersurface,
    chi_curve,
    chi_surface,
    euler_characteristic_pn,
    hypersurface_grr_identity,
    structure_sheaf_chern,
    verify_grr,
    zeuthen_segre,
)
from .bundles import character_rows
from .rings import (
    RATIONALS,
    InsufficientOrder,
    NonNilpotentArgument,
    OutOfBounds,
    RingSpec,
    SpecMismatch,
)
from .series import NotReversible, TruncatedSeries, exp_deficit_series, todd_series
from .theories import (
    CHOW,
    K_THEORY,
    SolverInconsistent,
    diagonal_class,
    k_line_class,
    linear_immersion,
    metric_check,
    point_projection,
    twist_theory,
)

# Highest `verify twist-law --order`: about 6 s on a 2.1 GHz Xeon, and the
# cost grows roughly like order^4 beyond it.
MAX_TWIST_LAW_ORDER = 28
# Highest `ch --order`: about 4 s with as many symbols as the order (34: 6 s).
MAX_CH_ORDER = 32
# Highest `todd --order`: about 3 s; 600 takes 5 s and 1000 about 30 s.
MAX_TODD_ORDER = 500

# Library invariant checks; reaching one from the CLI is a bug (exit 3).
_INTERNAL_FAULTS = (
    InsufficientOrder,
    NonNilpotentArgument,
    NotReversible,
    OutOfBounds,
    SpecMismatch,
)


@dataclass(frozen=True)
class CommandResult:
    """What every subcommand emits: inputs, outputs, and a tri-state verdict.

    `passed` is None when the command computes rather than verifies.
    """

    command: str
    inputs: dict
    outputs: dict
    passed: bool | None


def _plain(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    return str(value)


def _text(value) -> str:
    plain = _plain(value)
    if isinstance(plain, bool):
        return "yes" if plain else "no"
    return str(plain)


def _table_lines(prefix: str, value) -> list[str]:
    plain = _plain(value)
    if isinstance(plain, dict):
        lines = []
        for key in sorted(plain):
            lines += _table_lines(f"{prefix}[{key}]", plain[key])
        return lines
    if isinstance(plain, list):
        if all(isinstance(v, (int, str)) and not isinstance(v, bool) for v in plain):
            joined = ", ".join(str(v) for v in plain)
            return [f"{prefix} = {joined}"]
        lines = []
        for i, v in enumerate(plain):
            lines += _table_lines(f"{prefix}[{i}]", v)
        return lines
    return [f"{prefix} = {_text(plain)}"]


def _render(result: CommandResult, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "command": result.command,
            "inputs": _plain(result.inputs),
            "outputs": _plain(result.outputs),
            "pass": result.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2)
    lines = [f"command: {result.command}"]
    for key in sorted(result.inputs):
        lines.append(f"input {key} = {_text(result.inputs[key])}")
    if result.command == "suite":
        for entry in result.outputs["criteria"]:
            flag = "pass" if entry["passed"] else "FAIL"
            lines.append(
                f"criterion {entry['number']:>2} {entry['name']:<20} {flag}  "
                f"{entry['detail']}"
            )
    else:
        for key in sorted(result.outputs):
            lines += _table_lines(f"output {key}", result.outputs[key])
    verdict = "n/a" if result.passed is None else ("yes" if result.passed else "no")
    lines.append(f"pass: {verdict}")
    return "\n".join(lines)


def _check_order(order: int, bound: int):
    if not 0 <= order <= bound:
        raise ValueError(f"--order must be in 0..{bound}, got {order}")


def _cmd_todd(args) -> CommandResult:
    _check_order(args.order, MAX_TODD_ORDER)
    series = todd_series(args.order)
    return CommandResult(
        "todd",
        {"order": args.order},
        {"coefficients": list(series.coefficients)},
        None,
    )


def _cmd_ch(args) -> CommandResult:
    names = tuple(s.strip() for s in args.chern.split(",") if s.strip())
    if not names:
        raise ValueError("--chern needs at least one symbol name")
    for name in names:
        if not name.isidentifier():
            raise ValueError(f"{name!r} is not a usable symbol name")
    _check_order(args.order, MAX_CH_ORDER)
    rows = character_rows(args.rank, names, args.order)
    return CommandResult(
        "ch",
        {"chern": ",".join(names), "order": args.order, "rank": args.rank},
        {"rows": [str(row) for row in rows]},
        None,
    )


def _cmd_chi_pn(args) -> CommandResult:
    chi = euler_characteristic_pn(args.dim, args.twist)
    return CommandResult(
        "chi pn",
        {"dim": args.dim, "twist": args.twist},
        {"chi": chi},
        True,
    )


def _cmd_chi_curve(args) -> CommandResult:
    chi = chi_curve(AbstractCurve(args.genus), CurveBundle(args.rank, args.deg))
    return CommandResult(
        "chi curve",
        {"deg": args.deg, "genus": args.genus, "rank": args.rank},
        {"chi": chi},
        True,
    )


def _cmd_chi_surface(args) -> CommandResult:
    surface = AbstractSurface(args.k2, args.chitop)
    bundle = SurfaceBundle(args.rank, args.c1k, args.c1sq, args.c2)
    chi = chi_surface(surface, bundle)
    return CommandResult(
        "chi surface",
        {
            "c1k": args.c1k,
            "c1sq": args.c1sq,
            "c2": args.c2,
            "chitop": args.chitop,
            "k2": args.k2,
            "rank": args.rank,
        },
        {"chi": chi},
        True,
    )


def _cmd_verify_grr(args) -> CommandResult:
    inputs = {"dim": args.dim, "twist": args.twist}
    if args.immersion is None:
        f = point_projection(K_THEORY, args.dim)
        source_dim = args.dim
    else:
        inputs["immersion"] = args.immersion
        f = linear_immersion(K_THEORY, args.immersion, args.dim)
        source_dim = args.immersion
    residual = verify_grr(source_dim, f, k_line_class(source_dim, args.twist))
    return CommandResult(
        "verify grr",
        inputs,
        {"residual": str(residual), "zero": residual.is_zero()},
        residual.is_zero(),
    )


def _cmd_verify_twist_law(args) -> CommandResult:
    order = args.order
    if order < 1:
        raise ValueError("--order must be >= 1 for a group law to check")
    if order > MAX_TWIST_LAW_ORDER:
        raise ValueError(
            f"--order must be <= {MAX_TWIST_LAW_ORDER} to keep the check to seconds"
        )
    twisted = twist_theory(CHOW, exp_deficit_series(2 * order + 2))
    law = twisted.group_law(order)
    spec = RingSpec(("u", "v"), (order, order), RATIONALS)
    expected = spec.generator(0) + spec.generator(1) - spec.generator(0) * spec.generator(1)
    return CommandResult(
        "verify twist-law",
        {"order": order},
        {"expected": str(expected), "law": str(law)},
        law == expected,
    )


def _cmd_diagonal(args) -> CommandResult:
    theory = CHOW if args.theory == "chow" else K_THEORY
    delta = diagonal_class(theory, args.dim)
    report = metric_check(theory, args.dim)
    coefficients = {f"({r},{s})": c for (r, s), c in delta.terms.items()}
    return CommandResult(
        "diagonal",
        {"dim": args.dim, "theory": args.theory},
        {
            "coefficients": coefficients,
            "determinant": report.determinant,
            "unit": report.unit,
        },
        report.unit,
    )


def _cmd_adjunction(args) -> CommandResult:
    degree = canonical_degree_hypersurface(args.dim, args.deg)
    residual = hypersurface_grr_identity(args.dim, args.deg)
    outputs = {
        "canonical_degree": degree,
        "identity_residual": str(residual),
        "zero": residual.is_zero(),
    }
    if args.dim == 2:
        outputs["genus"] = degree // 2 + 1
    return CommandResult(
        "adjunction",
        {"deg": args.deg, "dim": args.dim},
        outputs,
        residual.is_zero(),
    )


def _cmd_sheaf_chern(args) -> CommandResult:
    d = args.codim
    multiples = structure_sheaf_chern(d)
    expected_top = (-1) ** (d - 1) * factorial(d - 1)
    ok = all(m == 0 for m in multiples[: d - 1]) and multiples[d - 1] == expected_top
    return CommandResult(
        "sheaf-chern",
        {"codim": d},
        {"multiples_of_Y": multiples, "note": SIGN_NOTE},
        ok,
    )


def _cmd_zeuthen(args) -> CommandResult:
    value = zeuthen_segre(FormSingularityData(args.dk, args.d2, args.lengths))
    return CommandResult(
        "zeuthen",
        {"d2": args.d2, "dk": args.dk, "lengths": args.lengths},
        {"c2_degree": value},
        None,
    )


def _cmd_suite(args) -> CommandResult:
    results = acceptance.run_all()
    criteria = [
        {
            "detail": r.detail,
            "name": r.name,
            "number": r.number,
            "passed": r.passed,
        }
        for r in results
    ]
    return CommandResult(
        "suite",
        {},
        {"criteria": criteria},
        all(r.passed for r in results),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrcalc",
        description="Exact characteristic-class and Riemann-Roch calculator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    todd = sub.add_parser("todd", parents=[common], help="Todd series coefficients")
    todd.add_argument("--order", type=int, default=4, help=f"order, 0..{MAX_TODD_ORDER}")
    todd.set_defaults(handler=_cmd_todd)

    ch = sub.add_parser(
        "ch", parents=[common], help="Chern character in abstract symbols"
    )
    ch.add_argument("--rank", type=int, default=0)
    ch.add_argument("--chern", default="c1,c2,c3", help="comma-separated symbol names")
    ch.add_argument("--order", type=int, default=3, help=f"top weight, 0..{MAX_CH_ORDER}")
    ch.set_defaults(handler=_cmd_ch)

    chi = sub.add_parser("chi", help="Euler characteristics")
    chi_sub = chi.add_subparsers(dest="target", required=True)
    chi_pn = chi_sub.add_parser("pn", parents=[common], help="chi(P^n, O(d)) both ways")
    chi_pn.add_argument("--dim", type=int, required=True)
    chi_pn.add_argument("--twist", type=int, default=0)
    chi_pn.set_defaults(handler=_cmd_chi_pn)
    chi_curve_p = chi_sub.add_parser("curve", parents=[common])
    chi_curve_p.add_argument("--genus", type=int, default=0)
    chi_curve_p.add_argument("--rank", type=int, default=1)
    chi_curve_p.add_argument("--deg", type=int, default=0)
    chi_curve_p.set_defaults(handler=_cmd_chi_curve)
    chi_surface_p = chi_sub.add_parser("surface", parents=[common])
    chi_surface_p.add_argument("--k2", type=int, default=0)
    chi_surface_p.add_argument("--chitop", type=int, default=0)
    chi_surface_p.add_argument("--rank", type=int, default=1)
    chi_surface_p.add_argument("--c1k", type=int, default=0)
    chi_surface_p.add_argument("--c1sq", type=int, default=0)
    chi_surface_p.add_argument("--c2", type=int, default=0)
    chi_surface_p.set_defaults(handler=_cmd_chi_surface)

    verify = sub.add_parser("verify", help="direct-image identities")
    verify_sub = verify.add_subparsers(dest="target", required=True)
    grr = verify_sub.add_parser("grr", parents=[common], help="residual report")
    grr.add_argument("--dim", type=int, required=True)
    grr.add_argument("--immersion", type=int, default=None, metavar="M")
    grr.add_argument("--twist", type=int, default=0)
    grr.set_defaults(handler=_cmd_verify_grr)
    twist_law = verify_sub.add_parser("twist-law", parents=[common])
    twist_law.add_argument(
        "--order",
        type=int,
        default=8,
        help=f"truncation order, 1..{MAX_TWIST_LAW_ORDER} (default 8)",
    )
    twist_law.set_defaults(handler=_cmd_verify_twist_law)

    diagonal = sub.add_parser("diagonal", parents=[common], help="diagonal class")
    diagonal.add_argument("--dim", type=int, required=True)
    diagonal.add_argument("--theory", choices=("chow", "k"), default="chow")
    diagonal.set_defaults(handler=_cmd_diagonal)

    adjunction = sub.add_parser("adjunction", parents=[common])
    adjunction.add_argument("--dim", type=int, default=2)
    adjunction.add_argument("--deg", type=int, required=True)
    adjunction.set_defaults(handler=_cmd_adjunction)

    sheaf = sub.add_parser("sheaf-chern", parents=[common])
    sheaf.add_argument("--codim", type=int, required=True)
    sheaf.set_defaults(handler=_cmd_sheaf_chern)

    zeuthen = sub.add_parser("zeuthen", parents=[common])
    zeuthen.add_argument("--dk", type=int, default=0)
    zeuthen.add_argument("--d2", type=int, default=0)
    zeuthen.add_argument("--lengths", type=int, default=0)
    zeuthen.set_defaults(handler=_cmd_zeuthen)

    suite = sub.add_parser("suite", parents=[common], help="run all acceptance checks")
    suite.set_defaults(handler=_cmd_suite)

    return parser


# Parsed attributes that select or format a command rather than feed it.
_NOT_INPUTS = ("command", "target", "format", "handler")


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    command = " ".join(filter(None, (args.command, getattr(args, "target", None))))
    try:
        result = args.handler(args)
    except (GRRMismatch, NonIntegerChi, SolverInconsistent) as failure:
        # Rebuild what the handler would have reported: full subcommand, inputs.
        inputs = {
            key: value
            for key, value in vars(args).items()
            if key not in _NOT_INPUTS and value is not None
        }
        result = CommandResult(command, inputs, {"error": str(failure)}, False)
    except _INTERNAL_FAULTS as fault:
        print(
            f"error: internal fault in {command}: {type(fault).__name__}: {fault}",
            file=sys.stderr,
        )
        return 3
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    print(_render(result, args.format))
    return 0 if result.passed is not False else 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
