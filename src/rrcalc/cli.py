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
    SpecMismatch,
)
from .series import NotReversible, exp_deficit_series, todd_series
from .theories import (
    CHOW,
    K_THEORY,
    SolverInconsistent,
    TheoryModel,
    k_line_class,
    linear_immersion,
    metric_check,
    point_projection,
    twist_theory,
)

# Highest `verify twist-law --order`: about 0.4 s on a 2.1 GHz Xeon; 32 takes
# 0.7 s and 40 1.5 s, roughly order^4.
MAX_TWIST_LAW_ORDER = 28
# Highest `ch --order`: 1.1-2.0 s with as many symbols as the order (34: 2.1-2.8 s).
MAX_CH_ORDER = 32
# Highest `todd --order`: 0.5-0.7 s; 600 takes 1.1-1.3 s and 1000 7-11 s.
MAX_TODD_ORDER = 500
# Most `ch --chern` symbols.  Symbols past --order get no generator, so 48
# symbols cost what 32 do at `--order 32` (1.8-1.9 s).
MAX_CH_SYMBOLS = 48
# Largest |--twist| of `chi pn` and `verify grr`: adds under 0.1 s at the
# largest --dim; twists of 10^100 take 0.4 s on P^20 and 10^1000 over 90 s.
MAX_TWIST = 10**6
# Highest --dim per command, with its time at the bound and one step up, for
# one process including about 0.1 s of interpreter start and imports:
# chi pn 0.27-0.39 s (100: 0.64-0.80 s); verify grr 0.23-0.25 s with
# --immersion 59 (70: 0.32-0.37 s, 80: 0.41-0.45 s); diagonal 0.42-0.58 s
# in chow and 0.5-0.67 s in k (240: 0.64-0.68 s and 0.67-0.71 s);
# adjunction 0.23-0.29 s (100: 0.45-0.57 s).
MAX_CHI_PN_DIM = 80
MAX_GRR_DIM = 60
MAX_DIAGONAL_DIM = 200
MAX_ADJUNCTION_DIM = 80
# Highest `sheaf-chern --codim`: 0.2-0.45 s; 384 takes 0.4-0.5 s, 512 0.6-0.7 s.
MAX_SHEAF_CODIM = 256
# Largest |value| of the plain-number flags (ranks, degrees, genus,
# intersection numbers, lengths).  Their outputs are polynomials of low
# degree in them, so every printed integer stays far below the 4300 digits
# that str() of an int accepts; `adjunction --deg 1000000` at --dim 80 takes
# 0.4-0.6 s, like the smallest degree.
MAX_NUMBER = 10**6

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


def _check_bound(flag: str, value: int, low: int, high: int):
    if not low <= value <= high:
        raise ValueError(f"{flag} must be in {low}..{high}, got {value}")


def _add_bounded(parser, flag: str, low: int, high: int, label: str = "", **options):
    """Add the integer `flag` with its range low..high, which --help shows.

    The range is recorded on `parser` (its `bounds` default); `run` checks
    every recorded range, in declaration order, before the handler runs.
    """
    span = f"{low}..{high}"
    text = f"{label}, {span}" if label else span
    parser.add_argument(flag, type=int, help=text, **options)
    parser.set_defaults(bounds=parser.get_default("bounds") + ((flag, low, high),))


def _symbol_list(text: str) -> str:
    """--chern with the blanks around each name and the empty names dropped."""
    return ",".join(name.strip() for name in text.split(",") if name.strip())


# What a handler returns: the outputs and the verdict (None: nothing to verify).
# `run` adds the command name and the inputs, on success and failure alike.
Outcome = tuple[dict, bool | None]


def _cmd_todd(args) -> Outcome:
    return {"coefficients": list(todd_series(args.order).coefficients)}, None


def _cmd_ch(args) -> Outcome:
    names = tuple(filter(None, args.chern.split(",")))
    if not names:
        raise ValueError("--chern needs at least one symbol name")
    for index, name in enumerate(names):
        if not name.isidentifier():
            raise ValueError(f"{name!r} is not a usable symbol name")
        if name in names[:index]:
            raise ValueError(f"--chern names the symbol {name!r} twice")
    # The count exists only once the names are split, so `run` cannot check it.
    _check_bound("--chern symbol count", len(names), 1, MAX_CH_SYMBOLS)
    rows = character_rows(args.rank, names, args.order)
    return {"rows": [str(row) for row in rows]}, None


def _cmd_chi_pn(args) -> Outcome:
    return {"chi": euler_characteristic_pn(args.dim, args.twist)}, True


def _cmd_chi_curve(args) -> Outcome:
    chi = chi_curve(AbstractCurve(args.genus), CurveBundle(args.rank, args.deg))
    return {"chi": chi}, True


def _cmd_chi_surface(args) -> Outcome:
    surface = AbstractSurface(args.k2, args.chitop)
    bundle = SurfaceBundle(args.rank, args.c1k, args.c1sq, args.c2)
    return {"chi": chi_surface(surface, bundle)}, True


def _cmd_verify_grr(args) -> Outcome:
    if args.immersion is None:
        f = point_projection(K_THEORY, args.dim)
        source_dim = args.dim
    else:
        # Its bound is the value of --dim, so it is not a fixed range.
        _check_bound("--immersion", args.immersion, 0, args.dim)
        f = linear_immersion(K_THEORY, args.immersion, args.dim)
        source_dim = args.immersion
    residual = verify_grr(source_dim, f, k_line_class(source_dim, args.twist))
    return {"residual": str(residual), "zero": residual.is_zero()}, residual.is_zero()


def _cmd_verify_twist_law(args) -> Outcome:
    order = args.order
    # Checked here, not as a recorded range: cli_golden.json pins both messages.
    if order < 1:
        raise ValueError("--order must be >= 1 for a group law to check")
    if order > MAX_TWIST_LAW_ORDER:
        raise ValueError(
            f"--order must be <= {MAX_TWIST_LAW_ORDER} to keep the check to seconds"
        )
    twisted = twist_theory(CHOW, exp_deficit_series(2 * order + 2))
    law = twisted.group_law(order)
    expected = TheoryModel(1, RATIONALS).group_law(order)  # K's law u + v - uv
    return {"expected": str(expected), "law": str(law)}, law == expected


def _cmd_diagonal(args) -> Outcome:
    theory = CHOW if args.theory == "chow" else K_THEORY
    report = metric_check(theory, args.dim)
    coefficients = {
        f"({r},{s})": c
        for r, row in enumerate(report.matrix)
        for s, c in enumerate(row)
        if c
    }
    outputs = {
        "coefficients": coefficients,
        "determinant": report.determinant,
        "unit": report.unit,
    }
    return outputs, report.unit


def _cmd_adjunction(args) -> Outcome:
    degree = canonical_degree_hypersurface(args.dim, args.deg)
    residual = hypersurface_grr_identity(args.dim, args.deg)
    outputs = {
        "canonical_degree": degree,
        "identity_residual": str(residual),
        "zero": residual.is_zero(),
    }
    if args.dim == 2:
        outputs["genus"] = degree // 2 + 1
    return outputs, residual.is_zero()


def _cmd_sheaf_chern(args) -> Outcome:
    d = args.codim
    multiples = structure_sheaf_chern(d)
    expected_top = (-1) ** (d - 1) * factorial(d - 1)
    ok = all(m == 0 for m in multiples[: d - 1]) and multiples[d - 1] == expected_top
    return {"multiples_of_Y": multiples, "note": SIGN_NOTE}, ok


def _cmd_zeuthen(args) -> Outcome:
    value = zeuthen_segre(FormSingularityData(args.dk, args.d2, args.lengths))
    return {"c2_degree": value}, None


def _cmd_suite(args) -> Outcome:
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
    return {"criteria": criteria}, all(r.passed for r in results)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrcalc",
        description="Exact characteristic-class and Riemann-Roch calculator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    common.set_defaults(bounds=())  # each subcommand copies it, then adds its own
    sub = parser.add_subparsers(dest="command", required=True)

    todd = sub.add_parser("todd", parents=[common], help="Todd series coefficients")
    _add_bounded(todd, "--order", 0, MAX_TODD_ORDER, "order", default=4)
    todd.set_defaults(handler=_cmd_todd)

    ch = sub.add_parser(
        "ch", parents=[common], help="Chern character in abstract symbols"
    )
    _add_bounded(ch, "--rank", -MAX_NUMBER, MAX_NUMBER, default=0)
    ch.add_argument(
        "--chern",
        type=_symbol_list,
        default="c1,c2,c3",
        help=f"comma-separated symbol names, 1..{MAX_CH_SYMBOLS} of them",
    )
    _add_bounded(ch, "--order", 0, MAX_CH_ORDER, "top weight", default=3)
    ch.set_defaults(handler=_cmd_ch)

    chi = sub.add_parser("chi", help="Euler characteristics")
    chi_sub = chi.add_subparsers(dest="target", required=True)
    chi_pn = chi_sub.add_parser("pn", parents=[common], help="chi(P^n, O(d)) both ways")
    _add_bounded(chi_pn, "--dim", 0, MAX_CHI_PN_DIM, "n", required=True)
    _add_bounded(
        chi_pn, "--twist", -MAX_TWIST, MAX_TWIST, "d of the line bundle O(d)", default=0
    )
    chi_pn.set_defaults(handler=_cmd_chi_pn)
    chi_curve_p = chi_sub.add_parser("curve", parents=[common])
    _add_bounded(chi_curve_p, "--genus", 0, MAX_NUMBER, default=0)
    _add_bounded(chi_curve_p, "--rank", -MAX_NUMBER, MAX_NUMBER, default=1)
    _add_bounded(chi_curve_p, "--deg", -MAX_NUMBER, MAX_NUMBER, default=0)
    chi_curve_p.set_defaults(handler=_cmd_chi_curve)
    chi_surface_p = chi_sub.add_parser("surface", parents=[common])
    _add_bounded(chi_surface_p, "--k2", -MAX_NUMBER, MAX_NUMBER, default=0)
    _add_bounded(chi_surface_p, "--chitop", -MAX_NUMBER, MAX_NUMBER, default=0)
    _add_bounded(chi_surface_p, "--rank", -MAX_NUMBER, MAX_NUMBER, default=1)
    _add_bounded(chi_surface_p, "--c1k", -MAX_NUMBER, MAX_NUMBER, default=0)
    _add_bounded(chi_surface_p, "--c1sq", -MAX_NUMBER, MAX_NUMBER, default=0)
    _add_bounded(chi_surface_p, "--c2", -MAX_NUMBER, MAX_NUMBER, default=0)
    chi_surface_p.set_defaults(handler=_cmd_chi_surface)

    verify = sub.add_parser("verify", help="direct-image identities")
    verify_sub = verify.add_subparsers(dest="target", required=True)
    grr = verify_sub.add_parser("grr", parents=[common], help="residual report")
    _add_bounded(grr, "--dim", 0, MAX_GRR_DIM, "n", required=True)
    grr.add_argument(
        "--immersion", type=int, default=None, metavar="M", help="source P^M, 0..n"
    )
    _add_bounded(
        grr, "--twist", -MAX_TWIST, MAX_TWIST, "d of the line bundle O(d)", default=0
    )
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
    _add_bounded(diagonal, "--dim", 0, MAX_DIAGONAL_DIM, "n", required=True)
    diagonal.add_argument("--theory", choices=("chow", "k"), default="chow")
    diagonal.set_defaults(handler=_cmd_diagonal)

    adjunction = sub.add_parser("adjunction", parents=[common])
    _add_bounded(adjunction, "--dim", 2, MAX_ADJUNCTION_DIM, "ambient n", default=2)
    _add_bounded(adjunction, "--deg", 1, MAX_NUMBER, "hypersurface degree", required=True)
    adjunction.set_defaults(handler=_cmd_adjunction)

    sheaf = sub.add_parser("sheaf-chern", parents=[common])
    _add_bounded(sheaf, "--codim", 1, MAX_SHEAF_CODIM, "codimension", required=True)
    sheaf.set_defaults(handler=_cmd_sheaf_chern)

    zeuthen = sub.add_parser("zeuthen", parents=[common])
    _add_bounded(zeuthen, "--dk", -MAX_NUMBER, MAX_NUMBER, default=0)
    _add_bounded(zeuthen, "--d2", -MAX_NUMBER, MAX_NUMBER, default=0)
    _add_bounded(zeuthen, "--lengths", 0, MAX_NUMBER, default=0)
    zeuthen.set_defaults(handler=_cmd_zeuthen)

    suite = sub.add_parser("suite", parents=[common], help="run all acceptance checks")
    suite.set_defaults(handler=_cmd_suite)

    return parser


# Parsed attributes that select or format a command rather than feed it.
_NOT_INPUTS = ("command", "target", "format", "handler", "bounds")


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    command = " ".join(filter(None, (args.command, getattr(args, "target", None))))
    inputs = {
        key: value
        for key, value in vars(args).items()
        if key not in _NOT_INPUTS and value is not None
    }
    try:
        for flag, low, high in args.bounds:
            _check_bound(flag, getattr(args, flag[2:]), low, high)
        outputs, passed = args.handler(args)
    except (GRRMismatch, NonIntegerChi, SolverInconsistent) as failure:
        outputs, passed = {"error": str(failure)}, False
    except _INTERNAL_FAULTS as fault:
        print(
            f"error: internal fault in {command}: {type(fault).__name__}: {fault}",
            file=sys.stderr,
        )
        return 3
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    print(_render(CommandResult(command, inputs, outputs, passed), args.format))
    return 0 if passed is not False else 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
