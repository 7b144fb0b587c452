"""The four benchmark workloads: seeded inputs, timed calls, and oracles.

A workload pass is a list of cases made from (seed, pass index) by
`generate`.  A case holds only plain data (ints, tuples, Fractions and
coefficient tables) and its expected answer, both computed here without
rrcalc, so neither counts as timed work.  `execute` turns the plain data
into rrcalc objects and makes the call under test (timed); `verdict`
compares the result with the expected answer.  One caller runs the cases
in order, each after the previous verdict (a closed loop).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("twist-law", "grr-products", "diagonal", "suite")

# twist-law: one twisted theory per order, with one group_law case and
# LAWS_PER_ORDER law cases on it.
TWIST_ORDERS = tuple(range(1, 11))
LAWS_PER_ORDER = 3
# grr-products: a ladder of (factors, total dimension) over products of
# 1-4 factors of P^0..P^3; every rung once per pass.  Cost grows steeply
# with the total, hence the cap.
GRR_MAX_DIM = 3
GRR_MAX_TOTAL = 10
GRR_TERMS = 3
GRR_RUNGS = tuple(
    (width, total)
    for width in range(1, 5)
    for total in range(width, min(GRR_MAX_DIM * width, GRR_MAX_TOTAL) + 1)
)
# diagonal: every third n up to 30, in both models.
DIAGONAL_LADDER = tuple(range(3, 31, 3))
# suite: each case is a whole `rrcalc suite` process; nothing here is seeded.
SUITE_ARGV = ("suite", "--format", "json")
SUITE_TIMEOUT_S = 150
SUITE_EXPECTED = HERE / "suite_expected.json"


def generate(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The cases of one pass; the same (seed, pass) always gives the same cases."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "twist-law":
        return _twist_cases(rng)
    if workload == "grr-products":
        return _grr_cases(rng)
    if workload == "diagonal":
        return _diagonal_cases(rng)
    if workload == "suite":
        return [{"kind": "suite", "argv": list(SUITE_ARGV), "expected": _suite_expected()}]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def size_class(cases: list[dict]) -> list:
    """What a seed must not change: the kinds and ladder positions of the cases."""
    return sorted(
        [case["kind"], case.get("order", case.get("rung", case.get("n", 0)))] for case in cases
    )


def share_keys(case: dict) -> tuple:
    """The inputs of a case whose work a cache could share with other cases."""
    kind = case["kind"]
    if kind in ("group_law", "law"):
        return (("twist", case["order"]),)  # one twisted theory, one reversion input
    if kind == "grr":
        return (case["dims"], case["target"])  # the spaces whose Todd classes are built
    if kind == "diagonal":
        return ((case["theory"], case["n"]),)
    return ()


def inject(cases: list[dict], mode: str) -> list[dict]:
    """Spoil one case on purpose: a wrong expected value, or an input that raises."""
    cases = [dict(case) for case in cases]
    if mode == "wrong":
        case = cases[0]
        if case["kind"] == "group_law":
            case["expected"] = {**case["expected"], (1, 1): Fraction(1)}
        elif case["kind"] == "grr":
            case["expected_residual"] = {(0,) * len(case["target"]): Fraction(1)}
        elif case["kind"] == "diagonal":
            case["expected"] = {**case["expected"], (0, case["n"]): 2}
        else:
            expected = [list(row) for row in case["expected"]]
            expected[0][2] += " (spoiled)"
            case["expected"] = expected
    elif mode == "raise":
        index = next(i for i, c in enumerate(cases) if c["kind"] != "group_law")
        case = cases[index]
        if case["kind"] == "law":
            # b in a ring with one more factor: the group law must refuse.
            case["b_dims"] = case["dims"] + (1,)
            case["b"] = {exps + (0,): c for exps, c in case["b"].items()}
        elif case["kind"] == "grr":
            case["n"] = case["n"] + 1  # verify_grr's dimension guard raises
        elif case["kind"] == "diagonal":
            case["n"] = -1  # negative factor dimension raises
        else:
            case["argv"] = case["argv"] + ["--no-such-flag"]  # usage error, no JSON
    else:
        raise ValueError(f"unknown injection {mode!r}")
    return cases


def execute(case: dict, rr, context: dict):
    """Build the rrcalc objects for one case and make the call under test."""
    kind = case["kind"]
    if kind == "group_law":
        order = case["order"]
        context["theory"] = rr.twist_theory(rr.CHOW, rr.exp_deficit_series(2 * order + 2))
        return context["theory"].group_law(order)
    if kind == "law":
        theory = context["theory"]
        a = rr.ring_of(theory, case["dims"]).element(case["a"])
        b = rr.ring_of(theory, case.get("b_dims", case["dims"])).element(case["b"])
        return theory.law(a, b)
    if kind == "grr":
        k = rr.K_THEORY
        dims, j = case["dims"], case["factor"]
        if case["map"] == "point":
            f = rr.point_projection(k, dims[0])
        elif case["map"] == "factor":
            f = rr.factor_projection(k, dims, j)
        else:
            f = rr.linear_immersion(k, dims[j], case["target"][j], within=dims, factor=j)
        a = rr.ring_of(k, dims).element(case["a"])
        return rr.verify_grr(case["n"], f, a)
    if kind == "diagonal":
        theory = rr.CHOW if case["theory"] == "chow" else rr.K_THEORY
        return rr.diagonal_class(theory, case["n"]), rr.metric_check(theory, case["n"])
    if kind == "suite":
        return _run_suite(case["argv"], context)
    raise ValueError(f"unknown case kind {kind!r}")


def verdict(case: dict, result) -> bool:
    """True when the result equals the case's independently computed answer."""
    kind = case["kind"]
    if kind in ("group_law", "law"):
        names = ("u", "v") if kind == "group_law" else _names(len(case["dims"]))
        bounds = (case["order"],) * 2 if kind == "group_law" else case["dims"]
        return _is(result, names, bounds, case["expected"])
    if kind == "grr":
        return _is(result, _names(len(case["target"])), case["target"], case.get("expected_residual", {}))
    if kind == "diagonal":
        delta, report = result
        n = case["n"]
        symbol = "h" if case["theory"] == "chow" else "t"
        matrix = tuple(
            tuple(case["expected"].get((r, s), 0) for s in range(n + 1)) for r in range(n + 1)
        )
        return (
            _is(delta, _names(2, symbol), (n, n), case["expected"], scalars="integers")
            and report.matrix == matrix
            and report.determinant == case["determinant"]
            and report.unit is True
        )
    if kind == "suite":
        code, stdout = result
        payload = json.loads(stdout)
        rows = [[c["number"], c["name"], c["detail"]] for c in payload["outputs"]["criteria"]]
        return (
            code == 0
            and payload["pass"] is True
            and all(c["passed"] is True for c in payload["outputs"]["criteria"])
            and rows == case["expected"]
        )
    raise ValueError(f"unknown case kind {kind!r}")


# --- inputs and oracles (plain Python, no rrcalc) -------------------------


def _twist_cases(rng: random.Random) -> list[dict]:
    cases = []
    for order in TWIST_ORDERS:
        # group_law(k) evaluates the law at the generators u, v of Q[u,v]/(u^(k+1), v^(k+1)).
        cases.append(
            {
                "kind": "group_law",
                "order": order,
                "expected": {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(-1)},
            }
        )
        for j in range(LAWS_PER_ORDER):
            # Law case j lives on a ring of total dimension k + j (at most 2k):
            # P^k itself, then products of two factors.
            total = min(order + j, 2 * order)
            width = 1 if j == 0 else 2
            dims = _balanced(total, width)
            a = _law_class(rng, dims)
            b = _law_class(rng, dims)
            expected = _poly_add(_poly_add(a, b), _poly_scale(_poly_mul(a, b, dims), -1))
            cases.append(
                {"kind": "law", "order": order, "dims": dims, "a": a, "b": b, "expected": expected}
            )
    return cases


def _grr_cases(rng: random.Random) -> list[dict]:
    cases = []
    for width, total in GRR_RUNGS:
        # Each rung pushes along a projection from a space of dimension
        # `total` and along an immersion into one, with fresh classes.
        # The shapes are fixed per rung; the seed picks the classes.  The
        # last factor is the smallest: it is collapsed, or it is the one
        # the immersion grows.
        dims = _balanced(total, width)
        factor = width - 1
        maps = [("point" if width == 1 else "factor", dims, factor, dims[:factor])]
        dims = _balanced(total - 1, width)
        maps.append(("immersion", dims, factor, dims[:factor] + (dims[factor] + 1,)))
        for kind, dims, factor, target in maps:
            cases.append(
                {
                    "kind": "grr",
                    "rung": (width, total),
                    "map": kind,
                    "dims": dims,
                    "factor": factor,
                    "target": target,
                    "n": sum(dims),
                    "a": _k_class(rng, dims),
                }
            )
    return cases


def _diagonal_cases(rng: random.Random) -> list[dict]:
    # The ladder is fixed; the seed only shuffles the order the cases run in.
    ladder = [(theory, n) for theory in ("chow", "ktheory") for n in DIAGONAL_LADDER]
    rng.shuffle(ladder)
    cases = []
    for theory, n in ladder:
        beta = 1 if theory == "ktheory" else 0
        # Closed form: sum over r+s=n of x^r y^s, minus beta times r+s=n+1.
        expected = {(r, n - r): 1 for r in range(n + 1)}
        expected.update({(r, n + 1 - r): -beta for r in range(1, n + 1) if beta})
        cases.append(
            {
                "kind": "diagonal",
                "theory": theory,
                "n": n,
                "expected": expected,
                # Reversing the rows gives a unitriangular matrix.
                "determinant": (-1) ** (n * (n + 1) // 2),
            }
        )
    return cases


def _suite_expected() -> list:
    with open(SUITE_EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)["criteria"]


def _balanced(total, parts) -> tuple:
    """`parts` dimensions summing to `total`, as equal as possible, largest first."""
    return tuple(total // parts + (i < total % parts) for i in range(parts))


def _law_class(rng, dims) -> dict:
    """Every generator plus one monomial of degree >= 2, with random coefficients.

    The generators keep every power alive up to the ring's nilpotency
    order, so the cost of a case depends on its ring, not on the draw.
    """
    monomials = [e for e in product(*(range(d + 1) for d in dims)) if sum(e) >= 2]
    chosen = [tuple(int(i == j) for i in range(len(dims))) for j in range(len(dims))]
    chosen += rng.sample(monomials, min(1, len(monomials)))
    return {exps: _random_fraction(rng) for exps in chosen}


def _random_fraction(rng) -> Fraction:
    return Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 6))


def _k_class(rng, dims) -> dict:
    """GRR_TERMS random monomials with nonzero integer coefficients."""
    monomials = list(product(*(range(d + 1) for d in dims)))
    chosen = rng.sample(monomials, min(len(monomials), GRR_TERMS))
    return {exps: rng.choice([v for v in range(-9, 10) if v]) for exps in chosen}


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _poly_scale(p: dict, k) -> dict:
    return {e: c * k for e, c in p.items() if c * k != 0}


def _poly_mul(p: dict, q: dict, bounds) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= d for x, d in zip(e, bounds)):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _names(count: int, base: str = "h") -> tuple:
    # rrcalc's naming: one factor is plain, several are numbered from 1.
    if count == 1:
        return (base,)
    return tuple(f"{base}{i + 1}" for i in range(count))


def _is(element, names, bounds, terms, scalars="rationals") -> bool:
    spec = element.spec
    return (
        tuple(spec.variables) == tuple(names)
        and tuple(spec.bounds) == tuple(bounds)
        and spec.scalars == scalars
        and dict(element.terms) == terms
    )


def _run_suite(argv: list, context: dict):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if context.get("traced"):
        command = [sys.executable, str(HERE / "traced_cli.py"), *argv]
    else:
        command = [sys.executable, "-m", "rrcalc.cli", *argv]
    child = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SUITE_TIMEOUT_S
    )
    if context.get("traced"):
        context["child_trace"] = json.loads(child.stderr.strip().splitlines()[-1])
    return child.returncode, child.stdout
