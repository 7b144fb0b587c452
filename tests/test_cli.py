"""End-to-end tests for the command-line front end."""

import argparse
import json
import re
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from rrcalc import cli, theories
from rrcalc.acceptance import CriterionResult
from rrcalc.applications import GRRMismatch
from rrcalc.rings import (
    InsufficientOrder,
    NonNilpotentArgument,
    OutOfBounds,
    SpecMismatch,
)
from rrcalc.series import NotReversible


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- tables


def test_todd_table(capsys):
    code, out, _ = invoke(capsys, "todd", "--order", "4")
    assert code == 0
    assert "output coefficients = 1, 1/2, 1/12, 0, -1/720" in out
    assert out.endswith("pass: n/a\n")


def test_chi_pn_table(capsys):
    code, out, _ = invoke(capsys, "chi", "pn", "--dim", "2", "--twist", "1")
    assert code == 0
    assert out == (
        "command: chi pn\n"
        "input dim = 2\n"
        "input twist = 1\n"
        "output chi = 3\n"
        "pass: yes\n"
    )


def test_character_rows_table(capsys):
    code, out, _ = invoke(
        capsys, "ch", "--rank", "2", "--chern", "c1,c2", "--order", "3"
    )
    assert code == 0
    assert "2, c1, -c2 + 1/2*c1^2, -1/2*c1*c2 + 1/6*c1^3" in out


def test_verify_grr_table(capsys):
    code, out, _ = invoke(
        capsys, "verify", "grr", "--dim", "2", "--immersion", "1", "--twist", "1"
    )
    assert code == 0
    assert "output residual = 0" in out
    assert "output zero = yes" in out
    assert out.endswith("pass: yes\n")


def test_verify_twist_law_table(capsys):
    code, out, _ = invoke(capsys, "verify", "twist-law", "--order", "6")
    assert code == 0
    assert "output expected = u + v - u*v" in out
    assert "output law = u + v - u*v" in out


def test_verify_twist_law_at_its_bound(capsys):
    order = str(cli.MAX_TWIST_LAW_ORDER)
    code, out, _ = invoke(capsys, "verify", "twist-law", "--order", order)
    assert code == 0
    outputs = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert outputs["output law"] == outputs["output expected"] == "u + v - u*v"
    assert out.endswith("pass: yes\n")


def test_adjunction_table(capsys):
    code, out, _ = invoke(capsys, "adjunction", "--deg", "4")
    assert code == 0
    assert "output canonical_degree = 4" in out
    assert "output genus = 3" in out
    assert "output zero = yes" in out


def test_sheaf_chern_table(capsys):
    code, out, _ = invoke(capsys, "sheaf-chern", "--codim", "2")
    assert code == 0
    assert "output multiples_of_Y = 0, -1" in out
    assert "(-1)^(d-1)" in out


def test_zeuthen_table(capsys):
    code, out, _ = invoke(
        capsys, "zeuthen", "--dk", "6", "--d2", "4", "--lengths", "1"
    )
    assert code == 0
    assert "output c2_degree = 3" in out


# ---------------------------------------------------------------- json


def test_diagonal_json_frozen(capsys):
    code, out, _ = invoke(
        capsys, "diagonal", "--dim", "1", "--theory", "k", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "diagonal",
        "inputs": {"dim": 1, "theory": "k"},
        "outputs": {
            "coefficients": {"(0,1)": 1, "(1,0)": 1, "(1,1)": -1},
            "determinant": -1,
            "unit": True,
        },
        "pass": True,
    }


def test_json_keys_are_uniform(capsys):
    commands = [
        ("todd", "--order", "3"),
        ("chi", "pn", "--dim", "1"),
        ("diagonal", "--dim", "2"),
        ("zeuthen",),
    ]
    for argv in commands:
        _, out, _ = invoke(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert sorted(payload) == ["command", "inputs", "outputs", "pass"]


def test_rationals_become_strings_in_json(capsys):
    _, out, _ = invoke(capsys, "todd", "--order", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["outputs"]["coefficients"] == ["1", "1/2", "1/12", "0", "-1/720"]


def test_output_is_deterministic(capsys):
    first = invoke(capsys, "diagonal", "--dim", "2", "--theory", "k", "--format", "json")
    second = invoke(capsys, "diagonal", "--dim", "2", "--theory", "k", "--format", "json")
    assert first == second
    third = invoke(capsys, "ch", "--rank", "1", "--chern", "c1", "--order", "2")
    fourth = invoke(capsys, "ch", "--rank", "1", "--chern", "c1", "--order", "2")
    assert third == fourth


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(capsys):
    code, _, _ = invoke(capsys, "todd", "--order", "nope")
    assert code == 2
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2


def test_validation_errors_exit_2(capsys):
    code, _, err = invoke(capsys, "chi", "curve", "--genus", "-1")
    assert code == 2
    assert "genus" in err
    code, _, err = invoke(capsys, "ch", "--chern", "c1,2bad")
    assert code == 2
    assert "symbol" in err


def test_failed_verification_exits_1(capsys, monkeypatch):
    def explode(n, d):
        raise GRRMismatch("the two sides disagree")

    monkeypatch.setattr(cli, "euler_characteristic_pn", explode)
    code, out, _ = invoke(capsys, "chi", "pn", "--dim", "2")
    assert code == 1
    assert "pass: no" in out
    assert "disagree" in out


def test_failure_keeps_the_subcommand_and_inputs(capsys):
    code, out, _ = invoke(capsys, "chi", "surface", "--k2", "1", "--chitop", "0")
    assert code == 1
    assert out == (
        "command: chi surface\n"
        "input c1k = 0\n"
        "input c1sq = 0\n"
        "input c2 = 0\n"
        "input chitop = 0\n"
        "input k2 = 1\n"
        "input rank = 1\n"
        "output error = chi of the surface bundle = 1/12 is not an integer\n"
        "pass: no\n"
    )


def test_diagonal_solver_failure_keeps_the_subcommand_and_inputs(capsys, monkeypatch):
    def inconsistent(theory, n):
        raise theories.SolverInconsistent(f"hyperplane restriction fails at n={n}")

    monkeypatch.setattr(theories, "diagonal_class", inconsistent)
    code, out, _ = invoke(capsys, "diagonal", "--dim", "2", "--theory", "k")
    assert code == 1
    assert out == (
        "command: diagonal\n"
        "input dim = 2\n"
        "input theory = k\n"
        "output error = hyperplane restriction fails at n=2\n"
        "pass: no\n"
    )


@pytest.mark.parametrize("argv", [("--dim", "3"), ("--dim", "2", "--theory", "k")])
def test_diagonal_solves_once_per_command(capsys, monkeypatch, argv):
    solve = theories.diagonal_class
    calls = []

    def counted(theory, n):
        calls.append(n)
        return solve(theory, n)

    # Every rrcalc module that holds the solver by name gets the counter.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rrcalc" and getattr(module, "diagonal_class", None) is solve:
            monkeypatch.setattr(module, "diagonal_class", counted)
    code, _, _ = invoke(capsys, "diagonal", *argv)
    assert code == 0
    assert calls == [int(argv[1])]


def test_twist_law_below_order_one_is_a_usage_error(capsys):
    for order in ("0", "-3"):
        code, out, err = invoke(capsys, "verify", "twist-law", "--order", order)
        assert code == 2
        assert out == ""
        assert "--order must be >= 1" in err


def test_twist_law_above_its_bound_is_a_usage_error(capsys):
    bound = cli.MAX_TWIST_LAW_ORDER
    code, out, err = invoke(capsys, "verify", "twist-law", "--order", str(bound + 1))
    assert code == 2
    assert out == ""
    assert f"--order must be <= {bound}" in err
    code, out, _ = invoke(capsys, "verify", "twist-law", "--help")
    assert code == 0
    assert f"1..{bound}" in out


@pytest.mark.parametrize(
    "command, name", [("todd", "MAX_TODD_ORDER"), ("ch", "MAX_CH_ORDER")]
)
def test_order_outside_its_bound_is_a_usage_error(capsys, command, name):
    bound = getattr(cli, name)
    for order in (bound + 1, -1):
        code, out, err = invoke(capsys, command, "--order", str(order))
        assert code == 2
        assert out == ""
        assert err == f"error: --order must be in 0..{bound}, got {order}\n"
    code, out, _ = invoke(capsys, command, "--help")
    assert code == 0
    assert f"0..{bound}" in out


def test_chern_names_are_reported_normalised(capsys):
    code, out, _ = invoke(capsys, "ch", "--chern", " c1 , c2")
    assert code == 0
    assert "input chern = c1,c2\n" in out


@pytest.mark.parametrize(
    "argv, flag, low, name",
    [
        (("chi", "pn"), "--dim", 0, "MAX_CHI_PN_DIM"),
        (("chi", "pn", "--dim", "1"), "--twist", None, "MAX_TWIST"),
        (("verify", "grr"), "--dim", 0, "MAX_GRR_DIM"),
        (("verify", "grr", "--dim", "1"), "--twist", None, "MAX_TWIST"),
        (("diagonal",), "--dim", 0, "MAX_DIAGONAL_DIM"),
        (("adjunction", "--deg", "3"), "--dim", 2, "MAX_ADJUNCTION_DIM"),
        (("sheaf-chern",), "--codim", 1, "MAX_SHEAF_CODIM"),
    ],
    ids=["chi-pn-dim", "chi-pn-twist", "grr-dim", "grr-twist", "diagonal-dim",
         "adjunction-dim", "sheaf-chern-codim"],
)
def test_size_outside_its_bound_is_a_usage_error(capsys, argv, flag, low, name):
    high = getattr(cli, name)
    low = -high if low is None else low
    for value in (low - 1, high + 1):
        code, out, err = invoke(capsys, *argv, flag, str(value))
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be in {low}..{high}, got {value}\n"
    command = takewhile(lambda word: not word.startswith("-"), argv)
    code, out, _ = invoke(capsys, *command, "--help")
    assert code == 0
    assert f"{low}..{high}" in out


def test_chern_symbol_count_outside_its_bound_is_a_usage_error(capsys):
    bound = cli.MAX_CH_SYMBOLS
    names = ",".join(f"c{i}" for i in range(1, bound + 2))
    code, out, err = invoke(capsys, "ch", "--chern", names)
    assert code == 2
    assert out == ""
    assert err == f"error: --chern symbol count must be in 1..{bound}, got {bound + 1}\n"
    code, out, _ = invoke(capsys, "ch", "--help")
    assert code == 0
    assert f"1..{bound}" in out


@pytest.mark.parametrize("order", ["0", "1", "2", "3", "8"])
@pytest.mark.parametrize("names", ["c1,c1", "c1,c2,c1", " c2 , c1,c2"])
def test_repeated_chern_symbols_are_a_usage_error_at_every_order(capsys, names, order):
    # Symbols above the order get no generator, so a repeat there used to pass.
    code, out, err = invoke(capsys, "ch", "--chern", names, "--order", order)
    assert code == 2
    assert out == ""
    repeated = "c2" if names.startswith(" c2") else "c1"
    assert err == f"error: --chern names the symbol '{repeated}' twice\n"


@pytest.mark.parametrize(
    "argv, flags, low",
    [
        (("ch",), ("--rank",), None),
        (("chi", "curve"), ("--rank", "--deg"), None),
        (("chi", "curve"), ("--genus",), 0),
        (("chi", "surface"), ("--k2", "--chitop", "--rank", "--c1k", "--c1sq", "--c2"), None),
        (("zeuthen",), ("--dk", "--d2"), None),
        (("zeuthen",), ("--lengths",), 0),
        (("adjunction",), ("--deg",), 1),
    ],
    ids=["ch-rank", "chi-curve", "chi-curve-genus", "chi-surface", "zeuthen",
         "zeuthen-lengths", "adjunction-deg"],
)
def test_plain_number_outside_its_bound_is_a_usage_error(capsys, argv, flags, low):
    high = cli.MAX_NUMBER
    low = -high if low is None else low
    for flag in flags:
        for value in (low - 1, high + 1):
            code, out, err = invoke(capsys, *argv, flag, str(value))
            assert code == 2
            assert out == ""
            assert err == f"error: {flag} must be in {low}..{high}, got {value}\n"
    code, out, _ = invoke(capsys, *argv, "--help")
    assert code == 0
    assert f"{low}..{high}" in out


def test_an_output_too_long_to_print_is_refused_by_its_input_bound(capsys):
    # q(q - n - 1) of a 4001-digit degree has over 8000 digits, beyond what
    # str() of an int accepts; the --deg bound refuses it before any work.
    degree = "1" + "0" * 4000
    code, out, err = invoke(capsys, "adjunction", "--dim", "3", "--deg", degree)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --deg must be in 1..")


def test_immersion_outside_the_target_is_a_usage_error(capsys):
    for value in (-1, 4):
        argv = ("verify", "grr", "--dim", "3", "--immersion", str(value))
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --immersion must be in 0..3, got {value}\n"


@pytest.mark.parametrize(
    "fault",
    [InsufficientOrder, NonNilpotentArgument, NotReversible, OutOfBounds, SpecMismatch],
    ids=lambda fault: fault.__name__,
)
def test_internal_faults_exit_3(capsys, monkeypatch, fault):
    def broken(order):
        raise fault("an invariant broke")

    monkeypatch.setattr(cli, "todd_series", broken)
    code, out, err = invoke(capsys, "todd", "--order", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal fault in todd: ")
    assert "an invariant broke" in err


def test_suite_reports_one_line_per_criterion(capsys, monkeypatch):
    fake = [
        CriterionResult(1, "series-constants", True, "all frozen values match", 0.0),
        CriterionResult(2, "grr-grid", False, "one residual was nonzero", 0.0),
    ]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: fake)
    code, out, _ = invoke(capsys, "suite")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "command: suite"
    assert lines[1].startswith("criterion  1 series-constants")
    assert " pass " in lines[1]
    assert lines[2].startswith("criterion  2 grr-grid")
    assert " FAIL " in lines[2]
    assert lines[-1] == "pass: no"


def test_suite_passing_exits_0(capsys, monkeypatch):
    fake = [CriterionResult(1, "series-constants", True, "ok", 0.0)]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: fake)
    code, out, _ = invoke(capsys, "suite")
    assert code == 0
    assert out.endswith("pass: yes\n")


def test_suite_json_has_no_timing(capsys, monkeypatch):
    fake = [CriterionResult(1, "series-constants", True, "ok", 0.123)]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: fake)
    _, out, _ = invoke(capsys, "suite", "--format", "json")
    payload = json.loads(out)
    entry = payload["outputs"]["criteria"][0]
    assert sorted(entry) == ["detail", "name", "number", "passed"]


def test_main_wraps_run(capsys):
    assert cli.main(["todd", "--order", "2"]) == 0
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = invoke(capsys)
    assert code == 2


# ---------------------------------------------------------------- declared ranges

# The bounds a handler checks itself, with the range that README states.
HANDLER_CHECKS = {
    ("verify twist-law", "--order"): f"1..{cli.MAX_TWIST_LAW_ORDER}",  # golden messages
    ("verify grr", "--immersion"): "0..--dim",  # bounded by another flag's value
    ("ch", "--chern symbol count"): f"1..{cli.MAX_CH_SYMBOLS}",  # counted after parsing
}


def _leaf_parsers(parser, path=()):
    """(command words, parser) of every subcommand that runs a handler."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield " ".join(path), parser
    for action in actions:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def _declared_ranges():
    return {
        (command, flag): f"{low}..{high}"
        for command, leaf in _leaf_parsers(cli._build_parser())
        for flag, low, high in leaf.get_default("bounds")
    }


def test_every_integer_flag_has_a_declared_range():
    for command, leaf in _leaf_parsers(cli._build_parser()):
        integer_flags = {a.option_strings[0] for a in leaf._actions if a.type is int}
        declared = {flag for flag, _, _ in leaf.get_default("bounds")}
        handled = {flag for name, flag in HANDLER_CHECKS if name == command}
        assert declared <= integer_flags <= declared | handled, command


def _readme_ranges():
    """(command, flag) -> range of each row of README's bound table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
        if len(cells) != 4 or not re.fullmatch(r"-?\d+\.\..+", cells[2]):
            continue
        for command in cells[0].split(", "):
            for flag in cells[1].split(", "):
                rows[command, flag] = cells[2]
    return rows


def test_readme_bound_table_matches_the_declared_ranges():
    assert _readme_ranges() == {**_declared_ranges(), **HANDLER_CHECKS}
