"""Byte-for-byte CLI output against a committed golden file.

Each entry of `cli_golden.json` holds an argument list with the exact
stdout, stderr and exit code that `rrcalc` produced for it.  `suite` is
left out: the acceptance tests and the frozen suite rows pin it already.

To rewrite the golden file after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from rrcalc import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

INVOCATIONS = [
    ["ch"],
    ["ch", "--rank", "-1", "--chern", "a,b,c,d,e", "--order", "7", "--format", "json"],
    ["ch", "--order", "0"],
    ["ch", "--rank", "2", "--chern", "c1,c2", "--order", "5"],
    ["todd"],
    ["todd", "--order", "12", "--format", "json"],
    ["chi", "pn", "--dim", "3", "--twist", "2"],
    ["chi", "curve", "--genus", "2", "--rank", "2", "--deg", "3"],
    ["chi", "surface", "--k2", "9", "--chitop", "3", "--c1k", "-3", "--c1sq", "1"],
    ["chi", "surface", "--k2", "1", "--chitop", "0", "--format", "json"],
    ["verify", "grr", "--dim", "3", "--twist", "2"],
    ["verify", "grr", "--dim", "2", "--format", "json"],
    ["verify", "grr", "--dim", "4", "--immersion", "2", "--twist", "-1"],
    ["verify", "grr", "--dim", "3", "--immersion", "1", "--twist", "3", "--format", "json"],
    ["verify", "twist-law", "--order", "5"],
    ["diagonal", "--dim", "3", "--theory", "chow"],
    ["diagonal", "--dim", "2", "--theory", "k", "--format", "json"],
    ["adjunction", "--deg", "4"],
    ["adjunction", "--dim", "3", "--deg", "5", "--format", "json"],
    ["sheaf-chern", "--codim", "3"],
    ["zeuthen", "--dk", "6", "--d2", "4", "--lengths", "1"],
    ["ch", "--chern", ","],
    ["verify", "twist-law", "--order", "0"],
    ["chi", "pn", "--dim", "80", "--twist", "1000000"],
    ["verify", "grr", "--dim", "60", "--immersion", "59", "--twist", "-1000000"],
]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return {
        "argv": list(argv),
        "code": code,
        "stderr": err.getvalue(),
        "stdout": out.getvalue(),
    }


def _golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_invocation():
    assert sorted(_golden()) == sorted(tuple(argv) for argv in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_bytes_match_the_golden_file(argv):
    assert capture(argv) == _golden()[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([capture(argv) for argv in INVOCATIONS], indent=1) + "\n")
