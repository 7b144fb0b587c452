"""The acceptance gate: every shipped criterion, one pass/fail line each.

Run with -s to see the per-criterion report lines as they happen; the
same information is in the failure message otherwise.  The suite runs
once per session and every test reads that one result.
"""

import pytest

from rrcalc.acceptance import CRITERIA, run_all

TIME_BUDGETS = {3: 10.0, 10: 60.0}  # seconds; the rest share the suite budget


@pytest.fixture(scope="session")
def suite_results():
    return run_all()


@pytest.mark.parametrize(
    "number,name",
    [(number, name) for number, name, _ in CRITERIA],
    ids=[f"{number:02d}-{name}" for number, name, _ in CRITERIA],
)
def test_criterion(number, name, suite_results):
    result = next(r for r in suite_results if r.number == number)
    status = "pass" if result.passed else "FAIL"
    print(f"criterion {number:>2} {name}: {status} - {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    budget = TIME_BUDGETS.get(number)
    if budget is not None:
        assert result.seconds < budget, (
            f"criterion {number} took {result.seconds:.2f}s, budget {budget}s"
        )


def test_full_suite_passes_inside_the_time_budget(suite_results):
    results = suite_results
    assert [r.number for r in results] == [n for n, _, _ in CRITERIA]
    failed = [r for r in results if not r.passed]
    assert not failed, ", ".join(f"{r.number} {r.name}" for r in failed)
    total = sum(r.seconds for r in results)
    assert total < 60.0, f"suite took {total:.2f}s"
