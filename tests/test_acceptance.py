"""The acceptance gate: every criterion must pass at its stated tolerance.

Each test prints its pass/fail line via the shared runner, so `pytest -v`
and `arboreal acceptance` report identically.
"""

import pytest

from arboreal import acceptance
from arboreal import catalog as cat


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(criterion):
    report = criterion()
    print(f"[{'PASS' if report.ok else 'FAIL'}] {report.check} ({report.seconds:.2f}s)")
    assert report.ok, report.text()


def test_rows_cover_every_group_with_a_lifting():
    groups = cat.entries_with_sigma()
    assert list(acceptance.GENERATOR_PRODUCTS) == [e.id for e in groups]
    for entry in groups:
        assert acceptance.GENERATOR_PRODUCTS[entry.id] == "*".join(entry.action().generators())


def test_row_with_other_status_or_over_budget_fails():
    rejected = ("ggs", {"p": 3, "e": "1,-1"})
    assert acceptance._run_rows("x", [(*rejected, "fail", None)]).ok
    report = acceptance._run_rows("x", [(*rejected, "pass", None)])
    assert not report.ok
    assert report.evidence["unexpected"] == ["ggs[p=3]: fail, expected pass"]
    report = acceptance._run_rows("x", [(*rejected, "fail", 0)])
    assert not report.ok
    assert "over budget" in report.evidence
