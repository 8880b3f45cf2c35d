"""The acceptance gate: every criterion must pass at its stated tolerance.

Each test prints its pass/fail line via the shared runner, so `pytest -v`
and `arboreal acceptance` report identically.
"""

import pytest

from arboreal import acceptance
from arboreal import catalog as cat
from arboreal.checks import CHECKS


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(criterion):
    report = criterion()
    print(f"[{'PASS' if report.ok else 'FAIL'}] {report.check} ({report.seconds:.2f}s)")
    assert report.ok, report.text()


def test_criteria_are_the_table_rows():
    assert [f.__name__ for f in acceptance.CRITERIA] == [
        "criterion_1_gap_session_facts",
        "criterion_2_lifting_certificates",
        "criterion_3_grigorchuk_recursions",
        "criterion_4_hnn_relators",
        "criterion_5_vertex_transitivity",
        "criterion_6_two_transitivity",
        "criterion_7_end_and_dilation",
        "criterion_8_lamplighter_lemmas",
        "criterion_9_property_suites",
    ]
    assert [(f.__name__, f.__doc__) for f in acceptance.CRITERIA] == [
        (name, title) for name, title, _ in acceptance.TABLE]
    assert acceptance.TABLE[-1][2] == [("properties", {}, "pass", None)]


def test_rows_cover_every_group_with_a_lifting():
    groups = cat.entries_with_sigma()
    assert list(acceptance.GENERATOR_PRODUCTS) == [e.id for e in groups]
    for entry in groups:
        assert acceptance.GENERATOR_PRODUCTS[entry.id] == "*".join(entry.action().generators())


def test_rows_pass_only_params_their_check_reads():
    for _, _, rows in acceptance.TABLE:
        for check_id, params, _, _ in rows:
            assert set(params) <= {p.name for p in CHECKS[check_id][1]}, (check_id, params)


def test_row_with_other_status_or_over_budget_fails():
    rejected = ("ggs", {"p": 3, "e": "1,-1"})
    assert acceptance._run_rows("x", [(*rejected, "fail", None)]).ok
    report = acceptance._run_rows("x", [(*rejected, "pass", None)])
    assert not report.ok
    assert report.evidence["unexpected"] == ["ggs[p=3]: fail, expected pass"]
    report = acceptance._run_rows("x", [(*rejected, "fail", 0)])
    assert not report.ok
    assert "over budget" in report.evidence
