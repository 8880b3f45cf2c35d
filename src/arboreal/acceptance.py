"""The acceptance suite: the finite computations the toolkit must reproduce.

Every criterion is a set of rows over the named checks: each row is
(check id, params, expected status, budget in seconds or None) and runs
through `checks.run_check`, so `arboreal run <check>` with the same
params reproduces it.  A criterion passes when every row ends in its
expected status within its budget; its evidence maps each check's report
name to that report's evidence.  `run_all` prints one pass/fail line per
criterion.
"""

from __future__ import annotations

import time

from .checks import CheckReport, run_check

# the groups with a lifting, and the product of each one's generators
GENERATOR_PRODUCTS = {
    "grigorchuk": "a*b*c*d",
    "basilica": "a*b",
    "img_z2i": "a*b*c",
    "lamplighter": "a*b",
    "bs13": "a*b*c",
    "g01inf": "a*b*c*d",
    "gs5": "a*b",
    "gs7": "a*b",
}

# (function name, report name, rows); a row is (check id, params, expected status, budget)
TABLE = [
    ("criterion_1_gap_session_facts", "1 GAP session facts (order 8, level-4 separation)", [
        ("perm-order", {"group": "g01inf", "level": 3, "gens": "a,c", "expect": 8}, "pass", 1),
        ("separation", {"group": "g01inf", "level": 4}, "pass", 1),
    ]),
    ("criterion_2_lifting_certificates", "2 lifting certificates (exact)", [
        *(("lifting", {"group": g, "depth": 0}, "pass", None) for g in GENERATOR_PRODUCTS),
        ("ggs", {"p": 3, "e": "1,-1"}, "fail", None),
    ]),
    ("criterion_3_grigorchuk_recursions", "3 Grigorchuk recursions (P_n, alpha_n)", [
        ("grig-recursions", {}, "pass", 10),
    ]),
    ("criterion_4_hnn_relators", "4 HNN relator suite", [
        ("hnn-relators", {"group": "grigorchuk", "presentation": "full"}, "pass", 10),
        ("hnn-relators", {"group": "grigorchuk", "presentation": "short"}, "pass", 10),
        ("hnn-relators", {"group": "basilica", "presentation": "t-relators"}, "pass", 10),
    ]),
    ("criterion_5_vertex_transitivity", "5 vertex transitivity witnesses", [
        ("transitivity", {"group": g}, "pass", 30) for g in ("grigorchuk", "basilica")
    ]),
    ("criterion_6_two_transitivity", "6 two-transitivity at levels 1..6", [
        ("two-transitivity", {"group": g}, "pass", 30) for g in ("grigorchuk", "basilica")
    ]),
    ("criterion_7_end_and_dilation", "7 end fixing and dilation exponents", [
        row for g, product in GENERATOR_PRODUCTS.items() for row in (
            ("spine", {"group": g}, "pass", None),
            ("dilation", {"group": g, "element": product, "expect": 0}, "pass", None),
            ("dilation", {"group": g}, "pass", None),
        )
    ]),
    ("criterion_8_lamplighter_lemmas", "8 lamplighter lemmas", [
        ("lamplighter-alpha", {"bound": 10}, "pass", None),
        ("lamplighter-core", {}, "pass", None),
    ]),
    ("criterion_9_property_suites", "9 property suites (seeded)", [
        ("properties", {}, "pass", None),
    ]),
]


def _run_rows(title, rows):
    """One criterion: every row's check, its status and its budget."""
    t0 = time.perf_counter()
    evidence = {}
    ok = True
    for check_id, params, expected, budget in rows:
        report = run_check(check_id, params)
        evidence.setdefault(report.check, {}).update(report.evidence)
        if report.status != expected:
            evidence.setdefault("unexpected", []).append(
                f"{report.check}: {report.status}, expected {expected}")
            ok = False
        if budget is not None and report.seconds >= budget:
            evidence.setdefault("over budget", []).append(
                f"{report.check}: {report.seconds:.2f}s of {budget}s")
            ok = False
    return CheckReport(title, "pass" if ok else "fail", evidence, time.perf_counter() - t0)


def _criterion(name, title, rows):
    def criterion():
        return _run_rows(title, rows)
    criterion.__name__ = criterion.__qualname__ = name
    criterion.__doc__ = title
    return criterion


CRITERIA = [_criterion(*row) for row in TABLE]


def run_all(verbose=True):
    reports = []
    for criterion in CRITERIA:
        report = criterion()
        reports.append(report)
        if verbose:
            print(f"[{'PASS' if report.ok else 'FAIL'}] {report.check} ({report.seconds:.2f}s)")
    return reports
