"""The acceptance suite: the finite computations the toolkit must reproduce.

Criteria 1-8 are rows over the named checks: each row is (check id,
params, expected status, budget in seconds or None) and runs through
`checks.run_check`, so `arboreal run <check>` with the same params
reproduces it.  A criterion passes when every row ends in its expected
status within its budget; its evidence maps each check's report name to
that report's evidence.  Criterion 9, the seeded property suites, has no
matching check and stays as code: a single counterexample fails it.
`run_all` prints one pass/fail line per criterion.
"""

from __future__ import annotations

import random
import time

from . import catalog as _catalog
from .checks import CheckReport, DEFAULT_SEED, run_check
from .hnn import (
    HnnElement,
    canonical_vertices,
    hnn_inverse,
    hnn_is_trivial,
    hnn_multiply,
    theta_apply,
)
from .padic import BoundaryPoint, boundary_distance

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


def _random_word(automaton, names, rng, max_len):
    word = []
    for _ in range(rng.randint(0, max_len)):
        word.append((rng.choice(names), rng.choice((1, -1))))
    return automaton.reduce(tuple(word))


def _random_hnn(action, rng, max_len):
    names = list(action.generators()) + ["t", "T"]
    e = HnnElement(0, (), 0)
    for _ in range(rng.randint(1, max_len)):
        sym = rng.choice(names)
        if sym == "t":
            step = HnnElement(0, (), 1)
        elif sym == "T":
            step = HnnElement(1, (), 0)
        else:
            step = HnnElement(0, ((sym, rng.choice((1, -1))),), 0)
        e = hnn_multiply(e, step, action)
    return e


def _moved_vertex(e, action, start, stop):
    """A vertex moved by a decided-nontrivial element, searching outward."""
    for bound in range(start, stop + 1):
        for v in canonical_vertices(action, bound, bound):
            if theta_apply(e, v, action) != v:
                return v
    return None


def criterion_9_property_suites():
    """Algebra laws, ultrametric, theta homomorphism, triviality agreement."""
    t0 = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    evidence = {}
    ok = True

    # tree-core algebra laws on every catalog group
    for entry in _catalog.entries_with_sigma():
        aut = entry.automaton
        names = list(entry.generators)
        good = True
        for _ in range(60):
            g = aut.element(_random_word(aut, names, rng, 6))
            h = aut.element(_random_word(aut, names, rng, 6))
            level = rng.randint(1, 6)
            v = tuple(rng.randrange(aut.size) for _ in range(level))
            if (g * h).act(v) != h.act(g.act(v)):
                good = False
            left = (g * h).section(v)
            right = g.section(v) * h.section(g.act(v))
            if not left.same_action(right):
                good = False
            if g.inverse().inverse().act(v) != g.act(v):
                good = False
            if not (g * g.inverse()).is_trivial():
                good = False
        evidence[f"{entry.id}.algebra"] = good
        ok &= good

    # ultrametric inequality at the exponent level
    d = 2
    good = True
    for _ in range(300):
        pts = []
        for _ in range(3):
            offset = rng.randint(-6, 1)
            digits = tuple(rng.randrange(d) for _ in range(10))
            pts.append(BoundaryPoint(offset, digits, d, 0))
        x, y, z = pts
        lxz = boundary_distance(x, z)
        lxy = boundary_distance(x, y)
        lyz = boundary_distance(y, z)
        if None in (lxz, lxy, lyz):
            continue
        # distance d^(-l+1) is monotone decreasing in l
        if not lxz >= min(lxy, lyz):
            good = False
    evidence["ultrametric"] = good
    ok &= good

    # theta is a homomorphism (sampled), and triviality agrees with the action
    for entry in _catalog.entries_with_sigma():
        action = entry.action()
        w_max = 4 if action.automaton.size == 2 else 2
        vertices = list(canonical_vertices(action, 4, w_max))
        hom_good = True
        for _ in range(100):
            e1 = _random_hnn(action, rng, 6)
            e2 = _random_hnn(action, rng, 6)
            prod = hnn_multiply(e1, e2, action)
            v = rng.choice(vertices)
            if theta_apply(prod, v, action) != theta_apply(e2, theta_apply(e1, v, action), action):
                hom_good = False
        evidence[f"{entry.id}.theta-hom"] = hom_good
        ok &= hom_good

        agree = True
        for k in range(500):
            e = _random_hnn(action, rng, 10)
            if k % 7 == 0:
                # fold in elements that are trivial by construction
                e = hnn_multiply(e, hnn_inverse(e), action)
            decided = hnn_is_trivial(e, action)
            acted = all(theta_apply(e, v, action) == v for v in vertices)
            if decided and not acted:
                agree = False       # decision says trivial but a vertex moved
            elif not decided and acted:
                # nontrivial per the decision but quiet on the window: the
                # witness must exist deeper (e.g. a^4 in the Basilica group
                # first moves level 5); escalate until it is found
                if _moved_vertex(e, action, start=w_max + 1, stop=16) is None:
                    agree = False
        evidence[f"{entry.id}.triviality-agreement"] = agree
        ok &= agree

    return CheckReport("9 property suites (seeded)", "pass" if ok else "fail", evidence,
                       time.perf_counter() - t0)


CRITERIA = [_criterion(*entry) for entry in TABLE] + [criterion_9_property_suites]


def run_all(verbose=True):
    reports = []
    for criterion in CRITERIA:
        report = criterion()
        reports.append(report)
        if verbose:
            print(f"[{'PASS' if report.ok else 'FAIL'}] {report.check} ({report.seconds:.2f}s)")
    return reports
