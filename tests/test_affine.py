"""BS(1,3)'s certified affine model over Z_2 against the closure search, and
the affine groups of Q_p, written as --spec bundles, as controls whose
two-transitivity and orders are known in closed form."""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from arboreal import catalog as cat
from arboreal.checks import run_check
from arboreal.core import MealyAutomaton, invert_word


@pytest.fixture(scope="module")
def bs13():
    return cat.get("bs13")


def _model_free(automaton):
    """The same recursion with empty memos and no affine model."""
    return MealyAutomaton(automaton.size, {s: automaton.rule(s)
                                           for s in automaton.states if s != "1"})


def seed2_word(entry):
    """Four c^-1 r c, with c of 32 mixed-sign letters, drawn from Random(2)."""
    rng = random.Random(2)
    relators = entry.relators(1)
    word = ()
    for _ in range(4):
        c = tuple((rng.choice("abc"), rng.choice((1, -1))) for _ in range(32))
        word += invert_word(c) + rng.choice(relators)[1] + c
    return word


def test_catalog_model_is_certified_and_stays_out_of_the_json(bs13):
    assert bs13.automaton.affine is not None
    assert "affine" not in bs13.to_json_dict()
    assert all(entry.automaton.affine is None
               for gid, entry in cat.catalog().items() if gid != "bs13")


def test_model_maps_match_the_action_on_level_12(bs13):
    # independent of the certificate: read every vertex of level 12 as a
    # 2-adic integer with odd levels flipped, and apply x -> alpha x + beta
    aut = bs13.automaton
    maps = {"a": (Fraction(1, 3), Fraction(-1, 3)), "b": (Fraction(1, 3), Fraction(-2, 3)),
            "c": (Fraction(1, 3), Fraction(0))}
    level = 12

    def value(v):
        return sum((x ^ (k % 2)) << k for k, x in enumerate(v))

    for v in product((0, 1), repeat=level):
        x = value(v)
        for s, (alpha, beta) in maps.items():
            image = alpha * x + beta
            expect = image.numerator * pow(image.denominator, -1, 2 ** level) % 2 ** level
            assert value(aut.act_word(((s, 1),), v)) == expect, (s, v)


def test_model_agrees_with_the_closure_search(bs13):
    aut = bs13.automaton
    oracle = _model_free(aut)
    names = list(bs13.generators)
    relators = [w for _, w in bs13.relators(1)]
    rng = random.Random(11)
    words = [((s, 1), (s, 1)) for s in names]      # nontrivial, fixing level 1
    words += [(("c", 1),), (("c", -1), ("a", 1), ("a", 1))]
    conjugated = []
    for k in range(420):
        if k % 3 == 0:
            word = tuple((rng.choice(names), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 16)))
        else:
            word = ()
            for _ in range(rng.randint(1, 2)):
                c = tuple((rng.choice(names), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 6)))
                word += invert_word(c) + rng.choice(relators) + c
            if k % 3 == 1:
                conjugated.append(word)
            else:       # one letter more: nontrivial, as BS(1,3) is torsion-free
                word += ((rng.choice(names), rng.choice((1, -1))),)
        words.append(word)
    verdicts = [aut.word_is_trivial(w) for w in words]
    assert verdicts == [oracle.word_is_trivial(w) for w in words]
    assert len(words) >= 400 and 100 <= sum(verdicts) < len(words)
    assert all(aut.word_is_trivial(w) for w in conjugated)
    fixing = [w for w, v in zip(words, verdicts) if not v and aut.root_perm(w) == (0, 1)]
    assert len(fixing) >= 10
    assert not aut._trivial and not aut._nontrivial      # the model leaves the memos alone


def test_seed2_word_and_a_long_word_decide_fast(bs13):
    aut = bs13.automaton
    word = seed2_word(bs13)
    assert len(word) == 284
    t0 = time.process_time()
    assert aut.word_is_trivial(word)
    assert time.process_time() - t0 < 0.1
    assert not aut.word_is_trivial(word + (("a", 1),))
    rng = random.Random(3)
    c = tuple((rng.choice("abc"), rng.choice((1, -1))) for _ in range(40_000))
    t0 = time.process_time()
    assert aut.word_is_trivial(invert_word(c) + bs13.relators(0)[1][1] + c)
    assert not aut.word_is_trivial(c + c)
    assert time.process_time() - t0 < 0.5


def test_extend_does_not_inherit_the_model(bs13):
    ext = bs13.automaton.extend({"q": ((1, 0), ((("a", 1),), ()))})
    assert ext.affine is None
    assert ext.word_is_trivial(bs13.relators(0)[0][1])
    assert ext._trivial


# ---------------------------------------------------------------------------
# affine groups of Q_p: G = <x -> x+1, x -> r x> on Z_p, digits lowest first

def _cycles(perm):
    """A permutation of 0..d-1 in the wreath grammar's 1-based cycles."""
    out, seen = "", set()
    for start in range(len(perm)):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x + 1)
            x = perm[x]
        if len(cycle) > 1:
            out += "(" + ",".join(map(str, cycle)) + ")"
    return out


def affine_bundle(p, r):
    """The --spec bundle of G for a prime p and a unit r mod p.

    The states are a (x -> x+1) and m_c (x -> r x + c) for 0 <= c < r: m_c
    writes (r x0 + c) mod p and carries m_floor((r x0 + c)/p).  The lifting
    x -> p x at letter 0 sends a to a^p and m_c to m0*a^(pc), and the
    affine model gives each state its map.
    """
    def state(name, images, below):
        sections = ",".join(below)
        return f"{name}=({sections}){_cycles(images)}"

    rules = [state("a", [(x + 1) % p for x in range(p)], ["1"] * (p - 1) + ["a"])]
    for c in range(r):
        rules.append(state(f"m{c}", [(r * x + c) % p for x in range(p)],
                           [f"m{(r * x + c) // p}" for x in range(p)]))
    images = {"a": f"a^{p}"} | {f"m{c}": f"m0*a^{p * c}" if c else "m0" for c in range(r)}
    maps = {"a": ["1", "1"]} | {f"m{c}": [str(r), str(c)] for c in range(r)}
    return {"wreath": ",".join(rules),
            "substitutions": {"sigma": {"letter": 0, "images": images}},
            "default_sigma": "sigma",
            "affine": {"relabel": [list(range(p))], "maps": maps}}


def _run_affine(tmp_path, p, r, check, **params):
    spec = tmp_path / f"affine_{p}_{r}.json"
    spec.write_text(json.dumps(affine_bundle(p, r)))
    return run_check(check, {"spec": str(spec), **params})


def test_affine_bundles_load_with_a_certified_model(tmp_path):
    assert affine_bundle(3, 2)["wreath"] == \
        "a=(1,1,a)(1,2,3),m0=(m0,m0,m1)(2,3),m1=(m0,m1,m1)(1,2)"
    for p, r in ((3, 2), (5, 7), (2, 3), (5, 4)):
        spec = tmp_path / "affine.json"
        spec.write_text(json.dumps(affine_bundle(p, r)))
        assert cat.load_spec(str(spec)).automaton.affine is not None, (p, r)


# the check passes at level l iff r generates (Z/p^l)^*: levels 1..6 for
# (3, 2), 1 for (5, 7), 1..2 for (2, 3), none for (5, 4)
@pytest.mark.parametrize("p, r, level, passes", [
    (3, 2, 3, {1: True, 2: True, 3: True}),
    (5, 7, 2, {1: True, 2: False}),
    (2, 3, 3, {1: True, 2: True, 3: False}),
    (5, 4, 1, {1: False}),
    (3, 2, 6, {l: True for l in range(1, 7)}),
])
def test_affine_two_transitivity(tmp_path, p, r, level, passes):
    report = _run_affine(tmp_path, p, r, "two-transitivity", level=level)
    assert report.evidence["levels"] == passes
    assert report.status == ("pass" if all(passes.values()) else "fail")


@pytest.mark.parametrize("gid", ["gs3", "gs5", "gs7"])
def test_catalog_ggs_groups_fail_two_transitivity_from_level_1(gid):
    """The catalog's groups with d > 2 all fail where the (3, 2) bundle passes."""
    report = run_check("two-transitivity", {"group": gid, "level": 1})
    assert report.status == "fail" and report.evidence["levels"] == {1: False}


@pytest.mark.parametrize("p, r, orders", [
    (3, 2, {2: 54, 3: 486, 4: 4374}),
    (5, 7, {2: 100, 3: 2500, 4: 62500}),
])
def test_affine_orders_are_p_to_the_l_times_the_order_of_r(tmp_path, p, r, orders):
    for level, order in orders.items():
        ord_r = next(k for k in range(1, p ** level) if pow(r, k, p ** level) == 1)
        assert order == p ** level * ord_r
        assert _run_affine(tmp_path, p, r, "perm-order", level=level).evidence["order"] == order


@pytest.mark.parametrize("check", ["lifting", "witnesses", "spine", "dilation"])
def test_affine_3_2_passes(tmp_path, check):
    assert _run_affine(tmp_path, 3, 2, check).status == "pass"
