import itertools
import random
import sys
import threading

import pytest

from arboreal import acceptance, hnn
from arboreal import catalog as cat
from arboreal.checks import run_check
from arboreal.core import fmt_word, invert_word
from arboreal.hnn import (
    HNN_IDENTITY,
    HnnElement,
    ScaleAction,
    UnrootedVertex,
    canonical_vertices,
    canonicalize,
    hnn_inverse,
    hnn_is_trivial,
    hnn_multiply,
    moved_vertex,
    parse_hnn,
    sigma_mismatch,
    theta_apply,
    theta_map,
    theta_portrait,
    transitivity_witness,
    two_transitivity_level_check,
)
from arboreal.lifting import LiftingError, Substitution


@pytest.fixture(scope="module")
def grig_action():
    return cat.get("grigorchuk").action()


@pytest.fixture(scope="module")
def basilica_action():
    return cat.get("basilica").action()


def test_canonicalize_examples():
    assert canonicalize(UnrootedVertex(2, (0, 0)), 0) == UnrootedVertex(0, ())
    assert canonicalize(UnrootedVertex(1, (1, 0)), 0) == UnrootedVertex(1, (1, 0))
    v = canonicalize(UnrootedVertex(3, (0, 0, 0, 1)), 0)
    assert v == UnrootedVertex(0, (1,))
    assert UnrootedVertex(3, (0, 0, 0, 1)).level == v.level == 1


def test_canonicalize_respects_letter():
    # the Grigorchuk embedding strips the letter 1
    assert canonicalize(UnrootedVertex(2, (1, 1, 0)), 1) == UnrootedVertex(0, (0,))
    assert canonicalize(UnrootedVertex(2, (0, 1)), 1) == UnrootedVertex(2, (0, 1))


def test_unrooted_parse_format():
    assert str(UnrootedVertex(2, (0, 1))) == "2:01"
    assert str(UnrootedVertex(0, ())) == "0:"
    with pytest.raises(ValueError):
        UnrootedVertex(-1, ())


def _tau(v, k, action):
    """theta(t^k) on a vertex: the shift by k levels toward the fixed end."""
    return theta_apply(action.element((), max(-k, 0), max(k, 0)), v, action)


def test_tau_examples(basilica_action):
    lam = UnrootedVertex(0, ())
    assert _tau(lam, 1, basilica_action) == UnrootedVertex(1, ())
    assert _tau(lam, 1, basilica_action).level == -1
    v = _tau(UnrootedVertex(0, (1,)), 1, basilica_action)
    assert v == UnrootedVertex(1, (1,)) and v.level == 0


def test_tau_roundtrip_random(basilica_action):
    rng = random.Random(3)
    for _ in range(100):
        v = canonicalize(
            UnrootedVertex(rng.randint(0, 5),
                           tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))), 0)
        k = rng.randint(-4, 4)
        assert _tau(_tau(v, k, basilica_action), -k, basilica_action) == v
        assert _tau(v, k, basilica_action).level == v.level - k


def _spine_vertex(level, letter):
    """The spine vertex at a given (possibly negative) level."""
    return UnrootedVertex(-level, ()) if level < 0 else UnrootedVertex(0, (letter,) * level)


def test_spine_vertices():
    assert _spine_vertex(-3, 0) == UnrootedVertex(3, ())
    assert _spine_vertex(2, 0) == UnrootedVertex(0, (0, 0))
    assert _spine_vertex(0, 1) == UnrootedVertex(0, ())
    for letter in (0, 1):
        for level in range(-5, 6):   # (5, i^(5+level)) lies on the spine at that level
            v = UnrootedVertex(5, (letter,) * (5 + level))
            assert canonicalize(v, letter) == _spine_vertex(level, letter)


def test_tau_shifts_spine_by_one_level(basilica_action, grig_action):
    for action in (basilica_action, grig_action):   # spine letters 0 and 1
        for level in range(-20, 21):
            v = _spine_vertex(level, action.letter)
            assert _tau(v, 1, action) == _spine_vertex(level - 1, action.letter)


def test_scale_action_requires_certified_sigma():
    entry = cat.get("grigorchuk")
    bogus = Substitution.parse(entry.automaton, {n: n for n in "abcd"}, letter=0)
    with pytest.raises(LiftingError):
        ScaleAction(entry.automaton, bogus)


def test_theta_fixes_spine(grig_action):
    for name in grig_action.generators():
        e = grig_action.element(((name, 1),))
        for level in range(-12, 1):
            v = _spine_vertex(level, grig_action.letter)
            assert theta_apply(e, v, grig_action) == v


def _act_sigma(action, word, k, v):
    """act(sigma^k(word), v): the window v of the copy T^k under a one-shot theta_map."""
    return theta_map(HnnElement(0, word, 0), action)(1 - k, v)[1]


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.catalog().values() for name in entry.substitutions])
def test_lifting_shortcut(gid, sigma_name):
    # sigma^k(g) acts on i^r w as i^r sigma^(k-r)(g)(w) for r <= k, which
    # lets theta_map leave a leading spine run unexpanded
    entry = cat.get(gid)
    action = entry.action(sigma_name)
    aut = action.automaton
    i, d = action.letter, aut.size
    rng = random.Random(17)
    for _ in range(40):
        g = tuple((rng.choice(entry.generators), rng.choice((1, -1)))
                  for _ in range(rng.randrange(1, 6)))
        k = rng.randrange(5)
        r = rng.randrange(k + 1)
        w = tuple(rng.randrange(d) for _ in range(rng.randrange(6)))
        assert aut.act_word(action.sigma_word(g, k), (i,) * r + w) == \
            (i,) * r + aut.act_word(action.sigma_word(g, k - r), w)


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.catalog().values() for name in entry.substitutions])
def test_act_sigma_matches_materialized_word(gid, sigma_name):
    # the section memo against the oracle: sigma^k(word) written out and
    # acted on directly, on windows shorter than, equal to and longer than k
    entry = cat.get(gid)
    action = entry.action(sigma_name)
    aut, d = action.automaton, action.automaton.size
    rng = random.Random(23)
    for k in range(7):
        for n in (0, max(k - 2, 1), k, k + 1, k + 5):
            for _ in range(4):
                g = tuple((rng.choice(entry.generators), rng.choice((1, -1)))
                          for _ in range(rng.randrange(4)))
                w = tuple(rng.randrange(d) for _ in range(n))
                assert _act_sigma(action, g, k, w) == aut.act_word(action.sigma_word(g, k), w)


def _materialized_window(e, offset, digits, action):
    """theta(e) on a window with sigma^k(g) written out and the spine run
    acted on: the oracle of `theta_map`."""
    offset += e.tneg
    if offset > 1:
        digits, offset = (action.letter,) * (offset - 1) + digits, 1
    word = action.sigma_word(e.word, 1 - offset)
    return offset - e.tpos, action.automaton.act_word(word, digits)


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.catalog().values() for name in entry.substitutions])
def test_theta_map_matches_the_materialized_word(gid, sigma_name):
    # seeded elements, the empty word and t-only elements among them, on
    # windows that t^-m lifts past the dot, windows shorter than the copy
    # depth k and windows led by spine runs; one map serves every window of
    # its element twice, and agrees with a fresh map per window
    entry = cat.get(gid)
    action = entry.action(sigma_name)
    aut, i = action.automaton, action.letter
    rng = random.Random(53)
    elements = [HNN_IDENTITY, HnnElement(2, (), 0), HnnElement(0, (), 3), HnnElement(1, (), 1)]
    for _ in range(12):
        word = tuple((rng.choice(entry.generators), rng.choice((1, -1)))
                     for _ in range(rng.randrange(1, 5)))
        elements.append(HnnElement(rng.randrange(3), aut.reduce(word), rng.randrange(3)))
    seen = set()
    for e in elements:
        windows = [(rng.randint(-5, 4), (i,) * rng.randrange(4)
                    + tuple(rng.randrange(aut.size) for _ in range(rng.randrange(8))))
                   for _ in range(30)]
        expected = [_materialized_window(e, offset, digits, action) for offset, digits in windows]
        bound = theta_map(e, action)
        for _ in range(2):
            assert [bound(*window) for window in windows] == expected
        assert [theta_map(e, action)(*window) for window in windows] == expected
        for offset, digits in windows:
            k = 1 - offset - e.tneg
            seen |= {("padded", k < 0), ("short", 0 < len(digits) < k),
                     ("spine run", k > 0 and digits[:1] == (i,)),
                     ("empty word", not e.word), ("t only", not e.word and e.tneg + e.tpos > 0)}
    assert {kind for kind, hit in seen if hit} == {
        "padded", "short", "spine run", "empty word", "t only"}


def test_criterion_7_memo_sizes(monkeypatch):
    # criterion 7 on fresh actions: only the spine rows fill the sigma-power
    # memo, with the prefixes of one (3, 3) box of windows per generator
    entries = cat.entries_with_sigma()
    for entry in entries:
        monkeypatch.setattr(entry, "_actions", {})
    criterion = next(f for f in acceptance.CRITERIA if f.__name__.startswith("criterion_7"))
    assert criterion().ok
    assert {entry.id: len(entry.action()._act_cache) for entry in entries} == {
        "grigorchuk": 32, "basilica": 16, "img_z2i": 24, "lamplighter": 22,
        "bs13": 30, "g01inf": 32, "gs5": 280, "gs7": 742}


@pytest.mark.parametrize("gid", ["lamplighter", "bs13"])
def test_deep_copy_memo_stays_small(gid):
    # a memo keyed on whole windows grows about 2^m on these liftings
    entry = cat.get(gid)
    action = ScaleAction(entry.automaton, entry.sigma())
    e = action.element(entry.element("a*b").word)
    v = theta_apply(e, UnrootedVertex(24, (1,) * 26), action)
    assert v.copy == 24 and len(v.word) == 26
    assert len(action._act_cache) < 10_000


def test_theta_at_deep_copy_needs_no_recursion():
    entry = cat.get("grigorchuk")
    action = ScaleAction(entry.automaton, entry.sigma())
    g = entry.element("a*b").word
    deep = UnrootedVertex(3000, (0,) * 3006)
    v = theta_apply(action.element(g), deep, action)
    assert v != deep and v.copy == 3000
    assert theta_apply(action.element(invert_word(g)), v, action) == deep


def test_act_sigma_memo_shared_by_threads():
    # the memo and the prefix ids are shared state; threads that fill them
    # at once must agree with one thread filling a memo of its own
    entry = cat.get("lamplighter")
    rng = random.Random(31)
    cases = [(tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(3)), rng.randrange(9),
              tuple(rng.randrange(2) for _ in range(rng.randrange(1, 14)))) for _ in range(300)]
    alone = ScaleAction(entry.automaton, entry.sigma())
    expected = [_act_sigma(alone, *case) for case in cases]
    shared = ScaleAction(entry.automaton, entry.sigma())
    results = [None] * 6

    def work(slot):
        results[slot] = [_act_sigma(shared, *case) for case in cases[slot:] + cases[:slot]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot, got in enumerate(results):
        assert got == expected[slot:] + expected[:slot]


def test_theta_fixes_deep_vertex(grig_action):
    v = UnrootedVertex(0, (1,) * 5000)
    assert theta_apply(grig_action.element((("b", 1),)), v, grig_action) == v


def test_theta_sections_along_spine_are_P_n(grig_action):
    # theta(a) on (n, w) equals (n, P_n(w)) for |w| <= 4, n <= 6
    entry = cat.get("grigorchuk")
    theta_a = grig_action.element(entry.element("a").word)
    for n in range(7):
        p = entry.element(cat.grig_P(n))
        for ln in range(5):
            for w in itertools.product(range(2), repeat=ln):
                got = theta_apply(theta_a, UnrootedVertex(n, w), grig_action)
                want = canonicalize(UnrootedVertex(n, p.act(w)), grig_action.letter)
                assert got == want


def test_theta_normal_form_vs_two_sided(grig_action):
    # theta(t a t^-1) equals theta(sigma(a)) pointwise (t g t^-1 = sigma(g))
    entry = cat.get("grigorchuk")
    via_normal_form = parse_hnn("t*a*T", grig_action)
    direct = grig_action.element(entry.sigma().image("a"))
    rng = random.Random(9)
    for _ in range(200):
        v = canonicalize(
            UnrootedVertex(rng.randint(0, 5),
                           tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))), 1)
        assert theta_apply(via_normal_form, v, grig_action) == theta_apply(direct, v, grig_action)


def test_hnn_multiply_cases(grig_action):
    t = parse_hnn("t", grig_action)
    T = parse_hnn("T", grig_action)
    a = parse_hnn("a", grig_action)
    # n1 >= m2 branch
    ta = hnn_multiply(t, a, grig_action)
    assert (ta.tneg, ta.tpos) == (0, 1)
    assert fmt_word(ta.word) == "a*c*a"    # t a = sigma(a) t
    # n1 < m2 branch
    aT = hnn_multiply(a, T, grig_action)
    assert (aT.tneg, aT.tpos) == (1, 0)
    assert fmt_word(aT.word) == "a*c*a"    # a T = T sigma(a)


def test_hnn_identities(grig_action):
    t = parse_hnn("t", grig_action)
    assert hnn_is_trivial(hnn_multiply(t, hnn_inverse(t), grig_action), grig_action)
    assert hnn_is_trivial(HNN_IDENTITY, grig_action)
    # conjugation relators t s t^-1 sigma(s)^-1
    sigma = cat.get("grigorchuk").sigma()
    for s in "abcd":
        e = parse_hnn(f"t*{s}*T", grig_action)
        e = hnn_multiply(e, hnn_inverse(grig_action.element(sigma.image(s))), grig_action)
        assert hnn_is_trivial(e, grig_action)


def test_hnn_presentations_all_trivial(grig_action):
    entry = cat.get("grigorchuk")
    for name, relators in entry.hnn_presentations.items():
        for text in relators:
            assert hnn_is_trivial(parse_hnn(text, grig_action), grig_action), (name, text)


def test_hnn_printed_rotation_invariant_relators(grig_action):
    for text in ("a^2", "(Tata)^8", "(T^2ataTat^2aTata)^4"):
        assert hnn_is_trivial(parse_hnn(text, grig_action), grig_action)


def test_basilica_t_relators(basilica_action):
    for text in cat.get("basilica").hnn_presentations["t-relators"]:
        assert hnn_is_trivial(parse_hnn(text, basilica_action), basilica_action)


def test_img_t_relators():
    action = cat.get("img_z2i").action()
    for text in cat.get("img_z2i").hnn_presentations["t-relators"]:
        assert hnn_is_trivial(parse_hnn(text, action), action)


def test_hnn_power_and_displacement(grig_action):
    e = parse_hnn("T*a*t^2", grig_action)
    assert e.tneg - e.tpos == -1
    cube = parse_hnn("(T*a*t^2)^3", grig_action)
    assert cube.tneg - cube.tpos == -3
    rng = random.Random(4)
    for _ in range(50):
        v = canonicalize(
            UnrootedVertex(rng.randint(0, 4),
                           tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))), 1)
        image = theta_apply(e, v, grig_action)
        # tau^-m raises the level by m, tau^n lowers it by n
        assert image.level - v.level == e.tneg - e.tpos


def test_conjugation_identity_action(basilica_action):
    # t g t^-1 and sigma(g) act identically
    entry = cat.get("basilica")
    sigma = entry.sigma()
    rng = random.Random(12)
    for name in ("a", "b"):
        conj = parse_hnn(f"t*{name}*T", basilica_action)
        direct = basilica_action.element(sigma.image(name))
        for m in range(5):
            for ln in range(5):
                for w in itertools.product(range(2), repeat=ln):
                    v = UnrootedVertex(m, w)
                    if canonicalize(v, 0) != v:
                        continue
                    assert theta_apply(conj, v, basilica_action) == \
                        theta_apply(direct, v, basilica_action)


def test_transitivity_witness_identity(basilica_action):
    e = transitivity_witness(UnrootedVertex(0, ()), basilica_action)
    assert hnn_is_trivial(e, basilica_action)


def test_transitivity_witness_grigorchuk_letter(grig_action):
    # the witness onto (0, 0) is the generator a (it swaps 1... and 0...)
    target = UnrootedVertex(0, (0,))
    e = transitivity_witness(target, grig_action)
    assert theta_apply(e, UnrootedVertex(0, ()), grig_action) == target
    assert e.word == (("a", 1),)


def test_transitivity_witness_all_small_basilica(basilica_action):
    lam = UnrootedVertex(0, ())
    for m in range(4):
        for ln in range(4):
            for w in itertools.product(range(2), repeat=ln):
                v = UnrootedVertex(m, w)
                if canonicalize(v, 0) != v:
                    continue
                e = transitivity_witness(v, basilica_action)
                assert e is not None
                assert theta_apply(e, lam, basilica_action) == v


def test_theta_homomorphism_sampled(grig_action):
    rng = random.Random(31)
    names = list(grig_action.generators()) + ["t", "T"]
    def random_element():
        e = HNN_IDENTITY
        for _ in range(rng.randint(1, 6)):
            sym = rng.choice(names)
            if sym == "t":
                step = HnnElement(0, (), 1)
            elif sym == "T":
                step = HnnElement(1, (), 0)
            else:
                step = HnnElement(0, ((sym, rng.choice((1, -1))),), 0)
            e = hnn_multiply(e, step, grig_action)
        return e
    for _ in range(100):
        e1, e2 = random_element(), random_element()
        v = canonicalize(
            UnrootedVertex(rng.randint(0, 4),
                           tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))), 1)
        lhs = theta_apply(hnn_multiply(e1, e2, grig_action), v, grig_action)
        rhs = theta_apply(e2, theta_apply(e1, v, grig_action), grig_action)
        assert lhs == rhs


def test_two_transitivity_examples():
    grig = list(cat.get("grigorchuk").elements().values())
    basilica = list(cat.get("basilica").elements().values())
    assert two_transitivity_level_check(grig, 3)
    assert two_transitivity_level_check(basilica, 3)
    assert two_transitivity_level_check(grig, 1)
    for l in range(1, 7):
        assert two_transitivity_level_check(grig, l)
        assert two_transitivity_level_check(basilica, l)


def test_two_transitivity_fails_for_small_group():
    # <d> acts trivially on the whole subtree below 0, so its 1^l-stabilizer
    # cannot move 0^l anywhere
    entry = cat.get("grigorchuk")
    assert not two_transitivity_level_check([entry.elements()["d"]], 2)


def test_two_transitivity_needs_every_first_letter_but_1():
    # for d > 2 the orbit of 0^l under Stab(1^l) must also reach the words
    # starting 2..d-1; a GGS group acts on the first level as a d-cycle, so
    # Stab(1) is trivial there and the orbit of 0 is {0}
    for gid in ("gs3", "gs5", "gs7"):
        assert not two_transitivity_level_check(cat.get(gid).generator_list(), 1), gid
    report = run_check("two-transitivity", {"group": "gs5", "level": 2})
    assert report.status == "fail" and report.evidence == {"levels": {1: False, 2: False}}


def test_stabilizer_projection_generators():
    report = run_check("stabilizer-projection", {"group": "grigorchuk", "depth": 5})
    assert report.ok
    assert report.evidence["generators"] == dict.fromkeys("abcd", True)
    assert report.evidence["sampled"] > 0 and report.evidence["sampled_failures"] == []


def test_stabilizer_projection_conjugate_of_d(grig_action):
    # t^-1 d t stabilizes Lambda and projects to pi_1(d) = b
    entry = cat.get("grigorchuk")
    aut, d, i = entry.automaton, entry.element("d").word, (grig_action.letter,)
    assert aut.act_word(d, i) == i
    e = grig_action.element(d, 1, 1)
    lam = UnrootedVertex(0, ())
    assert theta_apply(e, lam, grig_action) == lam
    projection = aut.section_word(d, i)
    assert entry.element("b").same_action(aut.element(projection))
    # theta(e) theta(b)^-1 lies in the kernel of the projection, to depth 5
    residual = hnn_multiply(e, hnn_inverse(grig_action.element(projection)), grig_action)
    assert moved_vertex(residual, grig_action, 0, 5) is None


def test_theta_portrait_periodic_column(grig_action):
    entry = cat.get("grigorchuk")
    top, nodes = theta_portrait(entry.element("b"), grig_action, up=3, down=3)
    # sections at the spine vertices cycle b -> d -> c with period 3
    aut = entry.automaton
    assert top.same_action(aut.element(grig_action.sigma_word(entry.element("b").word, 3)))
    spine_labels = {}
    for v in nodes:
        if set(v.word) <= {1}:
            sec = aut.element(aut.section_word(top.word, v.word))
            for name in "bcd":
                if sec.same_action(entry.elements()[name]):
                    spine_labels[v.level] = name
    assert spine_labels == {-3: "b", -2: "c", -1: "d", 0: "b", 1: "c", 2: "d", 3: "b"}


def test_hnn_triviality_agreement_sampled(basilica_action):
    rng = random.Random(77)
    names = list(basilica_action.generators()) + ["t", "T"]
    vertices = []
    for ln in range(5):
        for m in range(5):
            for w in itertools.product(range(2), repeat=ln):
                v = UnrootedVertex(m, w)
                if canonicalize(v, 0) == v:
                    vertices.append(v)
    for k in range(200):
        e = HNN_IDENTITY
        for _ in range(rng.randint(1, 8)):
            sym = rng.choice(names)
            if sym == "t":
                step = HnnElement(0, (), 1)
            elif sym == "T":
                step = HnnElement(1, (), 0)
            else:
                step = HnnElement(0, ((sym, rng.choice((1, -1))),), 0)
            e = hnn_multiply(e, step, basilica_action)
        if k % 5 == 0:
            e = hnn_multiply(e, hnn_inverse(e), basilica_action)
        decided = hnn_is_trivial(e, basilica_action)
        if decided:
            assert all(theta_apply(e, v, basilica_action) == v for v in vertices)
        # nontrivial elements may hide below the window (a^4 moves level 5
        # first); the acceptance suite escalates, here we only require the
        # one-sided implication


def _elements_of_each_kind(entry, action, rng):
    """(kind, element) pairs: unbalanced, t^-m t^m, balanced with a
    nontrivial word, balanced with a trivial nonempty word."""
    aut = action.automaton

    def word(n):
        return aut.reduce(tuple((rng.choice(entry.generators), rng.choice((1, -1)))
                                for _ in range(n)))

    out = []
    for _ in range(2):
        m = rng.randrange(4)
        out.append(("unbalanced", HnnElement(m, word(rng.randrange(4)), m + rng.randrange(1, 3))))
        out.append(("unbalanced", HnnElement(m + rng.randrange(1, 3), word(rng.randrange(4)), m)))
        out.append(("t^-m t^m", HnnElement(m, (), m)))
        w = ()
        while not w or aut.word_is_trivial(w):
            w = word(rng.randrange(1, 5))
        out.append(("nontrivial", HnnElement(m, w, m)))
        # g g^-1 left unreduced, and s*s for every involution s (a*a on Grigorchuk)
        g = word(rng.randrange(1, 4)) or ((entry.generators[0], 1),)
        out.append(("trivial word", HnnElement(m, g + invert_word(g), m)))
    for s in entry.generators:
        if aut.word_is_trivial(((s, 1), (s, 1))):
            m = rng.randrange(4)
            out.append(("trivial word", HnnElement(m, ((s, 1), (s, 1)), m)))
    return out


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.catalog().values() for name in entry.substitutions])
def test_moved_vertex_matches_the_plain_scan(gid, sigma_name):
    # the exact exits (unbalanced: the first vertex; empty word: None)
    # against applying theta(e) to every vertex of every box (0..4, 0..4)
    entry = cat.get(gid)
    action = entry.action(sigma_name)
    kinds = set()
    for kind, e in _elements_of_each_kind(entry, action, random.Random(41)):
        moved = {}   # vertex -> theta(e) moves it, shared by the boxes
        for copies in range(5):
            for length in range(5):
                expected = None
                for v in canonical_vertices(action, copies, length):
                    if v not in moved:
                        moved[v] = theta_apply(e, v, action) != v
                    if moved[v]:
                        expected = v
                        break
                assert moved_vertex(e, action, copies, length) == expected, (kind, str(e))
        kinds.add(kind)
    assert kinds == {"unbalanced", "t^-m t^m", "nontrivial", "trivial word"}


def _walked_mismatch(word, action, copies, length):
    """sigma_mismatch by walking sigma^m(word), written out, from the root for every window."""
    apply, aut = hnn.theta_map(action.element(word), action), action.automaton
    for m in range(copies + 1):
        written = aut._pack(action.sigma_word(word, m))
        for n in range(length + 1):
            for w in itertools.product(range(aut.size), repeat=n):
                if apply(1 - m, w) != (1 - m, aut._walk(written, w)[0]):
                    return m, w
    return None


def _theta_wrong_below(theta_map, n):
    """theta(e) with the last digit of every window of length n moved by one mod d."""
    def faulty(e, action):
        apply, d = theta_map(e, action), action.automaton.size

        def moved(offset, digits):
            offset, digits = apply(offset, digits)
            if len(digits) == n:
                digits = digits[:-1] + ((digits[-1] + 1) % d,)
            return offset, digits
        return moved
    return faulty


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.entries_with_sigma() for name in entry.substitutions])
def test_sigma_mismatch_matches_the_walk_of_every_window(gid, sigma_name, monkeypatch):
    # the levels of sigma^m(g) read through `_levels` against each window walked from the
    # root, with the true theta (no mismatch) and with theta wrong on one level of windows
    action = cat.get(gid).action(sigma_name)
    depths = range(6)
    for g in action.generators():
        word = ((g, 1),)
        for depth in depths:
            assert sigma_mismatch(word, action, depth, depth) is None
            assert _walked_mismatch(word, action, depth, depth) is None
    original = hnn.theta_map
    for n in depths[1:]:
        monkeypatch.setattr(hnn, "theta_map", _theta_wrong_below(original, n))
        for g in action.generators():
            word = ((g, 1),)
            for depth in depths:
                expected = _walked_mismatch(word, action, depth, depth)
                assert sigma_mismatch(word, action, depth, depth) == expected, (g, n, depth)
                assert expected == (None if depth < n else (0, (0,) * n))
