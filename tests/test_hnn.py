import itertools
import random

import pytest

from arboreal import catalog as cat
from arboreal.core import fmt_word
from arboreal.hnn import (
    HNN_IDENTITY,
    HnnElement,
    ScaleAction,
    UnrootedVertex,
    canonicalize,
    hnn_inverse,
    hnn_is_trivial,
    hnn_multiply,
    hnn_power,
    parse_hnn,
    parse_unrooted,
    spine_vertex,
    stabilizer_projection_check,
    tau_apply,
    theta_apply,
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
    v = parse_unrooted("2:01")
    assert v == UnrootedVertex(2, (0, 1))
    assert str(v) == "2:01"
    assert str(parse_unrooted("0:")) == "0:"
    with pytest.raises(ValueError):
        UnrootedVertex(-1, ())


def test_tau_examples():
    lam = UnrootedVertex(0, ())
    assert tau_apply(lam, 1, 0) == UnrootedVertex(1, ())
    assert tau_apply(lam, 1, 0).level == -1
    v = tau_apply(UnrootedVertex(0, (1,)), 1, 0)
    assert v == UnrootedVertex(1, (1,)) and v.level == 0


def test_tau_roundtrip_random():
    rng = random.Random(3)
    for _ in range(100):
        v = canonicalize(
            UnrootedVertex(rng.randint(0, 5),
                           tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))), 0)
        k = rng.randint(-4, 4)
        assert tau_apply(tau_apply(v, k, 0), -k, 0) == v
        assert tau_apply(v, k, 0).level == v.level - k


def test_spine_vertices():
    assert spine_vertex(-3, 0) == UnrootedVertex(3, ())
    assert spine_vertex(2, 0) == UnrootedVertex(0, (0, 0))
    assert spine_vertex(0, 1) == UnrootedVertex(0, ())


def test_tau_shifts_spine_by_one_level():
    for letter in (0, 1):
        for level in range(-20, 21):
            v = spine_vertex(level, letter)
            assert tau_apply(v, 1, letter) == spine_vertex(level - 1, letter)


def test_scale_action_requires_certified_sigma():
    entry = cat.get("grigorchuk")
    bogus = Substitution.parse(entry.automaton, {n: n for n in "abcd"}, letter=0)
    with pytest.raises(LiftingError):
        ScaleAction(entry.automaton, bogus)


def test_theta_fixes_spine(grig_action):
    for name in grig_action.generators():
        e = grig_action.element(((name, 1),))
        for level in range(-12, 1):
            v = spine_vertex(level, grig_action.letter)
            assert theta_apply(e, v, grig_action) == v


def test_theta_fixes_deep_vertex(grig_action):
    v = UnrootedVertex(0, (1,) * 5000)
    assert theta_apply(grig_action.element((("b", 1),)), v, grig_action) == v


def test_theta_sections_along_spine_are_P_n(grig_action):
    # theta(a) on (n, w) equals (n, P_n(w)) for |w| <= 4, n <= 6
    entry = cat.get("grigorchuk")
    theta_a = grig_action.theta(entry.element("a").word)
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
    direct = grig_action.theta(entry.sigma().image("a"))
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
        e = hnn_multiply(e, hnn_inverse(grig_action.theta(sigma.image(s))), grig_action)
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
    assert e.displacement == -1
    cube = hnn_power(e, 3, grig_action)
    assert cube.displacement == -3
    rng = random.Random(4)
    for _ in range(50):
        v = canonicalize(
            UnrootedVertex(rng.randint(0, 4),
                           tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))), 1)
        image = theta_apply(e, v, grig_action)
        # tau^-m raises the level by m, tau^n lowers it by n
        assert image.level - v.level == e.displacement


def test_conjugation_identity_action(basilica_action):
    # t g t^-1 and sigma(g) act identically
    entry = cat.get("basilica")
    sigma = entry.sigma()
    rng = random.Random(12)
    for name in ("a", "b"):
        conj = parse_hnn(f"t*{name}*T", basilica_action)
        direct = basilica_action.theta(sigma.image(name))
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


def test_stabilizer_projection_generators(grig_action):
    entry = cat.get("grigorchuk")
    elements = entry.elements()
    samples = [elements[n].word for n in "abcd"]
    report = stabilizer_projection_check(grig_action, depth=5,
                                         powers=(1, 2), sample_words=samples)
    assert report.ok
    assert set(report.generator_projections) == set("abcd")


def test_stabilizer_projection_conjugate_of_d(grig_action):
    # t^-1 d t stabilizes Lambda and projects to pi_1(d) = b
    entry = cat.get("grigorchuk")
    report = stabilizer_projection_check(
        grig_action, depth=5, powers=(1,), sample_words=[entry.elements()["d"].word])
    assert report.ok
    (desc, fixes, projection, kernel_ok), = report.sampled
    assert fixes and kernel_ok
    assert entry.element("b").same_action(entry.automaton.element(projection))


def test_theta_portrait_periodic_column(grig_action):
    entry = cat.get("grigorchuk")
    nodes = theta_portrait(entry.element("b"), grig_action, up=3, down=3)
    # sections at the spine vertices cycle b -> d -> c with period 3
    aut = entry.automaton
    top = grig_action.sigma_word(entry.element("b").word, 3)
    spine_labels = {}
    for v in nodes:
        if set(v.word) <= {1}:
            sec = aut.element(aut.section_word(top, v.word))
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
