import random

import pytest

from arboreal import catalog as cat
from arboreal.core import (
    Alphabet,
    WreathSpecError,
    fmt_perm,
    fmt_vertex,
    fmt_word,
    invert_word,
    label_portrait,
    parse_tuple_automorphism,
    parse_vertex,
    parse_wreath_spec,
    pinv,
    pmul,
    portrait,
    portrait_dot,
    portrait_json,
)


@pytest.fixture(scope="module")
def grig():
    return cat.get("grigorchuk")


def test_alphabet_validation():
    assert list(Alphabet(3)) == [0, 1, 2]
    with pytest.raises(ValueError):
        Alphabet(1)


def test_perm_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert pmul(p, q)[0] == q[p[0]] == 2
    assert pmul(p, pinv(p)) == (0, 1, 2)
    assert fmt_perm((1, 0)) == "[1,0]"


def test_parse_wreath_spec_grigorchuk(grig):
    aut = grig.automaton
    assert set(aut.states) == {"1", "a", "b", "c", "d"}
    perm_a, sections_a = aut.rule("a")
    assert perm_a == (1, 0)
    assert sections_a == ((), ())
    _, sections_b = aut.rule("b")
    assert sections_b == ((("a", 1),), (("c", 1),))


def test_parse_wreath_spec_g01inf_matches_transcript():
    aut = parse_wreath_spec("a=(1,1)(1,2),b=(a,c),c=(1,b),d=(a,d)")
    # 4 named states plus the identity
    assert len(aut.states) == 5


def test_parse_wreath_spec_identity_only():
    aut = parse_wreath_spec("e=(e,e)")
    assert aut.state("e").is_trivial()


def test_parse_wreath_spec_basilica():
    aut = parse_wreath_spec("a=(b,1)(1,2),b=(a,1)")
    perm_a, sections_a = aut.rule("a")
    assert perm_a == (1, 0)
    assert sections_a == ((("b", 1),), ())


def test_parse_wreath_spec_image_notation():
    aut = parse_wreath_spec("a=(1,1)[1,0],b=(a,b)")
    assert aut.rule("a")[0] == (1, 0)


def test_parse_wreath_spec_errors():
    with pytest.raises(WreathSpecError):
        parse_wreath_spec("a=(1,zz)(1,2)")          # unknown name
    with pytest.raises(WreathSpecError):
        parse_wreath_spec("a=(1,1)(1,1)")            # repeated point: not a permutation
    with pytest.raises(WreathSpecError):
        parse_wreath_spec("a=(1,1)(1,2),b=(a,a,a)")  # wrong arity
    with pytest.raises(WreathSpecError):
        parse_wreath_spec("a=(1,1)(1,2)", alphabet=3)


def test_act_examples(grig):
    gens = grig.elements()
    a, c = gens["a"], gens["c"]
    # a swaps the first letter, trivial sections
    assert fmt_vertex(a.act(parse_vertex("0110"))) == "1110"
    # Convention 2.2: (ac)(0) = c(a(0)) = c(1) = 1
    assert (a * c).act((0,)) == (1,)
    assert a.act(()) == ()
    with pytest.raises(ValueError):
        a.act((2,))


def test_aca_decomposition(grig):
    gens = grig.elements()
    a, c, d = gens["a"], gens["c"], gens["d"]
    aca = a * c * a
    sections, perm = aca.first_level()
    assert perm == (0, 1)
    assert sections[0].same_action(d)
    assert sections[1].same_action(a)
    # aca(0x) = 0 d(x) checked against the 3-factor evaluation, levels <= 5
    for n in range(6):
        for x in _words(2, n):
            assert aca.act((0,) + x) == (0,) + d.act(x)


def _words(d, n):
    import itertools
    return itertools.product(range(d), repeat=n)


def test_section_examples(grig):
    gens = grig.elements()
    b, c, a = gens["b"], gens["c"], gens["a"]
    assert grig.automaton.identity().section((0, 1)).is_trivial()
    assert b.section((0,)).same_action(a)
    assert b.section((1,)).same_action(c)
    assert (a * c * a).section((0,)).same_action(gens["d"])


def test_act_and_section_at_depth_5000(grig):
    b = grig.elements()["b"]
    deep = (1,) * 5000
    assert b.act(deep) == deep
    # the section at 1^n cycles b -> c -> d with period 3, and 5000 = 2 mod 3
    assert b.section(deep).word == (("d", 1),)


def test_section_of_product_law(grig):
    gens = list(grig.elements().values())
    rng = random.Random(11)
    aut = grig.automaton
    for _ in range(40):
        g = aut.element([(rng.choice("abcd"), 1) for _ in range(rng.randint(0, 5))])
        h = aut.element([(rng.choice("abcd"), 1) for _ in range(rng.randint(0, 5))])
        v = tuple(rng.randrange(2) for _ in range(rng.randint(1, 5)))
        assert (g * h).section(v).same_action(g.section(v) * h.section(g.act(v)))


def test_compose_inverse(grig):
    gens = grig.elements()
    a, d = gens["a"], gens["d"]
    for g in gens.values():
        assert (g * g.inverse()).is_trivial()
    assert (a * a).is_trivial()
    # wreath formulas: first-level decomposition of a product
    g, h = gens["b"], a * d
    gh = g * h
    secs_g, perm_g = g.first_level()
    secs_h, perm_h = h.first_level()
    secs_gh, perm_gh = gh.first_level()
    assert perm_gh == pmul(perm_g, perm_h)
    for x in range(2):
        assert secs_gh[x].same_action(secs_g[x] * secs_h[perm_g[x]])
    # and of an inverse
    secs_gi, perm_gi = h.inverse().first_level()
    assert perm_gi == pinv(perm_h)
    for x in range(2):
        assert secs_gi[x].same_action(secs_h[pinv(perm_h)[x]].inverse())


def test_basilica_square_decomposition():
    basilica = cat.get("basilica")
    gens = basilica.elements()
    a, b = gens["a"], gens["b"]
    sections, perm = (a * a).first_level()
    assert perm == (0, 1)
    assert sections[0].same_action(b)
    assert sections[1].same_action(b)


def test_is_trivial_examples(grig):
    aut = grig.automaton
    gens = grig.elements()
    a, d, c = gens["a"], gens["d"], gens["c"]
    assert aut.identity().is_trivial()
    assert ((a * d) ** 4).is_trivial()
    assert not ((a * d) ** 2).is_trivial()
    assert ((a * d * a * c * a * c) ** 4).is_trivial()


def test_is_trivial_agrees_with_action():
    # semidecision against the decision on 500 random words per catalog
    # group: trivial words must fix the window, nontrivial words must have
    # a concrete moved vertex (searching deeper when they hide below it,
    # like a^4 in the Basilica group)
    rng = random.Random(5)
    for entry in cat.entries_with_sigma():
        aut = entry.automaton
        names = list(entry.generators)
        depth = 8 if aut.size == 2 else 3
        window = [w for n in range(1, depth + 1) for w in _words(aut.size, n)]
        for _ in range(500):
            word = aut.reduce([(rng.choice(names), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 10))])
            if aut.word_is_trivial(word):
                assert all(aut.act_word(word, v) == v for v in window)
            else:
                moved = any(aut.act_word(word, v) != v for v in window)
                level = depth
                while not moved and level < depth + 8:
                    level += 1
                    moved = any(aut.act_word(word, v) != v
                                for v in _words(aut.size, level))
                assert moved, (entry.id, word)


def test_double_inverse_acts_identically(grig):
    rng = random.Random(7)
    aut = grig.automaton
    for _ in range(50):
        g = aut.element([(rng.choice("abcd"), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 6))])
        v = tuple(rng.randrange(2) for _ in range(6))
        assert g.inverse().inverse().act(v) == g.act(v)


def test_portrait_identity(grig):
    nodes = portrait(grig.automaton.identity(), 3)
    assert len(nodes) == 1 + 2 + 4 + 8
    assert all(p == (0, 1) for p in nodes.values())


def test_portrait_d_matches_figure(grig):
    # d = (1,b), b = (a,c): the path 1, 11 carries the b, c pattern and the
    # switches sit exactly at 10 and 110
    gens = grig.elements()
    labels = label_portrait(gens["d"], 3, gens)
    assert labels[(1,)] == "b"
    assert labels[(1, 1)] == "c"
    assert labels[(1, 1, 1)] == "d"
    assert labels[(0,)] == "1"
    nodes = portrait(gens["d"], 3)
    switches = {v for v, p in nodes.items() if p != (0, 1)}
    assert switches == {(1, 0), (1, 1, 0)}


def test_portrait_b_periodic_along_rightmost_path(grig):
    # oracle: direct section computation along 1^n
    b = grig.elements()["b"]
    for k in range(1, 5):
        sec = b.section((1,) * (3 * k))
        assert sec.same_action(b)
    # and the intermediate pattern b -> c -> d
    assert b.section((1,)).same_action(grig.elements()["c"])
    assert b.section((1, 1)).same_action(grig.elements()["d"])


def test_portrait_renderers_stable(grig):
    d = grig.elements()["d"]
    nodes = portrait(d, 2)
    dot1 = portrait_dot(nodes)
    dot2 = portrait_dot(portrait(d, 2))
    assert dot1 == dot2
    assert '"root"' in dot1
    js = portrait_json(nodes)
    import json
    decoded = json.loads(js)
    assert decoded[0] == {"vertex": "", "perm": [0, 1]}


def test_tuple_automorphism(grig):
    element, ext = parse_tuple_automorphism("(1,a)", grig.automaton)
    assert element.act((0, 0)) == (0, 0)
    assert element.act((1, 0)) == (1, 1)
    # old words remain valid over the extension
    a = ext.state("a")
    assert a.act((0,)) == (1,)
    element2, ext2 = parse_tuple_automorphism("(a*c,1)(1,2)", ext)
    assert ext2.state(element2.word[0][0]).act((0,)) == (1,)


def test_fmt_word_runs():
    assert fmt_word((("a", 1), ("a", 1), ("b", -1))) == "a^2*b^-1"
    assert fmt_word(()) == "1"


def test_reduce_cancels_and_drops_identity(grig):
    aut = grig.automaton
    assert aut.reduce((("a", 1), ("a", -1))) == ()
    assert aut.reduce((("1", 1), ("b", 1))) == (("b", 1),)
    assert invert_word((("a", 1), ("b", -1))) == (("b", 1), ("a", -1))


def test_convention_2_2_on_all_catalog_groups():
    rng = random.Random(23)
    for entry in cat.entries_with_sigma():
        aut = entry.automaton
        names = list(entry.generators)
        for _ in range(30):
            g = aut.element([(rng.choice(names), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 6))])
            h = aut.element([(rng.choice(names), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 6))])
            level = rng.randint(1, 6)
            v = tuple(rng.randrange(aut.size) for _ in range(level))
            assert (g * h).act(v) == h.act(g.act(v))
