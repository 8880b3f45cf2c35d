import random
from itertools import product

import pytest

from arboreal import catalog as cat
from arboreal.core import (
    MealyAutomaton,
    WreathSpecError,
    _reduce_codes,
    fmt_perm,
    fmt_vertex,
    fmt_word,
    invert_word,
    label_portrait,
    parse_elements,
    parse_tuple_automorphism,
    parse_vertex,
    parse_wreath_spec,
    pinv,
    pmul,
    portrait,
    portrait_dot,
    portrait_json,
)
from arboreal.levels import level_perm, vertex_index
from arboreal.lifting import GgsVector, ggs_lifting

from free_words import free_reduce


@pytest.fixture(scope="module")
def grig():
    return cat.get("grigorchuk")


def test_alphabet_validation():
    aut = MealyAutomaton(3, {})
    assert aut.size == 3 and aut.split(())[0] == (0, 1, 2)
    with pytest.raises(ValueError, match="alphabet needs at least 2 letters, got 1"):
        MealyAutomaton(1, {})


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


def _first_level(g):
    """(sections, root permutation) of g from `split`, the sections as elements."""
    perm, sections = g.automaton.split(g.word)
    return tuple(map(g.automaton.element, sections)), perm


def test_aca_decomposition(grig):
    gens = grig.elements()
    a, c, d = gens["a"], gens["c"], gens["d"]
    aca = a * c * a
    sections, perm = _first_level(aca)
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
    secs_g, perm_g = _first_level(g)
    secs_h, perm_h = _first_level(h)
    secs_gh, perm_gh = _first_level(gh)
    assert perm_gh == pmul(perm_g, perm_h)
    for x in range(2):
        assert secs_gh[x].same_action(secs_g[x] * secs_h[perm_g[x]])
    # and of an inverse
    secs_gi, perm_gi = _first_level(h.inverse())
    assert perm_gi == pinv(perm_h)
    for x in range(2):
        assert secs_gi[x].same_action(secs_h[pinv(perm_h)[x]].inverse())


def test_basilica_square_decomposition():
    basilica = cat.get("basilica")
    gens = basilica.elements()
    a, b = gens["a"], gens["b"]
    sections, perm = _first_level(a * a)
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


def test_parse_elements_share_the_last_extended_automaton(grig):
    elements, ext = parse_elements(["a", " (1,a)", "(a*c,1)(1,2)", "q0*b"], grig.automaton)
    assert set(ext.states) == set(grig.automaton.states) | {"q0", "q1"}
    assert all(g.automaton is ext for g in elements)
    assert [str(g) for g in elements] == ["a", "q0", "q1", "q0*b"]
    assert elements[1].act((1, 0)) == (1, 1) and elements[2].act((0,)) == (1,)
    assert parse_elements([], grig.automaton) == ([], grig.automaton)


def test_parse_elements_tells_bracketed_words_from_tuples(grig):
    aut = grig.automaton
    elements, ext = parse_elements(["(ad)^2", "(a*c)", "(1,a)", "((a*c))^-1"], aut)
    assert [str(g) for g in elements] == ["a*d*a*d", "a*c", "q0", "c^-1*a^-1"]
    assert set(ext.states) == set(aut.states) | {"q0"}
    with pytest.raises(WreathSpecError, match="expected 2 sections, got 3"):
        parse_elements(["(a,b,c)"], aut)


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


# ---------------------------------------------------------------------------
# the one-pass word problem against an evaluator built from the rules alone

def _rule_reduce(word):
    out = []
    for f in word:
        if out and out[-1] == (f[0], -f[1]):
            out.pop()
        elif f[0] != "1":
            out.append(f)
    return tuple(out)


def _rule_split(aut, word):
    """(root permutation, sections) of a word, from `aut.rule` only."""
    images, sections = [], []
    for x in range(aut.size):
        below = []
        for s, e in word:
            perm, secs = aut.rule(s)
            if e == 1:
                below += secs[x]
                x = perm[x]
            else:
                x = perm.index(x)
                below += [(t, -f) for t, f in reversed(secs[x])]
        images.append(x)
        sections.append(_rule_reduce(below))
    return tuple(images), sections


def _moves_a_vertex(aut, word, level):
    """Whether the word moves some vertex of the first `level` levels."""
    frontier = [_rule_reduce(word)]
    for _ in range(level):
        below = []
        for w in frontier:
            if w:
                perm, sections = _rule_split(aut, w)
                if perm != tuple(range(aut.size)):
                    return True
                below += sections
        frontier = below
    return False


def _reference_trivial(aut, word, trivial, nontrivial):
    """The closure search as a root-permutation pass, then one section per letter."""
    word = _rule_reduce(word)
    if not word or word in trivial:
        return True
    if word in nontrivial:
        return False
    seen, stack = set(), [word]
    while stack:
        w = stack.pop()
        if not w or w in seen or w in trivial:
            continue
        perm, sections = _rule_split(aut, w)
        if w in nontrivial or perm != tuple(range(aut.size)):
            nontrivial.update((w, word))
            return False
        seen.add(w)
        stack.extend(sections)
    trivial.update(seen)
    return True


def _trivial_words(entry):
    """Relators the catalog states, else the generators' orders (d)."""
    relators = [w for _, w in entry.relators(1)]
    if entry.separation is not None:
        relators += [entry.automaton.element(t).word
                     for t in entry.separation["complement_relators"]]
    return relators or [((g, 1),) * entry.automaton.size for g in entry.generators]


@pytest.mark.parametrize("gid", sorted(cat.catalog()))
def test_word_is_trivial_matches_rule_evaluator_and_reference_memos(gid):
    entry = cat.get(gid)
    aut, names = _fresh(entry)
    rng = random.Random(gid)
    relators = _trivial_words(entry)
    clen = 3 if gid == "bs13" else 6        # BS(1,3) closures grow fast in the conjugator
    trivial, nontrivial = set(), set()
    for k in range(60):
        if k % 2:
            word = ()
            for _ in range(2):
                c = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(clen))
                word += invert_word(c) + rng.choice(relators) + c
        else:
            word = tuple((rng.choice(names), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 12)))
        verdict = aut.word_is_trivial(word)
        assert verdict == _reference_trivial(aut, word, trivial, nontrivial)
        assert verdict or k % 2 == 0, (gid, word)   # products of conjugated relators
        moved = _moves_a_vertex(aut, word, 6)
        if verdict:
            assert not moved, (gid, word)
        elif not moved:
            # nontrivial but fixing level 6: the closure must have found a
            # moved vertex further down
            assert _moves_a_vertex(aut, word, 16), (gid, word)
    assert aut._trivial == _coded(aut, trivial) and aut._nontrivial == _coded(aut, nontrivial)
    assert nontrivial


def _coded(aut, words):
    """Reference memo words packed as the automaton packs them: bytes of factor codes,
    or code tuples past 127 states besides the identity."""
    return {aut._packed(aut._codes[f] for f in w) for w in words}


def _fresh(entry, tuple_text=None):
    """A copy of the entry's automaton with empty memos and no affine model,
    extended by a first-level tuple state when one is given."""
    rules = {s: entry.automaton.rule(s) for s in entry.automaton.states if s != "1"}
    aut = MealyAutomaton(entry.automaton.size, rules, generators=entry.generators)
    if tuple_text is None:
        return aut, list(entry.generators)
    element, ext = parse_tuple_automorphism(tuple_text, aut)
    return ext, list(entry.generators) + [element.word[0][0]]


def _sprinkle(rng, word):
    """The word with identity factors ("1", +-1) put in at random places."""
    out = list(word)
    for _ in range(rng.randint(1, 4)):
        out.insert(rng.randint(0, len(out)), ("1", rng.choice((1, -1))))
    return tuple(out)


@pytest.mark.parametrize("gid,tuple_text", [(gid, None) for gid in sorted(cat.catalog())]
                         + [("grigorchuk", "(1,a)(1,2)"), ("basilica", "(b,a^-1)"),
                            ("gs5", "(a*a,b,1,a^-1,b^-1)")])
def test_coded_word_problem_matches_reference_search(gid, tuple_text):
    entry = cat.get(gid)
    aut, names = _fresh(entry, tuple_text)
    relators = _trivial_words(entry)
    rng = random.Random(f"{gid} {tuple_text}")
    clen = 3 if gid == "bs13" else 5
    trivial, nontrivial = set(), set()
    verdicts = set()
    for k in range(48):
        c = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(clen))
        if k % 3 == 0:      # a conjugated relator with identity factors
            word = _sprinkle(rng, invert_word(c) + rng.choice(relators) + c)
        elif k % 3 == 1:    # v v^-1 cancels in a cascade at entry, through identity factors
            v = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(2, 9)))
            word = c[:2] + _sprinkle(rng, v + invert_word(v)) + invert_word(c[:2]) * (k % 2)
        else:
            word = _sprinkle(rng, c + c[::-1])
        verdict = aut.word_is_trivial(word)
        assert verdict == _reference_trivial(aut, word, trivial, nontrivial), (gid, word)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert aut._trivial == _coded(aut, trivial) and aut._nontrivial == _coded(aut, nontrivial)


# ---------------------------------------------------------------------------
# packed words: one byte per factor code, code tuples past 127 states


def _chain(n):
    """n states s_i = (s_(i+1 mod n), 1)(1,2); each acts as the binary adding machine, so a
    word is trivial iff its exponents sum to 0."""
    return parse_wreath_spec(",".join(f"s{i}=(s{(i + 1) % n},1)(1,2)" for i in range(n)))


def _reduce_by_factors(codes):
    """free_reduce through the codes: c is (state c >> 1, sign by c & 1), 0 and 1 the identity."""
    factors = [("1" if c < 2 else c >> 1, -1 if c & 1 else 1) for c in codes]
    return [2 * s + (e < 0) for s, e in free_reduce(factors)]


@pytest.mark.parametrize("top", [255, 511])
def test_reduce_codes_matches_free_reduce(top):
    """bytes while the codes fit a byte (top 255), code tuples past it (top 511)."""
    packed = bytes if top < 256 else tuple
    hi = (top - 1, top)     # state top >> 1 and its inverse, side by side
    cases = [(), (0,), (1,), (2,), (0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (2, 3), (3, 2),
             (2, 2), hi, hi[::-1], (top, top), (2, 3, 4), (4, 2, 3), (4, 2, 0, 3),
             (2, 4, 6, 7, 5, 3), (2, 1, 4, 5, 0, 3), (hi[0], 4, hi[1]), (4, *hi, 5), (6, *hi)]
    rng = random.Random(top)
    alphabet = (0, 1, 2, 3, 4, 5, top - 1, top)
    words = [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 40))) for _ in range(400)]
    cases += words + [tuple(_reduce_by_factors(w)) for w in words]
    assert any(len(_reduce_by_factors(w)) > 8 for w in words)
    for codes in cases:
        got = _reduce_codes(packed(codes))
        assert type(got) is packed and list(got) == _reduce_by_factors(codes), codes


def test_catalog_automata_pack_one_byte_per_factor():
    for gid in cat.catalog():
        assert cat.get(gid).automaton._packed is bytes, gid
    assert _chain(127)._packed is bytes and _chain(128)._packed is tuple


def test_200_state_automaton_decides_like_the_reference_search():
    aut = _chain(200)
    assert max(aut._codes.values()) == 401
    rng = random.Random(200)
    names = [f"s{i}" for i in range(200)]
    trivial, nontrivial = set(), set()
    for k in range(60):
        signs = [rng.choice((1, -1)) for _ in range(rng.randint(1, 6))]
        if k % 2:   # balanced: trivial
            signs += [-e for e in signs]
            rng.shuffle(signs)
        word = _sprinkle(rng, tuple((rng.choice(names[:4] if k % 3 else names), e)
                                    for e in signs))
        verdict = aut.word_is_trivial(word)
        assert verdict == _reference_trivial(aut, word, trivial, nontrivial), word
        assert verdict == (sum(e for s, e in word if s != "1") == 0), word
    assert aut._trivial == _coded(aut, trivial) and aut._nontrivial == _coded(aut, nontrivial)
    assert max(max(w) for w in aut._trivial | aut._nontrivial) > 255


# ---------------------------------------------------------------------------
# the tree action on packed words against the rules-only evaluator


def _rule_walk(aut, word, v):
    """(image of v, section there), one `_rule_split` per level."""
    word, image = _rule_reduce(word), []
    for x in v:
        perm, sections = _rule_split(aut, word)
        image.append(perm[x])
        word = sections[x]
    return tuple(image), word


def _action_automaton(name):
    """A catalog automaton, the 200-state chain (packed as code tuples), or the GGS group
    b = (a, a^2, 1, 1, b) with a word-valued section."""
    if name == "chain200":
        return _chain(200)
    if name == "ggs5":
        aut = ggs_lifting(GgsVector(5, (1, 2, 0, 0))).automaton
        assert aut.rule("b")[1][1] == (("a", 1), ("a", 1))
        return aut
    return cat.get(name).automaton


@pytest.mark.parametrize("name", sorted(cat.catalog()) + ["chain200", "ggs5"])
def test_walk_split_root_perm_and_level_perm_match_the_rules(name):
    """Seeded unreduced words with identity factors against `_rule_split`."""
    aut = _action_automaton(name)
    rng = random.Random(name)
    names = [s for s in aut.states if s != "1"]
    d = aut.size
    for k in range(40):
        word = _sprinkle(rng, tuple((rng.choice(names), rng.choice((1, -1)))
                                    for _ in range(rng.randint(0, 8))))
        if k % 4 == 0:      # a cancelling pair in the middle
            f = (rng.choice(names), 1)
            word = word[:2] + (f, (f[0], -1)) + word[2:]
        perm, sections = _rule_split(aut, word)
        assert aut.split(word) == (perm, tuple(sections)), (name, word)
        assert aut.root_perm(word) == perm, (name, word)
        for _ in range(4):
            v = tuple(rng.randrange(d) for _ in range(rng.randint(0, 6)))
            assert aut.walk(word, v) == _rule_walk(aut, word, v), (name, word, v)
        n = 3 if d < 5 else 2
        expected = tuple(vertex_index(_rule_walk(aut, word, v)[0], d)
                         for v in product(range(d), repeat=n))
        assert level_perm(aut.element(word), n) == expected, (name, word)


def test_walk_deep_vertices_without_recursion(grig):
    aut = grig.automaton
    for v in ((1,) * 5000, (1,) * 4999 + (0,)):
        assert aut.walk((("b", 1),), v) == _rule_walk(aut, (("b", 1),), v)
    assert aut.walk((("b", 1),), (1,) * 5000) == ((1,) * 5000, (("d", 1),))
