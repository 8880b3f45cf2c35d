import itertools
import os
import random

import pytest

from arboreal import catalog as cat
from arboreal import levels
from arboreal.cli import main
from arboreal.core import (MealyAutomaton, TreeAutomorphism, identity_perm, pack_perm,
                           parse_wreath_spec, pinv, pmul, power_by_squaring)
from arboreal.levels import (
    LevelPermGroup,
    SizeBoundExceeded,
    _in_cyclic_wreath,
    _PointChain,
    _reduce_bytes,
    _TreeChain,
    intersection_trivial_on_level,
    level_perm,
    orbit_on_level,
    perm_group_on_level,
    point_stabilizer_gens,
    stabilizer_words,
    vertex_index,
)

HANOI = "a=(a,1,1)(2,3),b=(1,b,1)(1,3),c=(1,1,c)(1,2)"  # the Hanoi towers group on three pegs

def closure(perms, cap=None):
    """Independent BFS oracle over a generated permutation group; None once
    it holds more than `cap` elements."""
    ident = tuple(range(len(perms[0])))
    seen = {ident}
    queue = [ident]
    for p in queue:
        for s in perms:
            q = tuple(s[i] for i in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
                if cap is not None and len(seen) > cap:
                    return None
    return seen


def test_vertex_index_lexicographic():
    assert vertex_index((0, 1, 1), 2) == 3
    assert vertex_index((1, 0), 3) == 3


def test_g01inf_order_8_transcript():
    entry = cat.get("g01inf")
    gens = entry.elements()
    group = perm_group_on_level([gens["a"], gens["c"]], 3)
    assert group.order() == 8


def test_identity_group_order():
    entry = cat.get("grigorchuk")
    group = perm_group_on_level([entry.automaton.identity()], 4)
    assert group.order() == 1
    assert group.is_trivial()


def test_grigorchuk_level3_order_matches_bfs():
    entry = cat.get("grigorchuk")
    gens = list(entry.elements().values())
    group = perm_group_on_level(gens, 3)
    oracle = closure([level_perm(g, 3) for g in gens])
    assert group.order() == len(oracle)


@pytest.mark.parametrize("gid,level", [
    ("grigorchuk", 4),
    ("g01inf", 4),
    ("lamplighter", 4),
    ("bs13", 3),
    ("basilica", 4),
    ("img_z2i", 4),
    ("gs3", 3),
    ("gs5", 2),
    ("gs7", 1),
])
def test_chain_order_equals_bfs_closure(gid, level):
    entry = cat.get(gid)
    gens = list(entry.elements().values())
    group = perm_group_on_level(gens, level)
    oracle = closure([level_perm(g, level) for g in gens])
    assert group.order() == len(oracle)


def test_chain_on_random_small_groups():
    rng = random.Random(99)
    for _ in range(15):
        degree = rng.randint(4, 10)
        perms = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            perms.append(tuple(images))
        # level-1 group over a degree-sized alphabet: a plain permutation group
        group = LevelPermGroup(degree, 1, perms)
        assert group.order() == len(closure(perms))


def random_tree_perm(rng, d, n, moved=1):
    """A random automorphism of the level-n tree, any local permutations:
    each vertex's is a random one with probability `moved`, else the identity."""
    images = [0]
    for _ in range(n):
        images = [q * d + x for q in images
                  for x in (rng.sample(range(d), d) if rng.random() < moved else range(d))]
    return tuple(images)


# generic-chain orders take about 0.6 s of CPU for gs3 at level 5, 0.4 s for gs7 at level 3
# and 2.1 s for gs5 at level 4 (one run each, Python 3.11 on a shared 2-core Xeon)
GENERIC_TOP_LEVEL = {"gs3": 5, "gs5": 3, "gs7": 3}


@pytest.mark.parametrize("gid", list(cat.catalog()))
def test_tree_chain_order_equals_generic_chain(gid):
    gens = list(cat.get(gid).elements().values())
    d = gens[0].automaton.size
    for n in range(1, GENERIC_TOP_LEVEL.get(gid, 5) + 1):
        perms = [level_perm(g, n) for g in gens]
        group = LevelPermGroup(d, n, perms)
        assert isinstance(group._chain(), _TreeChain)
        assert group.order() == _PointChain(group.gens, d ** n).order()


def test_grigorchuk_order_closed_form():
    # levels 7-9 hold 128, 256 and 512 points: the chain's permutations are
    # 256-byte tables up to level 8 and image tuples at level 9
    gens = list(cat.get("grigorchuk").elements().values())
    for n in range(3, 10):
        assert perm_group_on_level(gens, n).order() == 2 ** (5 * 2 ** (n - 3) + 2)


@pytest.mark.parametrize("gid,p,top", [("gs3", 3, 6), ("gs5", 5, 4), ("gs7", 7, 4)])
def test_ggs_order_closed_form(gid, p, top):
    # log_p |G_n| = (p-1) p^(n-2) + 1 for n >= 2 (Fernandez-Alcober and
    # Zugadi-Reizabal, GGS-groups: order of congruence quotients and
    # Hausdorff dimension, 2014); gs3 at levels 5 and 6 holds 243 and 729 points
    gens = list(cat.get(gid).elements().values())
    for n in range(2, top + 1):
        assert perm_group_on_level(gens, n).order() == p ** ((p - 1) * p ** (n - 2) + 1)


@pytest.mark.parametrize("gid,names,level", [
    ("g01inf", "ac", 3),
    ("grigorchuk", "abcd", 3),
    ("basilica", "ab", 3),
    ("gs3", "ab", 2),
])
def test_membership_and_elements(gid, names, level):
    entry = cat.get(gid)
    gens = entry.elements()
    group = perm_group_on_level([gens[x] for x in names], level)
    elements = set(group.elements())
    assert len(elements) == group.order()
    assert elements == closure(list(group.gens))
    for p in elements:
        assert p in group
    for g in gens.values():
        outside = level_perm(g, level)
        assert (outside in group) == (outside in elements)


@pytest.mark.parametrize("gid", ["grigorchuk", "basilica", "gs3"])
def test_tree_chain_membership_matches_generic_chain(gid):
    rng = random.Random(7)
    entry = cat.get(gid)
    gens = list(entry.elements().values())
    aut = entry.automaton
    level = 5 if aut.size == 2 else 3
    group = perm_group_on_level(gens, level)
    generic = _PointChain(group.gens, group.degree)
    words = ["*".join(rng.choice(entry.generators) + rng.choice(("", "^-1")) for _ in range(20))
             for _ in range(20)]
    members = [level_perm(aut.element(w), level) for w in words]
    others = [random_tree_perm(rng, aut.size, level) for _ in range(20)]
    # leaves 1 and d+1 are not siblings, and no shift vector reads them
    # (it reads first children only): only the final identity test rejects
    # these two permutations
    swap = list(range(group.degree))
    swap[1], swap[aut.size + 1] = swap[aut.size + 1], swap[1]
    not_tree = [tuple(swap), pmul(tuple(swap), members[0])]
    for p in members + others + not_tree:
        assert (p in group) == (p in generic)
    assert all(p in group for p in members)
    assert not any(p in group for p in not_tree)


def test_groups_outside_the_tree_chain_match_bfs():
    # d = 3 with a root transposition, and a non-prime alphabet
    root_swap = (3, 4, 5, 0, 1, 2, 6, 7, 8)
    turn_first = (1, 2, 0, 3, 4, 5, 6, 7, 8)
    fixed = [(3, 2, [root_swap, turn_first]), (4, 1, [(1, 2, 3, 0)])]
    # seeded groups of tree automorphisms with any local permutations, sparse
    # enough on the deeper trees that most stay below 2 * 10^4 elements
    rng = random.Random(23)
    seeded = []
    for d, level, moved in ((3, 2, 1), (3, 3, 0.5), (4, 2, 0.4), (6, 1, 1)):
        seeded += [(d, level, [random_tree_perm(rng, d, level, moved) for _ in range(1 + k % 3)])
                   for k in range(10)]
    checked = 0
    for d, level, perms in fixed + seeded:
        oracle = closure(perms, cap=2 * 10 ** 4)
        tree_chain = levels._is_prime(d) and all(_in_cyclic_wreath(p, d, level) for p in perms)
        if (d, level, perms) in seeded and (oracle is None or tree_chain):
            continue  # too large for BFS, or the tree chain's
        group = LevelPermGroup(d, level, perms)
        assert isinstance(group._chain(), _PointChain)
        assert group.order() == len(oracle)
        elements = list(group.elements())
        assert len(elements) == len(oracle) and set(elements) == oracle
        others = [random_tree_perm(rng, d, level) for _ in range(10)]
        for p in others + [pmul(elements[-1], q) for q in perms]:
            assert (p in group) == (p in oracle)
        checked += 1
    assert checked == 38  # both fixed cases and every seeded one BFS can hold


def test_hanoi_towers_group_orders():
    # levels 1-2 are checked by BFS, and the orders at levels 1-5 are pinned;
    # level 5 (243 points, about 1 s) is the generic chain's largest on byte tables
    gens = list(parse_wreath_spec(HANOI).generator_elements().values())
    for n in range(1, 6):
        group = perm_group_on_level(gens, n)
        assert isinstance(group._chain(), _PointChain)
        assert group.order() == 2 ** (3 ** (n - 1)) * 3 ** ((3 ** n - 1) // 2)
        if n <= 2:
            assert group.order() == len(closure(list(group.gens)))


def dihedral(m):
    return LevelPermGroup(m, 1, [tuple((x + 1) % m for x in range(m)),
                                 tuple(-x % m for x in range(m))])


@pytest.mark.parametrize("pack", [pack_perm, tuple])
def test_membership_of_a_non_permutation_is_false(monkeypatch, pack):
    # both chains, on 256-byte tables (up to 256 points) and on image tuples
    # (past them, or everywhere when pack_perm is replaced by tuple)
    monkeypatch.setattr(levels, "pack_perm", pack)
    grigorchuk = list(cat.get("grigorchuk").elements().values())
    groups = [perm_group_on_level(list(parse_wreath_spec(HANOI).generator_elements().values()), 2),
              perm_group_on_level(grigorchuk, 3), perm_group_on_level(grigorchuk, 9),
              dihedral(200), dihedral(300)]
    for group, chain in zip(groups, [_PointChain, _TreeChain, _TreeChain, _PointChain, _PointChain]):
        assert isinstance(group._chain(), chain)
        m = group.degree
        ident = identity_perm(m)
        assert ident in group and group.gens[0] in group
        assert type(group._chain()._ident) is (bytes if pack is pack_perm and m <= 256 else tuple)
        wrong = [ident[:-1], ident + (m,), (0, 0) + ident[2:], group.gens[0][:-1] + group.gens[0][:1]]
        wrong += [ident[:-1] + (x,) for x in (m, 255, 256, 1000, -1)]
        for perm in wrong:
            assert perm not in group
    assert (0, 1, 2, 3, 4, 5, 6, 7, 100) not in groups[0]


@pytest.mark.parametrize("gid,n", [("grigorchuk", 8), ("basilica", 6), ("gs3", 5), ("hanoi", 4)])
def test_byte_tables_answer_as_image_tuples(monkeypatch, gid, n):
    # seeded members (images of random words) and other tree automorphisms get
    # the same answers from the chain on 256-byte tables as from the same
    # chain fed the same generators with pack_perm replaced by tuple
    aut = parse_wreath_spec(HANOI) if gid == "hanoi" else cat.get(gid).automaton
    elements = aut.generator_elements()
    rng = random.Random(n)
    members = [level_perm(aut.element("*".join(rng.choice(list(elements)) + rng.choice(("", "^-1"))
                                                for _ in range(20))), n) for _ in range(10)]
    others = [random_tree_perm(rng, aut.size, n) for _ in range(10)]
    others += [pmul(q, perm) for q, perm in zip(others, members)]
    answers = {}
    for pack in (pack_perm, tuple):
        monkeypatch.setattr(levels, "pack_perm", pack)
        group = perm_group_on_level(list(elements.values()), n)
        assert type(group._chain()._ident) is (bytes if pack is pack_perm else tuple)
        answers[pack] = (group.order(), [q in group for q in members + others],
                         sorted(group.elements()) if group.order() <= 5000 else None)
    assert answers[pack_perm] == answers[tuple]
    order, found, elements = answers[tuple]
    assert all(found[:len(members)]) and not all(found[len(members):])
    assert elements is None or len(elements) == order == len(set(elements))


def test_orbit_on_level_transitivity():
    entry = cat.get("grigorchuk")
    gens = list(entry.elements().values())
    group = perm_group_on_level(gens, 4)
    orbit = orbit_on_level(group, (0, 0, 0, 0))
    assert len(orbit) == 16  # level transitivity
    # independent oracle on 16 points
    perms = [level_perm(g, 4) for g in gens]
    seen = {0}
    queue = [0]
    for pt in queue:
        for p in perms:
            if p[pt] not in seen:
                seen.add(p[pt])
                queue.append(p[pt])
    assert {vertex_index(v, 2) for v in orbit} == seen


def test_orbit_identity_group():
    entry = cat.get("grigorchuk")
    group = perm_group_on_level([entry.automaton.identity()], 3)
    assert orbit_on_level(group, (1, 0, 1)) == {(1, 0, 1)}


def test_orbit_g01inf_ac_divides_8():
    entry = cat.get("g01inf")
    gens = entry.elements()
    group = perm_group_on_level([gens["a"], gens["c"]], 3)
    orbit = orbit_on_level(group, (0, 0, 0))
    assert 8 % len(orbit) == 0


def test_order_divides_next_level():
    for gid in ("grigorchuk", "basilica", "lamplighter", "g01inf"):
        gens = list(cat.get(gid).elements().values())
        orders = [perm_group_on_level(gens, n).order() for n in range(1, 6)]
        for low, high in zip(orders, orders[1:]):
            assert high % low == 0


def test_stabilizer_words_first_level_transcript():
    # the Schreier generators must generate the same level-4 image as
    # GAP's < b, c, d, a*b*a, a*c*a, a*d*a >
    entry = cat.get("g01inf")
    gens = entry.elements()
    words = stabilizer_words(gens, "first-level")
    aut = entry.automaton
    ours = perm_group_on_level([aut.element(w) for w in words], 4)
    gap = perm_group_on_level(
        [aut.element(t) for t in ("b", "c", "d", "a*b*a", "a*c*a", "a*d*a")], 4)
    assert ours.order() == gap.order()
    assert all(p in gap for p in ours.gens)
    assert all(p in ours for p in gap.gens)


def test_stabilizer_words_fix_target():
    for gid in ("grigorchuk", "basilica"):
        entry = cat.get(gid)
        gens = entry.elements()
        aut = entry.automaton
        for w in stabilizer_words(gens, "first-level"):
            g = aut.element(w)
            for x in range(aut.size):
                assert g.act((x,)) == (x,)
        for w in stabilizer_words(gens, (1, 0)):
            assert aut.element(w).act((1, 0)) == (1, 0)


def test_stabilizer_words_trivial_action_returns_generators():
    # a group fixing level 1 pointwise: the generators are their own
    # Schreier generators (identity coset only)
    aut = cat.get("grigorchuk").automaton
    d = aut.state("d")
    b = aut.state("b")
    words = stabilizer_words({"d": d, "b": b}, "first-level")
    assert set(words) == {(("d", 1),), (("b", 1),)}


def test_stabilizer_words_project_into_group():
    # sections at 0 and 1 of the first-level stabilizer words are words in
    # the generators; their level-5 images lie in the level-5 group
    entry = cat.get("grigorchuk")
    gens = entry.elements()
    aut = entry.automaton
    group5 = perm_group_on_level(list(gens.values()), 5)
    for w in stabilizer_words(gens, "first-level"):
        g = aut.element(w)
        for x in range(2):
            assert level_perm(g.section((x,)), 5) in group5


def test_intersection_transcript():
    entry = cat.get("g01inf")
    gens, complement, _ = cat.separation_complement(entry)
    words = stabilizer_words(gens, "first-level")
    aut = next(iter(gens.values())).automaton
    psi_h = perm_group_on_level([aut.element(w) for w in words], 4)
    comp = perm_group_on_level(complement, 4)
    assert intersection_trivial_on_level(psi_h, comp)


def test_intersection_self_nontrivial():
    entry = cat.get("grigorchuk")
    gens = list(entry.elements().values())
    group = perm_group_on_level(gens, 3)
    assert not intersection_trivial_on_level(group, group)


def test_intersection_random_cyclic_coprime():
    rng = random.Random(17)
    degree = 8
    for _ in range(10):
        points = list(range(degree))
        rng.shuffle(points)
        two_cycle = list(range(degree))
        two_cycle[points[0]], two_cycle[points[1]] = points[1], points[0]
        three = list(range(degree))
        three[points[2]], three[points[3]], three[points[4]] = points[3], points[4], points[2]
        a = LevelPermGroup(2, 3, [tuple(two_cycle)])
        b = LevelPermGroup(2, 3, [tuple(three)])
        assert isinstance(b._chain(), _PointChain)  # order 3: not a 2-group
        expected = len(closure([tuple(two_cycle)]) & closure([tuple(three)])) == 1
        assert intersection_trivial_on_level(a, b) == expected
        assert expected  # coprime orders force a trivial intersection


def test_intersection_threshold(monkeypatch):
    entry = cat.get("grigorchuk")
    gens = list(entry.elements().values())
    group = perm_group_on_level(gens, 4)
    monkeypatch.setattr(levels, "ENUMERATION_LIMIT", 1)
    with pytest.raises(SizeBoundExceeded):
        intersection_trivial_on_level(group, group)


def test_point_stabilizer_gens_fix_point():
    entry = cat.get("basilica")
    perms = [level_perm(g, 4) for g in entry.elements().values()]
    stab = point_stabilizer_gens(perms, 0)
    assert all(p[0] == 0 for p in stab)
    # the stabilizer has index = orbit size (transitive here)
    full = closure(perms)
    sub = closure(stab) if stab else {identity_perm(16)}
    assert len(full) == 16 * len(sub)


def test_size_bound_env(monkeypatch):
    entry = cat.get("grigorchuk")
    monkeypatch.setenv("ARBOREAL_MAX_POINTS", "8")
    with pytest.raises(SizeBoundExceeded):
        level_perm(entry.elements()["a"], 4)
    monkeypatch.delenv("ARBOREAL_MAX_POINTS")
    assert len(level_perm(entry.elements()["a"], 4)) == 16


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
def test_bad_size_bound_env_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("ARBOREAL_MAX_POINTS", value)
    message = f"ARBOREAL_MAX_POINTS must be an integer >= 1, got '{value}'"
    with pytest.raises(ValueError, match=message):
        levels.max_points()
    code = main(["run", "perm-order", "--group", "grigorchuk", "--level", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and captured.err == f"arboreal: {message}\n"


# ---------------------------------------------------------------------------
# oracles of the fast paths: level images, packed vectors, the prime bound

def walked_perm(g, n):
    """level_perm's oracle: one automaton.walk from the root per vertex."""
    aut = g.automaton
    return tuple(vertex_index(aut.walk(g.word, v)[0], aut.size)
                 for v in itertools.product(range(aut.size), repeat=n))


@pytest.mark.parametrize("gid", list(cat.catalog()))
def test_level_perm_matches_walk(gid):
    rng = random.Random(11)
    entry = cat.get(gid)
    aut = entry.automaton
    words = [rng.choice(entry.generators) + rng.choice(("", "^-1")) for _ in range(8)]
    elements = [*entry.elements().values(), aut.identity(), aut.element("*".join(words))]
    for n in range(1, (3 if aut.size > 3 else 7) + 1):
        for g in elements:
            assert level_perm(g, n) == walked_perm(g, n)


def test_level_perm_matches_walk_on_extended_and_unreduced_words():
    entry = cat.get("g01inf")
    gens, complement, _ = cat.separation_complement(entry)
    aut = complement[0].automaton
    a, c = gens["a"].word, gens["c"].word
    # identity factors inside the word: level_perm starts from g.word as it is
    unreduced = TreeAutomorphism(aut, (("1", 1), *a, ("1", -1), *c, ("1", 1)))
    for g in [*complement, complement[0] * gens["a"], unreduced]:
        for n in range(1, 7):
            assert level_perm(g, n) == walked_perm(g, n)


def test_level_perm_matches_walk_on_word_valued_sections():
    # a GGS recursion whose sections are words of two factors, and
    # x = (x*x, 1)(1,2), whose sections double in length at each level
    ggs = MealyAutomaton(5, {"a": ((1, 2, 3, 4, 0), ((),) * 5),
                             "b": ((0, 1, 2, 3, 4), ((("a", 1), ("a", 1)), (("a", -1),), (), (),
                                                     (("b", 1), ("a", 1))))})
    doubling = MealyAutomaton(2, {"x": ((1, 0), ((("x", 1), ("x", 1)), ()))})
    for g, top in ((ggs.element("b*a*b^-1"), 3), (ggs.element("b^2"), 3),
                   (doubling.element("x"), 7), (doubling.element("x^-3"), 7)):
        for n in range(1, top + 1):
            assert level_perm(g, n) == walked_perm(g, n)


def test_size_bound_is_raised_before_any_step(monkeypatch):
    g = cat.get("grigorchuk").elements()["a"]

    def no_step(*args):
        raise AssertionError("level_perm stepped before checking the size bound")
    monkeypatch.setattr(g.automaton, "step", no_step)
    monkeypatch.setenv("ARBOREAL_MAX_POINTS", "8")
    with pytest.raises(SizeBoundExceeded):
        level_perm(g, 4)


def random_cyclic_tree_perm(rng, p, n):
    """A random level-n tree automorphism whose local actions are rotations x -> x+c."""
    images = [0]
    for _ in range(n):
        images = [q * p + (x + r) % p for q in images for r in [rng.randrange(p)]
                  for x in range(p)]
    return tuple(images)


def pack(coordinates):
    return int.from_bytes(bytes(coordinates), "little")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 127])
def test_packed_subtraction_matches_seeded_vectors(p):
    rng = random.Random(p)
    for size in (1, 2, p, 3 * p + 1):
        ones = pack([1] * size)
        for _ in range(50):
            a = [rng.randrange(p) for _ in range(size)]
            b = [rng.randrange(p) for _ in range(size)]
            c = rng.randrange(p)
            minus = pack([-c * y % p for y in b])
            assert _reduce_bytes(pack(a) + minus, p, ones) == pack([(x - c * y) % p
                                                                    for x, y in zip(a, b)])


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2), (11, 2), (13, 2)])
def test_packed_subtraction_matches_recomputed_vector(p, n):
    # for g in St(j) and each entry b of layer j, the vector of g * b^-c read
    # off the permutation equals g's vector minus c times b's, subtracted packed
    rng = random.Random(p)
    chain = _TreeChain([random_cyclic_tree_perm(rng, p, n) for _ in range(2)], p, n)
    for j, layer in enumerate(chain._layers):
        below = [inverses[1] for later in chain._layers[j:] for _, _, inverses in later]
        for _ in range(5):
            g = chain._ident
            for h in rng.sample(below, min(4, len(below))):
                g = pmul(g, pinv(h) if rng.random() < 0.5 else h)
            v = chain._vector(g, j)
            for shift, minus, inverses in layer:
                assert minus[p - 1] == chain._vector(pinv(inverses[1]), j)
                for c in range(p):
                    packed = _reduce_bytes(v + minus[c], p, chain._ones[j])
                    assert packed == chain._vector(pmul(g, inverses[c]), j)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_tree_chain_rejects_what_lies_outside_the_cyclic_wreath(p, n):
    rng = random.Random(3 * p + n)
    perms = [random_cyclic_tree_perm(rng, p, n) for _ in range(3)]
    group = LevelPermGroup(p, n, perms)
    assert isinstance(group._chain(), _TreeChain)
    generic = _PointChain(group.gens, group.degree)
    shuffled = []
    for _ in range(10):
        images = list(range(p ** n))
        rng.shuffle(images)
        shuffled.append(tuple(images))
    # siblings 0 and 1 turned by a transposition: a tree automorphism, not a rotation
    local = [(0, 2, 1, *range(3, p)) + tuple(range(p, p ** n))] if p > 2 else []
    outside = shuffled + [pmul(q, perms[0]) for q in local]
    for perm in outside:
        assert not _in_cyclic_wreath(perm, p, n)
        assert perm not in group
        assert perm not in generic
    assert all(perm in group for perm in perms)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3)])
def test_tree_chain_on_deep_generators_matches_generic_chain(p, n):
    # generators inside St(1) and St(2), one of them redundant, so the
    # conjugates by the generators start below layer 0
    rng = random.Random(p * n)

    def fixes_level(perm, k):
        return all(x // p ** (n - k) == i // p ** (n - k) for i, x in enumerate(perm))

    for _ in range(3):
        a, b, c = (random_cyclic_tree_perm(rng, p, n) for _ in range(3))
        commutator = pmul(pmul(pinv(a), pinv(b)), pmul(a, b))
        power = power_by_squaring(c, p, identity_perm(p ** n), pmul, pinv)
        deep = pmul(pmul(pinv(commutator), pinv(power)), pmul(commutator, power))
        perms = [commutator, power, deep, pmul(commutator, power)]
        assert all(fixes_level(q, 1) for q in perms) and fixes_level(deep, 2)
        group = LevelPermGroup(p, n, perms)
        assert isinstance(group._chain(), _TreeChain)
        generic = _PointChain(group.gens, group.degree)
        assert group.order() == generic.order()
        members = []
        for _ in range(10):
            g = identity_perm(p ** n)
            for _ in range(12):
                g = pmul(g, rng.choice([*perms, *map(pinv, perms)]))
            members.append(g)
        # a member turned at one bottom block stays in St(1) and may leave the group
        turned = []
        for g in members:
            block = list(range(p ** n))
            first = rng.randrange(p ** (n - 1)) * p
            block[first:first + p] = [first + (x + 1) % p for x in range(p)]
            turned.append(pmul(tuple(block), g))
        swap = list(range(p ** n))
        swap[1], swap[p + 1] = swap[p + 1], swap[1]
        not_tree = [tuple(swap), pmul(tuple(swap), members[0])]
        others = [random_cyclic_tree_perm(rng, p, n) for _ in range(5)]
        for q in members + turned + not_tree + others:
            assert (q in group) == (q in generic)
        assert all(q in group for q in members)
        assert not any(q in group for q in not_tree)
        assert not all(q in group for q in turned)


@pytest.mark.parametrize("p,top", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_seeded_tree_chain_orders_match_generic_chain(p, top):
    rng = random.Random(p)
    for n in range(1, top + 1):
        for count in (1, 2, 3):
            perms = [random_cyclic_tree_perm(rng, p, n) for _ in range(count)]
            group = LevelPermGroup(p, n, perms)
            assert isinstance(group._chain(), _TreeChain)
            assert group.order() == _PointChain(group.gens, p ** n).order()


def test_primes_beyond_the_packed_bound_use_the_generic_chain():
    for p in (127, 131):
        rotation = tuple((x + 1) % p for x in range(p))
        group = LevelPermGroup(p, 1, [rotation])
        assert isinstance(group._chain(), _TreeChain if p < 128 else _PointChain)
        assert group.order() == p
        assert pmul(rotation, rotation) in group
        assert (1, 0, *range(2, p)) not in group
