import json

import pytest

from arboreal import catalog as cat
from arboreal.catalog import grig_P, grig_alpha, lamplighter_alpha, lamplighter_core_gap_check

import lamplighter_oracle as lamp


def test_grig_P_base_cases():
    assert grig_P(0) == "a"
    assert grig_P(1) == "aca"
    assert grig_P(2) == "acabaca"
    assert len(grig_P(12)) == 2 ** 13 - 1


def test_grig_P_equals_sigma_powers():
    entry = cat.get("grigorchuk")
    sigma = entry.sigma()
    word = (("a", 1),)
    for n in range(1, 13):
        word = sigma.apply_word(word)
        assert "".join(s for s, _ in word) == grig_P(n)


def test_grig_P2_group_equality():
    entry = cat.get("grigorchuk")
    sigma = entry.sigma()
    sigma2_a = sigma.apply_word(sigma.apply_word((("a", 1),)))
    p2 = tuple((c, 1) for c in grig_P(2))
    aut = entry.automaton
    from arboreal.core import invert_word
    assert aut.word_is_trivial(aut.reduce(sigma2_a + invert_word(p2)))


def test_grig_alpha_closed_form():
    assert grig_alpha(1) == "d"
    assert grig_alpha(2) == "dad"
    assert grig_alpha(3) == "1"
    assert grig_alpha(6) == "1"
    assert grig_alpha(7) == "a"
    assert grig_alpha(8) == "a"
    with pytest.raises(ValueError):
        grig_alpha(0)


def test_grig_alpha_matches_sections():
    entry = cat.get("grigorchuk")
    aut = entry.automaton
    sigma = entry.sigma()
    word = (("a", 1),)
    for n in range(1, 13):
        word = sigma.apply_word(word)
        section = aut.walk(word, (0,))[1]
        alpha = grig_alpha(n)
        alpha_inv = tuple((c, -1) for c in reversed(alpha)) if alpha != "1" else ()
        assert aut.word_is_trivial(aut.reduce(section + alpha_inv)), n


def test_grig_sigma_periodic_on_bcd():
    entry = cat.get("grigorchuk")
    sigma = entry.sigma()
    for name in "bcd":
        word = ((name, 1),)
        for _ in range(3):
            word = sigma.apply_word(word)
        assert entry.automaton.word_is_trivial(
            entry.automaton.reduce(word + ((name, -1),)))


@pytest.mark.parametrize("gid,sname,letter", [
    ("grigorchuk", "sigma", 1),
    ("basilica", "sigma", 0),
    ("img_z2i", "sigma", 0),
    ("lamplighter", "sigma0", 0),
    ("lamplighter", "sigma1", 1),
    ("bs13", "sigma", 0),
    ("g01inf", "sigma", 1),
    ("gs5", "sigma", 0),
    ("gs7", "sigma", 0),
])
def test_lifting_letters(gid, sname, letter):
    assert cat.get(gid).sigma(sname).letter == letter


def test_bs13_relations():
    entry = cat.get("bs13")
    assert entry.element("c*(a*b^-1*a)^-1").is_trivial()
    assert entry.element("(b*a*b^-1)*(a*b^-1*a*b^-1*a)^-1").is_trivial()


def test_img_relator_families_hold():
    entry = cat.get("img_z2i")
    aut = entry.automaton
    sigma = entry.sigma()
    for _, relator in entry.presentation.relators(2):
        assert aut.word_is_trivial(relator)
        assert aut.word_is_trivial(sigma.apply_word(relator))


def test_lamplighter_presentation_relators_hold():
    entry = cat.get("lamplighter")
    aut = entry.automaton
    for label, relator in entry.relators(5):
        assert aut.word_is_trivial(relator), label


def test_catalog_lookup_and_aliases():
    assert cat.get("grigorchuk").id == "grigorchuk"
    assert cat.get("G").id == "grigorchuk"
    assert cat.get("gupta-sidki-5").id == "gs5"
    with pytest.raises(KeyError):
        cat.get("nope")


def test_gs3_negative_entry():
    entry = cat.get("gs3")
    assert entry.liftable == "unknown"
    assert not entry.substitutions
    with pytest.raises(KeyError):
        entry.sigma()
    # its automaton still works as data
    assert not entry.automaton.state("a").is_trivial()
    assert entry.automaton.word_is_trivial((("a", 1),) * 3)


@pytest.mark.parametrize("gid", sorted(cat.catalog()))
def test_catalog_wreath_text_loads_as_spec(gid, tmp_path):
    from arboreal.levels import perm_group_on_level
    entry = cat.get(gid)
    spec = tmp_path / f"{gid}.txt"
    spec.write_text(entry.wreath_spec)
    loaded = cat.load_spec(str(spec))
    assert loaded.generators == entry.generators
    # gs5/gs7 store a^-1 as a power of a, so compare their level images
    orders = [perm_group_on_level(e.generator_list(), 3).order() for e in (loaded, entry)]
    assert orders[0] == orders[1]
    if gid == "gs3":
        assert loaded.automaton._rules == entry.automaton._rules


def test_wreath_spec_sections_stay_single_factors():
    from arboreal.core import WreathSpecError, parse_wreath_spec
    aut = parse_wreath_spec("a=(1,1,1)(1,2,3),b=(a,a^-1,b)")
    assert aut.state("b").section((1,)).word == (("a", -1),)
    for text in ("x=(x*x,1)(1,2)", "x=(y^-1,1)(1,2)", "x=(x^2,1)(1,2)"):
        with pytest.raises(WreathSpecError):
            parse_wreath_spec(text)


def test_catalog_json_roundtrip():
    data = json.loads(cat.catalog_json())
    assert "grigorchuk" in data
    assert data["grigorchuk"]["substitutions"]["sigma"]["letter"] == 1
    assert data["gs3"]["liftable"] == "unknown"


def test_lamplighter_normal_form_examples():
    assert lamp.word("x^2").is_identity()
    assert lamp.word("x*s*x*s^-1") == lamp.LamplighterElement((-1, 0), 0)
    assert lamp.word("x^(s^3)") == lamp.LamplighterElement((3,), 0)
    assert lamp.word("s^4*x") == lamp.LamplighterElement((-4,), 4)


def test_lamplighter_group_laws():
    import random
    rng = random.Random(15)
    def rand():
        return lamp.LamplighterElement.make(
            {rng.randint(-5, 5) for _ in range(rng.randint(0, 4))}, rng.randint(-3, 3))
    for _ in range(200):
        g, h, k = rand(), rand(), rand()
        assert (g * h) * k == g * (h * k)
        assert (g * g.inverse()).is_identity()
        assert (g * h).inverse() == h.inverse() * g.inverse()


def test_lamplighter_alpha_images():
    for n in range(11):
        assert lamplighter_alpha({0}, 2 ** n) == {0, 2 ** n}
    assert lamplighter_alpha((), 5) == set()       # alpha fixes s, which lights no lamp
    assert lamplighter_alpha({0}, 1) == {0, 1}
    assert lamplighter_alpha({0}, 0) == {0}
    with pytest.raises(ValueError):
        lamplighter_alpha({0}, -1)


def test_lamplighter_alpha_power_equals_single_steps():
    import random
    rng = random.Random(7)
    for _ in range(20):
        start = {rng.randint(-6, 6) for _ in range(rng.randint(0, 5))}
        lamps = start
        for k in range(65):
            assert lamplighter_alpha(start, k) == lamps, k
            stepped = set()
            for i in lamps:
                stepped ^= {i, i + 1}
            lamps = stepped


def test_lamplighter_alpha_check_at_bound_4000_is_fast():
    import time
    from arboreal.checks import run_check
    t0 = time.perf_counter()
    report = run_check("lamplighter-alpha", {"bound": 4000})
    assert report.ok and report.evidence["bad_n"] == []
    assert time.perf_counter() - t0 < 1


def test_lamplighter_alpha_is_endomorphism_sampled():
    import random
    rng = random.Random(16)
    for _ in range(100):
        g = lamp.LamplighterElement.make(
            {rng.randint(-4, 4) for _ in range(rng.randint(0, 3))}, rng.randint(-2, 2))
        h = lamp.LamplighterElement.make(
            {rng.randint(-4, 4) for _ in range(rng.randint(0, 3))}, rng.randint(-2, 2))
        assert lamp.alpha(g * h) == lamp.alpha(g) * lamp.alpha(h)


def test_lamplighter_alpha_matches_sigma1_on_tree():
    # alpha in {x, s} coordinates is sigma_1 in {a, b} coordinates:
    # x = a^-1 b, s = b; verify the corresponding tree words agree
    entry = cat.get("lamplighter")
    aut = entry.automaton
    sigma1 = entry.sigma("sigma1")
    from arboreal.words import parse_word_factors

    def to_tree(e):
        parts = []
        for lamp in e.lamps:
            parts.append(f"(a^-1*b)^(b^{lamp})")
        parts.append(f"b^{e.shift}")
        return parse_word_factors("*".join(parts), set("ab"))

    import random
    rng = random.Random(19)
    for _ in range(40):
        e = lamp.LamplighterElement.make(
            {rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}, rng.randint(-2, 2))
        lhs = to_tree(lamp.alpha(e))
        rhs = sigma1.apply_word(to_tree(e))
        from arboreal.core import invert_word
        assert aut.word_is_trivial(aut.reduce(lhs + invert_word(rhs)))


def test_lamplighter_core_gap():
    assert all(lamplighter_core_gap_check(n) for n in range(17))
    with pytest.raises(ValueError, match="n above 16"):
        lamplighter_core_gap_check(17)


def test_displayed_first_level_decompositions():
    # the wreath identities the liftings rest on, decided exactly
    cases = {
        "grigorchuk": [("a*c*a", "d", "a")],
        "img_z2i": [("a*b*a", "c", "a")],
        "g01inf": [("a*b*a", "c", "a")],
        "lamplighter": [("b", "a", "b"), ("b^a", "b", "a")],
        "bs13": [("b", "a", "c"), ("c", "b", "a"),
                 ("b*c^-1*b", "c", "c*a^-1*c")],
    }
    for gid, rows in cases.items():
        entry = cat.get(gid)
        for text, left, right in rows:
            perm, sections = entry.automaton.split(entry.element(text).word)
            assert perm == (0, 1)
            for section, expected in zip(sections, (left, right)):
                assert entry.automaton.element(section).same_action(entry.element(expected)), text


def test_lamplighter_core_triviality_witness():
    # conjugating a nontrivial shift power by a lamp lights two lamps, so
    # no nontrivial subgroup of <s> is normal in the extension
    for i in (1, -1, 2, 5):
        conj = lamp.x() * lamp.s(i) * lamp.x()
        shifted = conj * lamp.s(-i)  # (s^i)^x * s^-i should carry the lamps
        assert len((lamp.x().inverse() * lamp.s(i) * lamp.x()).lamps) == 2
        assert shifted.shift == 0 and shifted.lamps


def test_separation_complement_construction():
    entry = cat.get("g01inf")
    gens, comp, order = cat.separation_complement(entry)
    assert order == 8
    # (1,a): trivial below 0, acts as a below 1
    e = comp[0]
    assert e.act((0, 1, 1)) == (0, 1, 1)
    assert e.act((1, 0)) == (1, 1)


def test_load_spec_wreath_text(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("a=(1,1)(1,2),b=(a,b)")
    entry = cat.load_spec(str(path))
    assert set(entry.generators) == {"a", "b"}
    assert not entry.element("ab").is_trivial()


def test_load_spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "id": "adhoc-basilica",
        "wreath": "a=(b,1)(1,2),b=(a,1)",
        "substitutions": {"sigma": {"letter": 0, "images": {"a": "b", "b": "a^2"}}},
        "default_sigma": "sigma",
        "presentation": {"iterated": ["[b,b^a]"], "phi": {"a": "b", "b": "a^2"}},
    }))
    entry = cat.load_spec(str(path))
    from arboreal.lifting import check_lifting, verify_endomorphism_by_relators
    assert check_lifting(entry.sigma()).ok
    assert verify_endomorphism_by_relators(entry.sigma(), entry.presentation, 2).ok
