import json
import random

import pytest

from arboreal import catalog as cat
from arboreal.checks import run_check
from arboreal.cli import main
from arboreal.core import fmt_word, invert_word, parse_wreath_spec
from arboreal.levels import perm_group_on_level
from arboreal.lifting import (
    GgsError,
    GgsVector,
    LiftingError,
    LPresentation,
    Substitution,
    check_lifting,
    ggs_lifting,
    self_replicating_witnesses,
    verify_endomorphism_by_quotient_separation,
    verify_endomorphism_by_relators,
)

from free_words import free_reduce
import relator_certificate as reference
from witness_oracle import frontier_witnesses


def test_check_lifting_grigorchuk():
    sigma = cat.get("grigorchuk").sigma()
    report = check_lifting(sigma)
    assert report.ok
    assert report.letter == 1
    assert all(report.fixes.values()) and all(report.sections_match.values())


def test_check_lifting_lamplighter_both():
    entry = cat.get("lamplighter")
    assert check_lifting(entry.sigma("sigma0")).ok
    assert check_lifting(entry.sigma("sigma1")).ok


def test_check_lifting_identity_map_fails():
    entry = cat.get("grigorchuk")
    identity_sub = Substitution.parse(
        entry.automaton, {n: n for n in "abcd"}, letter=0)
    report = check_lifting(identity_sub)
    assert not report.ok
    assert "a" in report.failures  # a does not fix the vertex 0


def test_check_lifting_basilica():
    assert check_lifting(cat.get("basilica").sigma()).ok


def test_check_lifting_all_catalog():
    for entry in cat.entries_with_sigma():
        for name in entry.substitutions:
            assert check_lifting(entry.sigma(name)).ok, (entry.id, name)


def test_bs13_sigma_section_verified_exactly():
    # bc^-1b = (c, ca^-1c) rests on the relation c = ab^-1a; the lifting
    # check decides the section equality without that rewriting
    entry = cat.get("bs13")
    aut = entry.automaton
    image = entry.sigma().image("c")
    section = aut.walk(image, (0,))[1]
    assert fmt_word(section) != "c"  # syntactically it is a*b^-1*a
    assert aut.word_is_trivial(aut.reduce(section + (("c", -1),)))


def test_relators_grigorchuk_depth3():
    entry = cat.get("grigorchuk")
    report = verify_endomorphism_by_relators(entry.sigma(), entry.presentation, 3)
    assert report.ok
    labels = [label for label, _ in report.checks]
    assert any("phi^3" in l for l in labels)
    assert len(report.checks) == 5 + 2 * 4  # Q plus phi^0..phi^3 of both families


def test_relators_basilica():
    entry = cat.get("basilica")
    report = verify_endomorphism_by_relators(entry.sigma(), entry.presentation, 3)
    assert report.ok


def test_relators_img_depth2():
    entry = cat.get("img_z2i")
    report = verify_endomorphism_by_relators(entry.sigma(), entry.presentation, 2)
    assert report.ok
    assert len(report.checks) == 7 * 3  # seven families, phi^0..phi^2


# the bundle of a lifting that is not an endomorphism: Grigorchuk's catalog
# lifting with b -> d*a*d*a, which still fixes 1 with section b there
WRONG_B = {"id": "grigorchuk-wrong-b", "wreath": "a=(1,1)(1,2),b=(a,c),c=(a,d),d=(1,b)",
           "substitutions": {"sigma": {"letter": 1, "images": {"a": "a*c*a", "b": "d*a*d*a",
                                                               "c": "b", "d": "c"}}},
           "default_sigma": "sigma",
           "presentation": {"fixed": ["a^2", "b^2", "c^2", "d^2", "b*c*d"],
                            "iterated": ["(a*d)^4", "(a*d*a*c*a*c)^4"],
                            "phi": {"a": "a*c*a", "b": "d", "c": "b", "d": "c"}}}


@pytest.fixture
def wrong_b_spec(tmp_path):
    path = tmp_path / "wrong_b.json"
    path.write_text(json.dumps(WRONG_B))
    return str(path)


def _wrong_substitution():
    entry = cat.get("grigorchuk")
    return Substitution.parse(
        entry.automaton, {"a": "a*c*a", "b": "d", "c": "b", "d": "b"}, letter=1)


def test_relators_catch_a_wrong_substitution():
    entry = cat.get("grigorchuk")
    report = verify_endomorphism_by_relators(_wrong_substitution(), entry.presentation, 1)
    assert not report.ok


@pytest.mark.parametrize("gid", ["grigorchuk", "basilica", "img_z2i"])
def test_relator_certificate_matches_the_tuple_reference(gid):
    # sigma = phi: each sigma(phi^k(r)) is reused as phi^(k+1)(r)
    entry = cat.get(gid)
    sigma, pres = entry.sigma(), entry.presentation
    assert sigma._images == pres.phi._images
    for depth in range(7):
        assert pres.relators(depth) == reference.relators(pres, depth), depth
        report = verify_endomorphism_by_relators(sigma, pres, depth)
        assert report.checks == reference.certificate(sigma, pres, depth), depth


def test_relator_certificate_matches_the_reference_when_sigma_is_not_phi(wrong_b_spec):
    wrong, pres = _wrong_substitution(), cat.get("grigorchuk").presentation
    entry = cat.load_spec(wrong_b_spec)
    for sigma, pres in ((wrong, pres), (entry.sigma(), entry.presentation)):
        assert sigma._images != pres.phi._images
        for depth in range(7):
            report = verify_endomorphism_by_relators(sigma, pres, depth)
            assert report.checks == reference.certificate(sigma, pres, depth), depth
            assert not report.ok


def test_lifting_that_is_not_an_endomorphism_fails_its_certificate(wrong_b_spec, capsys):
    report = run_check("lifting", {"spec": wrong_b_spec})
    assert report.status == "fail"
    assert report.evidence == {
        "sigma.lifting": "pass",
        "sigma.relators": "fail ['sigma(Q[4]=b*c*d)', 'sigma(phi^2(R[0]=a*d*a*d*a*d*a*d))', "
                          "'sigma(phi^3(R[0]=a*d*a*d*a*d*a*d))', "
                          "'sigma(phi^5(R[0]=a*d*a*d*a*d*a*d))']"}
    assert main(["run", "lifting", "--spec", wrong_b_spec]) == 1
    capsys.readouterr()


def test_relators_without_phi_and_phi_over_other_states():
    entry = cat.get("grigorchuk")
    pres = LPresentation.parse(entry.automaton, list("abcd"), fixed=["a^2", "b*c*d"],
                               iterated=["(ad)^4"])
    assert pres.relators(0) == reference.relators(pres, 0)
    assert verify_endomorphism_by_relators(entry.sigma(), pres, 0).checks == (
        reference.certificate(entry.sigma(), pres, 0))
    with pytest.raises(LiftingError, match="need phi"):
        pres.relators(1)
    # the same recursion with its states listed in another order numbers them differently
    other = parse_wreath_spec("d=(1,b),c=(a,d),b=(a,c),a=(1,1)(1,2)")
    moved = LPresentation.parse(other, list("abcd"), fixed=["b*c*d"], iterated=["(ad)^4"],
                                phi={"a": "a*c*a", "b": "d", "c": "b", "d": "c"})
    assert moved.relators(3) == reference.relators(moved, 3)
    with pytest.raises(LiftingError, match="different states"):
        verify_endomorphism_by_relators(entry.sigma(), moved, 1)


def test_relators_domain_mismatch():
    entry = cat.get("grigorchuk")
    basilica = cat.get("basilica")
    with pytest.raises(Exception):
        verify_endomorphism_by_relators(basilica.sigma(), entry.presentation, 1)


def test_separation_transcript_level4():
    entry = cat.get("g01inf")
    gens, comp, order = cat.separation_complement(entry)
    report = verify_endomorphism_by_quotient_separation(gens, comp, order, 4)
    assert report.ok
    assert report.complement_order == 8


def test_separation_level1_fails():
    entry = cat.get("g01inf")
    gens, comp, order = cat.separation_complement(entry)
    report = verify_endomorphism_by_quotient_separation(gens, comp, order, 1)
    assert not report.ok
    assert not report.complement_faithful


def test_separation_complement_replaced_by_stabilizer_fails():
    entry = cat.get("g01inf")
    gens, _, order = cat.separation_complement(entry)
    from arboreal.levels import stabilizer_words
    aut = next(iter(gens.values())).automaton
    h_elements = [aut.element(w) for w in stabilizer_words(gens, "first-level")]
    report = verify_endomorphism_by_quotient_separation(gens, h_elements, order, 4)
    assert not report.ok


def test_separation_complement_relators():
    # the complement order 8 rests on C = <a,c> being a quotient of D4
    # with a level-3 image of order 8
    entry = cat.get("g01inf")
    aut = entry.automaton
    for text in entry.separation["complement_relators"]:
        assert aut.element(text).is_trivial()
    gens = entry.elements()
    assert perm_group_on_level([gens["a"], gens["c"]], 3).order() == 8


def test_ggs_gupta_sidki_5():
    built = ggs_lifting(GgsVector(5, (1, -1, 0, 0), j=1))
    assert built.ok
    assert built.f == 1
    assert dict(built.sigma.images)["a"] == (("b", 1),)
    assert dict(built.sigma.images)["b"] == (("a", -1), ("b", 1), ("a", 1))


def test_ggs_gupta_sidki_7():
    built = ggs_lifting(GgsVector(7, (1, -1, 0, 0, 0, 0)))
    assert built.ok
    assert built.j == 1


def test_ggs_rejects_p3():
    with pytest.raises(GgsError):
        GgsVector(3, (1, -1))


def test_ggs_rejects_bad_vectors():
    with pytest.raises(GgsError):
        GgsVector(4, (1, 0, 0))          # not prime
    with pytest.raises(GgsError):
        GgsVector(5, (0, 0, 0, 0))       # zero vector
    with pytest.raises(GgsError):
        GgsVector(5, (1, -1, 0))         # wrong length
    with pytest.raises(GgsError):
        GgsVector(5, (1, -1, 0, 0), j=4)  # e_4 = 0 violates e_j != 0


def test_ggs_j2_valid_for_gs5():
    # counterpart to the previous test: j=2 is actually valid for e=(1,-1,0,0)
    built = ggs_lifting(GgsVector(5, (1, -1, 0, 0), j=2))
    assert built.lifting.ok


def test_ggs_generator_orders():
    built = ggs_lifting(GgsVector(5, (1, -1, 0, 0)))
    aut = built.automaton
    assert aut.word_is_trivial((("a", 1),) * 5)
    assert aut.word_is_trivial((("b", 1),) * 5)
    for k in range(1, 5):
        assert not aut.word_is_trivial((("a", 1),) * k)
    # b has the stated first-level decomposition
    _, sections = aut.rule("b")
    assert sections[0] == (("a", 1),)
    assert sections[1] == (("a", 1),) * 4  # -1 mod 5
    assert sections[4] == (("b", 1),)


def test_ggs_sigma_composability():
    # sigma^n(s) fixes the vertex 0^n
    built = ggs_lifting(GgsVector(5, (1, -1, 0, 0)))
    for name in ("a", "b"):
        word = ((name, 1),)
        for n in range(1, 5):
            word = built.sigma.apply_word(word)
            assert built.automaton.walk(word, (0,) * n)[0] == (0,) * n


def test_sigma_composability_catalog():
    # sigma^n(s) fixes i^n for n <= 6, needed by the theta embedding
    for entry in cat.entries_with_sigma():
        for name in entry.substitutions:
            sigma = entry.sigma(name)
            i = sigma.letter
            for gen in sigma.domain:
                word = ((gen, 1),)
                for n in range(1, 7):
                    word = sigma.apply_word(word)
                    assert entry.automaton.walk(word, (i,) * n)[0] == (i,) * n


def test_pi_i_sigma_is_identity_at_action_level():
    # act(sigma(s), i w) = i act(s, w) for all w up to level 6
    import itertools
    for entry in cat.entries_with_sigma():
        sigma = entry.sigma()
        i = sigma.letter
        aut = entry.automaton
        depth = 6 if aut.size == 2 else 3
        for gen in sigma.domain:
            image = sigma.image(gen)
            for n in range(depth + 1):
                for w in itertools.product(range(aut.size), repeat=n):
                    assert aut.walk(image, (i,) + w)[0] == (i,) + aut.walk(((gen, 1),), w)[0]


def test_witnesses_grigorchuk_sigma():
    entry = cat.get("grigorchuk")
    report = self_replicating_witnesses(entry.elements(), 1, sigma=entry.sigma())
    assert report.ok
    assert {n: fmt_word(w) for n, w in report.witnesses.items()} == {
        "a": "a*c*a", "b": "d", "c": "b", "d": "c"}


def test_witnesses_lamplighter():
    entry = cat.get("lamplighter")
    report = self_replicating_witnesses(entry.elements(), 0, sigma=entry.sigma("sigma0"))
    assert report.ok
    assert fmt_word(report.witnesses["a"]) == "b"
    assert fmt_word(report.witnesses["b"]) == "a^-1*b*a"


WITNESS_CASES = [(gid, letter, bound) for gid, entry in sorted(cat.catalog().items())
                 for letter in range(entry.automaton.size)
                 for bound in range(5 if entry.automaton.size < 5 else 4)]


@pytest.mark.parametrize("gid,letter,bound", WITNESS_CASES)
def test_witness_search_matches_the_frontier_oracle(gid, letter, bound):
    """The product enumeration finds the frontier search's witnesses and sources."""
    gens = cat.get(gid).elements()
    want = frontier_witnesses(gens, letter, bound)
    got = self_replicating_witnesses(gens, letter, bound)
    assert (got.witnesses, got.source) == (want.witnesses, want.source)


def test_witnesses_search_without_sigma():
    entry = cat.get("grigorchuk")
    report = self_replicating_witnesses(entry.elements(), 1, word_bound=3)
    assert report.ok
    assert all(source == "search" for source in report.source.values())
    # shortlex-least witness for a is aba (it fixes 1 with section a)
    assert fmt_word(report.witnesses["a"]) == "a*b*a"


def test_witnesses_identity_vacuous():
    # trivial generators are witnessed by the empty word; the transitivity
    # requirement only applies once a nontrivial target exists
    entry = cat.get("grigorchuk")
    aut = entry.automaton
    report = self_replicating_witnesses({"e": aut.identity()}, 0)
    assert report.ok
    assert report.witnesses["e"] == ()


def test_witnesses_require_transitivity_for_real_targets():
    entry = cat.get("grigorchuk")
    gens = entry.elements()
    with pytest.raises(Exception):
        # <d> fixes the first level pointwise: not transitive
        self_replicating_witnesses({"d": gens["d"]}, 0)


def test_presentation_parse_roundtrip():
    entry = cat.get("grigorchuk")
    pres = LPresentation.parse(
        entry.automaton, list("abcd"), fixed=["a^2"], iterated=["(ad)^4"],
        phi={"a": "a*c*a", "b": "d", "c": "b", "d": "c"})
    relators = pres.relators(2)
    assert len(relators) == 1 + 3


def test_substitution_table():
    sigma = cat.get("grigorchuk").sigma()
    for name, word in sigma.images:
        assert sigma.image(name) == word
        assert sigma.image(name, -1) == invert_word(word)
    aca = sigma.image("a")
    assert sigma.apply_word((("a", 1), ("1", 1), ("a", -1))) == ()
    assert sigma.apply_word((("a", -1), ("b", 1))) == invert_word(aca) + (("d", 1),)
    with pytest.raises(LiftingError, match="undefined"):
        sigma.apply_word((("zz", 1),))


# ---------------------------------------------------------------------------
# sigma powers on packed words


def _substitute(sigma, word, k):
    """k rounds of the factor-level substitution, each followed by free_reduce."""
    for _ in range(k):
        word = free_reduce(tuple(f for s, e in word if s != "1" for f in sigma.image(s, e)))
    return word


@pytest.mark.parametrize("gid,name", [(e.id, name) for e in cat.entries_with_sigma()
                                      for name in e.substitutions])
def test_apply_power_matches_the_factor_substitution(gid, name):
    sigma = cat.get(gid).sigma(name)
    rng = random.Random(f"{gid} {name}")
    names = list(sigma.domain) + ["1"]
    for _ in range(12):
        word = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        assert sigma.apply_power(word, 0) == word
        assert sigma.apply_word(word) == _substitute(sigma, word, 1), word
        for k in range(1, 5):
            assert sigma.apply_power(word, k) == _substitute(sigma, word, k), (word, k)


def test_apply_power_over_200_states():
    """Past 127 states the packed words are code tuples, with the same answers."""
    aut = parse_wreath_spec(",".join(f"s{i}=(s{(i + 1) % 200},1)(1,2)" for i in range(200)))
    assert aut._packed is tuple
    sigma = Substitution.parse(aut, {f"s{i}": f"s{(i + 7) % 200}*s{3 * i % 200}^-1*s{i}"
                                     for i in range(200)})
    rng = random.Random(200)
    for _ in range(20):
        word = tuple((f"s{rng.randrange(200)}", rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 6)))
        for k in range(1, 4):
            assert sigma.apply_power(word, k) == _substitute(sigma, word, k), (word, k)


def test_apply_power_names_the_factor_off_the_domain():
    sigma = Substitution.parse(cat.get("grigorchuk").automaton, {"a": "b*a", "b": "d"})
    assert sigma.apply_power((("a", 1), ("1", -1), ("b", 1)), 1) == (
        ("b", 1), ("a", 1), ("d", 1))
    assert sigma.apply_power((("c", 1), ("1", 1)), 0) == (("c", 1), ("1", 1))
    for word, k, name in (((("a", 1), ("c", 1)), 3, "c"), ((("zz", -1),), 1, "zz"),
                          ((("a", 2),), 1, "a"), ((("b", 1),), 2, "d")):
        with pytest.raises(LiftingError, match=f"sigma is undefined on '{name}'"):
            sigma.apply_power(word, k)
