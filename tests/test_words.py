import random
import re
import time

import pytest

from arboreal import catalog as cat
from arboreal.core import invert_word, power_by_squaring, reduced_product
from arboreal.hnn import HNN_IDENTITY, HnnElement, hnn_inverse, hnn_multiply, parse_hnn
from arboreal.words import MAX_NESTING, GroupOps, WordSyntaxError, evaluate, parse_word_factors

from free_words import free_reduce
import lamplighter_oracle as lamp


NAMES = {"a", "b", "c", "d"}


def test_star_and_juxtaposition_agree():
    assert parse_word_factors("a*c*a", NAMES) == parse_word_factors("aca", NAMES)
    # a '*' may sit between any two factors
    assert parse_word_factors("a * (c)*a^2*[b,d]", NAMES) == parse_word_factors(
        "a c a^2 [b,d]", NAMES)


def test_powers():
    assert parse_word_factors("a^3", NAMES) == (("a", 1),) * 3
    assert parse_word_factors("a^-2", NAMES) == (("a", -1),) * 2
    assert parse_word_factors("a^0", NAMES) == ()
    assert parse_word_factors("(ad)^2", NAMES) == (("a", 1), ("d", 1), ("a", 1), ("d", 1))


def test_power_binds_to_last_letter():
    # "at^2" is a*t^2, not (a*t)^2
    names = NAMES | {"t"}
    assert parse_word_factors("at^2", names) == (("a", 1), ("t", 1), ("t", 1))


def test_conjugation_and_commutator():
    assert parse_word_factors("b^a", NAMES) == (("a", -1), ("b", 1), ("a", 1))
    expected = parse_word_factors("b^-1*(b^a)^-1*b*b^a", NAMES)
    assert parse_word_factors("[b,b^a]", NAMES) == expected


def test_conjugation_by_expression():
    lhs = parse_word_factors("a^(b*c)", NAMES)
    rhs = parse_word_factors("c^-1*b^-1*a*b*c", NAMES)
    assert lhs == rhs


def test_identity_literal():
    assert parse_word_factors("1", NAMES) == ()
    assert parse_word_factors("a*1*b", NAMES) == (("a", 1), ("b", 1))


def test_free_reduction():
    assert parse_word_factors("a*a^-1", NAMES) == ()
    assert parse_word_factors("b*a*a^-1*b^-1", NAMES) == ()


def test_unknown_name():
    with pytest.raises(WordSyntaxError):
        parse_word_factors("axz", NAMES)
    with pytest.raises(WordSyntaxError):
        parse_word_factors("a*(b", NAMES)


@pytest.mark.parametrize("text,message", [
    ("a^", "unexpected end of input"),
    ("(a", "expected ')', found end of input"),
    ("[a,b", "expected ']', found end of input"),
    ("a*", "unexpected end of input"),
    ("*a", "unexpected token '*'"),
    ("a**b", "unexpected token '*'"),
    ("(a*)", "unexpected token ')'"),
    ("[a*,b]", "unexpected token ','"),
])
def test_syntax_errors_name_the_end_of_input_and_a_stray_star(text, message):
    with pytest.raises(WordSyntaxError, match=f"^{re.escape(message)}$"):
        parse_word_factors(text, NAMES)


def test_element_from_text_matches_manual():
    grig = cat.get("grigorchuk")
    gens = grig.elements()
    assert grig.element("(ad)^4").is_trivial()
    assert grig.element("aca").same_action(gens["a"] * gens["c"] * gens["a"])


# ---------------------------------------------------------------------------
# linear-time word arithmetic against the left-to-right fold it replaced

class _LeftFold(GroupOps):
    """Multiplies factors and powers one at a time, left to right."""

    def product(self, factors):
        out = self.identity
        for f in factors:
            out = self.mul(out, f)
        return out

    def power(self, x, n):
        if n < 0:
            x, n = self.inv(x), -n
        out = self.identity
        for _ in range(n):
            out = self.mul(out, x)
        return out


def _random_reduced(rng, names, length):
    return free_reduce([(rng.choice(names), rng.choice((1, -1))) for _ in range(length)])


def test_seam_product_equals_full_reduction():
    rng = random.Random(11)
    names = "ab"
    for _ in range(2000):
        x = _random_reduced(rng, names, rng.randint(0, 12))
        r = rng.random()
        if r < 0.2:
            y = invert_word(x)                              # total cancellation
        elif r < 0.5:
            cut = rng.randint(0, len(x))
            y = invert_word(x[cut:]) + _random_reduced(rng, names, rng.randint(0, 6))
            y = free_reduce(y)
        else:
            y = _random_reduced(rng, names, rng.randint(0, 12))
        assert reduced_product(x, y) == free_reduce(x + y), (x, y)
    assert reduced_product((), ()) == ()


def _expr(rng, names, depth=0):
    parts = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.5 or depth > 1:
            x = rng.choice(names)
        elif r < 0.7:
            x = "(" + _expr(rng, names, depth + 1) + ")"
        elif r < 0.85:
            x = "[" + _expr(rng, names, depth + 1) + "," + _expr(rng, names, depth + 1) + "]"
        else:
            x = rng.choice(names) + "^(" + _expr(rng, names, depth + 1) + ")"
        if rng.random() < 0.4:
            x += f"^{rng.randint(-12, 12)}"
        parts.append(x)
    return "*".join(parts)


def _hnn_expr(rng, names):
    """Words in t, T and the generators whose sigma-depth stays small."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        w = _expr(rng, names, 1)
        k = rng.randint(1, 3)
        n = rng.randint(-12, 12)
        parts.append(rng.choice([
            f"({w})", f"t^{k}", f"T^{k}", "t", "T", f"(T^{k}*({w})*t^{k})^{n}",
            f"(t*({w}))^{rng.randint(-4, 4)}", f"({w})^t", f"({w})^T", f"[t,{w}]",
            f"(T{rng.choice(names)}t)^{n}"]))
    return "*".join(parts)


def test_balanced_fold_and_squaring_match_left_fold_on_tree_words():
    rng = random.Random(12)
    for gid in ("grigorchuk", "basilica", "gs3"):
        entry = cat.get(gid)
        aut = entry.automaton
        names = set(aut.states)
        ops = _LeftFold((), lambda s: ((s, 1),) if s != "1" else (),
                        lambda x, y: free_reduce(x + y), invert_word)
        for _ in range(200):
            text = _expr(rng, list(entry.generators))
            assert parse_word_factors(text, names) == evaluate(text, ops, names), text
        for _ in range(20):
            g = aut.element(_random_reduced(rng, entry.generators, rng.randint(0, 8)))
            for n in range(-12, 13):
                expected = aut.identity()
                for _ in range(abs(n)):
                    expected = expected * (g if n > 0 else g.inverse())
                assert (g ** n).word == expected.word


def _hnn_multiply_full(e1, e2, action):
    """The extension's product with the whole middle word reduced again."""
    if e1.tpos >= e2.tneg:
        k = e1.tpos - e2.tneg
        word = free_reduce(e1.word + action.sigma_word(e2.word, k))
        return HnnElement(e1.tneg, word, k + e2.tpos)
    k = e2.tneg - e1.tpos
    word = free_reduce(action.sigma_word(e1.word, k) + e2.word)
    return HnnElement(e1.tneg + k, word, e2.tpos)


def test_balanced_fold_and_squaring_match_left_fold_on_hnn_words():
    rng = random.Random(13)
    for gid in ("grigorchuk", "basilica", "lamplighter", "bs13"):
        action = cat.get(gid).action()
        names = set(action.automaton.states) | {"t", "T"}

        def atom(name):
            return {"t": HnnElement(0, (), 1), "T": HnnElement(1, (), 0),
                    "1": HNN_IDENTITY}.get(name) or HnnElement(0, ((name, 1),), 0)

        ops = _LeftFold(HNN_IDENTITY, atom, lambda x, y: _hnn_multiply_full(x, y, action),
                        hnn_inverse)
        gens = list(action.generators())
        for _ in range(60):
            text = _hnn_expr(rng, gens)
            assert parse_hnn(text, action) == evaluate(text, ops, names), (gid, text)
        for _ in range(10):
            e = parse_hnn(_hnn_expr(rng, gens), action)
            for n in range(-12, 13):
                if abs((e.tneg - e.tpos) * n) > 6:
                    continue    # sigma^k words grow exponentially in k
                squared = power_by_squaring(e, n, HNN_IDENTITY,
                                            lambda x, y: hnn_multiply(x, y, action), hnn_inverse)
                assert squared == ops.power(e, n), (gid, e, n)


def test_balanced_fold_and_squaring_match_left_fold_on_lamplighter():
    rng = random.Random(14)
    ops = _LeftFold(lamp.IDENTITY, lamp.OPS.atom, lamp.OPS.mul, lamp.OPS.inv)
    for _ in range(300):
        text = _expr(rng, ["x", "s"])
        assert lamp.word(text) == evaluate(text, ops, {"x", "s", "1"}), text


def test_long_powers_and_juxtapositions_parse_in_linear_time():
    names = {"a", "d"}
    t0 = time.process_time()
    word = parse_word_factors("(ad)^200000", names)
    assert time.process_time() - t0 < 1
    assert len(word) == 400000 and word[:2] == (("a", 1), ("d", 1))
    t0 = time.process_time()
    word = parse_word_factors("ad" * 50000, names)
    assert time.process_time() - t0 < 2
    assert word == (("a", 1), ("d", 1)) * 50000


def test_nesting_is_bounded():
    deep = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_word_factors(deep, NAMES) == (("a", 1),)
    with pytest.raises(WordSyntaxError, match="nested"):
        parse_word_factors("(" + deep + ")", NAMES)
    with pytest.raises(WordSyntaxError, match="nested"):
        parse_word_factors("(" * 3000 + "a" + ")" * 3000, NAMES)
    with pytest.raises(WordSyntaxError, match="nested"):
        parse_word_factors("[a," * 3000 + "b" + "]" * 3000, NAMES)
