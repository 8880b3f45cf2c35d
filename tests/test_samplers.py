"""Oracle tests by seeded sampling.

`checks._random_hnn` builds a random HNN element in normal form from the
heights of its letters, with each sigma power read from a table; it is
replayed here against the per-letter product, draw for draw, on the same
seeds, and the table against `Substitution.apply_power`.  The lamplighter core lemma, decided
exactly by `catalog.lamplighter_core_gap_check`, is sampled here on
random words in its generators, each word kept as an int of lamp bits and
replayed against the products of `lamplighter_oracle`.

Criterion 9's draws go through `checks._below`, which must draw what
`random.Random`'s choice, randint and randrange draw and leave the same
state; the state `check_properties` ends in is pinned, and each of its
suites is shown to fail when one engine is broken.
"""

import hashlib
import random
import types
from itertools import accumulate, islice

import pytest

from arboreal import catalog, checks, core
from arboreal.checks import _below, _random_hnn
from arboreal.hnn import HnnElement, _canonical_pairs, hnn_multiply

import lamplighter_oracle as lamp


def _random_hnn_by_products(action, rng, max_len):
    """The per-letter fold: one hnn_multiply for each random letter."""
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


LIFTINGS = [(entry.id, name) for entry in catalog.catalog().values()
            for name in sorted(entry.substitutions)]


def _names(action):
    return list(action.generators()) + ["t", "T"]


@pytest.mark.parametrize("group, sigma", LIFTINGS)
def test_random_hnn_matches_the_per_letter_products(group, sigma):
    action = catalog.get(group).action(sigma)
    names, powers = _names(action), {}
    fast, slow = random.Random(group + sigma), random.Random(group + sigma)
    for k in range(1000):
        max_len = 6 if k % 2 else 10
        e = _random_hnn(action, names, powers, fast.getrandbits, max_len)
        assert e == _random_hnn_by_products(action, slow, max_len), (group, sigma, k)
        assert fast.random() == slow.random()
    # the table holds sigma^j(s^e) itself, whatever call filled it
    for (s, e, j), image in powers.items():
        assert image == action.sigma.apply_power(((s, e),), j), (group, sigma, s, e, j)


class _Recording(random.Random):
    """A seeded generator that records the symbols it draws from a list equal to `names`;
    `_random_hnn_by_products` draws through `choice`, `_random_hnn` from getrandbits."""

    def __init__(self, seed, names):
        super().__init__(seed)
        self.names, self.drawn = names, []

    def choice(self, seq):
        x = super().choice(seq)
        if seq == self.names:
            self.drawn.append(x)
        return x


# seeds of one 10-letter draw on grigorchuk whose height falls below zero
# before its first generator letter, and below its lowest point so far after it
DIPPING_SEEDS = (147, 148, 196)


@pytest.mark.parametrize("seed", DIPPING_SEEDS)
def test_random_hnn_lowers_every_height_by_the_lowest(seed):
    action = catalog.get("grigorchuk").action()
    names, powers = _names(action), {}
    rng = _Recording(seed, names)
    by_products = _random_hnn_by_products(action, rng, 10)
    e = _random_hnn(action, names, powers, random.Random(seed).getrandbits, 10)
    first = next(i for i, x in enumerate(rng.drawn) if x not in ("t", "T"))
    heights = list(accumulate((x == "t") - (x == "T") for x in rng.drawn))
    assert min(heights[:first]) < 0 and min(heights[first:]) < min(heights[:first])
    assert e.tneg == -min(heights) and e.tpos == heights[-1] - min(heights)
    assert e == by_products
    assert powers and all(image == action.sigma.apply_power(((s, x),), j)
                          for (s, x, j), image in powers.items())


def _drawn_sizes():
    """Every n that check_properties draws below: its fixed ranges, and per catalog
    entry its alphabet, generator lists (with t and T) and theta-hom box."""
    sizes = {2, 6, 7, 8, 10}
    for entry in catalog.entries_with_sigma():
        action = entry.action()
        w_max = 4 if action.automaton.size == 2 else 2
        sizes |= {action.automaton.size, len(entry.generators), len(action.generators()) + 2,
                  len(list(_canonical_pairs(action, 4, w_max)))}
    return sorted(sizes)


@pytest.mark.parametrize("n", _drawn_sizes())
def test_below_draws_the_stream_of_random_random(n):
    mine, theirs = random.Random(n), random.Random(n)
    bits, seq = mine.getrandbits, list(range(100, 100 + n))
    for k in range(10000):
        if k % 3 == 0:
            assert seq[_below(bits, n)] == theirs.choice(seq), (n, k)
        elif k % 3 == 1:
            assert -6 + _below(bits, n) == theirs.randint(-6, n - 7), (n, k)
        else:
            assert _below(bits, n) == theirs.randrange(n), (n, k)
    assert mine.getstate() == theirs.getstate()


def _properties(monkeypatch):
    """check_properties run once: (status, the evidence keys that read False, the
    sha256 prefix of the generator's final state)."""
    made = []

    class Kept(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(checks, "random", types.SimpleNamespace(Random=Kept))
    report = checks.run_check("properties", {})
    state = hashlib.sha256(repr(made[0].getstate()).encode()).hexdigest()[:16]
    return report.status, {key for key, ok in report.evidence.items() if not ok}, state


# the final state of criterion 9's generator when it drew through rng.choice,
# rng.randint and rng.randrange, before `_below`: the same elements are tested
PROPERTIES_FINAL_STATE = "bcb6f8d6c1f202c8"


def test_properties_draws_the_same_stream(monkeypatch):
    assert _properties(monkeypatch) == ("pass", set(), PROPERTIES_FINAL_STATE)


def _suite_keys(suite):
    return {f"{entry.id}.{suite}" for entry in catalog.entries_with_sigma()}


def test_properties_fails_on_one_wrong_triviality(monkeypatch):
    real, flipped = checks.hnn_is_trivial, []

    def wrong(e, action):
        if e.word and not flipped:
            flipped.append(e)
            return not real(e, action)
        return real(e, action)

    monkeypatch.setattr(checks, "hnn_is_trivial", wrong)
    status, failed, _ = _properties(monkeypatch)
    assert flipped and (status, failed) == ("fail", {"grigorchuk.triviality-agreement"})


def test_properties_fails_on_a_product_that_drops_a_seam_letter(monkeypatch):
    real = checks.hnn_multiply

    def wrong(e1, e2, action):
        return real(HnnElement(e1.tneg, e1.word[:-1], e1.tpos), e2, action)

    monkeypatch.setattr(checks, "hnn_multiply", wrong)
    assert _properties(monkeypatch)[:2] == ("fail", _suite_keys("theta-hom"))


def test_properties_fails_on_a_wrong_section(monkeypatch):
    real = core.TreeAutomorphism.section
    monkeypatch.setattr(core.TreeAutomorphism, "section",
                        lambda g, v: real(g, tuple(v)[::-1]))   # the vertex read backwards
    assert _properties(monkeypatch)[:2] == ("fail", _suite_keys("algebra"))


def test_properties_fails_on_a_distance_off_by_one(monkeypatch):
    real = checks.boundary_distance

    def wrong(x, y):
        level = real(x, y)
        return level if level is None or x.offset == y.offset else level + 1

    monkeypatch.setattr(checks, "boundary_distance", wrong)
    assert _properties(monkeypatch)[:2] == ("fail", {"ultrametric"})


def _lamplighter_core_samples(n, seed):
    """Words of 1-12 letters x_{2^n, i} (i in -8..8) or s^(+-1), endlessly,
    as (lamps, shift): lamp b is bit b + 32, and a word's shift stays within
    +-12 and its lamps above -21."""
    rng = random.Random(seed)
    masks = [1 << (i + 32) | 1 << (i + 2 ** n + 32) for i in range(-8, 9)]
    while True:
        lamps = shift = 0
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.5:
                mask = rng.choice(masks)
                lamps ^= mask >> shift if shift >= 0 else mask << -shift
            else:
                shift += rng.choice((-1, 1))
        yield lamps, shift


def _sampled_gap_check(n, trials, seed):
    """True iff each of `trials` sampled words that lights a lamp lights two
    at least 2^n apart."""
    lit = (lamps for lamps, _ in _lamplighter_core_samples(n, seed) if lamps)
    return all(lamps.bit_length() - (lamps & -lamps).bit_length() >= 2 ** n
               for lamps in islice(lit, trials))


def _lamplighter_samples_by_products(n, seed):
    """The core sampler's words multiplied out as LamplighterElements."""
    rng = random.Random(seed)
    xs = [lamp.LamplighterElement.make({i, i + 2 ** n}, 0) for i in range(-8, 9)]
    steps = (lamp.s(-1), lamp.s(1))
    while True:
        e = lamp.IDENTITY
        for _ in range(rng.randint(1, 12)):
            e = e * (rng.choice(xs) if rng.random() < 0.5 else rng.choice(steps))
        yield e


def _lit(lamps):
    """The lamps of a bitmask, lamp b at bit b + 32."""
    lit = []
    while lamps:
        low = lamps & -lamps
        lit.append(low.bit_length() - 33)
        lamps ^= low
    return tuple(lit)


@pytest.mark.parametrize("n", [0, 1, 3, 5, 8, 12, 16])
def test_lamplighter_samples_match_the_element_products(n):
    for seed in (0, 7, 20241 + n):
        pairs = zip(_lamplighter_core_samples(n, seed),
                    _lamplighter_samples_by_products(n, seed))
        for k, ((lamps, shift), e) in enumerate(islice(pairs, 400)):
            assert (_lit(lamps), shift) == (e.lamps, e.shift), (n, seed, k)


def test_lamplighter_gap_check_matches_the_sampler():
    # the exact decision against the sampler, at the corpus and default seeds
    for n in range(17):
        exact = catalog.lamplighter_core_gap_check(n)
        for seed in (1, 2, 77, 123456, 20241 + n):
            assert exact == _sampled_gap_check(n, 1000, seed), (n, seed)
