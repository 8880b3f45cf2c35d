"""The punctured boundary as digit streams and its exact ultrametric.

A boundary point is a bi-infinite digit string ...x-1 x0 . x1 x2 ... with
the dot between positions 0 and 1; positions far to the left follow the
spine (the distinguished letter, 0 in the p-adic picture).  We store a
finite window: `digits[k]` is the digit at position offset+k, positions
below the offset are implicitly the padding letter, positions past the
window are unknown.  All metric statements are exponent-exact; there is
no floating point anywhere, and "equal to precision" is a distinct
outcome, never silently distance zero.

The unrooted vertex (m, w) of `hnn` is the window w at offset 1 - m.
Windows move under `hnn.theta_map`, whose caches live per element:
`boundary_apply` binds it for one window, and the dilation sampler, which
only the benchmark and the tests run, once per call.

The p-adic value of a label gives the digit at position i the weight
p^(i-1), which makes the spine 0, the uniformizer label ".010..." the
element p, and the identification an isometry onto Q_p; the tests check
that isometry against exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, prod

from .core import IDENTITY, fmt_word, perm_from_images
from .hnn import _spine_run, theta_map


class PrecisionError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryPoint:
    """A truncated boundary label: digits at positions offset..offset+len-1."""

    offset: int
    digits: tuple
    size: int = 2
    pad: int = 0

    def __post_init__(self):
        if not 0 <= self.pad < self.size:
            raise ValueError("padding letter outside the alphabet")
        if self.digits and not (0 <= min(self.digits) and max(self.digits) < self.size):
            raise ValueError("digit outside the alphabet")

    def __str__(self):
        offset, digits, r = _spine_run(self.offset, self.digits, self.pad)
        dot = 1 - offset   # digits[dot] is at position 1
        return "".join(map(str, digits[r:dot])) + "." + "".join(map(str, digits[dot:]))


def _first_difference(a_offset, a, b_offset, b, pad):
    """First position where two windows over one spine disagree, or None."""
    if a_offset != b_offset:
        lo = min(a_offset, b_offset)
        a, b, a_offset = (pad,) * (a_offset - lo) + a, (pad,) * (b_offset - lo) + b, lo
    for i, p in enumerate(a[:len(b)]):
        if p != b[i]:
            return a_offset + i
    return None


def boundary_distance(x, y):
    """Smallest position where the points disagree, or None ("equal to
    precision": all comparable digits agree).  The distance is d^(-l+1)."""
    if x.size != y.size:
        raise ValueError("points live over different alphabets")
    if x.pad != y.pad:
        raise ValueError("points follow different spines; no common puncture")
    return _first_difference(x.offset, x.digits, y.offset, y.digits, x.pad)


def boundary_apply(e, x, action):
    """theta(e) on a boundary point; digit windows shift losslessly.

    theta(t) moves the dot right (digit indices drop by one); theta(g)
    rewrites the digits below the spine through the appropriate
    sigma^m(g) section.  The output window is the input's, padded with
    the spine letter up to position 1 when t^-m lifts it past the dot.
    """
    if x.pad != action.letter:
        raise ValueError("point's padding letter does not match the action's spine")
    if x.size != action.automaton.size:
        raise ValueError("point's alphabet size does not match the action's")
    offset, digits = theta_map(e, action)(x.offset, x.digits)
    return BoundaryPoint(offset, digits, x.size, x.pad)


class DilationMismatch(RuntimeError):
    """Sampled distance ratios disagree: an implementation fault, not a
    property of the groups."""


DILATION_MARGIN = 4
DILATION_TAIL = 4


@cache
def _digit_table(d, n):
    """The d^n windows of n digits, indexed by their base-d value read lowest digit first."""
    return ((),) if n == 0 else tuple(t + (x,) for x in range(d) for t in _digit_table(d, n - 1))


def dilation_factor_empirical(e, action, samples=1000, seed=0):
    """Exponent m with dist(e x, e y) = d^m dist(x, y), from sampled pairs.

    Pairs are generated (seeded) to disagree at a known position; the
    window extends DILATION_MARGIN digits left of the branch (more when
    the t-shifts of e need it) and DILATION_TAIL digits past it.  Branch
    positions stay in a small band around the dot: the exponent is
    position-invariant, while acting far below the spine costs
    sigma-powers of that depth.  The exponent must be constant across
    samples; for elements of theta(G) it is 0, for t it is the net
    displacement.

    Each pair is one draw rng.randrange(N) read off in mixed radix: the
    branch (9 values), x's window (base d), y's digit at the branch (one
    of the d - 1 others), y's tail (base d).  The fields are uniform and
    independent.  Each field is read in chunks of c digits, d^c < 2^10,
    one divmod and one `_digit_table` index each, joined in order.
    Pairs stay raw (offset, digits) windows under one bound `theta_map`.
    """
    import random
    if samples < 2:
        raise ValueError("need at least 2 sample pairs")
    margin = max(DILATION_MARGIN, e.tneg + e.tpos + 1)
    rng = random.Random(seed)
    d = action.automaton.size
    pad = action.letter
    width, c = margin + 1 + DILATION_TAIL, max(1, 10 // d.bit_length())
    fields = [(radix ** n, _digit_table(radix, n))
              for radix, length in ((d, width), (d - 1, 1), (d, DILATION_TAIL))
              for n in [c] * (length // c) + [length % c] if n]
    draws = 9 * prod(base for base, _ in fields)
    exponents, apply = set(), theta_map(e, action)
    for _ in range(samples):
        r, branch = divmod(rng.randrange(draws), 9)
        offset = branch - 2 - margin  # x and y share x[:margin] and differ at index margin
        digits = ()
        for base, table in fields:
            r, v = divmod(r, base)
            digits += table[v]
        x = digits[:width]
        y = x[:margin] + ((x[margin] + 1 + digits[width]) % d,) + digits[width + 1:]
        after = _first_difference(*apply(offset, x), *apply(offset, y), pad)
        if after is None:
            raise PrecisionError("sample pair lost its disagreement; widen the window")
        exponents.add(branch - 2 - after)
        if len(exponents) > 1:
            raise DilationMismatch(f"inconsistent dilation exponents {sorted(exponents)}")
    return exponents.pop()


class AffineModelError(ValueError):
    """An affine model that its automaton does not follow."""


class AffineModel:
    """A bundle's "affine" key, certified: each state acts on Z_d as x -> alpha x + beta,
    the letter x at level k being the digit relabel[k % period][x], lowest first.  The
    certificate follows (reduced word, phase, map) from (s^+-1, 0, its map): digit u goes
    to v = alpha u + beta mod d and the section acts at the next phase as alpha x + (alpha
    u + beta - v)/d.  A pair meeting a second map, or VISITS pairs, rejects the model."""

    VISITS, BLOCK = 10_000, 32

    def __init__(self, automaton, spec):
        d = automaton.size
        try:
            relabel = [perm_from_images(row, d) for row in spec["relabel"]]
            maps = {s: tuple(map(Fraction, m)) for s, m in spec["maps"].items()}
            stack = [(((s, e),), 0, (a, b) if e == 1 else (1 / a, -b / a))
                     for s, (a, b) in reversed(maps.items()) for e in (-1, 1)]
        except (TypeError, ValueError, AttributeError, KeyError, ZeroDivisionError) as err:
            raise AffineModelError(f"malformed affine model: {err!r}") from err
        if not relabel or set(maps) != set(automaton.states) - {IDENTITY}:
            raise AffineModelError("an affine model needs a relabelling and one map per state")
        stack = [(automaton._pack(w), j, f) for w, j, f in stack]
        seen = {(w, j): f for w, j, f in stack}
        while stack:
            w, j, (alpha, beta) = stack.pop()
            for x in range(d):
                y, section = automaton.step(w, x)
                g = (alpha, (alpha * relabel[j][x] + beta - relabel[j][y]) / d)
                key = (section, (j + 1) % len(relabel))
                known = seen.setdefault(key, g)
                if gcd(g[1].denominator, d) > 1 or known != g:
                    raise AffineModelError(f"the automaton leaves the affine model at word "
                                           f"{fmt_word(automaton._unpack(w))}, phase {j}, "
                                           f"letter {x}")
                if known is g:
                    if len(seen) > self.VISITS:
                        raise AffineModelError(f"the certificate visited {self.VISITS} pairs")
                    stack.append((section, key[1], g))
        self._triples = {automaton._factors[w[0]]: (
            a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator)
            for (w, j), (a, b) in seen.items() if j == 0 and len(w) == 1}

    def is_identity(self, word):
        """Whether the maps x -> (ax + b)/n compose to x -> x, in runs of BLOCK, then pairwise."""
        level = []
        for i in range(0, len(word) or 1, self.BLOCK):
            a, b, n = 1, 0, 1
            for p, q, m in map(self._triples.__getitem__, word[i:i + self.BLOCK]):
                a, b, n = p * a, p * b + q * n, m * n
            level.append((a, b, n))
        while len(level) > 1:
            level = [(p * a, p * b + q * n, m * n) for (a, b, n), (p, q, m)
                     in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
        return level[0][1] == 0 and level[0][0] == level[0][2]

