"""The lamplighter group in its own coordinates, the oracle of the tests.

An element is (lamps, shift): the product of x^(s^n) over the lamp set,
then s^shift.  Its group law is computed from that normal form alone,
apart from the wreath recursion that the catalog's lamplighter runs on.
`alpha` lifts the catalog's lamp-set map `lamplighter_alpha` to elements,
for the tests that check it against the group law and against sigma1.
"""

from dataclasses import dataclass

from arboreal.catalog import lamplighter_alpha
from arboreal.words import GroupOps, evaluate


@dataclass(frozen=True)
class LamplighterElement:
    """(prod of x^(s^n) over the lamp set) * s^shift, lamps stored sorted."""

    lamps: tuple
    shift: int

    @classmethod
    def make(cls, lamps, shift):
        return cls(tuple(sorted(set(lamps))), shift)

    def __mul__(self, other):
        moved = {b - self.shift for b in other.lamps}  # s^k moves no lamp
        return LamplighterElement.make(moved.symmetric_difference(self.lamps),
                                       self.shift + other.shift)

    def inverse(self):
        return LamplighterElement.make({b + self.shift for b in self.lamps}, -self.shift)

    def is_identity(self):
        return not self.lamps and self.shift == 0


IDENTITY = LamplighterElement((), 0)


def x(i=0):
    return LamplighterElement((i,), 0)


def s(k=1):
    return LamplighterElement((), k)


OPS = GroupOps(identity=IDENTITY,
               atom=lambda name: {"x": x(), "s": s(), "1": IDENTITY}[name],
               mul=lambda a, b: a * b,
               inv=lambda a: a.inverse())


def word(text):
    """Element from a word over x and s (powers, conjugates, commutators ok)."""
    return evaluate(text, OPS, {"x", "s", "1"})


def alpha(e, k=1):
    """alpha^k: the catalog's map on the lamp set, the shift kept."""
    return LamplighterElement.make(lamplighter_alpha(e.lamps, k), e.shift)
