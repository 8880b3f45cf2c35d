"""Liftings: substitutions that are right inverses of first-level projections.

A substitution sigma maps each generator to a word over the same
generators.  It is a lifting at the letter i when sigma(s) fixes the
first-level vertex i and its section there equals s back in the group;
both conditions are decided exactly.  Whether sigma extends to a group
endomorphism is certified through whatever the group supplies: an
(L-)presentation whose relators must map to trivial elements, or the
finite-quotient separation argument (for the group G_(01)^inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import IDENTITY, MealyAutomaton, TreeAutomorphism, _reduce_codes, fmt_word, invert_word
from .levels import (_is_prime, intersection_trivial_on_level, orbit, perm_group_on_level,
                     stabilizer_words)
from .words import parse_word_factors


class LiftingError(ValueError):
    pass


@dataclass(frozen=True)
class Substitution:
    """Generator map name -> word, with an optional distinguished letter."""

    automaton: MealyAutomaton
    images: tuple          # tuple of (name, Word) pairs, in generator order
    letter: int | None = None

    @classmethod
    def parse(cls, automaton, images, letter=None):
        """Build from {"a": "a*c*a", ...}; image strings use the word grammar."""
        known = set(automaton.states)
        pairs = []
        for name, text in images.items():
            if name not in known:
                raise LiftingError(f"substitution domain name {name!r} is not a state")
            factors = text if isinstance(text, tuple) else parse_word_factors(text, known)
            pairs.append((name, factors))
        return cls(automaton, tuple(pairs), letter)

    def __post_init__(self):
        # code -> packed image ("1": empty; off the domain: None), built once
        aut = self.automaton
        images = [aut._packed() if s == IDENTITY else None for s, _ in aut._factors]
        for name, word in self.images:
            code = aut._codes[(name, 1)]
            images[code], images[code + 1] = aut._pack(word), aut._pack(invert_word(word))
        object.__setattr__(self, "_images", images)

    @property
    def domain(self):
        return tuple(name for name, _ in self.images)

    def image(self, name, e=1):
        """sigma(name), or its inverse for e = -1."""
        return self.automaton._unpack(self._images[self.automaton._codes[(name, e)]])

    def apply_word(self, word):
        """sigma applied to a word over the domain, symbolically."""
        return self.apply_power(word, 1)

    def apply_power(self, word, k):
        """sigma^k(word), reduced (for k = 0, the word as given): `_power`, packed and unpacked."""
        if k < 0:
            raise ValueError("sigma is not invertible; powers must be >= 0")
        if not k:
            return word
        try:
            return self.automaton._unpack(self._power(self.automaton._pack(word), k))
        except KeyError as exc:     # a name off the automaton, or an exponent not +-1
            raise LiftingError(f"sigma is undefined on {exc.args[0][0]!r}") from None

    def _power(self, packed, k):
        """Packed sigma^k: internal chains pass reduced packed words, only public methods pack or
        unpack.  Each pass joins the images in a bytearray (a list past 127 states) and reduces."""
        aut, images = self.automaton, self._images
        try:
            for _ in range(k):
                below = aut._buffer()
                for c in packed:
                    below += images[c]
                packed = _reduce_codes(aut._packed(below))
        except TypeError:           # the image of c is None
            raise LiftingError(f"sigma is undefined on {aut._factors[c][0]!r}") from None
        return packed


@dataclass
class LiftingReport:
    letter: int
    fixes: dict
    sections_match: dict
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def _lifting_condition(automaton, word, i, name):
    """(word fixes the vertex (i,), its section there equals the state name).

    The section is compared exactly, by triviality of section * name^-1;
    it is not compared when the vertex moves.
    """
    image, section = automaton._walk(automaton._pack(word), (i,))
    if image != (i,):
        return False, False
    return True, automaton._is_trivial(_reduce_codes(section + automaton._pack(((name, -1),))))


def check_lifting(sigma):
    """Verify the lifting conditions of a substitution, exactly.

    For every generator s: (1) sigma(s) fixes the vertex (i,); (2) the
    section of sigma(s) at i equals s.  Returns a report listing any
    failures.
    """
    if sigma.letter is None:
        raise LiftingError("substitution has no distinguished letter")
    i = sigma.letter
    report = LiftingReport(letter=i, fixes={}, sections_match={})
    for name in sigma.domain:
        fixes, match = _lifting_condition(sigma.automaton, sigma.image(name), i, name)
        report.fixes[name] = fixes
        report.sections_match[name] = match
        if not (fixes and match):
            report.failures.append(name)
    return report


# ---------------------------------------------------------------------------
# endomorphism certificates

@dataclass(frozen=True)
class LPresentation:
    """Finite presentation data: fixed relators Q, iterated relators R, phi."""

    generators: tuple
    fixed: tuple = ()
    iterated: tuple = ()
    phi: Substitution | None = None

    @classmethod
    def parse(cls, automaton, generators, fixed=(), iterated=(), phi=None):
        known = set(generators) | {IDENTITY}
        fixed_words = tuple(parse_word_factors(r, known) for r in fixed)
        iterated_words = tuple(parse_word_factors(r, known) for r in iterated)
        phi_sub = Substitution.parse(automaton, phi) if isinstance(phi, dict) else phi
        return cls(tuple(generators), fixed_words, iterated_words, phi_sub)

    def relators(self, depth):
        """Q together with phi^k(R) for k <= depth, with labels: `_relators`, unpacked once."""
        aut = self.phi and self.phi.automaton
        return [(label, aut._unpack(w) if aut else w) for label, w, _ in self._relators(aut, depth)]

    def _relators(self, aut, depth, sigma=None):
        """(label, word, sigma(word) or None) per relator, packed over `aut` (as given without
        it).  phi^(k+1)(r) is written once, as sigma(phi^k(r)) itself when sigma = phi."""
        phi, pack = self.phi, (aut._pack if aut else tuple)
        if self.iterated and depth and phi is None:
            raise LiftingError("iterated relators need phi")
        for i, r in enumerate(self.fixed):
            yield f"Q[{i}]={fmt_word(r)}", pack(r), sigma and sigma._power(pack(r), 1)
        for i, r in enumerate(self.iterated):
            w = pack(r)
            for k in range(depth + 1):
                image = sigma and sigma._power(w, 1)
                yield f"phi^{k}(R[{i}]={fmt_word(r)})", w, image
                if k < depth:
                    w = image if sigma and sigma._images == phi._images else phi._power(w, 1)


@dataclass
class RelatorReport:
    checks: list          # (label, bool)

    @property
    def ok(self):
        return all(ok for _, ok in self.checks)

    @property
    def failures(self):
        return [label for label, ok in self.checks if not ok]


def verify_endomorphism_by_relators(sigma, presentation, depth):
    """Check is_trivial(sigma(r)) for r in Q and phi^k(R), k <= depth.

    This certifies that sigma respects the listed relators; the certificate
    is as strong as the presentation supplied.  Relators stay packed (`_relators`), no public
    method packs them, and when sigma = phi, sigma(phi^k(r)) is the next iterate phi^(k+1)(r).
    """
    if set(presentation.generators) - set(sigma.domain):
        raise LiftingError("presentation generators do not match sigma's domain")
    aut, phi = sigma.automaton, presentation.phi
    if phi is not None and phi.automaton._factors != aut._factors:
        raise LiftingError("phi and sigma act on automata with different states")
    return RelatorReport([(f"sigma({label})", aut._is_trivial(image))
                          for label, _, image in presentation._relators(aut, depth, sigma)])


@dataclass
class SeparationReport:
    level: int
    stabilizer_order: int
    complement_order: int
    complement_faithful: bool
    intersection_trivial: bool

    @property
    def ok(self):
        return self.complement_faithful and self.intersection_trivial


def verify_endomorphism_by_quotient_separation(gens, complement, complement_order, level):
    """The finite-quotient separation argument at one level.

    `gens` maps names to TreeAutomorphisms of the group; `complement` is a
    list of TreeAutomorphisms generating the complementary subgroup (for
    G_(01)^inf the tuples (1,a) and (1,c)), with known abstract order
    `complement_order`.  The check: the level
    image of the first-level stabilizer meets the level image of the
    complement trivially, and the complement acts faithfully at that
    level (without faithfulness the conclusion would not follow; at level
    1 both images are trivial and the check correctly fails).
    """
    h_words = stabilizer_words(gens, "first-level")
    automaton = next(iter(gens.values())).automaton
    h_elements = [TreeAutomorphism(automaton, w) for w in h_words]
    psi_h = perm_group_on_level(h_elements, level)
    comp = perm_group_on_level(list(complement), level)
    faithful = comp.order() == complement_order
    trivial = intersection_trivial_on_level(psi_h, comp)
    return SeparationReport(
        level=level,
        stabilizer_order=psi_h.order(),
        complement_order=comp.order(),
        complement_faithful=faithful,
        intersection_trivial=trivial,
    )


# ---------------------------------------------------------------------------
# GGS liftings

class GgsError(ValueError):
    pass


@dataclass(frozen=True)
class GgsVector:
    """Defining vector of a GGS group with a lifting witness index.

    Requires p >= 3 prime, e nonzero over Z/pZ, and some j with e_j != 0
    and e_{p-j} = 0; j=None searches for the smallest valid index.
    """

    p: int
    e: tuple
    j: int | None = None

    def __post_init__(self):
        if not _is_prime(self.p) or self.p < 3:
            raise GgsError(f"p={self.p} must be an odd prime")
        if len(self.e) != self.p - 1:
            raise GgsError(f"e must have length p-1={self.p - 1}, got {len(self.e)}")
        object.__setattr__(self, "e", tuple(x % self.p for x in self.e))
        if all(x == 0 for x in self.e):
            raise GgsError("e must be nonzero")
        if self.j is not None and not self._valid(self.j):
            raise GgsError(
                f"j={self.j} needs e_j != 0 and e_(p-j) = 0; e={self.e} violates it")
        self.witness_index()  # some valid j must exist; rejects e.g. p=3, e=(1,-1)

    def _valid(self, j):
        if not 1 <= j <= self.p - 1:
            return False
        return self.e[j - 1] != 0 and self.e[self.p - j - 1] == 0

    def witness_index(self):
        if self.j is not None:
            return self.j
        for j in range(1, self.p):
            if self._valid(j):
                return j
        raise GgsError(
            f"no valid witness index: e={self.e} has no j with e_j != 0 and e_(p-j) = 0")


@dataclass
class GgsLifting:
    automaton: MealyAutomaton
    sigma: Substitution
    j: int
    f: int
    lifting: LiftingReport
    order_certificates: dict

    @property
    def ok(self):
        return self.lifting.ok and all(self.order_certificates.values())


def ggs_lifting(vector):
    """Build G_e with its lifting sigma and certify the stated facts.

    The recursion is a = (1,...,1)eps with eps the long cycle, and
    b = (a^e1, ..., a^e(p-1), b).  With f = e_j^{-1} mod p the lifting is
    sigma: a -> (a^(j-1) b a^(1-j))^f, b -> a^-1 b a at the letter 0.
    Certifies check_lifting plus the orders: a^p and b^p trivial and a^k
    nontrivial for 0 < k < p.
    """
    p = vector.p
    j = vector.witness_index()
    f = pow(vector.e[j - 1], -1, p)
    eps = tuple((x + 1) % p for x in range(p))
    b_sections = tuple(
        (("a", 1),) * vector.e[i] for i in range(p - 1)
    ) + ((("b", 1),),)
    automaton = MealyAutomaton(p, {
        "a": (eps, ((),) * p),
        "b": (tuple(range(p)), b_sections),
    })
    conj = (("a", 1),) * (j - 1) + (("b", 1),) + (("a", -1),) * (j - 1)
    sigma = Substitution.parse(automaton, {
        "a": conj * f,
        "b": (("a", -1), ("b", 1), ("a", 1)),
    }, letter=0)
    report = check_lifting(sigma)
    certificates = {
        "a^p trivial": automaton.word_is_trivial((("a", 1),) * p),
        "b^p trivial": automaton.word_is_trivial((("b", 1),) * p),
    }
    for k in range(1, p):
        certificates[f"a^{k} nontrivial"] = not automaton.word_is_trivial((("a", 1),) * k)
    return GgsLifting(automaton, sigma, j, f, report, certificates)


# ---------------------------------------------------------------------------
# self-replication witnesses

@dataclass
class WitnessReport:
    letter: int
    witnesses: dict       # name -> Word or None
    source: dict          # name -> "sigma" | "search"

    @property
    def ok(self):
        return all(w is not None for w in self.witnesses.values())


def self_replicating_witnesses(gens, letter, word_bound=5, sigma=None):
    """Witness words w with w(i) = i and section(w, i) = s, per generator.

    When a lifting sigma is supplied its images are the witnesses (verified
    exactly).  Otherwise a breadth-first search in shortlex order over the
    symbols (g1, g2, ..., g1^-1, g2^-1, ...) looks for witnesses of length
    <= word_bound; an empty slot is inconclusive, not a refutation.
    """
    items = list(gens.items())
    automaton = items[0][1].automaton
    if not 0 <= letter < automaton.size:
        raise ValueError(f"letter must be in 0..{automaton.size - 1}, got {letter}")
    i = letter

    report = WitnessReport(letter=i, witnesses={}, source={})
    for name, g in items:
        trivial = g.is_trivial()    # the empty word witnesses a trivial generator
        report.witnesses[name] = () if trivial else None
        report.source[name] = "trivial" if trivial else "search"
    if report.ok:
        return report

    if len(orbit((i,), gens.values(), TreeAutomorphism.act)) != automaton.size:
        raise LiftingError("group is not transitive on the first level")

    if sigma is not None:
        for name, _ in items:
            image = sigma.image(name)
            if all(_lifting_condition(automaton, image, i, name)):
                report.witnesses[name] = image
                report.source[name] = "sigma"
        if report.ok:
            return report

    symbols = [(name, 1) for name, _ in items] + [(name, -1) for name, _ in items]
    targets = {name for name in report.witnesses if report.witnesses[name] is None}
    frontier = [()]
    seen_words = {()}
    length = 0
    while targets and length < word_bound:
        length += 1
        nxt = []
        for w in frontier:
            for sym in symbols:
                cand = automaton.reduce(w + (sym,))
                if len(cand) != length or cand in seen_words:
                    continue
                seen_words.add(cand)
                nxt.append(cand)
                for name in sorted(targets):
                    if all(_lifting_condition(automaton, cand, i, name)):
                        report.witnesses[name] = cand
                        targets.discard(name)
                        break
        frontier = nxt
    return report
