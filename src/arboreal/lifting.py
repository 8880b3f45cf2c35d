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

from .core import IDENTITY, MealyAutomaton, TreeAutomorphism, fmt_word, invert_word
from .levels import intersection_trivial_on_level, orbit, perm_group_on_level, stabilizer_words
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

    @property
    def domain(self):
        return tuple(name for name, _ in self.images)

    def image_map(self):
        return dict(self.images)

    def image(self, name):
        return dict(self.images)[name]

    def apply_word(self, word):
        """sigma applied to a word over the domain, symbolically."""
        table = dict(self.images)
        out = []
        for s, e in word:
            if s == IDENTITY:
                continue
            if s not in table:
                raise LiftingError(f"sigma is undefined on {s!r}")
            out.extend(table[s] if e == 1 else invert_word(table[s]))
        return self.automaton.reduce(tuple(out))

    def apply_power(self, word, k):
        if k < 0:
            raise ValueError("sigma is not invertible; powers must be >= 0")
        for _ in range(k):
            word = self.apply_word(word)
        return word

    def apply(self, g):
        return TreeAutomorphism(self.automaton, self.apply_word(g.word))


@dataclass
class LiftingReport:
    letter: int
    fixes: dict
    sections_match: dict
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def check_lifting(sigma, gens=None):
    """Verify the lifting conditions of a substitution, exactly.

    For every generator s: (1) sigma(s) fixes the vertex (i,); (2) the
    section of sigma(s) at i equals s, decided by triviality of the
    quotient.  Returns a report listing any failures.
    """
    if sigma.letter is None:
        raise LiftingError("substitution has no distinguished letter")
    aut = sigma.automaton
    i = sigma.letter
    names = gens if gens is not None else sigma.domain
    report = LiftingReport(letter=i, fixes={}, sections_match={})
    for name in names:
        image = sigma.image(name)
        fixes = aut.act_word(image, (i,)) == (i,)
        report.fixes[name] = fixes
        if fixes:
            quotient = aut.reduce(aut.section_word(image, (i,)) + ((name, -1),))
            match = aut.word_is_trivial(quotient)
        else:
            match = False
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
        """Q together with phi^k(R) for k <= depth, with labels."""
        out = [(f"Q[{i}]={fmt_word(r)}", r) for i, r in enumerate(self.fixed)]
        for i, r in enumerate(self.iterated):
            w = r
            for k in range(depth + 1):
                out.append((f"phi^{k}(R[{i}]={fmt_word(r)})", w))
                if k < depth:
                    if self.phi is None:
                        raise LiftingError("iterated relators need phi")
                    w = self.phi.apply_word(w)
        return out


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
    is as strong as the presentation supplied.
    """
    if set(presentation.generators) - set(sigma.domain):
        raise LiftingError("presentation generators do not match sigma's domain")
    aut = sigma.automaton
    checks = []
    for label, relator in presentation.relators(depth):
        image = sigma.apply_word(relator)
        checks.append((f"sigma({label})", aut.word_is_trivial(image)))
    return RelatorReport(checks)


@dataclass
class SeparationReport:
    level: int
    stabilizer_order: int
    complement_order: int
    complement_expected: int
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
        complement_expected=complement_order,
        complement_faithful=faithful,
        intersection_trivial=trivial,
    )


# ---------------------------------------------------------------------------
# GGS liftings

class GgsError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


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
    vector: GgsVector
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
    return GgsLifting(vector, automaton, sigma, j, f, report, certificates)


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

    @property
    def missing(self):
        return [name for name, w in self.witnesses.items() if w is None]


def self_replicating_witnesses(gens, letter, word_bound=5, sigma=None):
    """Witness words w with w(i) = i and section(w, i) = s, per generator.

    When a lifting sigma is supplied its images are the witnesses (verified
    exactly).  Otherwise a breadth-first search in shortlex order over the
    symbols (g1, g2, ..., g1^-1, g2^-1, ...) looks for witnesses of length
    <= word_bound; an empty slot is inconclusive, not a refutation.
    """
    items = list(gens.items())
    automaton = items[0][1].automaton
    i = letter

    report = WitnessReport(letter=i, witnesses={}, source={})
    for name, g in items:
        if g.is_trivial():
            # the empty word witnesses a trivial generator
            report.witnesses[name] = ()
            report.source[name] = "trivial"
        else:
            report.witnesses[name] = None
            report.source[name] = "search"
    if report.ok:
        return report

    if len(orbit((i,), gens.values(), TreeAutomorphism.act)) != automaton.size:
        raise LiftingError("group is not transitive on the first level")

    if sigma is not None:
        for name, _ in items:
            image = sigma.image(name)
            fixes = automaton.act_word(image, (i,)) == (i,)
            quotient = automaton.reduce(automaton.section_word(image, (i,)) + ((name, -1),))
            if fixes and automaton.word_is_trivial(quotient):
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
                if automaton.act_word(cand, (i,)) != (i,):
                    continue
                sec = automaton.section_word(cand, (i,))
                for name in sorted(targets):
                    if automaton.word_is_trivial(automaton.reduce(sec + ((name, -1),))):
                        report.witnesses[name] = cand
                        targets.discard(name)
                        break
        frontier = nxt
    return report
