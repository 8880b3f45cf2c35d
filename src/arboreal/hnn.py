"""The theta embedding: ascending HNN extensions acting on the unrooted tree.

The (d+1)-regular unrooted tree is the direct limit of rooted copies
T^(0) c T^(1) c ... glued by v -> iv, where i is the lifting's
distinguished letter (0 for most groups, 1 for the Grigorchuk group).  A
vertex is a pair (m, w): the word w inside the copy T^(m).  Its level is
len(w) - m; the spine vertex at level -n is (n, ()) and at level n >= 0 is
(0, (i,)*n).  Lambda = (0, ()) is the distinguished level-0 vertex.

theta sends g in G to the automorphism acting on T^(m) as sigma^m(g), and
the stable letter t to the shift tau toward the fixed end: tau(m, w) =
(m+1, w), dropping the level by one.  Elements of the extension are kept
in the form t^-m g t^n; equality is decided exactly through the group's
word problem (Britton uniqueness is never needed).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TreeAutomorphism, fmt_vertex, fmt_word, invert_word, parse_vertex
from .lifting import LiftingError, check_lifting
from .levels import level_perm, orbit, point_stabilizer_gens, schreier_tree, vertex_index
from .words import GroupOps, evaluate


@dataclass(frozen=True)
class UnrootedVertex:
    """Vertex (m, w) of the unrooted tree: the word w in the rooted copy T^(m)."""

    copy: int
    word: tuple

    def __post_init__(self):
        if self.copy < 0:
            raise ValueError("copy index must be >= 0")

    @property
    def level(self):
        return len(self.word) - self.copy

    def __str__(self):
        return f"{self.copy}:{fmt_vertex(self.word)}"


def parse_unrooted(text):
    m, _, w = text.partition(":")
    return UnrootedVertex(int(m), parse_vertex(w))


def canonicalize(v, letter):
    """Minimal representative: (m, i w) == (m-1, w), strip while m >= 1."""
    m, w = v.copy, v.word
    while m >= 1 and w and w[0] == letter:
        m -= 1
        w = w[1:]
    return UnrootedVertex(m, w)


def spine_vertex(level, letter):
    """The spine vertex at a given (possibly negative) level."""
    if level <= 0:
        return UnrootedVertex(-level, ())
    return UnrootedVertex(0, (letter,) * level)


def tau_apply(v, k, letter):
    """The shift tau^k; tau moves toward the fixed end (level - 1)."""
    m = v.copy + k
    w = v.word
    if m < 0:
        w = (letter,) * (-m) + w
        m = 0
    return canonicalize(UnrootedVertex(m, w), letter)


# ---------------------------------------------------------------------------
# HNN elements t^-m g t^n

@dataclass(frozen=True)
class HnnElement:
    """t^-m * g * t^n with m, n >= 0 and g a word in the base group."""

    tneg: int
    word: tuple
    tpos: int

    def __post_init__(self):
        if self.tneg < 0 or self.tpos < 0:
            raise ValueError("t-exponents in the normal form must be >= 0")

    @property
    def displacement(self):
        """Net vertex-level displacement: tau^-m raises, tau^n lowers."""
        return self.tneg - self.tpos

    def __str__(self):
        parts = []
        if self.tneg:
            parts.append(f"t^-{self.tneg}" if self.tneg > 1 else "T")
        parts.append(fmt_word(self.word))
        if self.tpos:
            parts.append(f"t^{self.tpos}" if self.tpos > 1 else "t")
        return "*".join(parts)


HNN_IDENTITY = HnnElement(0, (), 0)


class ScaleAction:
    """A certified lifting packaged with the machinery to act on the tree.

    Construction verifies the lifting conditions (exactly) unless
    certify=False; sigma-power actions are memoized so that spines of
    depth 20 cost nothing even when sigma^20(g) would be astronomically
    long as a word.
    """

    def __init__(self, automaton, sigma, certify=True):
        if sigma.letter is None:
            raise LiftingError("scale action needs a distinguished letter")
        self.automaton = automaton
        self.sigma = sigma
        self.letter = sigma.letter
        if certify:
            report = check_lifting(sigma)
            if not report.ok:
                raise LiftingError(f"sigma is not a lifting; failures: {report.failures}")
        self._act_cache = {}

    def generators(self):
        return self.sigma.domain

    def act_sigma(self, word, k, v):
        """act(sigma^k(word), v) without materializing sigma^k(word)."""
        if k == 0:
            return self.automaton.act_word(word, v)
        for s, e in word:
            v = self._act_sigma_state(s, e, k, v)
        return v

    def _act_sigma_state(self, s, e, k, v):
        if not v:
            return v
        key = (s, e, k, v)
        cached = self._act_cache.get(key)
        if cached is not None:
            return cached
        image = self.sigma.image(s)
        out = self.act_sigma(image if e == 1 else invert_word(image), k - 1, v)
        self._act_cache[key] = out
        return out

    def sigma_word(self, word, k):
        """sigma^k(word) materialized; fine for the small k used in algebra."""
        return self.sigma.apply_power(word, k)

    def element(self, word=(), tneg=0, tpos=0):
        return HnnElement(tneg, self.automaton.reduce(tuple(word)), tpos)

    def theta(self, g):
        """theta of a base-group element (word or TreeAutomorphism)."""
        word = g.word if isinstance(g, TreeAutomorphism) else tuple(g)
        return self.element(word)


def theta_apply(e, v, action):
    """Apply theta(e) to an unrooted vertex, factors left to right."""
    v = canonicalize(v, action.letter)
    v = tau_apply(v, -e.tneg, action.letter)
    v = UnrootedVertex(v.copy, action.act_sigma(e.word, v.copy, v.word))
    return tau_apply(v, e.tpos, action.letter)


def hnn_multiply(e1, e2, action):
    """Product in the extension via t g t^-1 = sigma(g)."""
    if e1.tpos >= e2.tneg:
        k = e1.tpos - e2.tneg
        word = e1.word + action.sigma_word(e2.word, k)
        return HnnElement(e1.tneg, action.automaton.reduce(word), k + e2.tpos)
    k = e2.tneg - e1.tpos
    word = action.sigma_word(e1.word, k) + e2.word
    return HnnElement(e1.tneg + k, action.automaton.reduce(word), e2.tpos)


def hnn_inverse(e):
    return HnnElement(e.tpos, invert_word(e.word), e.tneg)


def hnn_power(e, n, action):
    if n < 0:
        return hnn_power(hnn_inverse(e), -n, action)
    out = HNN_IDENTITY
    for _ in range(n):
        out = hnn_multiply(out, e, action)
    return out


def hnn_is_trivial(e, action):
    """Exact: trivial iff the net t-exponent is zero and the middle word is
    trivial in the base group."""
    return e.tneg == e.tpos and action.automaton.word_is_trivial(e.word)


def parse_hnn(text, action):
    """HNN word over the generators plus t and T (= t^-1)."""
    names = set(action.automaton.states) | {"t", "T"}

    def atom(name):
        if name == "t":
            return HnnElement(0, (), 1)
        if name == "T":
            return HnnElement(1, (), 0)
        if name == "1":
            return HNN_IDENTITY
        return HnnElement(0, ((name, 1),), 0)

    ops = GroupOps(
        identity=HNN_IDENTITY,
        atom=atom,
        mul=lambda x, y: hnn_multiply(x, y, action),
        inv=hnn_inverse,
    )
    return evaluate(text, ops, names)


# ---------------------------------------------------------------------------
# checks from the embedding theorem

def transitivity_witness(target, action):
    """An element moving Lambda to the target vertex, or None.

    Follows the transitivity proof: equalize levels with powers of t, then
    match inside a rooted copy by a breadth-first search over group words
    (shortlex in the symbols g1, g2, ..., g1^-1, g2^-1, ...).  For the
    canonical target (m, w) the witness has the form t^-|w| g t^m with
    g(i^|w|) = w.  The search covers the whole finite level, so None means
    the level's orbit of i^|w| misses w.
    """
    target = canonicalize(target, action.letter)
    k = len(target.word)
    automaton = action.automaton
    names = action.generators()
    symbols = [(n, 1) for n in names] + [(n, -1) for n in names]
    reps = schreier_tree((action.letter,) * k, (), symbols,
                         lambda sym, v: automaton.act_word((sym,), v),
                         lambda w, sym: w + (sym,))
    if target.word not in reps:
        return None
    return HnnElement(k, automaton.reduce(reps[target.word]), target.copy)


def two_transitivity_level_check(gens, l):
    """Does the stabilizer of 1^l act transitively on 0 X^(l-1)?

    Exact at the chosen level: the stabilizer is generated by Schreier
    generators of the point stabilizer in the level-l image, and its orbit
    of 0^l must be all d^(l-1) words starting with 0.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    d = gens[0].automaton.size
    perms = [level_perm(g, l) for g in gens]
    fixed = vertex_index((1,) * l, d)
    stab = point_stabilizer_gens(perms, fixed)
    return len(orbit(vertex_index((0,) * l, d), stab)) == d ** (l - 1)


@dataclass
class StabilizerProjectionReport:
    generator_projections: dict   # name -> bool (theta(g) fixes Lambda, section = g)
    sampled: list                 # (description, fixes Lambda, projection word, kernel part ok)

    @property
    def ok(self):
        return all(self.generator_projections.values()) and all(
            fixes and kernel_ok for _, fixes, _, kernel_ok in self.sampled)


def stabilizer_projection_check(action, depth=5, powers=(1, 2, 3), sample_words=()):
    """Witness the structure of the Lambda stabilizer in theta(G~).

    (a) For every generator g, theta(g) fixes Lambda and projects back to
    g at Lambda (checked on the rooted subtree to the given depth, plus
    the exact word identity).  (b) For conjugates t^-k w t^k with w fixing
    i^k, the element stabilizes Lambda, its projection is the section
    word of w at i^k (a word in G, syntactically), and multiplying by
    theta(projection)^-1 lands in the kernel of the projection, checked
    on the subtree below Lambda to the given depth.
    """
    aut = action.automaton
    i = action.letter
    lam = UnrootedVertex(0, ())
    report = StabilizerProjectionReport({}, [])
    vertices = _subtree(aut.size, depth)
    for name in action.generators():
        e = action.element(((name, 1),))
        ok = theta_apply(e, lam, action) == lam
        for v in vertices:
            if theta_apply(e, UnrootedVertex(0, v), action) != UnrootedVertex(0, aut.act_word(((name, 1),), v)):
                ok = False
                break
        report.generator_projections[name] = ok
    for k in powers:
        for w in sample_words:
            word = w.word if isinstance(w, TreeAutomorphism) else tuple(w)
            if aut.act_word(word, (i,) * k) != (i,) * k:
                continue
            e = HnnElement(k, word, k)
            fixes = theta_apply(e, lam, action) == lam
            projection = aut.section_word(word, (i,) * k)
            residual = hnn_multiply(e, hnn_inverse(action.theta(projection)), action)
            kernel_ok = all(
                theta_apply(residual, UnrootedVertex(0, v), action) == UnrootedVertex(0, v)
                for v in vertices)
            report.sampled.append((f"t^-{k}*{fmt_word(word)}*t^{k}", fixes, projection, kernel_ok))
    return report


def _subtree(d, depth):
    out = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [v + (x,) for v in frontier for x in range(d)]
        out.extend(frontier)
    return out


def theta_portrait(g, action, up, down):
    """Portrait of theta(g) truncated to levels -up..down.

    Renders the subtree of the spine vertex at level -up (the root of the
    rooted copy T^(up)); the section of theta(g) there is sigma^up(g), so
    the node map is that element's rooted portrait transported into
    unrooted coordinates.  Returns {UnrootedVertex: root permutation}.
    """
    from .core import portrait
    if up < 0 or down < -up:
        raise ValueError("need up >= 0 and down >= -up")
    word = g.word if isinstance(g, TreeAutomorphism) else tuple(g)
    top = action.sigma_word(word, up)
    nodes = portrait(TreeAutomorphism(action.automaton, top), up + down)
    return {UnrootedVertex(up, v): perm for v, perm in nodes.items()}
