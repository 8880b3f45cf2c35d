"""The theta embedding: ascending HNN extensions acting on the unrooted tree.

The (d+1)-regular unrooted tree is the direct limit of rooted copies
T^(0) c T^(1) c ... glued by v -> iv, where i is the lifting's
distinguished letter (0 for most groups, 1 for the Grigorchuk group).  A
vertex is a pair (m, w): the word w inside the copy T^(m).  Its level is
len(w) - m; the spine vertex at level -n is (n, ()) and at level n >= 0 is
(0, (i,)*n).  Lambda = (0, ()) is the distinguished level-0 vertex.
(m, w) is the digit window w at offset 1 - m, the coordinate of `padic`.

theta sends g in G to the automorphism acting on T^(m) as sigma^m(g), and
the stable letter t to the shift toward the fixed end: theta(t)(m, w) =
(m+1, w), dropping the level by one.  sigma^m(g) is never written out:
`ScaleAction` memoizes sigma^m(s) by its packed sections (see `core`) on
the m digits above the dot, so the memo grows with the prefixes visited,
not with whole windows.  `theta_map` binds theta(e), caching for e alone
each prefix's image and each packed section's moves below; `moved_vertex`
binds it once per box scan, `sigma_mismatch` (the spine and projection
checks) once per generator, `theta_apply` and `boundary_apply` per window.
Elements of the extension are kept in the form t^-m g t^n, with g a
(name, +-1) tuple word; equality is decided exactly through the group's
word problem (Britton uniqueness is never needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product, starmap

from .core import (TreeAutomorphism, _reduce_codes, check_points, fmt_vertex, fmt_word,
                   invert_word, portrait, reduced_product)
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


def canonicalize(v, letter):
    """Minimal representative: (m, i w) == (m-1, w), strip while m >= 1."""
    return UnrootedVertex(*_canonical(1 - v.copy, v.word, letter))


def _spine_run(offset, digits, letter):
    """(offset, digits, r): the window padded with the spine letter up to
    position 1, and the length r of its leading spine run below position 1."""
    if offset > 1:
        digits = (letter,) * (offset - 1) + digits
        offset = 1
    r = 0
    while r < 1 - offset and r < len(digits) and digits[r] == letter:
        r += 1
    return offset, digits, r


def _canonical(offset, digits, letter):
    """The canonical (m, w) of the vertex whose digit window sits at the given offset."""
    offset, digits, r = _spine_run(offset, digits, letter)
    return 1 - offset - r, digits[r:]


def canonical_vertices(action, copies, length):
    """The canonical vertices (m, w) with m <= copies and |w| <= length.

    In order of m, then |w|, then w lexicographically.  A vertex (m, w) is
    canonical unless m >= 1 and w starts with the spine letter.
    """
    return starmap(UnrootedVertex, _canonical_pairs(action, copies, length))


def _canonical_pairs(action, copies, length):
    """The vertices of canonical_vertices as raw (m, w) pairs."""
    for m in range(copies + 1):
        for n in range(length + 1):
            for w in product(range(action.automaton.size), repeat=n):
                if not (m and w and w[0] == action.letter):
                    yield m, w


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

    def __str__(self):
        parts = []
        if self.tneg:
            parts.append(f"t^-{self.tneg}" if self.tneg > 1 else "T")
        parts.append(fmt_word(self.word))
        if self.tpos:
            parts.append(f"t^{self.tpos}" if self.tpos > 1 else "t")
        return "*".join(parts)


HNN_IDENTITY = HnnElement(0, (), 0)
LAMBDA = UnrootedVertex(0, ())   # the distinguished level-0 vertex


class ScaleAction:
    """A certified lifting packaged with the machinery to act on the tree.

    Construction verifies the lifting conditions (exactly).  sigma-power
    actions are memoized by sections: an entry is keyed on a factor code
    (`MealyAutomaton.__init__`), a depth k and the k digits above the dot,
    and holds their image under sigma^k of the factor and its reduced packed
    section there.  The digits below the dot never enter a key, so random
    windows share entries; prefixes are interned as (parent id, digit), so
    an entry has constant size however deep the copy.
    """

    def __init__(self, automaton, sigma):
        if sigma.letter is None:
            raise LiftingError("scale action needs a distinguished letter")
        self.automaton = automaton
        self.sigma = sigma
        self.letter = sigma.letter
        report = check_lifting(sigma)
        if not report.ok:
            raise LiftingError(f"sigma is not a lifting; failures: {report.failures}")
        self._act_cache = {}   # (code, k, prefix id) -> (image prefix id, packed section)
        self._prefixes = {}    # prefix id -> (parent id, last digit); 0 is the empty prefix
        self._prefix_ids = {}  # (parent id, digit) -> prefix id
        self._next_id = count(1)

    def generators(self):
        return self.sigma.domain

    def prefix_image(self, word, k, v):
        """(image, reduced packed section) of the k digits of v above the dot under
        sigma^k(word), through the memo; a window shorter than k is padded with the spine letter."""
        ids, node = self._prefix_ids, 0
        for x in (v + (self.letter,) * (k - len(v)))[:k]:
            node = ids.get((node, x)) or self._prefix(node, x)
        aut, cache = self.automaton, self._act_cache
        below = aut._buffer()
        for c in map(aut._codes.__getitem__, word):
            node, section = cache.get((c, k, node)) or self._section((c, k, node))
            below += section
        image = []
        while node:
            node, x = self._prefixes[node]
            image.append(x)
        below = aut._packed(below)
        return tuple(reversed(image)), (_reduce_codes(below) if len(below) > 1 else below)

    def _prefix(self, parent, digit):
        """The id of the prefix `parent` followed by `digit`.

        A new id is recorded before it is published, and setdefault picks
        one id per prefix, so concurrent callers agree without a lock.
        """
        key = (parent, digit)
        node = self._prefix_ids.get(key)
        if node is None:
            node = next(self._next_id)
            self._prefixes[node] = key
            node = self._prefix_ids.setdefault(key, node)
        return node

    def _section(self, key):
        """Build and return the memo entry of key = (code, k, prefix id).

        sigma^k(c) is the product of sigma^(k-1)(f) over the codes f of
        sigma(c): their entries on the parent prefix, chained, then one
        step on the last digit.  Missing entries wait on an explicit
        stack, so the copy depth k costs no Python stack.
        """
        cache, stack = self._act_cache, [key]
        while stack:
            c, k, node = stack[-1]
            if not k:
                cache[stack.pop()] = 0, self.automaton._packed((c,))
                continue
            x, digit = self._prefixes[node]
            below = self.automaton._buffer()
            for f in self.sigma._images[c]:
                entry = cache.get((f, k - 1, x))
                if entry is None:
                    stack.append((f, k - 1, x))
                    break
                x, section = entry
                below += section
            else:
                digit, section = self.automaton.step(below, digit)
                cache[stack.pop()] = self._prefix(x, digit), section
        return cache[key]

    def sigma_word(self, word, k):
        """sigma^k(word) materialized; fine for the small k used in algebra."""
        return self.sigma.apply_power(word, k) if word else word

    def element(self, word=(), tneg=0, tpos=0):
        return HnnElement(tneg, self.automaton.reduce(tuple(word)), tpos)


def theta_map(e, action):
    """theta(e) bound once: the map (offset, digits) -> (offset, digits).

    t^-m raises the positions by m; the window is padded with the spine
    letter to start at position 1 or below, a word in the copy T^k with
    k = 1 - offset, where g acts as sigma^k(g); t^n lowers the positions
    by n.  A leading run i^r with r <= k is left fixed and never expanded,
    because the lifting gives sigma^k(g)(i^r w) = i^r sigma^(k-r)(g)(w).

    For this element only, the map caches each k-digit prefix's image with
    g's reduced packed section there (`ScaleAction.prefix_image`), and each
    move (section, digit) -> (image digit, next section) below; both die with it.
    """
    letter, word, tneg, tpos = action.letter, e.word, e.tneg, e.tpos
    lifts, moves, step = {}, {}, action.automaton.step

    def apply(offset, digits):
        offset, digits, r = _spine_run(offset + tneg, digits, letter)
        k, v = 1 - offset - r, digits[r:]
        if word and v:
            image, section = lifts.get((k, v[:k])) or lifts.setdefault(
                (k, v[:k]), action.prefix_image(word, k, v))
            out = list(image[:len(v)])
            for x in v[k:]:
                if not section:
                    break
                y, section = moves.get((section, x)) or moves.setdefault(
                    (section, x), step(section, x))
                out.append(y)
            digits = digits[:r] + tuple(out) + v[len(out):]
        return offset - tpos, digits
    return apply


def theta_apply(e, v, action):
    """Apply theta(e) to an unrooted vertex, factors left to right."""
    return UnrootedVertex(*_canonical(*theta_map(e, action)(1 - v.copy, v.word), action.letter))


def moved_vertex(e, action, copies, length):
    """The first vertex of canonical_vertices(action, copies, length) that
    theta(e) moves, or None.  theta(e) shifts every level by tneg - tpos and
    theta(t^-m t^m) is the identity, so only a balanced e with a word is applied."""
    if e.tneg != e.tpos:
        return LAMBDA
    apply = theta_map(e, action)
    for m, w in _canonical_pairs(action, copies, length) if e.word else ():
        if _canonical(*apply(1 - m, w), action.letter) != (m, w):
            return UnrootedVertex(m, w)
    return None


def sigma_mismatch(word, action, copies, length):
    """The first window (m, w) with m <= copies and |w| <= length on which theta(word) and
    sigma^m(word), written packed from sigma^(m-1)(word) and read level by level through
    `MealyAutomaton._levels`, disagree, or None.  Every w is tried, those led by the spine
    letter too, so `theta_map`'s lifting shortcut is compared; w = () is the spine vertex."""
    apply, aut = theta_map(action.element(word), action), action.automaton
    for m in range(copies + 1):
        written = action.sigma._power(written, 1) if m else aut._pack(word)
        images = [()]
        for n, (sections, turns, _) in enumerate(aut._levels(written, length)):
            for w, image in zip(product(range(aut.size), repeat=n), images):
                if apply(1 - m, w) != (1 - m, image):
                    return m, w
            if n < length:
                images = [image + (y,) for image, s in zip(images, sections) for y in turns[s]]
    return None


def hnn_multiply(e1, e2, action):
    """Product in the extension via t g t^-1 = sigma(g).

    Both middle words are reduced (sigma_word reduces), so they cancel
    only at the seam.
    """
    if e1.tpos >= e2.tneg:
        k = e1.tpos - e2.tneg
        word = reduced_product(e1.word, action.sigma_word(e2.word, k))
        return HnnElement(e1.tneg, word, k + e2.tpos)
    k = e2.tneg - e1.tpos
    word = reduced_product(action.sigma_word(e1.word, k), e2.word)
    return HnnElement(e1.tneg + k, word, e2.tpos)


def hnn_inverse(e):
    return HnnElement(e.tpos, invert_word(e.word), e.tneg)


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
    packed = {sym: automaton._pack((sym,)) for sym in symbols}
    reps = schreier_tree((action.letter,) * k, (), symbols,
                         lambda sym, v: automaton._walk(packed[sym], v)[0],
                         lambda w, sym: w + (sym,))
    if target.word not in reps:
        return None
    return HnnElement(k, automaton.reduce(reps[target.word]), target.copy)


def two_transitivity_level_check(gens, l):
    """Does the stabilizer of 1^l act transitively on (X - {1}) X^(l-1)?

    Exact at the chosen level: the stabilizer is generated by Schreier
    generators of the point stabilizer in the level-l image.  It fixes the
    first letter 1, so its orbit of 0^l lies in the (d-1) d^(l-1) words
    that start with another letter, and must be all of them.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    d = gens[0].automaton.size
    perms = [level_perm(g, l) for g in gens]
    fixed = vertex_index((1,) * l, d)
    stab = point_stabilizer_gens(perms, fixed)
    return len(orbit(vertex_index((0,) * l, d), stab)) == (d - 1) * d ** (l - 1)


def theta_portrait(g, action, up, down):
    """Portrait of theta(g) truncated to levels -up..down.

    Renders the subtree of the spine vertex at level -up (the root of the
    rooted copy T^(up)); the section of theta(g) there is sigma^up(g), so
    the node map is that element's rooted portrait transported into
    unrooted coordinates.  Returns sigma^up(g) as a TreeAutomorphism and
    the node map {UnrootedVertex: root permutation}.
    """
    if up < 0 or down < -up:
        raise ValueError("need up >= 0 and down >= -up")
    check_points(action.automaton.size, up + down)
    top = TreeAutomorphism(action.automaton, action.sigma_word(g.word, up))
    return top, {UnrootedVertex(up, v): perm for v, perm in portrait(top, up + down).items()}
