"""Finite permutation representations of tree groups on level n.

Vertices of level n are indexed by their rank in lexicographic order (the
base-d value of the word), so exports are stable.  `_schreier_sims`
builds the stabilizer chain behind orders, membership and enumeration,
and picks one of two chains from the generators alone:

- the tree-adapted p-group chain, when d = p is a prime below 128 and
  every generator is a tree automorphism whose local action at each
  vertex is a power of the p-cycle x -> x+1.  This covers every catalog
  group.  The group then lies in the iterated wreath product of cyclic
  groups of order p, each step St(j)/St(j+1) of the level stabilizers is
  elementary abelian, and one echelon basis over GF(p) per level, closed
  under p-th powers, commutators within a layer and conjugation by the
  generators, is a polycyclic sequence of the group (Holt, Eick and
  O'Brien, Handbook of Computational Group Theory, ch. 8).  Vectors are
  read from one table per layer and subtracted on packed bytes, which
  hold coordinates mod p only for p < 128 (see `_TreeChain`); larger
  primes take the generic chain;
- a generic deterministic, non-randomized Schreier-Sims for every other
  group, including `LevelPermGroup(degree, 1, perms)` on an arbitrary
  alphabet: base points are the smallest moved point at each layer, and
  each layer keeps a generating set of its group, whose orbit is extended
  breadth first, never rebuilt, as sifted residues join the set.

Both are deterministic, so orders reproduce in CI.  Inside both, a
permutation of at most 256 points is a 256-byte table (`core.pack_perm`):
a product is one `bytes.translate`.  Larger ones stay image tuples, and
the chains take and yield image tuples either way.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt, prod
from operator import getitem
from dataclasses import dataclass, field

from .core import (SizeBoundExceeded, identity_perm, invert_word, max_points, pack_perm, pinv,
                   pmul, power_by_squaring, reduced_product)

ENUMERATION_LIMIT = 10 ** 6   # largest group intersection_trivial_on_level enumerates


def vertex_index(v, d):
    """Rank of a level-n word in lexicographic order."""
    idx = 0
    for x in v:
        idx = idx * d + x
    return idx


def level_perm(g, n):
    """Dense image array of g on the d^n vertices of level n, built one level at a time
    from each vertex's image and the id of g's section there: `MealyAutomaton._levels`
    walks levels 0..n-1, stepping each (section, letter) pair once, and refuses d^n past
    the point limit.  The arrays hold d^n entries at the last level."""
    automaton = g.automaton
    d = automaton.size
    images = [0]
    for sections, turns, _ in islice(automaton._levels(automaton._pack(g.word), n), n):
        images = [i * d + y for i, s in zip(images, sections) for y in turns[s]]
    return tuple(images)


@dataclass
class _Layer:
    point: int
    gens: list = field(default_factory=list)      # generates the layer's group
    transversal: dict = field(default_factory=dict)
    inverses: dict = field(default_factory=dict)  # point -> its transversal element's inverse


class LevelPermGroup:
    """Permutation group on the d^n level vertices with a stabilizer chain."""

    def __init__(self, d, level, perms):
        self.d = d
        self.level = level
        self.degree = d ** level
        ident = identity_perm(self.degree)
        self.gens = tuple(p for p in perms if p != ident)
        self._built = None

    # -- chain --------------------------------------------------------------

    def _chain(self):
        if self._built is None:
            self._built = _schreier_sims(self.gens, self.d, self.level)
        return self._built

    def order(self):
        return self._chain().order()

    def __contains__(self, perm):
        return perm in self._chain()

    def is_trivial(self):
        return not self.gens

    def elements(self):
        """All elements, multiplied out of the chain; deterministic order."""
        return self._chain().elements()

    def orbit_vertices(self, v):
        if len(v) != self.level:
            raise ValueError(f"vertex {v} is not on level {self.level}")
        if any(not 0 <= x < self.d for x in v):
            raise ValueError(f"vertex {v} has letters outside 0..{self.d - 1}")
        return {tuple(i // self.d ** k % self.d for k in reversed(range(self.level)))
                for i in orbit(vertex_index(v, self.d), self.gens)}


def schreier_tree(root, label, gens, act, extend):
    """Breadth-first Schreier tree: point -> label, in BFS order.

    The orbit of `root` is grown with the generators in their fixed order;
    act(g, p) is the image of the point p under g, and a point first reached
    from p by g is labelled extend(label of p, g).  With permutation labels
    and extend=pmul this gives a transversal; with word labels it gives
    shortlex-minimal coset representatives.
    """
    reps = {root: label}
    queue = [root]
    for p in queue:
        for g in gens:
            q = act(g, p)
            if q not in reps:
                reps[q] = extend(reps[p], g)
                queue.append(q)
    return reps


def orbit(root, gens, act=getitem):
    """The orbit of root under gens as a set; by default gens are image tuples."""
    return set(schreier_tree(root, None, gens, act, lambda label, gen: None))


def _schreier_sims(gens, d, level):
    """The stabilizer chain of <gens> on level `level` of the d-ary tree.

    The tree-adapted p-group chain serves every generating set it can
    describe; every other goes to the generic Schreier-Sims chain.
    """
    if _is_prime(d) and d < 128 and all(_in_cyclic_wreath(g, d, level) for g in gens):
        return _TreeChain(gens, d, level)
    return _PointChain(gens, d ** level)


def _is_prime(d):
    return d >= 2 and all(d % q for q in range(2, isqrt(d) + 1))


def _in_cyclic_wreath(perm, p, n):
    """True iff perm is a level-n tree automorphism whose local actions are x -> x+c.

    Going up one level at a time, each set of p siblings must go onto a
    set of siblings by a cyclic shift; the images of the first children
    then give the action on the level above.
    """
    if len(perm) != p ** n:
        return False
    f = perm
    for _ in range(n):
        parent = []
        for first in range(0, len(f), p):
            q, r = divmod(f[first], p)
            for x in range(1, p):
                if f[first + x] != q * p + (r + x) % p:
                    return False
            parent.append(q)
        f = parent
    return f == [0]


class _TreeChain:
    """Tree-adapted pc-sequence of a group of level-n tree automorphisms.

    Every element lies in the iterated wreath product W of cyclic groups
    of order p.  Layer j (0 <= j < n) holds elements of St(j), the
    pointwise stabilizer of level j.  An element g of St(j) turns the
    children of each level-j vertex u by x -> x + c_u; its shift vector
    (c_u) over GF(p) is additive on St(j) and is zero exactly on St(j+1).
    A vector is a Python int holding coordinate u in byte u, read through
    a table per layer.  The vectors of a layer are semi-echelon: each has
    coefficient 1 at its pivot, its lowest nonzero coordinate, and 0 at
    the pivots of the entries stored before it.  An entry keeps -c times
    its vector for each c < p, so that subtracting c times it is one xor
    for p = 2, and otherwise one addition and `_reduce_bytes`.

    Sifting g reduces its vector layer by layer, multiplying g by b^-c for
    each entry b whose pivot holds c, so g sifts to the identity iff it is
    a normal word: one product of powers b^e, 0 <= e < p, in layer order.
    A new entry g of layer j queues g^p and [g, h], for the earlier
    entries h of layer j, from layer j+1, and x^-1 g x, for each
    generator x, from layer j.  Once all of them sift to the identity,
    the normal words over the layers >= j form a group P_j that the
    generators normalize, by induction down from P_n = 1: the entries lie
    in the group, so they normalize P_{j+1}; modulo P_{j+1} those of
    layer j commute and have order p, so P_j is a group; and conjugation
    by x keeps P_{j+1} and sends each entry of layer j into P_j.  P_0
    holds the generators, so it is the group.  Unlike [g, x], an
    equivalent closure once P_j is a group, x^-1 g x has a vector as
    sparse as g's.  A permutation outside W never sifts to the identity.
    """

    def __init__(self, gens, p, n):
        self.p = p
        self.n = n
        self.degree = p ** n
        self._ident = pack_perm(identity_perm(self.degree))
        # layer j: the turn (x // p^(n-j-1)) % p that sends leaf 0 of a block to leaf x
        self._turns = [(b"".join(bytes([c]) * p ** (n - j - 1) for c in range(p)) * p ** j)
                       .ljust(256, b"\0") for j in range(n)]
        self._ones = [int.from_bytes(b"\1" * p ** j, "little") for j in range(n)]
        negate = [bytes(-c * x % p for x in range(p)).ljust(256, b"\0") for c in range(p)]
        self._layers = [[] for _ in range(n)]  # (pivot shift, [-c * vector], [b^-c]), c < p
        entries = [[] for _ in range(n)]        # layer j: (b, b^-1) in insertion order
        gens = [(x, pinv(x)) for x in map(pack_perm, gens)]
        work = [(0, x) for x, _ in gens]
        while work:
            start, g = work.pop()
            j, v, g = self._sift(g, start)
            if j == n:
                continue
            shift = ((v & -v).bit_length() - 1) & ~7
            k = pow(v >> shift & 255, -1, p)
            if k != 1:
                g = power_by_squaring(g, k, self._ident, pmul, pinv)
                v = self._vector(g, j)
            inverses = [self._ident, pinv(g)]
            for _ in range(p - 2):
                inverses.append(pmul(inverses[-1], inverses[1]))
            vector = v.to_bytes(p ** j, "little")
            minus = [int.from_bytes(vector.translate(t), "little") for t in negate]
            self._layers[j].append((shift, minus, inverses))
            # x^-1 g x lies in St(j), g^p and [g, h] for h on layer j in St(j+1);
            # the work is a stack, so the deeper items are sifted first
            work += [(j, pmul(pmul(x_inv, g), x)) for x, x_inv in gens]
            if j + 1 < n:
                work.append((j + 1, power_by_squaring(g, p, self._ident, pmul, pinv)))
                work += [(j + 1, pmul(pmul(pmul(inverses[1], h_inv), g), h))
                         for h, h_inv in entries[j]]
            entries[j].append((g, inverses[1]))

    def _vector(self, g, j):
        """Shift vector of g in St(j): the turn of each level-j vertex's children."""
        points = g[:self.degree:self.p ** (self.n - j)]   # each level-j vertex's first leaf
        return int.from_bytes(pmul(points, self._turns[j]), "little")

    def _sift(self, g, start=0):
        """(j, v, g): g reduced through layers start..j; v is its nonzero
        vector on layer j, or j == n and v == 0 when every layer reduced."""
        p = self.p
        for j in range(start, self.n):
            if g == self._ident:
                break
            v = self._vector(g, j)
            if not v:
                continue
            ones = self._ones[j]
            for shift, minus, inverses in self._layers[j]:
                c = v >> shift & 255
                if c:
                    g = pmul(g, inverses[c])
                    v = v ^ minus[1] if p == 2 else _reduce_bytes(v + minus[c], p, ones)
            if v:
                return j, v, g
        return self.n, 0, g

    def order(self):
        return self.p ** sum(map(len, self._layers))

    def __contains__(self, perm):
        if (g := _packed(perm, self.degree)) is None:
            return False
        j, _, g = self._sift(g)
        return j == self.n and g == self._ident

    def elements(self):
        """Every product h * b^-e, for h a product over the entries after b."""
        return _products([inverses for layer in self._layers for _, _, inverses in layer],
                         self._ident, self.degree)


def _reduce_bytes(v, p, ones):
    """v mod p in every byte, for bytes below 2p - 1 and p < 128: adding
    128 - p to each (ones has a 1 in each) sets bit 7 of those >= p."""
    return v - ((v + (128 - p) * ones) >> 7 & ones) * p


def _strip(perm, layers, start, ident):
    g = perm
    for i in range(start, len(layers)):
        layer = layers[i]
        target = g[layer.point]
        if target not in layer.inverses:
            return g, i
        g = pmul(g, layer.inverses[target])
        if g == ident:
            return g, i + 1
    return g, len(layers)


def _point_layers(gens, ident):
    """Deterministic incremental Schreier-Sims (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 4.4).

    Layer i keeps a generating set T_i of its group, which fixes the base
    points of the layers above.  A work item (g, start) is stripped from
    layer `start`; a residue that stops at layer k joins T_start..T_k, and
    each of those orbits is extended breadth first: g meets every point
    already there, every generator meets every new point, and labels once
    given are kept.  Each (point p, generator s) pair whose image q is
    already in the orbit yields the Schreier generator t * t_q^-1 with
    t = t_p * s, pushed from layer i + 1 unless t == t_q.  Labels never
    change and orbits only grow, so a Schreier generator that sifted to
    the identity keeps doing so: once the work list is empty every
    Schreier generator of every layer sifts, and the chain is complete.
    """
    layers = []
    work = [(g, 0) for g in reversed(gens)]
    while work:
        g, start = work.pop()
        g, k = _strip(g, layers, start, ident)
        if g == ident:
            continue
        if k == len(layers):
            point = next(i for i, x in enumerate(g) if x != i)
            layers.append(_Layer(point, transversal={point: ident}, inverses={point: ident}))
        for i in range(start, k + 1):
            layer = layers[i]
            layer.gens.append(g)
            transversal, inverses = layer.transversal, layer.inverses
            queue = [(p, (g,)) for p in transversal]
            for p, ss in queue:
                for s in ss:
                    q = s[p]
                    t = pmul(transversal[p], s)
                    if q not in transversal:
                        transversal[q] = t
                        inverses[q] = pinv(t)
                        queue.append((q, layer.gens))
                    elif t != transversal[q]:
                        work.append((pmul(t, inverses[q]), i + 1))
    return layers


def _packed(perm, degree):
    """perm in `pack_perm`'s form, or None unless it permutes range(degree)."""
    return pack_perm(perm) if sorted(perm) == list(range(degree)) else None


def _products(choices, ident, degree=None):
    """Every product h * c, for c in choices[0] and h a product over
    choices[1:], with c varying fastest; as image tuples when a degree is given."""
    if not choices:
        yield ident
        return
    for h in _products(choices[1:], ident):
        for c in choices[0]:
            yield pmul(h, c) if degree is None else tuple(pmul(h, c)[:degree])


class _PointChain:
    """Base points with their transversals, for any permutation group."""

    def __init__(self, gens, degree):
        self.degree = degree
        self._ident = pack_perm(identity_perm(degree))
        self.layers = _point_layers([pack_perm(g) for g in gens], self._ident)

    def order(self):
        return prod(len(layer.transversal) for layer in self.layers)

    def __contains__(self, perm):
        if (g := _packed(perm, self.degree)) is None:
            return False
        return _strip(g, self.layers, 0, self._ident)[0] == self._ident

    def elements(self):
        return _products([[layer.transversal[pt] for pt in sorted(layer.transversal)]
                          for layer in self.layers], self._ident, self.degree)


# ---------------------------------------------------------------------------
# level operations

def perm_group_on_level(gens, n):
    """The image of <gens> on level n, mirroring GAP's PermGroupOnLevel."""
    if n < 1:
        raise ValueError("level must be >= 1")
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator (use the identity element)")
    return LevelPermGroup(gens[0].automaton.size, n, [level_perm(g, n) for g in gens])


def orbit_on_level(group, v):
    """Orbit of a level-n vertex under a LevelPermGroup, as vertex tuples."""
    return group.orbit_vertices(tuple(v))


def schreier_generators(root, ident, gens, act, mul, inv):
    """Schreier generators of the stabilizer of `root`, without repeats.

    Coset representatives come from the Schreier tree over `gens`, group
    elements that `act` applies to points; labels are grown by `mul`.  For
    each point p with label t and each g, t*g*rep(act(g, p))^-1 is kept
    unless it is `ident` or already found, in BFS order, so the output is
    deterministic.
    """
    reps = schreier_tree(root, ident, gens, act, mul)
    out = []
    seen = set()
    for p, t in reps.items():
        for g in gens:
            h = mul(mul(t, g), inv(reps[act(g, p)]))
            if h != ident and h not in seen:
                seen.add(h)
                out.append(h)
    return out


def point_stabilizer_gens(perms, point):
    """Schreier generators of the stabilizer of one point, as `pack_perm` permutations."""
    if not perms:
        return []
    ident = pack_perm(identity_perm(len(perms[0])))
    return schreier_generators(point, ident, list(map(pack_perm, perms)), getitem, pmul, pinv)


def stabilizer_words(gens, target="first-level"):
    """Schreier generator words for the first-level (or a vertex) stabilizer.

    `gens` maps generator names to TreeAutomorphisms.  The first level is
    handled as the stabilizer of the identity among level-1 permutations.
    Coset representatives are the breadth-first (= shortlex-minimal for the
    fixed generator order) words, so the output is deterministic.  Words
    are returned as reduced factor tuples over the generator names.
    """
    if not gens:
        return []
    automaton = next(iter(gens.values())).automaton
    elements = {((name, 1),): g for name, g in gens.items()}
    if target == "first-level":
        images = {w: level_perm(g, 1) for w, g in elements.items()}
        root = identity_perm(automaton.size)

        def act(w, p):
            return pmul(p, images[w])
    else:
        root = tuple(target)

        def act(w, v):
            return elements[w].act(v)
    return schreier_generators(root, (), list(elements), act,
                               reduced_product, invert_word)


def intersection_trivial_on_level(a, b):
    """True iff two same-level permutation groups intersect trivially.

    Enumerates the smaller group through its stabilizer chain and sifts
    each element into the other.  Both groups of order above
    ENUMERATION_LIMIT raises SizeBoundExceeded (the instances of interest
    are tiny).
    """
    if a.degree != b.degree or a.level != b.level:
        raise ValueError("groups act on different levels")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    if small.order() > ENUMERATION_LIMIT:
        raise SizeBoundExceeded(
            f"both groups have order > {ENUMERATION_LIMIT}, too many to enumerate")
    ident = identity_perm(small.degree)
    for g in small.elements():
        if g != ident and g in large:
            return False
    return True
