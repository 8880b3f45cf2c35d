"""Finite permutation representations of tree groups on level n.

Vertices of level n are indexed by their rank in lexicographic order (the
base-d value of the word), so exports are stable.  The stabilizer chain is
a deterministic, non-randomized Schreier-Sims: base points are chosen as
the smallest moved point at each layer, orbits are grown breadth first
with generators in a fixed order, and every Schreier generator is sifted
until the chain verifies.  That reproduces identical orders in CI.
"""

from __future__ import annotations

import os
from operator import getitem
from dataclasses import dataclass, field

from .core import free_reduce, identity_perm, invert_word, pinv, pmul

DEFAULT_MAX_POINTS = 1 << 20
ENV_MAX_POINTS = "ARBOREAL_MAX_POINTS"


class SizeBoundExceeded(ValueError):
    pass


def max_points():
    value = os.environ.get(ENV_MAX_POINTS)
    return int(value) if value else DEFAULT_MAX_POINTS


def vertex_index(v, d):
    """Rank of a level-n word in lexicographic order."""
    idx = 0
    for x in v:
        idx = idx * d + x
    return idx


def index_vertex(idx, d, n):
    out = []
    for _ in range(n):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


def level_perm(g, n):
    """Dense image array of g on the d^n vertices of level n."""
    d = g.automaton.size
    degree = d ** n
    if degree > max_points():
        raise SizeBoundExceeded(
            f"{degree} points exceed the limit {max_points()} (set {ENV_MAX_POINTS} to raise it)")
    images = [0] * degree
    idx = 0
    for v in _lex_vertices(d, n):
        images[idx] = vertex_index(g.act(v), d)
        idx += 1
    return tuple(images)


def _lex_vertices(d, n):
    from itertools import product
    return product(range(d), repeat=n)


@dataclass
class _Layer:
    point: int
    gens: list = field(default_factory=list)
    transversal: dict = field(default_factory=dict)


class LevelPermGroup:
    """Permutation group on the d^n level vertices with a stabilizer chain."""

    def __init__(self, d, level, perms):
        self.d = d
        self.level = level
        self.degree = d ** level
        ident = identity_perm(self.degree)
        self.gens = tuple(p for p in perms if p != ident)
        self._layers = None

    @classmethod
    def on_level(cls, gens, n):
        if not gens:
            raise ValueError("need at least one generator (use the identity element)")
        d = gens[0].automaton.size
        return cls(d, n, [level_perm(g, n) for g in gens])

    # -- chain --------------------------------------------------------------

    def _chain(self):
        if self._layers is None:
            self._layers = _schreier_sims(self.gens, self.degree)
        return self._layers

    def order(self):
        n = 1
        for layer in self._chain():
            n *= len(layer.transversal)
        return n

    def __contains__(self, perm):
        residue, _ = _strip(perm, self._chain(), 0, self.degree)
        return residue == identity_perm(self.degree)

    def is_trivial(self):
        return not self.gens

    def elements(self):
        """All elements, multiplied out of the chain; deterministic order."""
        layers = self._chain()
        ident = identity_perm(self.degree)

        def rec(i):
            if i == len(layers):
                yield ident
                return
            for pt in sorted(layers[i].transversal):
                t = layers[i].transversal[pt]
                for h in rec(i + 1):
                    yield pmul(h, t)
        return rec(0)

    def orbit(self, point):
        return orbit(point, self.gens)

    def orbit_vertices(self, v):
        idx = vertex_index(v, self.d)
        if len(v) != self.level:
            raise ValueError(f"vertex {v} is not on level {self.level}")
        return {index_vertex(i, self.d, self.level) for i in self.orbit(idx)}


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


def _unlabelled(label, gen):
    return None


def orbit(root, gens, act=getitem):
    """The orbit of root under gens as a set; by default gens are image tuples."""
    return set(schreier_tree(root, None, gens, act, _unlabelled))


def _strip(perm, layers, start, degree):
    ident = identity_perm(degree)
    g = perm
    for i in range(start, len(layers)):
        layer = layers[i]
        target = g[layer.point]
        if target not in layer.transversal:
            return g, i
        g = pmul(g, pinv(layer.transversal[target]))
        if g == ident:
            return g, i + 1
    return g, len(layers)


def _schreier_sims(gens, degree):
    """Deterministic incremental Schreier-Sims with full verification.

    A strong generator stored at layer k fixes the base points of layers
    < k, so the generating set of layer i's stabilizer is everything
    stored at layers >= i.  All transversals are rebuilt after every
    insertion; a failed strip therefore names a point genuinely outside
    the current basic orbit, each insertion strictly enlarges the product
    of orbit sizes, and the bottom-up verification sweep terminates with a
    chain in which every Schreier generator sifts to the identity.
    """
    ident = identity_perm(degree)
    layers = []

    def effective(i):
        return [g for k in range(i, len(layers)) for g in layers[k].gens]

    def rebuild_all():
        for i, layer in enumerate(layers):
            layer.transversal = schreier_tree(layer.point, ident, effective(i), getitem, pmul)

    def add_gen(g, level):
        if level == len(layers):
            point = min(i for i in range(degree) if g[i] != i)
            layers.append(_Layer(point, transversal={point: ident}))
        layers[level].gens.append(g)
        rebuild_all()

    for g in gens:
        residue, level = _strip(g, layers, 0, degree)
        if residue != ident:
            add_gen(residue, level)

    i = len(layers) - 1
    while i >= 0:
        layer = layers[i]
        added = False
        for pt in sorted(layer.transversal):
            t = layer.transversal[pt]
            for s in effective(i):
                schreier = pmul(pmul(t, s), pinv(layer.transversal[s[pt]]))
                residue, level = _strip(schreier, layers, i + 1, degree)
                if residue != ident:
                    add_gen(residue, level)
                    added = True
        if added:
            i = len(layers) - 1
        else:
            i -= 1
    return layers


# ---------------------------------------------------------------------------
# level operations

def perm_group_on_level(gens, n):
    """The image of <gens> on level n, mirroring GAP's PermGroupOnLevel."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return LevelPermGroup.on_level(list(gens), n)


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
    """Schreier generators of the stabilizer of one point (as permutations)."""
    if not perms:
        return []
    return schreier_generators(point, identity_perm(len(perms[0])), perms, getitem, pmul, pinv)


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
                               lambda x, y: free_reduce(x + y), invert_word)


def intersection_trivial_on_level(a, b, threshold=10 ** 6):
    """True iff two same-level permutation groups intersect trivially.

    Enumerates the smaller group through its stabilizer chain and sifts
    each element into the other.  Both groups above the threshold raises
    SizeBoundExceeded (the instances of interest are tiny; the threshold
    is a config knob).
    """
    if a.degree != b.degree or a.level != b.level:
        raise ValueError("groups act on different levels")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    if small.order() > threshold:
        raise SizeBoundExceeded(
            f"both groups have order > {threshold}; raise the threshold to enumerate")
    ident = identity_perm(small.degree)
    for g in small.elements():
        if g != ident and g in large:
            return False
    return True
