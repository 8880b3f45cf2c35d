"""Answers computed apart from arboreal, for checking its outputs.

Nothing here calls arboreal's algorithms.  The evaluator reads a wreath
recursion only through ``MealyAutomaton.rule`` (a state's root permutation
and its section words) and substitutions only as image data.  It works
letter by letter without recursion, so it answers at any vertex depth.
Words are tuples of ``(state, +1 | -1)`` factors, as in arboreal; the
product ``g*h`` acts as ``g`` first, and a permutation is the tuple of
images of ``0..k-1``.
"""

from __future__ import annotations

import re
from operator import itemgetter

IDENTITY = "1"


def reduce(word):
    """Free reduction; drops identity factors."""
    out = []
    for f in word:
        if f[0] == IDENTITY:
            continue
        if out and out[-1][0] == f[0] and out[-1][1] == -f[1]:
            out.pop()
        else:
            out.append(f)
    return tuple(out)


def invert(word):
    return tuple((s, -e) for s, e in reversed(word))


def compose(p, q):
    """Permutation product, p applied first."""
    if len(p) == 1:
        return (q[p[0]],)
    return itemgetter(*p)(q)


class Evaluator:
    """The action of words of one wreath recursion on the rooted tree."""

    def __init__(self, automaton):
        self.d = automaton.size
        self.rules = {s: automaton.rule(s) for s in automaton.states}
        self.inverse_perms = {}
        for s, (perm, _) in self.rules.items():
            inv = [0] * self.d
            for x, y in enumerate(perm):
                inv[y] = x
            self.inverse_perms[s] = tuple(inv)
        self._level_tables = {0: None}

    def step(self, word, x):
        """(image of the letter x, section of word at x), one letter deep."""
        section = []
        for s, e in word:
            perm, sections = self.rules[s]
            if e == 1:
                section.extend(sections[x])
                x = perm[x]
            else:
                x = self.inverse_perms[s][x]
                section.extend(invert(sections[x]))
        return x, reduce(section)

    def act_and_section(self, word, vertex):
        image = []
        word = reduce(word)
        for x in vertex:
            y, word = self.step(word, x)
            image.append(y)
        return tuple(image), word

    def act(self, word, vertex):
        return self.act_and_section(word, vertex)[0]

    def section(self, word, vertex):
        return self.act_and_section(word, vertex)[1]

    def _table(self, n):
        """Level-n permutation of every factor (s, +-1), built level by level."""
        if n not in self._level_tables:
            below = self._table(n - 1)
            sub = self.d ** (n - 1)
            table = {}
            for s in self.rules:
                for e in (1, -1):
                    images = []
                    for x in range(self.d):
                        y, section = self.step(((s, e),), x)
                        if n == 1:
                            images.append(y)
                            continue
                        p = self._compose_word(section, below, sub)
                        base = y * sub
                        images.extend(base + i for i in p)
                    table[(s, e)] = tuple(images)
            self._level_tables[n] = table
        return self._level_tables[n]

    @staticmethod
    def _compose_word(word, table, degree):
        p = tuple(range(degree))
        for f in word:
            p = compose(p, table[f])
        return p

    def perm(self, word, n):
        """Permutation of the d^n level-n vertices (lexicographic ranks)."""
        if n == 0:
            return (0,)
        return self._compose_word(word, self._table(n), self.d ** n)

    def moved_vertex(self, word, max_level):
        """A vertex of level <= max_level that the word moves, or None."""
        for n in range(1, max_level + 1):
            p = self.perm(word, n)
            for i, j in enumerate(p):
                if i != j:
                    return vertex_of(i, self.d, n)
        return None


def vertex_of(index, d, n):
    out = []
    for _ in range(n):
        index, x = divmod(index, d)
        out.append(x)
    return tuple(reversed(out))


def closure(perms, cap):
    """All products of the permutations (BFS); None past `cap` elements."""
    degree = len(perms[0])
    start = tuple(range(degree))
    seen = {start}
    queue = [start]
    for p in queue:
        for s in perms:
            q = compose(p, s)
            if q not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(q)
                queue.append(q)
    return seen


def grigorchuk_order(n):
    """|G/St_G(n)| = 2^(5*2^(n-3)+2) for the first Grigorchuk group, n >= 3."""
    if n < 3:
        raise ValueError("the closed form holds from level 3")
    return 2 ** (5 * 2 ** (n - 3) + 2)


# The element ad of the first Grigorchuk group has order 4.
GRIGORCHUK_AD_ORDER = 4


def substitute(images, word, k=1):
    """sigma^k(word) for a substitution given as {name: word}."""
    for _ in range(k):
        out = []
        for s, e in word:
            image = images[s]
            out.extend(image if e == 1 else invert(image))
        word = reduce(out)
    return word


def boundary_apply(evaluator, images, letter, tneg, word, tpos, offset, digits):
    """theta(t^-tneg * word * t^tpos) on a boundary window.

    The window holds the digits at positions offset, offset+1, ...;
    positions below it carry the spine letter.  t^-m raises positions by
    m; the word then acts on the rooted copy holding position 1 and
    below it, as sigma^k of itself when that copy lies k levels above
    the root; t^n lowers positions by n.  Returns (offset, digits).
    """
    offset += tneg
    k = max(0, 1 - offset)
    digits = (letter,) * (offset - (1 - k)) + tuple(digits)
    image = evaluator.act(substitute(images, word, k), digits)
    return 1 - k - tpos, image


def t_exponent_sum(text):
    """Net exponent of t in an HNN word written with t, T and integer powers."""
    total = 0
    for name, power in re.findall(r"([tT])(?:\^(-?\d+))?", text):
        k = int(power) if power else 1
        total += k if name == "t" else -k
    return total


# ---------------------------------------------------------------------------
# word expressions

_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|(-?\d+)|([*^()\[\],]))")


def parse_word(text, names):
    """Word expression -> reduced factor tuple, for checking parser output.

    Juxtaposition or '*' multiplies, x^n is a power, x^y = y^-1 x y, and
    [x,y] = x^-1 y^-1 x y; an unknown identifier made of known one-letter
    names is read letter by letter.
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:]!r}")
        name, num, punct = m.groups()
        if name and name not in names:
            tokens.extend(("name", c) for c in name)
        elif name:
            tokens.append(("name", name))
        elif num:
            tokens.append(("int", int(num)))
        else:
            tokens.append(("punct", punct))
        pos = m.end()
    tokens.append((None, None))
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        at[0] += 1
        return tokens[at[0] - 1]

    def word(stop):
        out = ()
        while peek()[0] is not None and not (peek()[0] == "punct" and peek()[1] in stop):
            if peek() == ("punct", "*"):
                take()
                continue
            out = reduce(out + factor())
        return out

    def factor():
        x = primary()
        while peek() == ("punct", "^"):
            take()
            if peek()[0] == "int":
                n = take()[1]
                x = reduce((x if n >= 0 else invert(x)) * abs(n))
            else:
                y = primary()
                x = reduce(invert(y) + x + y)
        return x

    def primary():
        kind, val = take()
        if kind == "name":
            if val not in names:
                raise ValueError(f"unknown name {val!r}")
            return ((val, 1),)
        if (kind, val) == ("int", 1):
            return ()
        if (kind, val) == ("punct", "("):
            x = word(")")
            take()
            return x
        if (kind, val) == ("punct", "["):
            x = word(",")
            take()
            y = word("]")
            take()
            return reduce(invert(x) + invert(y) + x + y)
        raise ValueError(f"unexpected {val!r} in {text!r}")

    out = word(())
    if peek()[0] is not None:
        raise ValueError(f"trailing input in {text!r}")
    return out


# ---------------------------------------------------------------------------
# orders of level images of p-groups

def pgroup_order(perms, p, n):
    """Order of the group the level-n permutations generate, for p prime.

    Assumes every local action is a power of the p-cycle x -> x+1, as for
    the binary groups and the GGS groups, so the kernel of each step down
    the tree is elementary abelian; a step that breaks this raises
    ValueError.  The algorithm sifts through the level filtration, one
    echelon basis over GF(p) per level, and closes the basis under p-th
    powers and commutators.  It shares nothing with arboreal's chain.
    """
    degree = p ** n
    ident = tuple(range(degree))
    layers = [[] for _ in range(n + 1)]  # level -> [(pivot, vector, elem, inverse)]

    def inverse(g):
        inv = [0] * degree
        for i, j in enumerate(g):
            inv[j] = i
        return tuple(inv)

    def power(g, k):
        out = ident
        for _ in range(k):
            out = compose(out, g)
        return out

    def shifts(g, j):
        """Shift vector of g (which fixes level j-1) on level j, or None."""
        block = p ** (n - j + 1)
        child = block // p
        vector = []
        for u in range(p ** (j - 1)):
            c = None
            for x in range(p):
                y = g[u * block + x * child] // child - u * p
                if not 0 <= y < p:
                    raise ValueError("element does not fix the level above")
                if c is None:
                    c = (y - x) % p
                elif c != (y - x) % p:
                    raise ValueError("local action is not a power of the p-cycle")
            vector.append(c)
        return vector

    def sift(g):
        for j in range(1, n + 1):
            if g == ident:
                return None
            v = shifts(g, j)
            for pivot, bv, _, b_inv in layers[j]:
                c = v[pivot]
                if c:
                    g = compose(g, power(b_inv, c))
                    v = [(a - c * b) % p for a, b in zip(v, bv)]
            lead = next((i for i, a in enumerate(v) if a), None)
            if lead is not None:
                k = pow(v[lead], -1, p)
                return j, lead, [a * k % p for a in v], power(g, k)
        if g != ident:
            raise ValueError("element fixes every level but is not the identity")
        return None

    work = list(perms)
    while work:
        found = sift(work.pop())
        if found is None:
            continue
        j, lead, vector, g = found
        g_inv = inverse(g)
        layers[j].append((lead, vector, g, g_inv))
        work.append(power(g, p))
        for layer in layers:
            for _, _, h, h_inv in layer:
                if h is not g:
                    work.append(compose(compose(compose(g_inv, h_inv), g), h))
    return p ** sum(len(layer) for layer in layers)
