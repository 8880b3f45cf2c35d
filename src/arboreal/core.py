"""Exact automorphisms of the rooted d-ary tree given by wreath recursions.

Vertices of the tree are tuples of letters 0..d-1; the empty tuple is the
root.  An element is a formal word over the states of a finite wreath
recursion (a Mealy automaton whose transitions may be words, not just
states).  Words are (name, +-1) tuples at the API and packed factor codes
inside the engine: one step table (`MealyAutomaton.step`) serves the tree
action and the word problem, and `_reduce_codes` is the one free
reduction.  No minimization is performed: exact equality of two elements is
decided by `word_is_trivial` on the quotient, a memoized closure search
over section words.  The closure is finite when every section of a state
is a single state (a classical Mealy automaton): sectioning then never
increases the number of word factors.  Word-valued sections can grow
words without bound (e.g. x=(x*x,1)(1,2)), and the search is then not
guaranteed to finish.

Products compose left to right, the GAP convention used throughout:
(g*h)(v) = h(g(v)).  Permutations are tuples of images and multiply the
same way: pmul(p, q)[x] = q[p[x]].
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

IDENTITY = "1"
DEFAULT_MAX_POINTS = 1 << 20
ENV_MAX_POINTS = "ARBOREAL_MAX_POINTS"

Vertex = tuple  # tuple of letters
Word = tuple    # tuple of (state, +1|-1) factors
Perm = tuple    # tuple of images


class WreathSpecError(ValueError):
    """Raised for malformed wreath-recursion text or inconsistent rules."""


class SizeBoundExceeded(ValueError):
    pass


def max_points():
    value = os.environ.get(ENV_MAX_POINTS) or str(DEFAULT_MAX_POINTS)
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{ENV_MAX_POINTS} must be an integer >= 1, got {value!r}")
    return int(value)


def check_points(d, n):
    """Raise SizeBoundExceeded if level n of the d-ary tree has more than
    max_points() vertices; d^n is not formed when n alone exceeds the limit."""
    if n > (limit := max_points()).bit_length() or d ** n > limit:
        raise SizeBoundExceeded(
            f"{d}^{n} points exceed the limit {limit} (set {ENV_MAX_POINTS} to raise it)")


# ---------------------------------------------------------------------------
# permutations

def identity_perm(d):
    return tuple(range(d))


def pmul(p, q):
    """Product of permutations, p applied first."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)


def pinv(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_from_cycles(cycles, d):
    """Permutation of 0..d-1 from GAP-style 1-based cycles."""
    images = list(range(d))
    for cycle in cycles:
        pts = [c - 1 for c in cycle]
        if any(not 0 <= pt < d for pt in pts):
            raise WreathSpecError(f"cycle {tuple(cycle)} out of range for d={d}")
        if len(set(pts)) != len(pts):
            raise WreathSpecError(f"repeated point in cycle {tuple(cycle)}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def perm_from_images(images, d):
    p = tuple(images)
    if sorted(p) != list(range(d)):
        raise WreathSpecError(f"{list(images)} is not a permutation of 0..{d - 1}")
    return p


def fmt_perm(p):
    """Permutation in image notation, e.g. '[1,0]'."""
    return "[" + ",".join(map(str, p)) + "]"


# ---------------------------------------------------------------------------
# vertices

def parse_vertex(text):
    """Vertex from a digit string; '' is the root."""
    text = text.strip()
    if text and not text.isdecimal():
        raise ValueError(f"cannot parse vertex {text!r}")
    return tuple(int(c) for c in text)


def fmt_vertex(v):
    return "".join(map(str, v))


# ---------------------------------------------------------------------------
# words

def invert_word(word):
    return tuple((s, -e) for s, e in reversed(word))


def _reduce_codes(codes):
    """Free reduction of a packed word (see `MealyAutomaton.__init__`): codes cancel iff their
    xor is 1, and the identity codes 0, 1 are dropped.  A reduced word is recognised, and returned,
    without a loop in Python: bytes by one big-integer xor with the word shifted by a byte."""
    if type(codes) is bytes:    # a code tuple (past 127 states) always takes the loop
        x = int.from_bytes(codes, "big")
        if 1 not in (x ^ x >> 8).to_bytes(len(codes), "big") and 0 not in codes and 1 not in codes:
            return codes
    out = [-1]      # a sentinel no code cancels
    for c in codes:
        if c ^ 1 == out[-1]:
            out.pop()
        elif c > 1:
            out.append(c)
    return type(codes)(out[1:])


def reduced_product(x, y):
    """The free reduction of x + y for reduced words x and y: cancels only at the seam.

    A reduced word has no cancelling neighbours, so only the end of x can
    meet the start of y: the cost is one concatenation, with no reduction
    pass over both words.
    """
    n = min(len(x), len(y))
    k = 0
    while k < n and x[-1 - k][0] == y[k][0] and x[-1 - k][1] == -y[k][1]:
        k += 1
    return x[:len(x) - k] + y[k:] if k else x + y


def power_by_squaring(x, n, identity, mul, inv):
    """x^n by squaring and multiplying: about 2 log2|n| products.

    For x^-n the inverse is raised to n.  The grouping of the n factors
    differs from a left-to-right fold, so this is exact for backends whose
    products are canonical (equal elements have equal representations):
    reduced free words, the HNN normal form, lamplighter lamp sets.
    """
    if n < 0:
        x, n = inv(x), -n
    out = identity
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


# ---------------------------------------------------------------------------
# the recursion

class MealyAutomaton:
    """A finite wreath recursion over the alphabet 0..size-1.

    `rules` maps a state name to (root permutation, sections), where
    sections is one word per letter.  The identity state "1" (empty
    sections, identity permutation) is always materialized, so "1" in
    specifications parses uniformly.  Section entries that are single
    states make this a classical invertible Mealy automaton; word-valued
    sections cover recursions like the GGS generator b = (a^e1, ..., b).
    """

    def __init__(self, size, rules, generators=None):
        if size < 2:
            raise ValueError(f"alphabet needs at least 2 letters, got {size}")
        self.size = d = size
        full = {IDENTITY: (identity_perm(d), ((),) * d)}
        for name, (perm, sections) in rules.items():
            if name == IDENTITY:
                raise WreathSpecError("the name '1' is reserved for the identity state")
            if sorted(perm) != list(range(d)):
                raise WreathSpecError(f"state {name}: {fmt_perm(perm)} is not a permutation of X")
            if len(sections) != d:
                raise WreathSpecError(f"state {name}: expected {d} sections, got {len(sections)}")
            full[name] = (tuple(perm), tuple(tuple(w) for w in sections))
        for name, (_, sections) in full.items():
            for w in sections:
                for state, exp in w:
                    if state not in full:
                        raise WreathSpecError(f"state {name} references unknown state {state}")
                    if exp not in (1, -1):
                        raise WreathSpecError(f"state {name}: exponent {exp} not allowed")
        self._rules = full
        # factor codes (state i, +-1) -> 2i, 2i+1, so c ^ 1 inverts c and "1" is 0, 1.  A
        # packed word is bytes, one code per byte, or past 127 states besides "1" a code tuple.
        # The step table: code -> letter -> (image of the letter, reduced packed section there)
        self._codes = {(name, e): 2 * i + (e < 0) for i, name in enumerate(full) for e in (1, -1)}
        self._factors = tuple(self._codes)      # code -> factor
        self._packed, self._buffer = (bytes, bytearray) if len(full) <= 128 else (tuple, list)
        self._table = []
        for perm, sections in full.values():
            inv, sections = pinv(perm), [_reduce_codes(self._pack(w)) for w in sections]
            inverses = [self._packed(c ^ 1 for c in reversed(sections[x])) for x in inv]
            self._table += [tuple(zip(perm, sections)), tuple(zip(inv, inverses))]
        self.generators = tuple(generators) if generators is not None else tuple(
            n for n in rules if n != IDENTITY)
        self._trivial = set()
        self._nontrivial = set()
        self.affine = None      # a certified padic.AffineModel, set by its owner

    def _pack(self, w):
        """The packed factor tuple w; `itemgetter` reads the codes in C, twice as fast as `map`."""
        c = self._codes
        return self._packed(itemgetter(*w)(c) if len(w) > 1 else (c[w[0]],) if w else ())

    def _unpack(self, packed):
        """The factor tuple of a packed word, read through `itemgetter` as `_pack` packs."""
        f = self._factors
        return itemgetter(*packed)(f) if len(packed) > 1 else (f[packed[0]],) if packed else ()

    @property
    def states(self):
        return tuple(self._rules)

    def rule(self, state):
        return self._rules[state]

    def extend(self, rules):
        """New automaton with extra states on top of the existing ones.

        Existing words remain valid over the result; used e.g. to adjoin
        first-level tuples like (1,a) that are not words in the generators.
        """
        merged = {n: r for n, r in self._rules.items() if n != IDENTITY}
        for name, rule in rules.items():
            if name in merged:
                raise WreathSpecError(f"state {name} already exists")
            merged[name] = rule
        return MealyAutomaton(self.size, merged, generators=self.generators)

    # -- words ------------------------------------------------------------

    def reduce(self, word):
        """Free reduction of a word: identity factors dropped, s^e s^-e cancelled."""
        return self._unpack(_reduce_codes(self._pack(word)))

    def element(self, word):
        """TreeAutomorphism from a word (iterable of factors) or text."""
        if isinstance(word, str):
            from .words import parse_group_word
            return parse_group_word(word, self)
        return TreeAutomorphism(self, self.reduce(word))

    def state(self, name):
        if name == IDENTITY:
            return self.identity()
        if name not in self._rules:
            raise WreathSpecError(f"unknown state {name}")
        return TreeAutomorphism(self, ((name, 1),))

    def identity(self):
        return TreeAutomorphism(self, ())

    def generator_elements(self):
        return {name: self.state(name) for name in self.generators}

    # -- action -----------------------------------------------------------

    def step(self, word, x):
        """(image of the letter x, packed section of word at x) for a packed word.

        The factors are applied in order; the sections they pass through,
        freely reduced, form the word that acts below x.  Free reduction
        commutes with sectioning, so reducing once gives the reduced
        section.  The table holds the sections of states reduced, so a
        section of at most one factor needs no reduction.
        """
        table = self._table
        if len(word) == 1:
            return table[word[0]][x]
        below = self._buffer()
        for c in word:
            x, section = table[c][x]
            below += section
        return x, (_reduce_codes(self._packed(below)) if len(below) > 1 else self._packed(below))

    def split(self, word):
        """First-level decomposition: (root permutation, section at each letter)."""
        images, sections = zip(*(self.step(self._pack(word), x) for x in range(self.size)))
        return images, tuple(map(self._unpack, sections))

    def walk(self, word, v):
        """(image of v, reduced section of word at v), one level at a time; see `_walk`."""
        image, section = self._walk(_reduce_codes(self._pack(word)), v)
        return image, self._unpack(section)

    def _walk(self, word, v):
        """`walk` on a packed word, with a packed section.

        Each level is one `step`, written out inline: a call per level
        costs more than a one-factor word's table lookup.  Once the section
        is the empty word the rest of v is fixed.  Iterative: the depth of
        v costs no stack.
        """
        table, packed, buffer = self._table, self._packed, self._buffer
        image = []
        for x in v:
            if len(word) == 1:
                x, word = table[word[0]][x]
            elif word:
                below = buffer()
                for c in word:
                    x, section = table[c][x]
                    below += section
                word = _reduce_codes(packed(below)) if len(below) > 1 else packed(below)
            else:
                break
            image.append(x)
        return tuple(image) + tuple(v[len(image):]), word

    def act_word(self, word, v):
        return self._walk(self._pack(word), v)[0]

    def section_word(self, word, v):
        return self.walk(word, v)[1]

    def root_perm(self, word):
        return self.split(word)[0]

    def _levels(self, word, depth):
        """The sections of a packed word on levels 0..depth (refused past `check_points`), each
        distinct one stepped once: yields per level the section id at each vertex in lexicographic
        order, `turns` (id -> images of the letters) and `words` (id -> packed section)."""
        check_points(self.size, depth)
        ids, turns, below, sections = {word: 0}, [], [], [0]
        for level in range(depth + 1):
            if level:
                sections = [t for s in sections for t in below[s]]
            words = list(ids)
            for w in words[len(turns):]:
                ys, subs = zip(*(self.step(w, x) for x in range(self.size)))
                turns.append(ys)
                below.append([ids.setdefault(s, len(ids)) for s in subs])
            yield sections, turns, words

    # -- the word problem ---------------------------------------------------

    def word_is_trivial(self, word):
        """Exact triviality via memoized closure over section words.

        The word is packed (see `__init__`) and reduced by `_reduce_codes`.
        With `self.affine`, a certified `padic.AffineModel` (None by default,
        not kept by `extend`), it is trivial iff its factors' maps compose to
        x -> x.  Otherwise it is trivial iff every word in its section
        closure fixes the first level.  A visited word costs one
        step-table lookup per factor per letter, which gives the letter's
        image and the packed section below it; the first moved letter ends
        the search with "nontrivial".  The memos hold packed words.  When all
        sections of states are single states, a section of a k-factor word
        has at most k factors, so the closure is finite and the search
        terminates.  Word-valued sections (x=(x*x,1)(1,2)) can make the
        closure infinite; no budget bounds the search yet.
        """
        return self._is_trivial(_reduce_codes(self._pack(word)))

    def _is_trivial(self, word):
        """`word_is_trivial` on a reduced packed word: chains inside the library pass packed
        words, and only public methods pack or unpack (the affine model reads it unpacked)."""
        if self.affine is not None:
            return self.affine.is_identity(self._unpack(word))
        if not word or word in self._trivial:
            return True
        if word in self._nontrivial:
            return False
        seen = set()
        stack = [word]
        while stack:
            w = stack.pop()
            if not w or w in seen or w in self._trivial:
                continue
            sections = None if w in self._nontrivial else self._sections_if_fixed(w)
            if sections is None:
                # w lies in the section closure of `word`, so `word` moves
                # some vertex as well
                self._nontrivial.update((w, word))
                return False
            seen.add(w)
            stack += sections
        self._trivial.update(seen)
        return True

    def _sections_if_fixed(self, word):
        """The packed sections of a packed word at the letters 0..d-1, or None if it moves one.
        Each letter is one `step`, written out inline on the word problem's hottest loop."""
        table, packed = self._table, self._packed
        sections = []
        for x in range(self.size):
            y = x
            below = self._buffer()
            for c in word:
                y, section = table[c][y]
                below += section
            if y != x:
                return None
            sections.append(_reduce_codes(packed(below)) if len(below) > 1 else packed(below))
        return sections


def fmt_word(word):
    """Word as text, runs collapsed into powers; the empty word is '1'."""
    if not word:
        return IDENTITY
    runs = []
    for s, e in word:
        if runs and runs[-1][0] == s and (runs[-1][1] > 0) == (e > 0):
            runs[-1][1] += e
        else:
            runs.append([s, e])
    parts = []
    for s, e in runs:
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# elements

@dataclass(frozen=True)
class TreeAutomorphism:
    """A formal product of automaton states acting on the rooted tree.

    `word` is freely reduced (`MealyAutomaton.element` reduces its input),
    so a product cancels only at the seam of the two words.
    """

    automaton: MealyAutomaton
    word: Word

    def __mul__(self, other):
        if other.automaton is not self.automaton:
            raise ValueError(
                "elements live over different automata; rebuild both words over "
                "one recursion (extend() can adjoin the missing states)")
        return TreeAutomorphism(self.automaton, reduced_product(self.word, other.word))

    def inverse(self):
        return TreeAutomorphism(self.automaton, invert_word(self.word))

    def __pow__(self, n):
        return power_by_squaring(self, n, self.automaton.identity(),
                                 TreeAutomorphism.__mul__, TreeAutomorphism.inverse)

    def act(self, v):
        if isinstance(v, str):
            v = parse_vertex(v)
        if v and (min(v) < 0 or max(v) >= self.automaton.size):
            raise ValueError(f"vertex {v} has letters outside the alphabet")
        return self.automaton._walk(self.automaton._pack(self.word), tuple(v))[0]

    def section(self, v):
        if isinstance(v, str):
            v = parse_vertex(v)
        aut = self.automaton     # the word is reduced, so `walk`'s reduction is not needed
        return TreeAutomorphism(aut, aut._unpack(aut._walk(aut._pack(self.word), tuple(v))[1]))

    def is_trivial(self):
        return self.automaton.word_is_trivial(self.word)

    def same_action(self, other):
        """Exact group equality, decided on the quotient."""
        return (self * other.inverse()).is_trivial()

    def __repr__(self):
        return f"<{fmt_word(self.word)}>"

    def __str__(self):
        return fmt_word(self.word)


# ---------------------------------------------------------------------------
# wreath-recursion parsing

def _split_top(text, sep=","):
    """Split on sep at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise WreathSpecError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise WreathSpecError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_perm_part(text, d):
    """Trailing permutation: GAP-style 1-based cycles or a 0-based image list."""
    text = text.strip()
    if not text:
        return identity_perm(d)
    if text.startswith("["):
        if not text.endswith("]"):
            raise WreathSpecError(f"bad image notation {text!r}")
        images = [int(t) for t in _split_top(text[1:-1]) if t.strip()]
        return perm_from_images(images, d)
    cycles = []
    rest = text
    while rest:
        if not rest.startswith("("):
            raise WreathSpecError(f"bad permutation part {text!r}")
        close = rest.index(")")
        inner = rest[1:close].strip()
        if inner:
            cycles.append([int(t) for t in inner.split(",")])
        rest = rest[close + 1:].strip()
    return perm_from_cycles(cycles, d)


def parse_wreath_spec(text, alphabet=None):
    """Build an automaton from text like "a=(1,1)(1,2),b=(a,c),c=(1,b),d=(a,d)".

    Each entry is name=(s_0,...,s_{d-1})pi with section entries that are
    state names, inverses s^-1 of state names, or 1, and pi a permutation
    in cycle notation (1-based, as in GAP) or image notation (0-based
    bracket list).  The arity d is read off the entries and must be
    uniform; an explicit alphabet must agree.
    """
    entries = []
    for chunk in _split_top(text.strip()):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise WreathSpecError(f"missing '=' in {chunk!r}")
        name, rhs = chunk.split("=", 1)
        name = name.strip()
        rhs = rhs.strip()
        if not name.isidentifier():
            raise WreathSpecError(f"bad state name {name!r}")
        if not rhs.startswith("("):
            raise WreathSpecError(f"state {name}: expected '(' after '='")
        close = _matching_paren(rhs)
        section_names = [t.strip() for t in _split_top(rhs[1:close])]
        entries.append((name, section_names, rhs[close + 1:]))
    if not entries:
        raise WreathSpecError("empty wreath specification")

    d = len(entries[0][1])
    if alphabet is not None and alphabet != d:
        raise WreathSpecError(f"entries have arity {d}, alphabet has size {alphabet}")
    names = {name for name, _, _ in entries}
    if len(names) != len(entries):
        raise WreathSpecError("duplicate state names")

    rules = {}
    for name, section_names, perm_part in entries:
        if len(section_names) != d:
            raise WreathSpecError(f"state {name}: expected {d} sections, got {len(section_names)}")
        sections = []
        for s in section_names:
            if s == IDENTITY:
                sections.append(())
            elif s in names:
                sections.append(((s, 1),))
            elif s.endswith("^-1") and s[:-3] in names:
                sections.append(((s[:-3], -1),))
            else:
                raise WreathSpecError(f"state {name} references unknown name {s!r}")
        rules[name] = (_parse_perm_part(perm_part, d), tuple(sections))
    return MealyAutomaton(d, rules, generators=[name for name, _, _ in entries])


def _matching_paren(text):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i
    raise WreathSpecError(f"unbalanced '(' in {text!r}")


def parse_tuple_automorphism(text, automaton):
    """First-level tuple like "(1,a)" or "(a*c,1)(1,2)" over existing states.

    Adjoins one new state, the first free name q0, q1, ..., to (a copy of)
    the automaton and returns its TreeAutomorphism together with the
    extended automaton.  Section entries may be arbitrary words in the
    existing states.
    """
    from .words import parse_word_factors
    text = text.strip()
    if not text.startswith("("):
        raise WreathSpecError(f"expected '(' in {text!r}")
    close = _matching_paren(text)
    d = automaton.size
    section_texts = _split_top(text[1:close])
    if len(section_texts) != d:
        raise WreathSpecError(f"expected {d} sections, got {len(section_texts)}")
    known = set(automaton.states)
    sections = tuple(parse_word_factors(t, known) for t in section_texts)
    perm = _parse_perm_part(text[close + 1:], d)
    k = 0
    while f"q{k}" in known:
        k += 1
    name = f"q{k}"
    ext = automaton.extend({name: (perm, sections)})
    return ext.state(name), ext


def parse_elements(texts, automaton):
    """Words or first-level tuples like (1,a)(1,2), each tuple adjoining a state.

    A text is a tuple when its first bracket group holds a top-level comma:
    a tuple has d >= 2 sections, and a bracketed word like (ad)^2 has none.
    Returns the elements over the last extended automaton, together with it;
    extending keeps the earlier words valid, so all of them act on one tree.
    """
    words = []
    for text in texts:
        head = text.strip()
        if head.startswith("(") and len(_split_top(head[1:_matching_paren(head)])) > 1:
            element, automaton = parse_tuple_automorphism(text, automaton)
        else:
            element = automaton.element(text)
        words.append(element.word)
    return [TreeAutomorphism(automaton, w) for w in words], automaton


# ---------------------------------------------------------------------------
# portraits

def portrait(g, depth):
    """Map vertex -> root permutation of the section there, levels 0..depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    aut, nodes = g.automaton, {}
    for level, (sections, turns, _) in enumerate(aut._levels(aut._pack(g.word), depth)):
        nodes.update(zip(product(range(aut.size), repeat=level), map(turns.__getitem__, sections)))
    return nodes


def match_label(automaton, word, candidates):
    """Name of the first candidate equal to the word ("1" if it is trivial), or None."""
    if automaton.word_is_trivial(word):
        return IDENTITY
    for name, cand in candidates.items():
        if automaton.word_is_trivial(word + invert_word(cand.word)):
            return name
    return None


def label_portrait(g, depth, candidates):
    """Canonical section labels: vertex -> candidate name, via exact equality.

    `candidates` maps names to TreeAutomorphisms (the identity is always
    tried first).  Unmatched sections are labelled None.  Each distinct
    section is matched once.
    """
    aut, names, labels = g.automaton, {}, {}
    for level, (sections, _, words) in enumerate(aut._levels(aut._pack(g.word), depth)):
        names.update({s: match_label(aut, aut._unpack(words[s]), candidates)
                      for s in dict.fromkeys(sections) if s not in names})
        labels.update(zip(product(range(aut.size), repeat=level), map(names.__getitem__, sections)))
    return labels


def portrait_json(nodes, labels=None):
    """Portrait as a JSON string; nodes sorted by (level, vertex)."""
    out = []
    for v in sorted(nodes, key=lambda v: (len(v), v)):
        rec = {"vertex": fmt_vertex(v), "perm": list(nodes[v])}
        if labels is not None:
            rec["section"] = labels.get(v)
        out.append(rec)
    return json.dumps(out, indent=2)


def portrait_dot(nodes, labels=None):
    """Portrait as DOT text: stable node order, fixed attribute order."""
    lines = ["digraph portrait {", "  node [shape=circle];"]
    for v in sorted(nodes, key=lambda v: (len(v), v)):
        name = fmt_vertex(v) or "root"
        label = fmt_perm(nodes[v])
        if labels is not None and labels.get(v) is not None:
            label = f"{labels[v]} {label}"
        lines.append(f'  "{name}" [label="{label}"];')
    for v in sorted(nodes, key=lambda v: (len(v), v)):
        if v == ():
            continue
        parent = fmt_vertex(v[:-1]) or "root"
        lines.append(f'  "{parent}" -> "{fmt_vertex(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
