"""Exact automorphisms of the rooted d-ary tree given by wreath recursions.

Vertices of the tree are tuples of letters 0..d-1; the empty tuple is the
root.  An element is a formal word over the states of a finite wreath
recursion (a Mealy automaton whose transitions may be words, not just
states).  No minimization is performed: exact equality of two elements is
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
from dataclasses import dataclass

IDENTITY = "1"

Vertex = tuple  # tuple of letters
Word = tuple    # tuple of (state, +1|-1) factors
Perm = tuple    # tuple of images


class WreathSpecError(ValueError):
    """Raised for malformed wreath-recursion text or inconsistent rules."""


# ---------------------------------------------------------------------------
# permutations

def identity_perm(d):
    return tuple(range(d))


def pmul(p, q):
    """Product of permutations, p applied first."""
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
# alphabet and vertices

@dataclass(frozen=True)
class Alphabet:
    """Letters 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"alphabet needs at least 2 letters, got {self.size}")

    def __iter__(self):
        return iter(range(self.size))

    def __len__(self):
        return self.size


def parse_vertex(text):
    """Vertex from a digit string; '' is the root."""
    text = text.strip()
    return tuple(int(c) for c in text)


def fmt_vertex(v):
    return "".join(map(str, v))


# ---------------------------------------------------------------------------
# words

def invert_word(word):
    return tuple((s, -e) for s, e in reversed(word))


def free_reduce(factors):
    """Free reduction: drop identity factors, cancel s^e s^-e."""
    out = []
    for f in factors:
        if f[0] == IDENTITY:
            continue
        if out and out[-1][0] == f[0] and out[-1][1] == -f[1]:
            out.pop()
        else:
            out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# the recursion

class MealyAutomaton:
    """A finite wreath recursion over an alphabet.

    `rules` maps a state name to (root permutation, sections), where
    sections is one word per letter.  The identity state "1" (empty
    sections, identity permutation) is always materialized, so "1" in
    specifications parses uniformly.  Section entries that are single
    states make this a classical invertible Mealy automaton; word-valued
    sections cover recursions like the GGS generator b = (a^e1, ..., b).
    """

    def __init__(self, alphabet, rules, generators=None):
        if isinstance(alphabet, int):
            alphabet = Alphabet(alphabet)
        self.alphabet = alphabet
        d = alphabet.size
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
        # state -> exponent -> (images of letters, reduced section entered at each letter)
        self._steps = {}
        for name, (perm, sections) in full.items():
            inv = pinv(perm)
            sections = tuple(free_reduce(w) for w in sections)
            self._steps[name] = {1: (perm, sections),
                                 -1: (inv, tuple(invert_word(sections[y]) for y in inv))}
        self.generators = tuple(generators) if generators is not None else tuple(
            n for n in rules if n != IDENTITY)
        self._trivial = set()
        self._nontrivial = set()

    @property
    def size(self):
        return self.alphabet.size

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
        return MealyAutomaton(self.alphabet, merged, generators=self.generators)

    # -- words ------------------------------------------------------------

    reduce = staticmethod(free_reduce)

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

    def walk(self, word, v):
        """(image of v, section of word at v), one level at a time.

        At each letter the factors of the current word are applied in
        order; the sections they pass through, freely reduced, form the
        word that acts on the next level.  Free reduction commutes with
        sectioning, so reducing once per level gives the reduced section.
        The sections of states are stored reduced, so a section of at most
        one factor needs no reduction; once the section is the empty word
        the rest of v is fixed.  Iterative: the depth of v costs no stack.
        """
        if not v:
            return (), free_reduce(word)
        steps = self._steps
        image = []
        for x in v:
            if not word:
                break
            below = []
            for s, e in word:
                perm, sections = steps[s][e]
                below += sections[x]
                x = perm[x]
            image.append(x)
            word = below if len(below) < 2 else free_reduce(below)
        return tuple(image) + tuple(v[len(image):]), tuple(word)

    def act_word(self, word, v):
        return self.walk(word, v)[0]

    def act_state(self, s, e, v):
        return self.walk(((s, e),), v)[0]

    def section_word(self, word, v):
        return self.walk(word, v)[1]

    def section_state(self, s, e, v):
        return self.walk(((s, e),), v)[1]

    def root_perm(self, word):
        p = identity_perm(self.size)
        for s, e in word:
            p = pmul(p, self._steps[s][e][0])
        return p

    # -- the word problem ---------------------------------------------------

    def word_is_trivial(self, word):
        """Exact triviality via memoized closure over section words.

        A reduced word is trivial iff every word in its section closure has
        trivial root permutation.  When every section of a state is a single
        state, a section of a k-factor word has at most k factors, so the
        closure is finite and the visited-set search terminates.  Word-valued
        sections (x=(x*x,1)(1,2)) can make the closure infinite; no budget
        bounds the search yet.
        """
        word = self.reduce(word)
        if not word:
            return True
        if word in self._trivial:
            return True
        if word in self._nontrivial:
            return False
        ident = identity_perm(self.size)
        seen = set()
        stack = [word]
        while stack:
            w = stack.pop()
            if not w or w in seen or w in self._trivial:
                continue
            if w in self._nontrivial or self.root_perm(w) != ident:
                # w lies in the section closure of `word`, so `word` moves
                # some vertex as well
                self._nontrivial.add(w)
                self._nontrivial.add(word)
                return False
            seen.add(w)
            for x in self.alphabet:
                stack.append(self.section_word(w, (x,)))
        self._trivial.update(seen)
        return True


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
    """A formal product of automaton states acting on the rooted tree."""

    automaton: MealyAutomaton
    word: Word

    def __mul__(self, other):
        if other.automaton is not self.automaton:
            raise ValueError(
                "elements live over different automata; rebuild both words over "
                "one recursion (extend() can adjoin the missing states)")
        return TreeAutomorphism(self.automaton, self.automaton.reduce(self.word + other.word))

    def inverse(self):
        return TreeAutomorphism(self.automaton, invert_word(self.word))

    def __invert__(self):
        return self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.automaton.identity()
        for _ in range(n):
            out = out * self
        return out

    def act(self, v):
        if isinstance(v, str):
            v = parse_vertex(v)
        if any(not 0 <= x < self.automaton.size for x in v):
            raise ValueError(f"vertex {v} has letters outside the alphabet")
        return self.automaton.walk(self.word, tuple(v))[0]

    def __call__(self, v):
        return self.act(v)

    def section(self, v):
        if isinstance(v, str):
            v = parse_vertex(v)
        return TreeAutomorphism(self.automaton, self.automaton.walk(self.word, tuple(v))[1])

    def root_perm(self):
        return self.automaton.root_perm(self.word)

    def first_level(self):
        """First-level decomposition (sections tuple, root permutation)."""
        sections = tuple(self.section((x,)) for x in self.automaton.alphabet)
        return sections, self.root_perm()

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
    state names or 1, and pi a permutation in cycle notation (1-based, as
    in GAP) or image notation (0-based bracket list).  The arity d is read
    off the entries and must be uniform; an explicit alphabet must agree.
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
    if alphabet is not None:
        size = alphabet.size if isinstance(alphabet, Alphabet) else int(alphabet)
        if size != d:
            raise WreathSpecError(f"entries have arity {d}, alphabet has size {size}")
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


def parse_tuple_automorphism(text, automaton, name=None):
    """First-level tuple like "(1,a)" or "(a*c,1)(1,2)" over existing states.

    Adjoins one new state to (a copy of) the automaton and returns its
    TreeAutomorphism together with the extended automaton.  Section entries
    may be arbitrary words in the existing states.
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
    if name is None:
        base = "q"
        k = 0
        while f"{base}{k}" in known:
            k += 1
        name = f"{base}{k}"
    ext = automaton.extend({name: (perm, sections)})
    return ext.state(name), ext


# ---------------------------------------------------------------------------
# portraits

def _sections_by_level(g, depth):
    """(vertex, section word of g there) for levels 0..depth, level by level."""
    aut = g.automaton
    frontier = {(): g.word}
    for level in range(depth + 1):
        if level:
            frontier = {v + (x,): aut.section_word(w, (x,))
                        for v, w in frontier.items() for x in aut.alphabet}
        yield from frontier.items()


def portrait(g, depth):
    """Map vertex -> root permutation of the section there, levels 0..depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return {v: g.automaton.root_perm(w) for v, w in _sections_by_level(g, depth)}


def match_label(automaton, word, candidates):
    """Name of the first candidate equal to the word ("1" if it is trivial), or None."""
    if automaton.word_is_trivial(word):
        return IDENTITY
    for name, cand in candidates.items():
        if automaton.word_is_trivial(automaton.reduce(word + invert_word(cand.word))):
            return name
    return None


def label_portrait(g, depth, candidates):
    """Canonical section labels: vertex -> candidate name, via exact equality.

    `candidates` maps names to TreeAutomorphisms (the identity is always
    tried first).  Unmatched sections are labelled None.
    """
    return {v: match_label(g.automaton, w, candidates) for v, w in _sections_by_level(g, depth)}


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
