"""Parser for group-word expressions.

Accepts the notation used throughout: juxtaposition or '*' for products
("aca", "a*c*a"), integer powers ("(ad)^4", "a^-1"), conjugation by a
group expression ("x^(s^3)", "b^a" meaning a^-1*b*a), and commutators
("[b,b^a]" meaning b^-1*(b^a)^-1*b*b^a).  An identifier that is not a
known name but whose characters all are known single-letter names is
split into letters, so "adacac" works without separators.

The grammar is evaluated over pluggable group operations, which lets the
same parser build tree words, HNN-extension elements, and lamplighter
elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import IDENTITY, TreeAutomorphism, free_reduce, invert_word

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[*^()\[\],]))")


class WordSyntaxError(ValueError):
    pass


@dataclass
class GroupOps:
    """The operations a backend must provide."""

    identity: object
    atom: callable      # name -> element
    mul: callable
    inv: callable

    def power(self, x, n):
        if n < 0:
            return self.power(self.inv(x), -n)
        out = self.identity
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def conjugate(self, x, y):
        return self.mul(self.mul(self.inv(y), x), y)

    def commutator(self, x, y):
        return self.mul(self.mul(self.mul(self.inv(x), self.inv(y)), x), y)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise WordSyntaxError(f"cannot tokenize {text[pos:]!r} (column {pos + 1})")
            break
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("punct", m.group("punct")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, ops, names):
        self.tokens = tokens
        self.pos = 0
        self.ops = ops
        self.names = names

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, punct):
        kind, val = self.take()
        if kind != "punct" or val != punct:
            raise WordSyntaxError(f"expected {punct!r}, found {val!r}")

    def parse_word(self, stop=()):
        out = self.ops.identity
        while True:
            kind, val = self.peek()
            if kind is None or (kind == "punct" and val in stop):
                return out
            if kind == "punct" and val == "*":
                self.take()
                continue
            out = self.ops.mul(out, self.parse_factor())

    def parse_factor(self):
        x = self.parse_primary()
        while True:
            kind, val = self.peek()
            if kind == "punct" and val == "^":
                self.take()
                kind2, val2 = self.peek()
                if kind2 == "int":
                    self.take()
                    x = self.ops.power(x, val2)
                else:
                    x = self.ops.conjugate(x, self.parse_primary())
            else:
                return x

    def parse_primary(self):
        kind, val = self.take()
        if kind == "name":
            return self.resolve(val)
        if kind == "int" and val == 1:
            # the literal 1 denotes the identity, as in wreath specs
            return self.ops.identity
        if kind == "punct" and val == "(":
            inner = self.parse_word(stop=(")",))
            self.expect(")")
            return inner
        if kind == "punct" and val == "[":
            x = self.parse_word(stop=(",",))
            self.expect(",")
            y = self.parse_word(stop=("]",))
            self.expect("]")
            return self.ops.commutator(x, y)
        raise WordSyntaxError(f"unexpected token {val!r}")

    def resolve(self, name):
        if name in self.names:
            return self.ops.atom(name)
        raise WordSyntaxError(f"unknown generator {name!r}")


def _split_names(tokens, names):
    """Expand unknown identifiers made of known single letters.

    "adacac" becomes six name tokens, so a trailing power binds to the
    last letter only ("at^2" is a*t^2, not (a*t)^2).
    """
    out = []
    for kind, val in tokens:
        if kind == "name" and val not in names and all(c in names for c in val):
            out.extend(("name", c) for c in val)
        else:
            out.append((kind, val))
    return out


def evaluate(text, ops, names):
    """Evaluate a word expression over the given operations."""
    names = set(names)
    parser = _Parser(_split_names(_tokenize(text), names), ops, names)
    out = parser.parse_word()
    if parser.pos != len(parser.tokens):
        raise WordSyntaxError(f"trailing input at token {parser.pos}")
    return out


def parse_word_factors(text, names):
    """Word expression -> reduced tuple of (name, +-1) factors."""
    ops = GroupOps(
        identity=(),
        atom=lambda name: ((name, 1),) if name != IDENTITY else (),
        mul=lambda x, y: free_reduce(x + y),
        inv=invert_word,
    )
    return evaluate(text, ops, set(names) | {IDENTITY})


def parse_group_word(text, automaton):
    """Word expression -> TreeAutomorphism over the automaton's states."""
    factors = parse_word_factors(text, set(automaton.states))
    return TreeAutomorphism(automaton, automaton.reduce(factors))
