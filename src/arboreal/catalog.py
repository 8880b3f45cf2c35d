"""Built-in wreath recursions, liftings, and presentations.

Every group, substitution, and closed-form fact used by the checks lives
here as data: the Grigorchuk group G (sigma into the stabilizer of 1),
the Basilica group, IMG(z^2+i), the lamplighter group with both liftings,
BS(1,3), the Gupta-Sidki p-groups for p in {5, 7} via the GGS builder,
and Erschler's group G_(01)^inf certified through the finite-quotient
separation argument.  The Gupta-Sidki 3-group is stored as a first-class
negative entry: its liftability is unknown and it carries no sigma.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .core import fmt_word, parse_tuple_automorphism, parse_wreath_spec
from .hnn import ScaleAction
from .lifting import GgsVector, LPresentation, Substitution, ggs_lifting
from .words import GroupOps, evaluate


@dataclass
class CatalogEntry:
    id: str
    note: str
    wreath_spec: str
    automaton: object
    substitutions: dict = field(default_factory=dict)   # name -> Substitution
    default_sigma: str | None = None
    presentation: LPresentation | None = None
    relator_texts: object = None    # callable N -> list of relator strings
    hnn_presentations: dict = field(default_factory=dict)  # name -> list of HNN words
    liftable: str = "yes"           # "yes" | "unknown"
    aliases: tuple = ()
    separation: dict | None = None  # config for the quotient-separation certificate
    _actions: dict = field(default_factory=dict, repr=False)

    @property
    def generators(self):
        return self.automaton.generators

    def elements(self):
        return self.automaton.generator_elements()

    def element(self, text):
        return self.automaton.element(text)

    def sigma(self, name=None):
        name = name or self.default_sigma
        if name is None or name not in self.substitutions:
            raise KeyError(f"{self.id} has no substitution {name!r}")
        return self.substitutions[name]

    def action(self, name=None):
        name = name or self.default_sigma
        if name not in self._actions:
            self._actions[name] = ScaleAction(self.automaton, self.sigma(name))
        return self._actions[name]

    def relators(self, depth):
        """All relator words the entry certifies against, up to the bound."""
        out = []
        if self.presentation is not None:
            out.extend(self.presentation.relators(depth))
        if self.relator_texts is not None:
            known = set(self.automaton.states)
            from .words import parse_word_factors
            for text in self.relator_texts(depth):
                out.append((text, parse_word_factors(text, known)))
        return out

    def to_json_dict(self):
        return {
            "id": self.id,
            "note": self.note,
            "alphabet": self.automaton.size,
            "wreath": self.wreath_spec,
            "generators": list(self.generators),
            "liftable": self.liftable,
            "substitutions": {
                name: {"letter": sub.letter,
                       "images": {n: fmt_word(w) for n, w in sub.images}}
                for name, sub in self.substitutions.items()
            },
            "default_sigma": self.default_sigma,
        }


def _entry(id, note, spec, sigmas=None, default=None, presentation=None,
           relator_texts=None, hnn_presentations=None, liftable="yes",
           aliases=(), separation=None):
    automaton = parse_wreath_spec(spec)
    subs = {}
    for name, (images, letter) in (sigmas or {}).items():
        subs[name] = Substitution.parse(automaton, images, letter)
    pres = None
    if presentation is not None:
        pres = LPresentation.parse(
            automaton, automaton.generators,
            fixed=presentation.get("fixed", ()),
            iterated=presentation.get("iterated", ()),
            phi=Substitution.parse(automaton, presentation["phi"]) if "phi" in presentation else None,
        )
    return CatalogEntry(
        id=id, note=note, wreath_spec=spec, automaton=automaton,
        substitutions=subs, default_sigma=default, presentation=pres,
        relator_texts=relator_texts, hnn_presentations=dict(hnn_presentations or {}),
        liftable=liftable, aliases=tuple(aliases), separation=separation,
    )


def _lamplighter_relators(n):
    out = ["(a^-1*b)^2"]
    for k in range(1, n + 1):
        out.append(f"[a^-1*b,(a^-1*b)^(b^{k})]")
    return out


def _bs13_relators(_):
    return ["c*(a*b^-1*a)^-1", "(b*a*b^-1)*(a*b^-1*a*b^-1*a)^-1"]


@lru_cache(maxsize=1)
def _build():
    entries = [
        _entry(
            "grigorchuk",
            "the first Grigorchuk group; lifting into the stabilizer of 1",
            "a=(1,1)(1,2),b=(a,c),c=(a,d),d=(1,b)",
            sigmas={"sigma": ({"a": "a*c*a", "b": "d", "c": "b", "d": "c"}, 1)},
            default="sigma",
            presentation={
                "fixed": ["a^2", "b^2", "c^2", "d^2", "b*c*d"],
                "iterated": ["(a*d)^4", "(a*d*a*c*a*c)^4"],
                "phi": {"a": "a*c*a", "b": "d", "c": "b", "d": "c"},
            },
            hnn_presentations={
                # the HNN presentation: base relators plus t s t^-1 sigma(s)^-1
                "full": ["a^2", "b^2", "c^2", "d^2", "bcd", "(ad)^4", "(adacac)^4",
                         "t*a*T*(aca)^-1", "t*b*T*d^-1", "t*c*T*b^-1", "t*d*T*c^-1"],
                # the 2-generator, 4-relator presentation, transported into the
                # right-action convention (words from the left-action source are
                # reversed; three of the four are rotation-invariant under that)
                "short": ["a^2", "TataTatataTatataTaT", "(ataT)^8",
                          "(ataTat^2aTataT^2)^4"],
            },
            aliases=("G", "grig"),
        ),
        _entry(
            "basilica",
            "the Basilica group",
            "a=(b,1)(1,2),b=(a,1)",
            sigmas={"sigma": ({"a": "b", "b": "a^2"}, 0)},
            default="sigma",
            presentation={
                "iterated": ["[b,b^a]"],
                "phi": {"a": "b", "b": "a^2"},
            },
            hnn_presentations={
                "t-relators": ["t*a*T*b^-1", "t*b*T*a^-2"],
            },
            aliases=("B",),
        ),
        _entry(
            "img_z2i",
            "the iterated monodromy group of z^2+i",
            "a=(1,1)(1,2),b=(a,c),c=(b,1)",
            sigmas={"sigma": ({"a": "b", "b": "c", "c": "a*b*a"}, 0)},
            default="sigma",
            presentation={
                "iterated": ["a^2", "(a*c)^4", "[c,a*b]^2", "[c,b*a*b]^2",
                             "[c,a*b*a*b*a]^2", "[c,a*b*a*b*a*b]^2",
                             "[c,b*a*b*a*b*a*b]^2"],
                "phi": {"a": "b", "b": "c", "c": "a*b*a"},
            },
            hnn_presentations={
                "t-relators": ["t*a*T*b^-1", "t*b*T*c^-1", "t*c*T*(aba)^-1"],
            },
            aliases=("img", "img-z2i"),
        ),
        _entry(
            "lamplighter",
            "the lamplighter group Z/2 wr Z; both first-level liftings",
            "a=(a,b)(1,2),b=(a,b)",
            sigmas={
                "sigma0": ({"a": "b", "b": "b^a"}, 0),
                "sigma1": ({"a": "b^a", "b": "b"}, 1),
            },
            default="sigma0",
            relator_texts=_lamplighter_relators,
            aliases=("L", "lamp"),
        ),
        _entry(
            "bs13",
            "the Baumslag-Solitar group BS(1,3) as a self-similar group",
            "a=(c,b)(1,2),b=(a,c),c=(b,a)",
            sigmas={"sigma": ({"a": "b", "b": "c", "c": "b*c^-1*b"}, 0)},
            default="sigma",
            relator_texts=_bs13_relators,
            aliases=("bs(1,3)", "baumslag-solitar"),
        ),
        _entry(
            "g01inf",
            "Erschler's group G_(01)^inf; certified by quotient separation",
            "a=(1,1)(1,2),b=(a,c),c=(1,b),d=(a,d)",
            sigmas={"sigma": ({"a": "a*b*a", "b": "c", "c": "b", "d": "d"}, 1)},
            default="sigma",
            separation={
                "complement": ["(1,a)", "(1,c)"],
                "complement_order": 8,
                "complement_relators": ["a^2", "c^2", "(a*c)^4"],
                "order_witness_gens": ["a", "c"],
                "order_witness_level": 3,
                "level": 4,
            },
            aliases=("erschler", "g_(01)inf"),
        ),
    ]
    catalog = {}
    for entry in entries:
        catalog[entry.id] = entry
    for p in (5, 7):
        catalog[f"gs{p}"] = _gupta_sidki(p)
    catalog["gs3"] = CatalogEntry(
        id="gs3",
        note="the Gupta-Sidki 3-group; liftability unknown, no sigma stored",
        wreath_spec="a=(1,1,1)(1,2,3),b=(a,a^-1,b)",
        automaton=_gs3_automaton(),
        liftable="unknown",
        aliases=("gupta-sidki-3",),
    )
    return catalog


def _gs3_automaton():
    from .core import MealyAutomaton
    return MealyAutomaton(3, {
        "a": ((1, 2, 0), ((), (), ())),
        "b": ((0, 1, 2), ((("a", 1),), (("a", -1),), (("b", 1),))),
    })


def _gupta_sidki(p):
    e = (1, -1) + (0,) * (p - 3)
    built = ggs_lifting(GgsVector(p, e))
    if not built.ok:
        raise RuntimeError(f"Gupta-Sidki p={p} failed its build-time certificate")
    entry = CatalogEntry(
        id=f"gs{p}",
        note=f"the Gupta-Sidki {p}-group as the GGS group with e=(1,-1,0,...)",
        wreath_spec=f"a=({','.join(['1'] * p)})({','.join(str(i + 1) for i in range(p))}),"
                    f"b=(a,a^-1,{','.join(['1'] * (p - 3))},b)",
        automaton=built.automaton,
        substitutions={"sigma": built.sigma},
        default_sigma="sigma",
        aliases=(f"gupta-sidki-{p}",),
    )
    return entry


def catalog():
    return _build()


def get(group_id):
    cat = _build()
    key = group_id.lower()
    if key in cat:
        return cat[key]
    for entry in cat.values():
        if key in (a.lower() for a in entry.aliases):
            return entry
    raise KeyError(f"unknown group {group_id!r}; known: {', '.join(sorted(cat))}")


def entries_with_sigma():
    return [e for e in _build().values() if e.default_sigma is not None]


def catalog_json():
    return json.dumps({k: v.to_json_dict() for k, v in sorted(_build().items())}, indent=2)


def load_spec(path):
    """Ad-hoc entry from a file: a JSON bundle or bare wreath-spec text.

    The JSON schema mirrors the catalog: {"wreath": "...", "substitutions":
    {"sigma": {"letter": 0, "images": {"a": "b", ...}}}, "default_sigma":
    "sigma", "presentation": {"fixed": [...], "iterated": [...], "phi":
    {...}}}; relators use the word grammar ([x,y], x^y, powers).
    """
    with open(path) as fh:
        text = fh.read().strip()
    if not text.startswith("{"):
        automaton = parse_wreath_spec(text)
        return CatalogEntry(id=f"spec:{path}", note="loaded from wreath text",
                            wreath_spec=text, automaton=automaton)
    data = json.loads(text)
    automaton = parse_wreath_spec(data["wreath"])
    subs = {}
    for name, cfg in data.get("substitutions", {}).items():
        subs[name] = Substitution.parse(automaton, cfg["images"], cfg.get("letter"))
    pres = None
    if "presentation" in data:
        p = data["presentation"]
        pres = LPresentation.parse(
            automaton, automaton.generators,
            fixed=p.get("fixed", ()), iterated=p.get("iterated", ()),
            phi=Substitution.parse(automaton, p["phi"]) if "phi" in p else None)
    return CatalogEntry(
        id=data.get("id", f"spec:{path}"),
        note=data.get("note", "loaded from JSON spec"),
        wreath_spec=data["wreath"],
        automaton=automaton,
        substitutions=subs,
        default_sigma=data.get("default_sigma"),
        presentation=pres,
        hnn_presentations=data.get("hnn_presentations", {}),
    )


def separation_complement(entry):
    """The complement subgroup's elements over an extended automaton.

    Returns (gens dict over the extended automaton, complement elements,
    expected order).  Extending the automaton keeps the group's own words
    valid, so both permutation groups live on the same tree.
    """
    cfg = entry.separation
    if cfg is None:
        raise KeyError(f"{entry.id} has no separation configuration")
    automaton = entry.automaton
    complement = []
    for text in cfg["complement"]:
        element, automaton = parse_tuple_automorphism(text, automaton)
        complement.append(element)
    gens = {name: automaton.state(name) for name in entry.generators}
    return gens, complement, cfg["complement_order"]


# ---------------------------------------------------------------------------
# Grigorchuk closed forms

def grig_P(n):
    """The palindrome P_n with P_0 = a, P_{n+1} = P_n q_n P_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    word = "a"
    for k in range(n):
        word = word + _grig_q(k) + word
    return word


def _grig_q(n):
    return ("c", "b", "d")[n % 3]


def grig_alpha(n):
    """Closed form of the section of sigma^n(a) at the vertex 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return "d"
    if n == 2:
        return "dad"
    if n % 3 == 0:
        return "1"
    return "a"


# ---------------------------------------------------------------------------
# the lamplighter in its own coordinates

@dataclass(frozen=True)
class LamplighterElement:
    """(prod of x^(s^n) over the lamp set) * s^shift, lamps stored sorted."""

    lamps: tuple
    shift: int

    @classmethod
    def make(cls, lamps, shift):
        return cls(tuple(sorted(set(lamps))), shift)

    def __mul__(self, other):
        moved = {b - self.shift for b in other.lamps}
        return LamplighterElement.make(set(self.lamps) ^ moved, self.shift + other.shift)

    def inverse(self):
        return LamplighterElement.make({b + self.shift for b in self.lamps}, -self.shift)

    def is_identity(self):
        return not self.lamps and self.shift == 0

    def gap(self):
        """Distance between the extreme lit lamps; 0 with < 2 lamps."""
        if len(self.lamps) < 2:
            return 0
        return self.lamps[-1] - self.lamps[0]

    def __str__(self):
        lamps = ",".join(map(str, self.lamps))
        return f"lamps{{{lamps}}}*s^{self.shift}"


LAMP_IDENTITY = LamplighterElement((), 0)


def lamplighter_x(i=0):
    return LamplighterElement.make({i}, 0)


def lamplighter_s(k=1):
    return LamplighterElement.make((), k)


def lamplighter_word(text):
    """Element from a word over x and s (powers, conjugates, commutators ok)."""
    ops = GroupOps(
        identity=LAMP_IDENTITY,
        atom=lambda name: {"x": lamplighter_x(), "s": lamplighter_s(), "1": LAMP_IDENTITY}[name],
        mul=lambda a, b: a * b,
        inv=lambda a: a.inverse(),
    )
    return evaluate(text, ops, {"x", "s", "1"})


def lamplighter_normal_form(word):
    """Normal form (lamp set, shift) of a word over {x, s}."""
    if isinstance(word, LamplighterElement):
        return word
    return lamplighter_word(word)


def lamplighter_alpha(e, k=1):
    """alpha: x -> x x^s, s -> s, applied k times symbolically.

    A lamp at i becomes lamps at {i, i+1}; iterating k times sends it to
    the mod-2 binomial pattern, with cancellation across the lamp set.
    """
    if k < 0:
        raise ValueError("alpha is not invertible")
    lamps = set(e.lamps)
    for _ in range(k):
        out = set()
        for i in lamps:
            out ^= {i, i + 1}
        lamps = out
    return LamplighterElement.make(lamps, e.shift)


def lamplighter_image_generator(n, i=0):
    """x_{2^n, i} = (x * x^(s^(2^n)))^(s^i): lamps at {i, i + 2^n}."""
    return LamplighterElement.make({i, i + 2 ** n}, 0)


def lamplighter_core_gap_check(n, trials=1000, seed=0):
    """Sampled check of the core lemma's spacing property.

    Random nontrivial words in the generators of alpha^(2^n)(L) (the
    elements x_{2^n, i} and s) lying outside <s> must light two lamps at
    least 2^n apart.  True iff every sample satisfies it.
    """
    import random
    if n > 16:
        raise ValueError("n above 16 is out of the checked range")
    rng = random.Random(seed)
    span = 2 ** n
    count = 0
    while count < trials:
        length = rng.randint(1, 12)
        e = LAMP_IDENTITY
        for _ in range(length):
            if rng.random() < 0.5:
                e = e * lamplighter_image_generator(n, rng.randint(-8, 8))
            else:
                e = e * lamplighter_s(rng.choice((-1, 1)))
        if not e.lamps:
            continue  # inside <s>; outside the lemma's scope
        count += 1
        if e.gap() < span:
            return False
    return True
