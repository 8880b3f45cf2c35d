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

from .core import fmt_word, parse_elements, parse_wreath_spec
from .hnn import ScaleAction
from .lifting import GgsVector, LPresentation, Substitution, ggs_lifting
from .padic import AffineModel


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

    def generator_list(self, text=None):
        """The generators named in comma-separated text; all of them without text."""
        elements = self.elements()
        if not text:
            return list(elements.values())
        names = [n.strip() for n in str(text).split(",")]
        for name in names:
            if name not in elements:
                raise ValueError(f"unknown generator {name!r}; known: {', '.join(elements)}")
        return [elements[n] for n in names]

    def sigma(self, name=None):
        name = name or self.default_sigma
        if name is None:
            raise KeyError(f"{self.id} has no lifting")
        if name not in self.substitutions:
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
            out.extend((t, parse_word_factors(t, known)) for t in self.relator_texts(depth))
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


def _strings(key, value, kind=list):
    """value if it is a list (kind dict: an object) of strings, else a ValueError naming key."""
    texts = value.values() if isinstance(value, dict) else value
    if not (isinstance(value, kind) and all(isinstance(text, str) for text in texts)):
        what = "a list" if kind is list else "an object"
        raise ValueError(f"{key!r} must be {what} of strings, got {value!r}")
    return value


def _entry(id, note, wreath, substitutions=None, default_sigma=None, presentation=None,
           hnn_presentations=None, relator_texts=None, liftable="yes",
           aliases=(), separation=None, affine=None):
    """An entry from the spec-bundle schema that `load_spec` documents; a value
    of the wrong type inside one of its objects is a ValueError naming its key."""
    automaton = parse_wreath_spec(wreath)
    automaton.affine = None if affine is None else AffineModel(automaton, affine)
    subs = {}
    for name, cfg in (substitutions or {}).items():
        key = f"substitutions.{name}"
        if not isinstance(cfg, dict):
            raise ValueError(f"{key!r} must be an object, got {cfg!r}")
        letter = cfg.get("letter")
        if not (letter is None or type(letter) is int and 0 <= letter < automaton.size):
            raise ValueError(f"'{key}.letter' must be null or one of 0..{automaton.size - 1}, "
                             f"got {letter!r}")
        subs[name] = Substitution.parse(automaton, _strings(f"{key}.images", cfg.get("images"),
                                                            dict), letter)
    pres = None
    if presentation is not None:
        phi = presentation.get("phi")
        pres = LPresentation.parse(
            automaton, automaton.generators,
            fixed=_strings("presentation.fixed", presentation.get("fixed", [])),
            iterated=_strings("presentation.iterated", presentation.get("iterated", [])),
            phi=phi if phi is None else _strings("presentation.phi", phi, dict),
        )
    hnn_presentations = {name: _strings(f"hnn_presentations.{name}", rels)
                         for name, rels in (hnn_presentations or {}).items()}
    return CatalogEntry(
        id=id, note=note, wreath_spec=wreath, automaton=automaton,
        substitutions=subs, default_sigma=default_sigma, presentation=pres,
        relator_texts=relator_texts, hnn_presentations=hnn_presentations,
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
def catalog():
    entries = [
        _entry(
            "grigorchuk",
            "the first Grigorchuk group; lifting into the stabilizer of 1",
            "a=(1,1)(1,2),b=(a,c),c=(a,d),d=(1,b)",
            substitutions={"sigma": {"letter": 1, "images": {"a": "a*c*a", "b": "d", "c": "b",
                                                             "d": "c"}}},
            default_sigma="sigma",
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
            substitutions={"sigma": {"letter": 0, "images": {"a": "b", "b": "a^2"}}},
            default_sigma="sigma",
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
            substitutions={"sigma": {"letter": 0, "images": {"a": "b", "b": "c", "c": "a*b*a"}}},
            default_sigma="sigma",
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
            substitutions={
                "sigma0": {"letter": 0, "images": {"a": "b", "b": "b^a"}},
                "sigma1": {"letter": 1, "images": {"a": "b^a", "b": "b"}},
            },
            default_sigma="sigma0",
            relator_texts=_lamplighter_relators,
            aliases=("L", "lamp"),
        ),
        _entry(
            "bs13",
            "the Baumslag-Solitar group BS(1,3) as a self-similar group",
            "a=(c,b)(1,2),b=(a,c),c=(b,a)",
            substitutions={"sigma": {"letter": 0, "images": {"a": "b", "b": "c",
                                                             "c": "b*c^-1*b"}}},
            default_sigma="sigma",
            relator_texts=_bs13_relators,
            affine={"relabel": [[0, 1], [1, 0]],
                    "maps": {"a": ["1/3", "-1/3"], "b": ["1/3", "-2/3"], "c": ["1/3", "0"]}},
            aliases=("bs(1,3)", "baumslag-solitar"),
        ),
        _entry(
            "g01inf",
            "Erschler's group G_(01)^inf; certified by quotient separation",
            "a=(1,1)(1,2),b=(a,c),c=(1,b),d=(a,d)",
            substitutions={"sigma": {"letter": 1, "images": {"a": "a*b*a", "b": "c", "c": "b",
                                                             "d": "d"}}},
            default_sigma="sigma",
            separation={
                "complement": ["(1,a)", "(1,c)"],
                "complement_order": 8,
                "complement_relators": ["a^2", "c^2", "(a*c)^4"],
                "level": 4,
            },
            aliases=("erschler", "g_(01)inf"),
        ),
    ]
    catalog = {entry.id: entry for entry in entries}
    for p in (5, 7):
        catalog[f"gs{p}"] = _gupta_sidki(p)
    catalog["gs3"] = _entry(
        "gs3",
        "the Gupta-Sidki 3-group; liftability unknown, no sigma stored",
        "a=(1,1,1)(1,2,3),b=(a,a^-1,b)",
        liftable="unknown",
        aliases=("gupta-sidki-3",),
    )
    return catalog


def _gupta_sidki(p):
    e = (1, -1) + (0,) * (p - 3)
    built = ggs_lifting(GgsVector(p, e))
    if not built.ok:
        raise RuntimeError(f"Gupta-Sidki p={p} failed its build-time certificate")
    return CatalogEntry(
        id=f"gs{p}",
        note=f"the Gupta-Sidki {p}-group as the GGS group with e=(1,-1,0,...)",
        wreath_spec=f"a=({','.join(['1'] * p)})({','.join(str(i + 1) for i in range(p))}),"
                    f"b=(a,a^-1,{','.join(['1'] * (p - 3))},b)",
        automaton=built.automaton,
        substitutions={"sigma": built.sigma},
        default_sigma="sigma",
        aliases=(f"gupta-sidki-{p}",),
    )


def get(group_id):
    cat = catalog()
    key = group_id.lower()
    if key in cat:
        return cat[key]
    for entry in cat.values():
        if key in (a.lower() for a in entry.aliases):
            return entry
    raise KeyError(f"unknown group {group_id!r}; known: {', '.join(sorted(cat))}")


def entries_with_sigma():
    return [e for e in catalog().values() if e.default_sigma is not None]


def catalog_json():
    return json.dumps({k: v.to_json_dict() for k, v in sorted(catalog().items())}, indent=2)


def load_spec(path):
    """Ad-hoc entry from a file: a JSON bundle or bare wreath-spec text.

    The JSON schema mirrors the catalog: {"wreath": "...", "substitutions":
    {"sigma": {"letter": 0, "images": {"a": "b", ...}}}, "default_sigma":
    "sigma", "presentation": {"fixed": [...], "iterated": [...], "phi":
    {...}}, "affine": {"relabel": [[0, 1], [1, 0]], "maps": {"a": ["1/3",
    "-1/3"], ...}}}; relators use the word grammar ([x,y], x^y, powers).
    """
    with open(path) as fh:
        text = fh.read().strip()
    if not text.startswith("{"):
        return _entry(f"spec:{path}", "loaded from wreath text", text)
    data = json.loads(text)
    for key in ("wreath", "substitutions", "presentation", "hnn_presentations"):
        kind, name = (str, "a string") if key == "wreath" else ((dict, type(None)), "an object")
        if not isinstance(data.get(key), kind):
            raise ValueError(f"spec {path}: {key!r} must be {name}, got {data.get(key)!r}")
    return _entry(data.get("id", f"spec:{path}"), data.get("note", "loaded from JSON spec"),
                  data["wreath"], data.get("substitutions"), data.get("default_sigma"),
                  data.get("presentation"), data.get("hnn_presentations"),
                  affine=data.get("affine"))


def resolve(params):
    """The entry that params names: the spec file params["spec"], else the
    catalog group params["group"]."""
    if params.get("spec"):
        return load_spec(params["spec"])
    if not params.get("group"):
        raise ValueError("name a group with --group or a spec file with --spec")
    return get(params["group"])


def separation_complement(entry):
    """The complement subgroup's elements over an extended automaton.

    Returns (gens dict over the extended automaton, complement elements,
    expected order).  Extending the automaton keeps the group's own words
    valid, so both permutation groups live on the same tree.
    """
    cfg = entry.separation
    if cfg is None:
        raise KeyError(f"{entry.id} has no separation configuration")
    complement, automaton = parse_elements(cfg["complement"], entry.automaton)
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

def lamplighter_alpha(lamps, k=1):
    """alpha^k on the lamp set of an element; alpha: x -> x x^s, s -> s.

    An element is (prod of x^(s^n) over its lamp set) * s^shift, and alpha
    never moves the shift, so it is a map of lamp sets.  A lamp at i becomes
    lamps at {i, i+1}: alpha multiplies the lamp polynomial by 1 + t over
    F_2.  Since (1 + t)^k is the product of 1 + t^(2^j) over the set bits
    j of k, alpha^k costs one symmetric difference per set bit of k.
    """
    if k < 0:
        raise ValueError("alpha is not invertible")
    lamps = frozenset(lamps)
    while k:
        low = k & -k
        lamps ^= {i + low for i in lamps}
        k ^= low
    return lamps


def lamplighter_core_gap_check(n):
    """Decide the core lemma's spacing property at n exactly.

    The lemma: every element of alpha^(2^n)(L) = <alpha^(2^n)(x),
    alpha^(2^n)(s)> outside <s> lights two lamps at least 2^n apart.
    Read a lamp set as a Laurent polynomial over F_2, the lamp at i being
    t^i, and let p_n be the lamps of alpha^(2^n)(x).  True iff p_n spans
    at least 2^n, which proves the lemma at n:

    - alpha fixes s, so the lamps of the subgroup's elements are exactly
      the multiples f*p_n, f in F_2[t, t^-1]: a product XORs shifted lamp
      polynomials, and s only shifts;
    - F_2[t, t^-1] is an integral domain, so the lowest and highest terms
      of f*p are the products of those of f and p, and span(f*p) =
      span(f) + span(p) for nonzero f and p;
    - an element outside <s> has f != 0, so its lamps span at least
      span(p_n), which alpha^(2^n)(x) itself attains.
    """
    if n > 16:
        raise ValueError("n above 16 is out of the checked range")
    lamps = lamplighter_alpha({0}, 2 ** n)
    return max(lamps) - min(lamps) >= 2 ** n
