"""Named checks with uniform reports.

Each check reproduces one family of computations: a plain function of
its params that returns (report name, status, evidence), the status
being pass/fail/inconclusive.  `CHECKS` holds each check's declared params
(name, kind, default, lower bound), and `run_check` is the one place a check
runs: it rejects undeclared params, converts, defaults and bounds the rest,
times the check and builds its CheckReport.  The command line's `run` flags
are the declared params, passed as text, so a check behaves identically
everywhere; the group-free check `properties` holds
the seeded property suites, where a single counterexample fails.
Outputs are deterministic for fixed parameters: searches use fixed
orders and all sampling is driven by a seeded generator, each bounded int
drawn by `_below` exactly as its choice, randint and randrange would draw it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import catalog as _catalog
from .core import _reduce_codes, fmt_word, invert_word, parse_vertex, reduced_product
from .hnn import (
    LAMBDA,
    HnnElement,
    UnrootedVertex,
    _canonical,
    _canonical_pairs,
    canonical_vertices,
    hnn_inverse,
    hnn_is_trivial,
    hnn_multiply,
    moved_vertex,
    parse_hnn,
    sigma_mismatch,
    theta_apply,
    theta_map,
    transitivity_witness,
    two_transitivity_level_check,
)
from .levels import perm_group_on_level, stabilizer_words
from .lifting import (
    GgsError,
    GgsVector,
    ggs_lifting,
    check_lifting,
    self_replicating_witnesses,
    verify_endomorphism_by_quotient_separation,
    verify_endomorphism_by_relators,
)
from .padic import BoundaryPoint, boundary_distance

DEFAULT_SEED = 20240 + 1


@dataclass
class CheckReport:
    check: str
    status: str                  # "pass" | "fail" | "inconclusive"
    evidence: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self):
        return self.status == "pass"

    def exit_code(self):
        return {"pass": 0, "fail": 1, "inconclusive": 2}[self.status]

    def to_json(self):
        return json.dumps({
            "check": self.check,
            "status": self.status,
            "evidence": self.evidence,
            "seconds": round(self.seconds, 4),
        }, indent=2, default=str)

    def text(self):
        lines = [f"{self.check}: {self.status.upper()} ({self.seconds:.2f}s)"]
        for key in sorted(self.evidence):
            lines.append(f"  {key}: {self.evidence[key]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# declared params, and the one place a check runs

INTS = "ints"          # the kind of a comma list of ints, such as ggs --e 1,-1
REQUIRED = object()    # the default of a param that must be given


class Param(NamedTuple):
    """A param a check reads: `kind` is int, str or INTS; a default of None means the
    check derives the value or goes without it; `low`, an int or an earlier param's
    name, is the least value that leaves the check's range nonempty."""
    name: str
    kind: object = str
    default: object = None
    low: object = None


def flag(name):
    """The command-line flag of a param: n_min is --n-min."""
    return "--" + name.replace("_", "-")


def _to_int(name, value):
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{flag(name)}: {value!r} is not an integer") from None


def _resolve(check_id, declared, params):
    """Every declared param converted, defaulted and bounded; any other is a usage error."""
    for key in params:
        if key not in {p.name for p in declared}:
            raise ValueError(f"{check_id} does not take {flag(key)}")
    resolved = {}
    for name, kind, default, low in declared:
        value = params.get(name)
        if value is None:
            if default is REQUIRED:
                raise ValueError(f"{flag(name)} is required")
            value = default
        elif kind is int:
            value = _to_int(name, value)
        elif kind == INTS:
            value = tuple(_to_int(name, x) for x in str(value).split(","))
        else:
            value = str(value)
        low = resolved[low] if isinstance(low, str) else low
        if low is not None and value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        resolved[name] = value
    return resolved


CHECKS = {}   # check id -> (check, its declared params), filled in by `declare`
ENTRY = (Param("group"), Param("spec"))   # a catalog group or a spec file names the entry


def declare(check_id, *declared):
    """Register the decorated check under `check_id` with the params it reads."""
    def register(check):
        CHECKS[check_id] = (check, declared)
        return check
    return register


def run_check(check_id, params):
    """The one place a check runs: its params resolved, it timed and its report built."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}; known: {', '.join(sorted(CHECKS))}")
    check, declared = CHECKS[check_id]
    resolved = _resolve(check_id, declared, params)
    t0 = time.perf_counter()
    name, status, evidence = check(resolved)
    return CheckReport(name, status, evidence, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# individual checks: each returns (report name, status, evidence)

@declare("lifting", *ENTRY, Param("depth", int, 5, 0), Param("sigma"))
def check_lifting_certificate(params):
    """check_lifting plus the entry's endomorphism certificate."""
    entry = _catalog.resolve(params)
    depth, sigma_name = params["depth"], params["sigma"]
    report = f"lifting[{entry.id}]"
    if entry.default_sigma is None and not entry.substitutions:
        return report, "inconclusive", {"liftable": entry.liftable}
    names = [sigma_name] if sigma_name else sorted(entry.substitutions)
    evidence = {}
    for name in names:
        sigma = entry.sigma(name)
        rep = check_lifting(sigma)
        evidence[f"{name}.lifting"] = "pass" if rep.ok else f"fail {rep.failures}"
        if entry.presentation is not None:
            rrep = verify_endomorphism_by_relators(sigma, entry.presentation, depth)
            evidence[f"{name}.relators"] = (
                "pass" if rrep.ok else f"fail {rrep.failures[:4]}")
        if entry.relator_texts is not None:
            aut = entry.automaton
            bad = [label for label, r in entry.relators(depth)
                   if not aut._is_trivial(sigma._power(aut._pack(r), 1))]
            evidence[f"{name}.stated-relators"] = "pass" if not bad else f"fail {bad[:4]}"
        if entry.separation is not None:
            gens, comp, order = _catalog.separation_complement(entry)
            srep = verify_endomorphism_by_quotient_separation(
                gens, comp, order, entry.separation["level"])
            evidence[f"{name}.separation"] = "pass" if srep.ok else "fail"
    return report, ("pass" if all(v == "pass" for v in evidence.values()) else "fail"), evidence


@declare("perm-order", *ENTRY, Param("level", int, REQUIRED), Param("gens"), Param("expect", int))
def check_perm_order(params):
    entry = _catalog.resolve(params)
    level, gen_names, expect = params["level"], params["gens"], params["expect"]
    group = perm_group_on_level(entry.generator_list(gen_names), level)
    evidence = {"order": group.order(), "level": level,
                "gens": gen_names or ",".join(entry.generators)}
    status = "pass"
    if expect is not None:
        evidence["expect"] = expect
        status = "pass" if group.order() == expect else "fail"
    return f"perm-order[{entry.id}]", status, evidence


@declare("stabilizer-of-first-level", *ENTRY, Param("vertex"))
def check_stabilizer_words(params):
    entry = _catalog.resolve(params)
    target = parse_vertex(params["vertex"]) if params["vertex"] else "first-level"
    words = stabilizer_words(entry.elements(), target)
    return f"stabilizer-of-first-level[{entry.id}]", "pass", {
        "count": len(words), "words": [fmt_word(w) for w in words]}


@declare("separation", *ENTRY, Param("level", int))
def check_separation(params):
    entry = _catalog.resolve(params)
    report = f"separation[{entry.id}]"
    if entry.separation is None:
        return report, "inconclusive", {"reason": f"{entry.id} has no separation data"}
    level = entry.separation["level"] if params["level"] is None else params["level"]
    gens, comp, order = _catalog.separation_complement(entry)
    rep = verify_endomorphism_by_quotient_separation(gens, comp, order, level)
    evidence = {
        "level": level,
        "stabilizer_image_order": rep.stabilizer_order,
        "complement_image_order": rep.complement_order,
        "complement_faithful": rep.complement_faithful,
        "intersection_trivial": rep.intersection_trivial,
    }
    return report, ("pass" if rep.ok else "fail"), evidence


@declare("hnn-relators", *ENTRY, Param("presentation", str, "all"), Param("depth", int, 3, 0))
def check_hnn_relators(params):
    entry = _catalog.resolve(params)
    which, depth = params["presentation"], params["depth"]
    report = f"hnn-relators[{entry.id}]"
    action = entry.action()
    base = bool(entry.presentation or entry.relator_texts)
    known = ["all", *sorted({*entry.hnn_presentations, *(("base",) if base else ())})]
    if which not in known:
        raise KeyError(f"{entry.id} has no relator suite {which!r}; known: {', '.join(known)}")
    suites = {name: [(r, parse_hnn(r, action)) for r in rels]
              for name, rels in entry.hnn_presentations.items() if which in ("all", name)}
    if base and which in ("all", "base"):
        # base-group relators hold in the extension as well; an element prints as its word
        suites["base"] = [(e, e) for e in (HnnElement(0, r, 0) for _, r in entry.relators(depth))]
    if not suites:
        return report, "inconclusive", {"reason": "no relator suites configured"}
    evidence = {}
    for name, rels in suites.items():
        bad = [str(r) for r, e in rels if not hnn_is_trivial(e, action)]
        evidence[name] = "pass" if not bad else f"fail {bad}"
    return report, ("pass" if all(v == "pass" for v in evidence.values()) else "fail"), evidence


@declare("transitivity", *ENTRY, Param("copies", int, 3, 0), Param("length", int, 3, 0))
def check_transitivity(params):
    entry = _catalog.resolve(params)
    action = entry.action()
    box = list(canonical_vertices(action, params["copies"], params["length"]))
    missing = []
    for v in box:
        e = transitivity_witness(v, action)
        if e is None or theta_apply(e, LAMBDA, action) != v:
            missing.append(str(v))
    return f"transitivity[{entry.id}]", ("inconclusive" if missing else "pass"), {
        "vertices": len(box), "missing": missing}


def two_transitivity_level(d):
    """The default top level: the deepest l <= 6 whose d^l vertices are at most 5^5."""
    return max((l for l in range(1, 7) if d ** l <= 3125), default=1)


@declare("two-transitivity", *ENTRY, Param("level", int, None, 1))
def check_two_transitivity(params):
    entry = _catalog.resolve(params)
    top = params["level"] or two_transitivity_level(entry.automaton.size)
    gens = entry.generator_list()
    results = {l: two_transitivity_level_check(gens, l) for l in range(1, top + 1)}
    ok = all(results.values())
    return f"two-transitivity[{entry.id}]", ("pass" if ok else "fail"), {"levels": results}


@declare("spine", *ENTRY, Param("depth", int, 3, 0))
def check_spine(params):
    """theta(g) acts on T^(m) as sigma^m(g), per generator g: on every window (m, w) with
    m, |w| <= depth it agrees with sigma^m(g) written out (`hnn.sigma_mismatch`).  w = ()
    is the spine vertex at level -m, so theta(G) fixes the end; sigma^m(g) grows like 2^m."""
    entry = _catalog.resolve(params)
    action, depth = entry.action(), params["depth"]
    first = {g: sigma_mismatch(((g, 1),), action, depth, depth) for g in action.generators()}
    bad = {g: str(UnrootedVertex(*window)) for g, window in first.items() if window}
    return f"spine[{entry.id}]", ("pass" if not bad else "fail"), {
        "depth": depth, "mismatches": bad}


@declare("dilation", *ENTRY, Param("element", str, "t"), Param("expect", int))
def check_dilation(params):
    """The exponent n - m by which theta(t^-m g t^n) scales boundary distances, exactly.

    Points at distance d^(1-l) first disagree at position l.  theta(g) acts on each rooted
    copy as the tree automorphism sigma^k(g), which keeps that position, and theta(t)^+-1
    moves every position by one, so theta(t^-m g t^n) moves it by m - n.
    """
    entry = _catalog.resolve(params)
    element, expect = params["element"], params["expect"]
    e = parse_hnn(element, entry.action())
    evidence = {"element": element, "exponent": e.tpos - e.tneg}
    if expect is not None:
        evidence["expect"] = expect
    status = "pass" if expect in (None, e.tpos - e.tneg) else "fail"
    return f"dilation[{entry.id}:{element}]", status, evidence


@declare("stabilizer-projection", *ENTRY, Param("depth", int, 4, 0))
def check_stabilizer_projection(params):
    """The stabilizer of Lambda in theta(G~), on the subtree `depth` levels below Lambda.

    (a) For every generator g, theta(g) fixes Lambda and projects back to g there: on the
    copy T^(0) it agrees with g (`hnn.sigma_mismatch` on copy 0).  (b) For k = 1, 2, 3 and
    every product w of two generators that fixes i^k, t^-k w t^k fixes Lambda, its
    projection is the section word of w at i^k, and multiplying by theta of the
    projection's inverse lands in the kernel of the projection.
    """
    entry = _catalog.resolve(params)
    action, depth = entry.action(), params["depth"]
    aut, names = action.automaton, action.generators()
    generators = {g: sigma_mismatch(((g, 1),), action, 0, depth) is None for g in names}
    sampled, failures = 0, []
    for k in (1, 2, 3):
        spine = (action.letter,) * k
        for word in [((g, 1), (h, 1)) for g in names for h in names]:
            if aut.act_word(word, spine) != spine:
                continue
            e = action.element(word, k, k)
            fixes = theta_apply(e, LAMBDA, action) == LAMBDA
            projection = action.element(aut.section_word(word, spine))
            residual = hnn_multiply(e, hnn_inverse(projection), action)
            sampled += 1
            if not fixes or moved_vertex(residual, action, 0, depth) is not None:
                failures.append(f"t^-{k}*{fmt_word(word)}*t^{k}")
    ok = all(generators.values()) and not failures
    return f"stabilizer-projection[{entry.id}]", ("pass" if ok else "fail"), {
        "generators": generators, "sampled": sampled, "sampled_failures": failures}


@declare("grig-recursions")
def check_grig_recursions(params):
    string_bound, group_bound, alpha_bound = 12, 6, 12
    entry = _catalog.get("grigorchuk")
    aut = entry.automaton
    sigma = entry.sigma()
    word = aut._pack((("a", 1),))
    string_ok, group_ok, alpha_ok = [], [], []
    for n in range(1, max(string_bound, group_bound, alpha_bound) + 1):
        word = sigma._power(word, 1)
        if n <= string_bound:
            string_ok.append(fmt_word(aut._unpack(word)).replace("*", "") == _catalog.grig_P(n))
        if n <= group_bound:
            p_word = tuple((c, 1) for c in _catalog.grig_P(n))
            group_ok.append(aut._is_trivial(_reduce_codes(word + aut._pack(invert_word(p_word)))))
        if n <= alpha_bound:
            sec = aut._walk(word, (0,))[1]
            alpha = _catalog.grig_alpha(n)
            alpha_word = tuple((c, -1) for c in reversed(alpha)) if alpha != "1" else ()
            alpha_ok.append(aut._is_trivial(_reduce_codes(sec + aut._pack(alpha_word))))
    ok = all(string_ok) and all(group_ok) and all(alpha_ok)
    return "grig-recursions", ("pass" if ok else "fail"), {
        "P_n_as_string": f"{sum(string_ok)}/{string_bound}",
        "P_n_in_group": f"{sum(group_ok)}/{group_bound}",
        "alpha_n": f"{sum(alpha_ok)}/{alpha_bound}",
    }


@declare("lamplighter-alpha", Param("bound", int, 10, 0))
def check_lamplighter_alpha(params):
    """alpha^(2^n) lights x's lamps at {0, 2^n} for n <= bound."""
    bound = params["bound"]
    bad = [n for n in range(bound + 1) if _catalog.lamplighter_alpha({0}, 2 ** n) != {0, 2 ** n}]
    return "lamplighter-alpha", ("pass" if not bad else "fail"), {"bound": bound, "bad_n": bad}


@declare("lamplighter-core", Param("n_min", int, 3, 0), Param("n_max", int, 8, "n_min"))
def check_lamplighter_core(params):
    results = {n: _catalog.lamplighter_core_gap_check(n)
               for n in range(params["n_min"], params["n_max"] + 1)}
    return "lamplighter-core", ("pass" if all(results.values()) else "fail"), {
        "spacing": results}


@declare("ggs", Param("p", int, REQUIRED), Param("e", INTS, REQUIRED), Param("j", int))
def check_ggs(params):
    p = params["p"]
    report = f"ggs[p={p}]"
    try:
        vector = GgsVector(p, params["e"], params["j"])
    except GgsError as err:
        return report, "fail", {"rejected": str(err)}
    built = ggs_lifting(vector)
    evidence = {
        "j": built.j, "f": built.f,
        "lifting": "pass" if built.lifting.ok else f"fail {built.lifting.failures}",
        "orders": {k: v for k, v in built.order_certificates.items() if not v} or "all pass",
        "sigma": {n: fmt_word(w) for n, w in built.sigma.images},
    }
    return report, ("pass" if built.ok else "fail"), evidence


@declare("witnesses", *ENTRY, Param("bound", int, 5, 0), Param("sigma"), Param("letter", int))
def check_witnesses(params):
    entry = _catalog.resolve(params)
    sigma = None if entry.default_sigma is None else entry.sigma(params["sigma"])
    letter = params["letter"]
    if letter is None:
        letter = 0 if sigma is None else sigma.letter
    rep = self_replicating_witnesses(entry.elements(), letter,
                                     word_bound=params["bound"], sigma=sigma)
    evidence = {
        "letter": rep.letter,
        "witnesses": {n: (fmt_word(w) if w else None) for n, w in rep.witnesses.items()},
        "source": rep.source,
    }
    return f"witnesses[{entry.id}]", ("pass" if rep.ok else "inconclusive"), evidence


# ---------------------------------------------------------------------------
# the seeded property suites

def _below(bits, n):
    """rng._randbelow(n), the draw under rng.choice and rng.randint, from bits = rng.getrandbits."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_element(automaton, names, bits, max_len):
    return automaton.element([(names[_below(bits, len(names))], (1, -1)[_below(bits, 2)])
                              for _ in range(_below(bits, max_len + 1))])


def _random_hnn(action, names, powers, bits, max_len):
    """A random word over `names` (the generators, t and T) in normal form t^-m w t^n.

    Each letter s^e is kept with its height h, the t's less the T's drawn before it; m is
    minus the lowest height, n the last height plus m, and w the reduced product of the
    sigma^(h+m)(s^e), read from `powers`, the caller's table keyed (s, e, h+m).  Drawn by
    `_below` from bits = rng.getrandbits: rng.randint(1, max_len), then per letter
    rng.choice(names) and, for a generator, rng.choice((1, -1))."""
    letters, height, low = [], 0, 0
    for _ in range(1 + _below(bits, max_len)):
        sym = names[_below(bits, len(names))]
        if sym == "t":
            height += 1
        elif sym == "T":
            height -= 1
            low = min(low, height)
        else:
            letters.append((sym, (1, -1)[_below(bits, 2)], height))
    word = ()
    for s, e, h in letters:
        key = s, e, h - low
        power = powers.get(key) or powers.setdefault(key, action.sigma_word(((s, e),), h - low))
        word = reduced_product(word, power) if word else power
    return HnnElement(-low, word, height - low)


def _escalation_stop(d):
    """The deepest b whose box (b, b) over d letters, of (d^(b+1) - 1)/(d - 1)
    + b d^b canonical vertices, is no larger than the binary box (16, 16)."""
    size = [(d ** (b + 1) - 1) // (d - 1) + b * d ** b for b in range(17)]
    return max(b for b in range(17) if size[b] <= 2 ** 17 - 1 + 16 * 2 ** 16)


@declare("properties")
def check_properties(params):
    """Algebra laws, ultrametric, theta homomorphism, triviality agreement."""
    bits = random.Random(DEFAULT_SEED).getrandbits
    evidence = {}   # every suite's bool; one False fails the check

    # tree-core algebra laws on every catalog group
    for entry in _catalog.entries_with_sigma():
        aut = entry.automaton
        names = list(entry.generators)
        good = True
        for _ in range(60):
            g = _random_element(aut, names, bits, 6)
            h = _random_element(aut, names, bits, 6)
            level = 1 + _below(bits, 6)
            v = tuple(_below(bits, aut.size) for _ in range(level))
            gh, gv = g * h, g.act(v)
            good &= gh.act(v) == h.act(gv)
            good &= gh.section(v).same_action(g.section(v) * h.section(gv))
            good &= g.inverse().inverse().act(v) == gv
            good &= (g * g.inverse()).is_trivial()
        evidence[f"{entry.id}.algebra"] = good

    # ultrametric inequality at the exponent level, on binary windows: the
    # distance d^(-l+1) is monotone decreasing in l
    good = True
    for _ in range(300):
        x, y, z = (BoundaryPoint(_below(bits, 8) - 6, tuple(_below(bits, 2) for _ in range(10)),
                                 2, 0) for _ in range(3))
        lxz, lxy, lyz = boundary_distance(x, z), boundary_distance(x, y), boundary_distance(y, z)
        good &= None in (lxz, lxy, lyz) or lxz >= min(lxy, lyz)
    evidence["ultrametric"] = good

    # theta is a homomorphism (sampled), and triviality agrees with the action
    for entry in _catalog.entries_with_sigma():
        action = entry.action()
        names, powers = list(action.generators()) + ["t", "T"], {}
        w_max = 4 if action.automaton.size == 2 else 2
        vertices = list(_canonical_pairs(action, 4, w_max))
        hom_good = True
        for _ in range(100):
            e1 = _random_hnn(action, names, powers, bits, 6)
            e2 = _random_hnn(action, names, powers, bits, 6)
            m, w = vertices[_below(bits, len(vertices))]
            both = theta_map(hnn_multiply(e1, e2, action), action)(1 - m, w)
            each = theta_map(e2, action)(*theta_map(e1, action)(1 - m, w))
            hom_good &= _canonical(*both, action.letter) == _canonical(*each, action.letter)
        evidence[f"{entry.id}.theta-hom"] = hom_good

        agree = True
        deeper = [(b, b) for b in range(w_max + 1, _escalation_stop(action.automaton.size) + 1)]
        for k in range(500):
            e = _random_hnn(action, names, powers, bits, 10)
            if k % 7 == 0:
                # fold in elements that are trivial by construction
                e = hnn_multiply(e, hnn_inverse(e), action)
            decided = hnn_is_trivial(e, action)
            # trivial iff quiet on the window; a nontrivial element may move
            # only deeper vertices (a^4 in the Basilica group first moves
            # level 5), so its search escalates through the boxes beyond
            boxes = [(4, w_max)] + ([] if decided else deeper)
            agree &= decided == all(moved_vertex(e, action, *box) is None for box in boxes)
        evidence[f"{entry.id}.triviality-agreement"] = agree

    return "properties", ("pass" if all(evidence.values()) else "fail"), evidence
