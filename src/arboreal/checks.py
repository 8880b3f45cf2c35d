"""Named checks with uniform reports.

Each check reproduces one family of computations: a plain function of
its params that returns (report name, status, evidence), the status
being pass/fail/inconclusive.  `CHECKS` names each check's params, and
`run_check` is the one place a check runs; it rejects other params,
times the check and builds its CheckReport.  The command line
and the acceptance suite are thin layers over this module, so a check
behaves identically everywhere; the group-free check `properties` holds
the seeded property suites, where a single counterexample fails.
Outputs are deterministic for fixed parameters: searches use fixed
orders and all sampling is driven by a seeded generator.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from . import catalog as _catalog
from .core import fmt_word, invert_word, parse_vertex, reduced_product
from .hnn import (
    HnnElement,
    UnrootedVertex,
    _vertex,
    canonical_vertices,
    hnn_inverse,
    hnn_is_trivial,
    hnn_multiply,
    moved_vertex,
    parse_hnn,
    spine_vertex,
    stabilizer_projection_check,
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
from .padic import BoundaryPoint, boundary_distance, dilation_factor_empirical

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


def _integer(key, value):
    """int(value), None for None; a value that is no integer is a usage error naming the flag."""
    try:
        return None if value is None else int(value)
    except ValueError:
        raise ValueError(f"--{key.replace('_', '-')}: {value!r} is not an integer") from None


def _int(params, key, default, low):
    """params[key], or the default, as an int of at least `low`.

    Below `low` the range a check runs over would be empty (or undefined),
    and an empty check must not pass.
    """
    value = _integer(key, params.get(key, default))
    if value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    return value


def _required(params, key):
    """params[key]; without it, a usage error that names the flag."""
    if params.get(key) is None:
        raise ValueError(f"--{key} is required")
    return params[key]


# ---------------------------------------------------------------------------
# individual checks: each returns (report name, status, evidence)

def check_lifting_certificate(params):
    """check_lifting plus the entry's endomorphism certificate."""
    entry = _catalog.resolve(params)
    depth = _int(params, "depth", 5, 0)
    sigma_name = params.get("sigma")
    report = f"lifting[{entry.id}]"
    if entry.default_sigma is None and not entry.substitutions:
        return report, "inconclusive", {"liftable": entry.liftable}
    names = [sigma_name] if sigma_name else sorted(entry.substitutions)
    evidence = {}
    ok = True
    for name in names:
        sigma = entry.sigma(name)
        rep = check_lifting(sigma)
        evidence[f"{name}.lifting"] = "pass" if rep.ok else f"fail {rep.failures}"
        ok &= rep.ok
        if entry.presentation is not None or entry.relator_texts is not None:
            if entry.presentation is not None:
                rrep = verify_endomorphism_by_relators(sigma, entry.presentation, depth)
                evidence[f"{name}.relators"] = (
                    "pass" if rrep.ok else f"fail {rrep.failures[:4]}")
                ok &= rrep.ok
            if entry.relator_texts is not None:
                aut = entry.automaton
                bad = [label for label, r in entry.relators(depth)
                       if not aut.word_is_trivial(sigma.apply_word(r))]
                evidence[f"{name}.stated-relators"] = "pass" if not bad else f"fail {bad[:4]}"
                ok &= not bad
        elif entry.separation is not None:
            gens, comp, order = _catalog.separation_complement(entry)
            srep = verify_endomorphism_by_quotient_separation(
                gens, comp, order, entry.separation["level"])
            evidence[f"{name}.separation"] = "pass" if srep.ok else "fail"
            ok &= srep.ok
    return report, ("pass" if ok else "fail"), evidence


def check_perm_order(params):
    entry = _catalog.resolve(params)
    level = int(_required(params, "level"))
    gen_names = params.get("gens")
    expect = _integer("expect", params.get("expect"))
    group = perm_group_on_level(entry.generator_list(gen_names), level)
    evidence = {"order": group.order(), "level": level,
                "gens": gen_names or ",".join(entry.generators)}
    status = "pass"
    if expect is not None:
        evidence["expect"] = expect
        status = "pass" if group.order() == expect else "fail"
    return f"perm-order[{entry.id}]", status, evidence


def check_stabilizer_words(params):
    entry = _catalog.resolve(params)
    vertex = params.get("vertex")
    target = parse_vertex(str(vertex)) if vertex else "first-level"
    words = stabilizer_words(entry.elements(), target)
    return f"stabilizer-of-first-level[{entry.id}]", "pass", {
        "count": len(words), "words": [fmt_word(w) for w in words]}


def check_separation(params):
    entry = _catalog.resolve(params)
    report = f"separation[{entry.id}]"
    if entry.separation is None:
        return report, "inconclusive", {"reason": f"{entry.id} has no separation data"}
    level = int(params.get("level", entry.separation["level"]))
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


def check_hnn_relators(params):
    entry = _catalog.resolve(params)
    which = params.get("presentation", "all")
    depth = _int(params, "depth", 3, 0)
    report = f"hnn-relators[{entry.id}]"
    action = entry.action()
    suites = {name: list(rels) for name, rels in entry.hnn_presentations.items()
              if which in ("all", name)}
    if which in ("all", "base") and (entry.presentation or entry.relator_texts):
        # base-group relators hold in the extension as well
        suites["base"] = [fmt_word(r) for _, r in entry.relators(depth)]
    if not suites:
        return report, "inconclusive", {"reason": "no relator suites configured"}
    evidence = {}
    ok = True
    for name, rels in suites.items():
        bad = [r for r in rels if not hnn_is_trivial(parse_hnn(r, action), action)]
        evidence[name] = "pass" if not bad else f"fail {bad}"
        ok &= not bad
    return report, ("pass" if ok else "fail"), evidence


def check_transitivity(params):
    entry = _catalog.resolve(params)
    copies = _int(params, "copies", 3, 0)
    length = _int(params, "length", 3, 0)
    action = entry.action()
    lam = UnrootedVertex(0, ())
    box = list(canonical_vertices(action, copies, length))
    missing = []
    for v in box:
        e = transitivity_witness(v, action)
        if e is None or theta_apply(e, lam, action) != v:
            missing.append(str(v))
    return f"transitivity[{entry.id}]", ("inconclusive" if missing else "pass"), {
        "vertices": len(box), "missing": missing}


def two_transitivity_level(d):
    """The default top level: the deepest l <= 6 whose d^l vertices are at most 5^5."""
    return max((l for l in range(1, 7) if d ** l <= 3125), default=1)


def check_two_transitivity(params):
    entry = _catalog.resolve(params)
    top = _int(params, "level", two_transitivity_level(entry.automaton.size), 1)
    gens = entry.generator_list()
    results = {l: two_transitivity_level_check(gens, l) for l in range(1, top + 1)}
    ok = all(results.values())
    return f"two-transitivity[{entry.id}]", ("pass" if ok else "fail"), {"levels": results}


def check_spine(params):
    """theta(g) fixes the spine vertices at levels -depth..0, per generator g.

    This cannot fail: a spine vertex is an empty digit window, and theta(g)
    keeps offsets and acts on digits only, so in the window coordinate the
    statement holds by construction.  The check guards that coordinate
    code (`theta_map`, `_vertex`) against regressions.
    """
    entry = _catalog.resolve(params)
    depth = _int(params, "depth", 20, 0)
    action = entry.action()
    bad = []
    for name in action.generators():
        apply = theta_map(action.element(((name, 1),)), action)
        for level in range(-depth, 1):
            v = spine_vertex(level, action.letter)
            if _vertex(*apply(1 - v.copy, v.word), action.letter) != v:
                bad.append((name, level))
    return f"spine[{entry.id}]", ("pass" if not bad else "fail"), {
        "depth": depth, "moved": bad}


def check_dilation(params):
    entry = _catalog.resolve(params)
    element = params.get("element", "t")
    samples = _int(params, "samples", 1000, 2)
    seed = int(params.get("seed", DEFAULT_SEED))
    expect = _integer("expect", params.get("expect"))
    action = entry.action()
    e = parse_hnn(element, action)
    m = dilation_factor_empirical(e, action, samples=samples, seed=seed)
    evidence = {"element": element, "exponent": m, "samples": samples,
                "net_t_displacement": e.tpos - e.tneg}
    if expect is not None:
        evidence["expect"] = expect
    target = e.tpos - e.tneg if expect is None else expect
    return f"dilation[{entry.id}:{element}]", ("pass" if m == target else "fail"), evidence


def check_stabilizer_projection(params):
    entry = _catalog.resolve(params)
    depth = _int(params, "depth", 4, 0)
    action = entry.action()
    elements = entry.elements()
    samples = [elements[n] for n in action.generators()]
    pairs = [(a.word + b.word) for a in samples for b in samples]
    rep = stabilizer_projection_check(action, depth=depth,
                                      powers=(1, 2, 3), sample_words=pairs)
    evidence = {
        "generators": rep.generator_projections,
        "sampled": len(rep.sampled),
        "sampled_failures": [d for d, f, _, k in rep.sampled if not (f and k)],
    }
    return f"stabilizer-projection[{entry.id}]", ("pass" if rep.ok else "fail"), evidence


def check_grig_recursions(params):
    string_bound = int(params.get("string_bound", 12))
    group_bound = int(params.get("group_bound", 6))
    alpha_bound = int(params.get("alpha_bound", 12))
    entry = _catalog.get("grigorchuk")
    aut = entry.automaton
    sigma = entry.sigma()
    word = (("a", 1),)
    string_ok, group_ok, alpha_ok = [], [], []
    for n in range(1, max(string_bound, group_bound, alpha_bound) + 1):
        word = sigma.apply_word(word)
        if n <= string_bound:
            string_ok.append(fmt_word(word).replace("*", "") == _catalog.grig_P(n))
        if n <= group_bound:
            p_word = tuple((c, 1) for c in _catalog.grig_P(n))
            group_ok.append(aut.word_is_trivial(word + invert_word(p_word)))
        if n <= alpha_bound:
            sec = aut.section_word(word, (0,))
            alpha = _catalog.grig_alpha(n)
            alpha_word = tuple((c, -1) for c in reversed(alpha)) if alpha != "1" else ()
            alpha_ok.append(aut.word_is_trivial(sec + alpha_word))
    ok = all(string_ok) and all(group_ok) and all(alpha_ok)
    return "grig-recursions", ("pass" if ok else "fail"), {
        "P_n_as_string": f"{sum(string_ok)}/{string_bound}",
        "P_n_in_group": f"{sum(group_ok)}/{group_bound}",
        "alpha_n": f"{sum(alpha_ok)}/{alpha_bound}",
    }


def check_lamplighter_alpha(params):
    bound = _int(params, "bound", 10, 0)
    x = _catalog.lamplighter_x()
    bad = [n for n in range(bound + 1)
           if _catalog.lamplighter_alpha(x, 2 ** n).lamps != (0, 2 ** n)]
    s_fixed = _catalog.lamplighter_alpha(_catalog.lamplighter_s(), 2 ** bound).lamps == ()
    return "lamplighter-alpha", ("pass" if not bad and s_fixed else "fail"), {
        "bound": bound, "bad_n": bad, "s_fixed": s_fixed}


def check_lamplighter_core(params):
    n_min = _int(params, "n_min", 3, 0)
    n_max = _int(params, "n_max", 8, n_min)
    results = {n: _catalog.lamplighter_core_gap_check(n) for n in range(n_min, n_max + 1)}
    return "lamplighter-core", ("pass" if all(results.values()) else "fail"), {
        "spacing": results}


def check_ggs(params):
    p = int(_required(params, "p"))
    e_vec = tuple(_integer("e", x) for x in str(_required(params, "e")).split(","))
    j = params.get("j")
    report = f"ggs[p={p}]"
    try:
        vector = GgsVector(p, e_vec, int(j) if j is not None else None)
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


def check_witnesses(params):
    entry = _catalog.resolve(params)
    bound = int(params.get("bound", 5))
    sigma = None
    letter = params.get("letter")
    if entry.default_sigma is not None:
        sigma = entry.sigma(params.get("sigma"))
        letter = sigma.letter if letter is None else int(letter)
    elif letter is None:
        letter = 0
    rep = self_replicating_witnesses(entry.elements(), int(letter),
                                     word_bound=bound, sigma=sigma)
    evidence = {
        "letter": rep.letter,
        "witnesses": {n: (fmt_word(w) if w else None) for n, w in rep.witnesses.items()},
        "source": rep.source,
    }
    return f"witnesses[{entry.id}]", ("pass" if rep.ok else "inconclusive"), evidence


# ---------------------------------------------------------------------------
# the seeded property suites

def _random_word(automaton, names, rng, max_len):
    length = rng.randint(0, max_len)
    return automaton.reduce(tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(length)))


def _random_hnn(action, rng, max_len):
    """A random word over the generators, t and T, built in normal form: s^e
    passes t^tpos as sigma^tpos(s^e), and a T no t cancels turns the word
    into sigma(word)."""
    names = list(action.generators()) + ["t", "T"]
    tneg, word, tpos = 0, (), 0
    for _ in range(rng.randint(1, max_len)):
        sym = rng.choice(names)
        if sym == "t":
            tpos += 1
        elif sym != "T":
            letter = ((sym, rng.choice((1, -1))),)
            word = reduced_product(word, action.sigma_word(letter, tpos))
        elif tpos:
            tpos -= 1
        else:
            tneg += 1
            word = action.sigma_word(word, 1)
    return HnnElement(tneg, word, tpos)


def _escalation_stop(d):
    """The deepest b whose box (b, b) over d letters, of (d^(b+1) - 1)/(d - 1)
    + b d^b canonical vertices, is no larger than the binary box (16, 16)."""
    size = [(d ** (b + 1) - 1) // (d - 1) + b * d ** b for b in range(17)]
    return max(b for b in range(17) if size[b] <= 2 ** 17 - 1 + 16 * 2 ** 16)


def check_properties(params):
    """Algebra laws, ultrametric, theta homomorphism, triviality agreement."""
    rng = random.Random(DEFAULT_SEED)
    evidence = {}
    ok = True

    # tree-core algebra laws on every catalog group
    for entry in _catalog.entries_with_sigma():
        aut = entry.automaton
        names = list(entry.generators)
        good = True
        for _ in range(60):
            g = aut.element(_random_word(aut, names, rng, 6))
            h = aut.element(_random_word(aut, names, rng, 6))
            level = rng.randint(1, 6)
            v = tuple(rng.randrange(aut.size) for _ in range(level))
            good &= (g * h).act(v) == h.act(g.act(v))
            left = (g * h).section(v)
            right = g.section(v) * h.section(g.act(v))
            good &= left.same_action(right)
            good &= g.inverse().inverse().act(v) == g.act(v)
            good &= (g * g.inverse()).is_trivial()
        evidence[f"{entry.id}.algebra"] = good
        ok &= good

    # ultrametric inequality at the exponent level
    d = 2
    good = True
    for _ in range(300):
        pts = []
        for _ in range(3):
            offset = rng.randint(-6, 1)
            digits = tuple(rng.randrange(d) for _ in range(10))
            pts.append(BoundaryPoint(offset, digits, d, 0))
        x, y, z = pts
        lxz = boundary_distance(x, z)
        lxy = boundary_distance(x, y)
        lyz = boundary_distance(y, z)
        if None in (lxz, lxy, lyz):
            continue
        # distance d^(-l+1) is monotone decreasing in l
        if not lxz >= min(lxy, lyz):
            good = False
    evidence["ultrametric"] = good
    ok &= good

    # theta is a homomorphism (sampled), and triviality agrees with the action
    for entry in _catalog.entries_with_sigma():
        action = entry.action()
        w_max = 4 if action.automaton.size == 2 else 2
        vertices = list(canonical_vertices(action, 4, w_max))
        hom_good = True
        for _ in range(100):
            e1 = _random_hnn(action, rng, 6)
            e2 = _random_hnn(action, rng, 6)
            prod = hnn_multiply(e1, e2, action)
            v = rng.choice(vertices)
            if theta_apply(prod, v, action) != theta_apply(e2, theta_apply(e1, v, action), action):
                hom_good = False
        evidence[f"{entry.id}.theta-hom"] = hom_good
        ok &= hom_good

        agree = True
        deeper = [(b, b) for b in range(w_max + 1, _escalation_stop(action.automaton.size) + 1)]
        for k in range(500):
            e = _random_hnn(action, rng, 10)
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
        ok &= agree

    return "properties", ("pass" if ok else "fail"), evidence


# check id -> (check, the params it reads); `--group` and `--spec` name the entry
ENTRY = ("group", "spec")
CHECKS = {
    "lifting": (check_lifting_certificate, (*ENTRY, "depth", "sigma")),
    "perm-order": (check_perm_order, (*ENTRY, "level", "gens", "expect")),
    "stabilizer-of-first-level": (check_stabilizer_words, (*ENTRY, "vertex")),
    "separation": (check_separation, (*ENTRY, "level")),
    "hnn-relators": (check_hnn_relators, (*ENTRY, "presentation", "depth")),
    "transitivity": (check_transitivity, (*ENTRY, "copies", "length")),
    "two-transitivity": (check_two_transitivity, (*ENTRY, "level")),
    "spine": (check_spine, (*ENTRY, "depth")),
    "dilation": (check_dilation, (*ENTRY, "element", "samples", "seed", "expect")),
    "stabilizer-projection": (check_stabilizer_projection, (*ENTRY, "depth")),
    "grig-recursions": (check_grig_recursions, ("string_bound", "group_bound", "alpha_bound")),
    "lamplighter-alpha": (check_lamplighter_alpha, ("bound",)),
    "lamplighter-core": (check_lamplighter_core, ("n_min", "n_max")),
    "ggs": (check_ggs, ("p", "e", "j")),
    "witnesses": (check_witnesses, (*ENTRY, "bound", "sigma", "letter")),
    "properties": (check_properties, ()),
}


def run_check(check_id, params):
    """The one place a check runs: it is timed here and its report built.

    A param the check does not read is a usage error, never ignored.
    """
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}; known: {', '.join(sorted(CHECKS))}")
    check, takes = CHECKS[check_id]
    for key in params:
        if key not in takes:
            raise ValueError(f"{check_id} does not take --{key.replace('_', '-')}")
    t0 = time.perf_counter()
    name, status, evidence = check(params)
    return CheckReport(name, status, evidence, time.perf_counter() - t0)
