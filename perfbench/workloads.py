"""The four workloads: seeded operation lists and the checks of their answers.

An operation is one call the benchmark times: one order, one decision,
one parse, one sampled dilation, one acceptance criterion, or one of the
small batches named below.  `build(workload, arb, seed)` returns the list
of `Op`s for one round.  Inputs are made before the round starts, from
the seed and from data the catalog states; operations look functions up
through their modules at call time, so a traced round sees the wrappers.
Each check runs after the round and returns None or a description of
what is wrong; it compares with `oracle`, never with stored output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("level-images", "word-problem", "boundary-action", "acceptance")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]
    span: str | None = None     # span the benchmark opens around the call


class Context:
    """Evaluators per automaton and answers shared between operations."""

    def __init__(self, arb, seed, workload):
        self.arb = arb
        self.rng = random.Random(f"{workload}:{seed}")
        self.results = {}
        self._evaluators = {}

    def evaluator(self, automaton):
        key = id(automaton)     # the automaton is kept too, so the id stays its own
        if key not in self._evaluators:
            self._evaluators[key] = (automaton, oracle.Evaluator(automaton))
        return self._evaluators[key][1]

    def random_word(self, names, length, exponents=(1, -1)):
        word = []
        while len(word) < length:
            f = (self.rng.choice(names), self.rng.choice(exponents))
            if word and word[-1][0] == f[0] and word[-1][1] == -f[1]:
                continue
            word.append(f)
        return tuple(word)


def _is_power(n, p):
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


# Level checked for "trivial" verdicts, and deepest level searched for a
# vertex moved by a "nontrivial" one, by alphabet size.
FIXED_LEVEL = {2: 6, 3: 4, 5: 3, 7: 2}
MOVED_LEVEL = {2: 12, 3: 7, 5: 5, 7: 4}


def _check_trivial(ev, word, verdict):
    if verdict is not True:
        return f"decided {verdict!r}, expected trivial"
    level = FIXED_LEVEL[ev.d]
    p = ev.perm(word, level)
    if p != tuple(range(len(p))):
        return f"decided trivial but moves a vertex of level {level}"
    return None


def _check_nontrivial(ev, word, verdict):
    if verdict is not False:
        return f"decided {verdict!r}, expected nontrivial"
    if ev.moved_vertex(word, MOVED_LEVEL[ev.d]) is None:
        return "decided nontrivial but no moved vertex found"
    return None


# ---------------------------------------------------------------------------
# level-images

# Orders from level 3 up to where the chain costs about a second.  Level 7
# (10-16 s per group) would make every run a single sample of one long
# process; it stays in the scaling curves instead.
ORDER_LEVELS = (("grigorchuk", 6), ("basilica", 6), ("img_z2i", 6), ("g01inf", 6),
                ("lamplighter", 7), ("bs13", 7), ("gs5", 3))
SIFT_GROUPS = (("grigorchuk", 6), ("basilica", 6))
SIFT_MEMBERS = 24
SIFT_OTHERS = 8
SIFT_WORD_LENGTH = 24
SIFT_SPLIT_LEVEL = 4    # non-members restrict to a non-member on this level
BFS_CAP = 20000
SEPARATION_LEVEL = 4


def _random_tree_perm(rng, d, n):
    """A random automorphism of the level-n tree, as a permutation."""
    labels = {}
    images = []
    for i in range(d ** n):
        v = oracle.vertex_of(i, d, n)
        idx = 0
        for k in range(n):
            prefix = v[:k]
            if prefix not in labels:
                labels[prefix] = rng.sample(range(d), d)
            idx = idx * d + labels[prefix][v[k]]
        images.append(idx)
    return tuple(images)


def _restrict(perm, d, n, level):
    block = d ** (n - level)
    return tuple(perm[j * block] // block for j in range(d ** level))


def level_images(ctx):
    ops = []
    for gid, top in ORDER_LEVELS:
        for n in range(3, top + 1):
            ops.append(_order_op(ctx, gid, n))
    for gid, n in SIFT_GROUPS:
        ops.extend(_sift_ops(ctx, gid, n))
    ops.append(_separation_op(ctx))
    return ops


def _order_op(ctx, gid, n):
    arb = ctx.arb
    entry = arb.catalog.get(gid)
    ev = ctx.evaluator(entry.automaton)

    def run():
        gens = list(entry.elements().values())
        group = arb.levels.perm_group_on_level(gens, n)
        order = group.order()
        orbit = arb.levels.orbit_on_level(group, (0,) * n)
        ctx.results[(gid, n)] = group
        ctx.results[("order", gid, n)] = order
        return order, group.gens, len(orbit)

    def check(out):
        order, perms, orbit_size = out
        d = ev.d
        ident = tuple(range(d ** n))
        expected = [p for p in (ev.perm(((g, 1),), n) for g in entry.generators) if p != ident]
        if list(perms) != expected:
            return "level_perm images differ from the evaluator"
        if orbit_size != d ** n:
            return f"orbit of 0^{n} has {orbit_size} vertices, not {d ** n}"
        if not _is_power(order, d):
            return f"order {order} is not a power of {d}"
        previous = ctx.results.get(("order", gid, n - 1))
        if previous is None:
            below = oracle.closure([ev.perm(((g, 1),), n - 1) for g in entry.generators], BFS_CAP)
            previous = len(below) if below is not None else None
        if previous is not None and (order % previous or order // previous > d ** (d ** (n - 1))):
            return f"order ratio {order}/{previous} to level {n - 1} is impossible"
        if gid == "grigorchuk" and order != oracle.grigorchuk_order(n):
            return f"order {order} differs from the closed form {oracle.grigorchuk_order(n)}"
        if order <= BFS_CAP:
            elements = oracle.closure(expected, order + 1)
            if elements is None or len(elements) != order:
                return f"order {order} differs from the BFS closure"
        if order != oracle.pgroup_order(expected, d, n):
            return f"order {order} differs from the p-group sift {oracle.pgroup_order(expected, d, n)}"
        return None

    return Op(f"order {gid} level {n}", run, check)


def _sift_ops(ctx, gid, n):
    entry = ctx.arb.catalog.get(gid)
    ev = ctx.evaluator(entry.automaton)
    d = ev.d
    split = oracle.closure([ev.perm(((g, 1),), SIFT_SPLIT_LEVEL) for g in entry.generators],
                           BFS_CAP)
    cases = []
    for _ in range(SIFT_MEMBERS):
        word = ctx.random_word(entry.generators, SIFT_WORD_LENGTH)
        cases.append((ev.perm(word, n), True))
    while len(cases) < SIFT_MEMBERS + SIFT_OTHERS:
        perm = _random_tree_perm(ctx.rng, d, n)
        if _restrict(perm, d, n, SIFT_SPLIT_LEVEL) not in split:
            cases.append((perm, False))
    ops = []
    for k, (perm, expected) in enumerate(cases):
        def run(perm=perm):
            return perm in ctx.results[(gid, n)]

        def check(out, expected=expected):
            return None if out is expected else f"membership {out}, expected {expected}"
        ops.append(Op(f"sift {gid} level {n} #{k}", run, check))
    return ops


def _tuple_perm(ev, text, n):
    """Level-n permutation of a first-level tuple such as (1,a)."""
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(f"unsupported tuple {text!r}")
    names = [s.strip() for s in inner[1:-1].split(",")]
    sub = ev.d ** (n - 1)
    images = []
    for x, name in enumerate(names):
        word = () if name == "1" else ((name, 1),)
        images.extend(x * sub + i for i in ev.perm(word, n - 1))
    return tuple(images)


def _separation_op(ctx):
    arb = ctx.arb
    entry = arb.catalog.get("g01inf")
    ev = ctx.evaluator(entry.automaton)
    level = SEPARATION_LEVEL

    def run():
        gens, complement, order = arb.catalog.separation_complement(entry)
        return arb.lifting.verify_endomorphism_by_quotient_separation(
            gens, complement, order, level)

    def check(rep):
        group = oracle.closure([ev.perm(((g, 1),), level) for g in entry.generators], BFS_CAP)
        half = ev.d ** (level - 1)
        stabilizer = {p for p in group if all(p[i] // half == i // half for i in range(len(p)))}
        complement = oracle.closure(
            [_tuple_perm(ev, t, level) for t in entry.separation["complement"]], BFS_CAP)
        if rep.stabilizer_order != len(stabilizer):
            return f"stabilizer image order {rep.stabilizer_order}, BFS {len(stabilizer)}"
        if rep.complement_order != len(complement):
            return f"complement image order {rep.complement_order}, BFS {len(complement)}"
        trivial = len(stabilizer & complement) == 1
        if rep.intersection_trivial != trivial:
            return f"intersection trivial {rep.intersection_trivial}, BFS {trivial}"
        if not rep.ok:
            return "separation certificate failed"
        return None

    return Op("separation g01inf level 4", run, check)


# ---------------------------------------------------------------------------
# word-problem

RELATOR_GROUPS = ("grigorchuk", "img_z2i")
RELATOR_DEPTH = 8
CONJUGATE_GROUPS = ("grigorchuk", "basilica", "img_z2i", "lamplighter", "g01inf",
                    "gs3", "gs5", "gs7")
PRODUCTS_EACH = 3
CONJUGATES = 4
CONJUGATOR_LENGTH = 10
# BS(1,3) is not contracting: for a positive conjugator c of length L
# that starts with the letter c, the closure of c^-1 r c has a size set by
# L and r alone (4374 and 8749 words at L = 8 for the two stated
# relators), so every seed does the same work, and later products are
# memo hits.  Conjugators of mixed sign or free first letter make the cost
# heavy-tailed across seeds (from 0.004 s to 66 s at L = 12).
BS13_PRODUCTS = 6
BS13_CONJUGATOR_LENGTH = 8
RANDOM_WORDS_EACH = 20
RANDOM_WORD_LENGTH = 24
# (ad)^N: one N in each class mod 4, so every seed decides the same mix.
AD_POWERS = ((1000, 0), (1500, 1), (2000, 2), (2500, 3))
COMMUTATOR_POWERS = (250, 500)
POWER_JITTER = 8


def _stated_relators(entry):
    """Relator words the catalog states for a group, phi-iterated twice."""
    names = set(entry.automaton.states)
    pres = entry.presentation
    if pres is not None:
        phi = dict(pres.phi.images)
        return list(pres.fixed) + [oracle.substitute(phi, r, k)
                                   for r in pres.iterated for k in range(3)]
    if entry.relator_texts is not None:
        return [oracle.parse_word(t, names) for t in entry.relator_texts(3)]
    if entry.separation is not None:
        return [oracle.parse_word(t, names) for t in entry.separation["complement_relators"]]
    # the generators of the Gupta-Sidki and GGS p-groups have order p
    d = entry.automaton.size
    return [((g, 1),) * d for g in entry.generators]


def word_problem(ctx):
    ops = []
    for gid in RELATOR_GROUPS:
        ops.extend(_relator_ops(ctx, gid))
    for gid in RELATOR_GROUPS:
        ops.append(_certificate_op(ctx, gid))
    for gid in CONJUGATE_GROUPS:
        entry = ctx.arb.catalog.get(gid)
        relators = _stated_relators(entry)
        for k in range(PRODUCTS_EACH):
            word = ()
            for _ in range(CONJUGATES):
                c = ctx.random_word(entry.generators, CONJUGATOR_LENGTH)
                word += oracle.invert(c) + ctx.rng.choice(relators) + c
            ops.append(_decision_op(ctx, entry, f"conjugates {gid} #{k}", word, True))
    bs13 = ctx.arb.catalog.get("bs13")
    relators = _stated_relators(bs13)
    for k in range(BS13_PRODUCTS):
        c = (("c", 1),) + ctx.random_word(bs13.generators, BS13_CONJUGATOR_LENGTH - 1,
                                          exponents=(1,))
        word = oracle.invert(c) + relators[k % len(relators)] + c
        ops.append(_decision_op(ctx, bs13, f"conjugates bs13 #{k}", word, True))
    for gid in CONJUGATE_GROUPS + ("bs13",):
        entry = ctx.arb.catalog.get(gid)
        ev = ctx.evaluator(entry.automaton)
        k = 0
        while k < RANDOM_WORDS_EACH:
            word = ctx.random_word(entry.generators, RANDOM_WORD_LENGTH)
            if ev.moved_vertex(word, MOVED_LEVEL[ev.d]) is None:
                continue    # no witness within reach: the check could not confirm
            ops.append(_decision_op(ctx, entry, f"random {gid} #{k}", word, False))
            k += 1
    grig = ctx.arb.catalog.get("grigorchuk")
    for base, residue in AD_POWERS:
        n = base + 4 * ctx.rng.randrange(POWER_JITTER) + residue
        ops.extend(_power_ops(ctx, grig, "ad", n,
                              n % oracle.GRIGORCHUK_AD_ORDER == 0))
    basilica = ctx.arb.catalog.get("basilica")
    for base in COMMUTATOR_POWERS:
        n = base + ctx.rng.randrange(POWER_JITTER)
        # [b,b^a] is the iterated relator of the Basilica L-presentation
        ops.extend(_power_ops(ctx, basilica, "[b,b^a]", n, True))
    return ops


def _decision_op(ctx, entry, name, word, expected):
    aut = entry.automaton
    ev = ctx.evaluator(aut)

    def run():
        return aut.word_is_trivial(word)

    def check(verdict):
        if expected:
            return _check_trivial(ev, word, verdict)
        return _check_nontrivial(ev, word, verdict)

    return Op(f"decide {name}", run, check)


def _relator_ops(ctx, gid):
    entry = ctx.arb.catalog.get(gid)
    aut = entry.automaton
    ev = ctx.evaluator(aut)
    pres = entry.presentation
    phi = dict(pres.phi.images)
    sigma = entry.sigma()
    sigma_images = dict(sigma.images)
    relators = list(pres.fixed)
    for r in pres.iterated:
        relators.extend(oracle.substitute(phi, r, k) for k in range(RELATOR_DEPTH + 1))
    ops = []
    for k, relator in enumerate(relators):
        def run(relator=relator):
            word = sigma.apply_word(relator)
            return word, aut.word_is_trivial(word)

        def check(out, relator=relator):
            word, verdict = out
            expected = oracle.substitute(sigma_images, relator)
            if word != expected:
                return "sigma image differs from the substitution"
            return _check_trivial(ev, expected, verdict)
        ops.append(Op(f"decide sigma(relator) {gid} #{k}", run, check))
    return ops


def _certificate_op(ctx, gid):
    arb = ctx.arb
    entry = arb.catalog.get(gid)

    def run():
        return arb.lifting.verify_endomorphism_by_relators(
            entry.sigma(), entry.presentation, RELATOR_DEPTH).ok

    def check(ok):
        # sigma is an endomorphism, so it maps every relator to the identity
        return None if ok is True else "relator certificate failed"

    return Op(f"certificate {gid} depth {RELATOR_DEPTH}", run, check)


def _power_ops(ctx, entry, base_text, n, trivial):
    aut = entry.automaton
    ev = ctx.evaluator(aut)
    text = f"({base_text})^{n}" if not base_text.startswith("[") else f"{base_text}^{n}"
    base = oracle.parse_word(base_text, set(aut.states))

    def parse():
        element = aut.element(text)
        ctx.results[text] = element
        return element.word

    def check_parse(word):
        if len(word) != len(base) * n:
            return f"{text} parsed to {len(word)} factors, expected {len(base) * n}"
        if word != oracle.parse_word(text, set(aut.states)):
            return f"{text} parsed to a different word"
        return None

    def decide():
        return ctx.results[text].is_trivial()

    def check_decision(verdict):
        word = base * n
        if trivial:
            return _check_trivial(ev, word, verdict)
        return _check_nontrivial(ev, word, verdict)

    return [Op(f"parse {text}", parse, check_parse),
            Op(f"decide {text}", decide, check_decision)]


# ---------------------------------------------------------------------------
# boundary-action

ACTIONS = (("grigorchuk", None), ("basilica", None), ("img_z2i", None),
           ("lamplighter", "sigma0"), ("lamplighter", "sigma1"), ("bs13", None),
           ("g01inf", None), ("gs5", None), ("gs7", None))
DILATION_SAMPLES = 500
THETA_PAIRS = 30
THETA_WORD_LENGTH = 6
SPINE_DEPTH = 20
WINDOWS_EACH = 2
WINDOW_DIGITS = 200     # deep enough to matter, shallow enough for the recursion
DEEP = 1000
DEEPER = 5000


def boundary_action(ctx):
    ops = []
    for gid, sigma_name in ACTIONS:
        entry = ctx.arb.catalog.get(gid)
        product = "*".join(entry.generators)
        for text in ("t", product, "t^-2*a*t^5"):
            ops.append(_dilation_op(ctx, entry, sigma_name, text))
        ops.append(_theta_hom_op(ctx, entry, sigma_name))
        ops.append(_spine_op(ctx, entry, sigma_name))
        for k in range(WINDOWS_EACH):
            ops.append(_window_op(ctx, entry, sigma_name, k))
    ops.extend(_deep_ops(ctx))
    return ops


def _label(entry, sigma_name):
    return entry.id if sigma_name is None else f"{entry.id}/{sigma_name}"


def _dilation_op(ctx, entry, sigma_name, text):
    arb = ctx.arb
    seed = ctx.rng.randrange(2 ** 31)

    def run():
        action = entry.action(sigma_name)
        e = arb.hnn.parse_hnn(text, action)
        return arb.padic.dilation_factor_empirical(e, action, samples=DILATION_SAMPLES, seed=seed)

    def check(m):
        expected = oracle.t_exponent_sum(text)
        return None if m == expected else f"dilation exponent {m}, net t-displacement {expected}"

    return Op(f"dilation {_label(entry, sigma_name)} {text}", run, check)


def _random_hnn_text(ctx, names):
    symbols = [f"{n}^-1" for n in names] + list(names) + ["t", "T"]
    return "*".join(ctx.rng.choice(symbols) for _ in range(THETA_WORD_LENGTH))


def _random_vertex(ctx, d, letter):
    while True:
        m = ctx.rng.randrange(5)
        w = tuple(ctx.rng.randrange(d) for _ in range(ctx.rng.randrange(5)))
        if not (m >= 1 and w and w[0] == letter):   # canonical form
            return m, w


def _theta_hom_op(ctx, entry, sigma_name):
    arb = ctx.arb
    d = entry.automaton.size
    letter = entry.sigma(sigma_name).letter
    cases = [(_random_hnn_text(ctx, entry.generators), _random_hnn_text(ctx, entry.generators),
              _random_vertex(ctx, d, letter)) for _ in range(THETA_PAIRS)]

    def run():
        hnn = arb.hnn
        action = entry.action(sigma_name)
        out = []
        for t1, t2, (m, w) in cases:
            e1 = hnn.parse_hnn(t1, action)
            e2 = hnn.parse_hnn(t2, action)
            v = hnn.UnrootedVertex(m, w)
            both = hnn.theta_apply(hnn.hnn_multiply(e1, e2, action), v, action)
            out.append((both, hnn.theta_apply(e2, hnn.theta_apply(e1, v, action), action)))
        return out

    def check(out):
        # theta is a homomorphism: theta(e1*e2) = theta(e2) after theta(e1)
        bad = sum(1 for a, b in out if a != b)
        return None if not bad else f"theta(e1*e2) differs from theta(e2)theta(e1) {bad} times"

    return Op(f"theta homomorphism {_label(entry, sigma_name)}", run, check)


def _spine_op(ctx, entry, sigma_name):
    arb = ctx.arb

    def run():
        hnn = arb.hnn
        action = entry.action(sigma_name)
        out = []
        for name in entry.generators:
            e = action.element(((name, 1),))
            for m in range(SPINE_DEPTH + 1):
                out.append((m, hnn.theta_apply(e, hnn.UnrootedVertex(m, ()), action)))
        return out

    def check(out):
        # theta(G) fixes the end, so every spine vertex m: is fixed
        moved = [m for m, v in out if (v.copy, v.word) != (m, ())]
        return None if not moved else f"spine vertices moved at copies {moved[:4]}"

    return Op(f"spine {_label(entry, sigma_name)}", run, check)


def _window_op(ctx, entry, sigma_name, k):
    arb = ctx.arb
    aut = entry.automaton
    d = aut.size
    sigma = entry.sigma(sigma_name)
    letter = sigma.letter
    tneg, tpos = ctx.rng.randrange(3), ctx.rng.randrange(3)
    word = ctx.random_word(entry.generators, 4)
    text = f"T^{tneg}*{'*'.join(s if e == 1 else s + '^-1' for s, e in word)}*t^{tpos}"
    offset = ctx.rng.randint(-2, 2)
    digits = tuple(ctx.rng.randrange(d) for _ in range(WINDOW_DIGITS))

    def run():
        action = entry.action(sigma_name)
        e = arb.hnn.parse_hnn(text, action)
        x = arb.padic.BoundaryPoint(offset, digits, d, letter)
        y = arb.padic.boundary_apply(e, x, action)
        return y.offset, y.digits

    def check(out):
        expected = oracle.boundary_apply(ctx.evaluator(aut), dict(sigma.images), letter,
                                         tneg, word, tpos, offset, digits)
        return None if out == expected else f"window image differs from the evaluator for {text}"

    return Op(f"window {_label(entry, sigma_name)} #{k}", run, check)


def _deep_ops(ctx):
    """Deep-vertex operations.  Their inputs do not depend on the seed.

    MealyAutomaton.act_state/section_state and ScaleAction._act_sigma_state
    recurse two frames per vertex letter, so under the default recursion
    limit these raise RecursionError today and count as failed.
    """
    arb = ctx.arb
    grig = arb.catalog.get("grigorchuk")
    basilica = arb.catalog.get("basilica")
    b = (("b", 1),)
    ab = (("a", 1), ("b", 1))
    ops = []
    for depth in (DEEP, DEEPER):
        vertex = (1,) * depth

        def act(vertex=vertex):
            return grig.automaton.state("b").act(vertex)

        def check_act(out, vertex=vertex):
            expected = ctx.evaluator(grig.automaton).act(b, vertex)
            return None if out == expected else "act differs from the evaluator"

        def section(vertex=vertex):
            return grig.automaton.state("b").section(vertex).word

        def check_section(out, vertex=vertex):
            ev = ctx.evaluator(grig.automaton)
            expected = ev.section(b, vertex)
            if ev.perm(out, 8) != ev.perm(expected, 8):
                return "section differs from the evaluator"
            return None
        ops.append(Op(f"act grigorchuk b on 1^{depth}", act, check_act))
        ops.append(Op(f"section grigorchuk b at 1^{depth}", section, check_section))

    deep = (1,) * DEEP

    def theta():
        hnn = arb.hnn
        action = grig.action()
        v = hnn.theta_apply(action.element(b), hnn.UnrootedVertex(0, deep), action)
        return v.copy, v.word

    def check_theta(out):
        expected = (0, ctx.evaluator(grig.automaton).act(b, deep))
        return None if out == expected else "theta_apply differs from the evaluator"

    window = (0,) * DEEP

    def boundary():
        action = basilica.action()
        e = arb.hnn.parse_hnn("a*b", action)
        y = arb.padic.boundary_apply(e, arb.padic.BoundaryPoint(1, window, 2, 0), action)
        return y.offset, y.digits

    def check_boundary(out):
        images = dict(basilica.sigma().images)
        expected = oracle.boundary_apply(ctx.evaluator(basilica.automaton), images, 0,
                                         0, ab, 0, 1, window)
        return None if out == expected else "boundary_apply differs from the evaluator"

    ops.append(Op(f"theta_apply grigorchuk b at 0:1^{DEEP}", theta, check_theta))
    ops.append(Op(f"boundary_apply basilica a*b on {DEEP} digits", boundary, check_boundary))
    return ops


# ---------------------------------------------------------------------------
# acceptance

def acceptance(ctx):
    arb = ctx.arb
    ops = []
    for k in range(len(arb.acceptance.CRITERIA)):
        def run(k=k):
            return arb.acceptance.CRITERIA[k]()

        def check(report):
            return None if report.status == "pass" else f"{report.check}: {report.status}"
        ops.append(Op(f"acceptance criterion {k + 1}", run, check,
                      span=f"acceptance.criterion-{k + 1}"))
    return ops


BUILDERS = {
    "level-images": level_images,
    "word-problem": word_problem,
    "boundary-action": boundary_action,
    "acceptance": acceptance,
}


def build(workload, arb, seed):
    ctx = Context(arb, seed, workload)
    return BUILDERS[workload](ctx)
