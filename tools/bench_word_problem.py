"""Scaling curves of word parsing and the word problem, for two source trees.

    python3 tools/bench_word_problem.py --parent PARENT/src --change src \
        --repeats 3 -o BENCH_word_problem.json

The fresh interpreters, the alternation of parent and change and the
timeouts are those of `tools/benchlib.py`.  A point is the median over
the repeats of:

- `parse_cpu_s` (curves `(ad)^N` and `juxtaposition`): CPU seconds of
  `parse_word_factors` on `(ad)^N`, or on `adad...` with N letters, in
  the Grigorchuk group; `factors` and `digest` (a hash of the word) let
  the two trees' words be compared;
- `decide_cpu_s` and `memo_words` (curves `bs13 c^-1 r c` and `bs13
  4x mixed-sign c^-1 r c`): CPU seconds of `word_is_trivial` in the
  catalog's BS(1,3), on a fresh automaton.  The first curve decides
  c^-1 r c for the longer stated relator r and a positive conjugator c of
  length L that starts with the letter c, seeded by L.  The second decides
  a product of four c^-1 r c, each with c of L letters of free sign and r
  one of the stated relators, all drawn from random.Random(2); at L = 32
  this is the 284-letter word that ROADMAP item 3 names.  `memo_words` is
  the size of the trivial and nontrivial memos afterwards.  It is a
  cost, not an answer: the certified affine model decides without the
  memos, so only `trivial` must agree between the trees.  A BS(1,3) point
  runs with its address space capped at BS13_MEMORY_CAP_BYTES, so that a
  closure search which outgrows it stops as "memory" instead of filling
  the host for the whole timeout;
- `decide_cpu_s`, `memo_words` and `letters` (curves `sigma(phi^k(r))
  grigorchuk` and `sigma(phi^k(r)) img_z2i`, n = k): CPU seconds of
  `word_is_trivial` on sigma(phi^k(r)), the words that certify sigma an
  endomorphism, for the longest iterated relator r of the group's
  L-presentation, on a fresh copy of its automaton (empty memos);
  `letters` is the word's length, the curve's x axis.  The search order
  is the same on every tree, so `trivial`, `memo_words` and `letters`
  must all agree between the trees;
- `cold_cpu_s`, `warm_cpu_s`, `relators` and `digest` (curves
  `certificate depth k grigorchuk` and `certificate depth k img_z2i`,
  n = k): CPU seconds of `verify_endomorphism_by_relators` at depth k
  with the catalog's lifting and L-presentation, first with the word
  problem's memos emptied, then again right after on the warm memos;
  `relators` is the number of relators decided and `digest` a hash of
  the labels and booleans, both of which must agree between the trees;
- `power_cpu_s`, `peak_mb`, `letters` and `digest` (curve `sigma^k(a)
  grigorchuk`, n = k): CPU seconds of `Substitution.apply_power((("a",
  1),), k)` with the catalog's Grigorchuk lifting, then the tracemalloc
  peak of a second, traced run of the same call; `letters` is the
  length of sigma^k(a) and `digest` a hash of it, both of which must
  agree between the trees.

The gates bound the change's own figures, at about twice what they read
when each bound was set, and name no claim, so a change that leaves a
path alone cannot fail them on noise; a claimed gain is read from the
curves.
"""

import argparse
import hashlib
import random
import resource
import sys
import time
import tracemalloc

import benchlib

POWER_N = (250, 500, 1000, 2000, 4000, 8000, 16000, 32000, 64000, 200000)
JUXTAPOSITION_N = (1000, 2000, 4000, 8000, 16000, 32000, 64000, 100000)
BS13_L = (4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64)
BS13_MIXED_L = (2, 4, 8, 12, 16, 20, 24, 32, 48, 64)
BS13_MEMORY_CAP_BYTES = 2 ** 29
RELATOR_GROUPS = ("grigorchuk", "img_z2i")
RELATOR_K = tuple(range(11))
SIGMA_POWER_K = tuple(range(12, 21))


def _digest(word):
    return hashlib.sha256(repr(word).encode()).hexdigest()[:16]


def child(curve, n):
    from arboreal import catalog
    from arboreal.core import MealyAutomaton, invert_word
    n = int(n)
    if curve == "sigma_power":
        sigma, a = catalog.get("grigorchuk").sigma(), (("a", 1),)
        t0 = time.process_time()
        word = sigma.apply_power(a, n)
        cpu = time.process_time() - t0
        letters, digest = len(word), _digest(word)
        del word
        tracemalloc.start()
        sigma.apply_power(a, n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"power_cpu_s": cpu, "peak_mb": round(peak / 2 ** 20, 3), "letters": letters,
                "digest": digest}
    if curve.startswith("certificate:"):
        from arboreal.lifting import verify_endomorphism_by_relators
        entry = catalog.get(curve.split(":")[1])
        entry.automaton._trivial.clear()
        entry.automaton._nontrivial.clear()
        cpu = []
        for _ in range(2):
            t0 = time.process_time()
            report = verify_endomorphism_by_relators(entry.sigma(), entry.presentation, n)
            cpu.append(time.process_time() - t0)
        return {"cold_cpu_s": cpu[0], "warm_cpu_s": cpu[1], "relators": len(report.checks),
                "digest": _digest(report.checks)}
    if curve in RELATOR_GROUPS:
        entry = catalog.get(curve)
        rules = {s: entry.automaton.rule(s) for s in entry.automaton.states if s != "1"}
        aut = MealyAutomaton(entry.automaton.size, rules)
        relator = max(entry.presentation.iterated, key=len)
        for _ in range(n):
            relator = entry.presentation.phi.apply_word(relator)
        word = entry.sigma().apply_word(relator)
        t0 = time.process_time()
        verdict = aut.word_is_trivial(word)
        return {"decide_cpu_s": time.process_time() - t0, "trivial": verdict,
                "memo_words": len(aut._trivial) + len(aut._nontrivial), "letters": len(word)}
    if curve in ("bs13", "bs13mixed"):
        resource.setrlimit(resource.RLIMIT_AS, (BS13_MEMORY_CAP_BYTES, BS13_MEMORY_CAP_BYTES))
        entry = catalog.get("bs13")
        aut = entry.automaton
        if curve == "bs13":
            rng = random.Random(n)
            c = (("c", 1),) + tuple((rng.choice(entry.generators), 1) for _ in range(n - 1))
            relator = max((w for _, w in entry.relators(0)), key=len)
            word = invert_word(c) + relator + c
        else:
            rng = random.Random(2)
            relators = entry.relators(1)
            word = ()
            for _ in range(4):
                c = tuple((rng.choice("abc"), rng.choice((1, -1))) for _ in range(n))
                word += invert_word(c) + rng.choice(relators)[1] + c
        t0 = time.process_time()
        verdict = aut.word_is_trivial(word)
        return {"decide_cpu_s": time.process_time() - t0, "trivial": verdict,
                "memo_words": len(aut._trivial) + len(aut._nontrivial)}
    from arboreal.words import parse_word_factors
    text = f"(ad)^{n}" if curve == "power" else "ad" * (n // 2)
    t0 = time.process_time()
    word = parse_word_factors(text, {"a", "b", "c", "d"})
    cpu = time.process_time() - t0
    return {"parse_cpu_s": cpu, "factors": len(word), "digest": _digest(word)}


def measure(src, point):
    return benchlib.run_child(__file__, src, *point)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    points = ([("power", n) for n in POWER_N]
              + [("juxtaposition", n) for n in JUXTAPOSITION_N]
              + [("bs13", n) for n in BS13_L]
              + [("bs13mixed", n) for n in BS13_MIXED_L]
              + [(gid, k) for gid in RELATOR_GROUPS for k in RELATOR_K]
              + [(f"certificate:{gid}", k) for gid in RELATOR_GROUPS for k in RELATOR_K]
              + [("sigma_power", k) for k in SIGMA_POWER_K])
    sides = {"parent": args.parent, "change": args.change}
    results = benchlib.compare(sides, points, args.repeats, measure)
    names = {"power": "(ad)^N", "juxtaposition": "juxtaposition", "bs13": "bs13 c^-1 r c",
             "bs13mixed": "bs13 4x mixed-sign c^-1 r c",
             "sigma_power": "sigma^k(a) grigorchuk",
             **{gid: f"sigma(phi^k(r)) {gid}" for gid in RELATOR_GROUPS},
             **{f"certificate:{gid}": f"certificate depth k {gid}" for gid in RELATOR_GROUPS}}
    curves = []
    for (curve, n), row in results.items():
        benchlib.same_answers(row, ("letters", "digest") if curve == "sigma_power" else
                              ("relators", "digest") if curve.startswith("certificate:") else
                              ("factors", "digest", "trivial", "memo_words", "letters")
                              if curve in RELATOR_GROUPS else ("factors", "digest", "trivial"))
        curves.append({"curve": names[curve], "n": n, **row})
    power = results[("power", 200000)]["change"]
    juxt = results[("juxtaposition", 100000)]["change"]
    bs13 = [results[(curve, 64)]["change"] for curve in ("bs13", "bs13mixed")]
    relators = [results[(gid, k)]["change"] for gid in RELATOR_GROUPS for k in RELATOR_K]
    deep = results[("sigma_power", SIGMA_POWER_K[-1])]["change"]
    certificates = [results[(f"certificate:{gid}", RELATOR_K[-1])]["change"]
                    for gid in RELATOR_GROUPS]
    report = benchlib.report_header("tools/bench_word_problem.py", args.repeats)
    report["gates"] = {
        "(ad)^200000 gives 400000 factors, parse_cpu_s < 1":
            isinstance(power, dict) and power["factors"] == 400000 and power["parse_cpu_s"] < 1,
        "100000-letter juxtaposition parse_cpu_s < 2":
            isinstance(juxt, dict) and juxt["parse_cpu_s"] < 2,
        "bs13 conjugates of length 64 (both curves) decided trivial, decide_cpu_s < 0.01":
            all(isinstance(p, dict) and p["trivial"] and p["decide_cpu_s"] < 0.01 for p in bs13),
        "sigma(phi^k(r)) decided trivial for k <= 10 on grigorchuk and img_z2i":
            all(isinstance(p, dict) and p["trivial"] for p in relators),
        "sigma^20(a) grigorchuk: the change's power_cpu_s < 0.55 and peak_mb < 70":
            isinstance(deep, dict) and deep["power_cpu_s"] < 0.55 and deep["peak_mb"] < 70,
        "certificate at depth 10 on grigorchuk and img_z2i: the change's warm_cpu_s < 0.012":
            all(isinstance(p, dict) and p["warm_cpu_s"] < 0.012 for p in certificates),
    }
    report["curves"] = curves
    benchlib.write_report(args.output, report)


if __name__ == "__main__":
    if not benchlib.child_main(child):
        sys.exit(main())
