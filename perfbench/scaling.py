"""Scaling curves for the benchmark README, one fresh interpreter per point.

    python3 perfbench/scaling.py          # from the root of a checkout

Prints four markdown tables: chain time against tree level for the
Grigorchuk and Basilica groups, parse time against N for (ad)^N, BS(1,3)
decision time against the length of a positive conjugator, and
sigma-cache entries against the number of dilation samples.  Times are
wall-clock seconds of one call, unscaled.
"""

import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

CURVES = {
    "chain": [(gid, n) for gid in ("grigorchuk", "basilica") for n in range(3, 8)],
    "parse": [(n,) for n in (250, 500, 1000, 2000, 4000)],
    "bs13": [(length,) for length in range(4, 10)],
    "sigma-cache": [(gid, samples) for gid in ("grigorchuk", "basilica")
                    for samples in (100, 300, 1000, 3000)],
}


def point(kind, args):
    from arboreal import catalog, levels, hnn, padic
    if kind == "chain":
        gid, n = args
        gens = list(catalog.get(gid).elements().values())
        t0 = time.perf_counter()
        perms = [levels.level_perm(g, n) for g in gens]
        t1 = time.perf_counter()
        order = levels.LevelPermGroup(2, n, perms).order()
        t2 = time.perf_counter()
        return {"level_perm_s": t1 - t0, "chain_s": t2 - t1, "log2_order": order.bit_length() - 1}
    if kind == "parse":
        (n,) = args
        aut = catalog.get("grigorchuk").automaton
        t0 = time.perf_counter()
        g = aut.element(f"(ad)^{n}")
        return {"parse_s": time.perf_counter() - t0, "factors": len(g.word)}
    if kind == "bs13":
        (length,) = args
        entry = catalog.get("bs13")
        aut = entry.automaton
        rng = random.Random(length)
        c = (("c", 1),) + tuple((rng.choice(aut.generators), 1) for _ in range(length - 1))
        relator = aut.element(entry.relator_texts(0)[1]).word
        word = tuple((s, -e) for s, e in reversed(c)) + relator + c
        t0 = time.perf_counter()
        trivial = aut.word_is_trivial(word)
        return {"decide_s": time.perf_counter() - t0, "trivial": trivial,
                "memo_words": len(aut._trivial) + len(aut._nontrivial)}
    gid, samples = args
    entry = catalog.get(gid)
    action = entry.action()
    e = hnn.parse_hnn("*".join(entry.generators), action)
    t0 = time.perf_counter()
    padic.dilation_factor_empirical(e, action, samples=samples, seed=1)
    return {"dilation_s": time.perf_counter() - t0, "entries": len(action._act_cache)}


def measure(kind, args):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-s", __file__, "--point", kind, json.dumps(args)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main():
    print("Chain time against level (LevelPermGroup.order after level_perm):\n")
    print("| group | level | log2 order | level_perm s | chain s |")
    print("|---|---|---|---|---|")
    for args in CURVES["chain"]:
        r = measure("chain", args)
        print(f"| {args[0]} | {args[1]} | {r['log2_order']} | {r['level_perm_s']:.4f} "
              f"| {r['chain_s']:.3f} |")
    print("\nParse time against N for (ad)^N:\n")
    print("| N | factors | parse s |")
    print("|---|---|---|")
    for args in CURVES["parse"]:
        r = measure("parse", args)
        print(f"| {args[0]} | {r['factors']} | {r['parse_s']:.3f} |")
    print("\nBS(1,3): deciding c^-1 r c, r the longer stated relator, for a positive\n"
          "conjugator c of length L that starts with c:\n")
    print("| L | memo words | decide s |")
    print("|---|---|---|")
    for args in CURVES["bs13"]:
        r = measure("bs13", args)
        print(f"| {args[0]} | {r['memo_words']} | {r['decide_s']:.3f} |")
    print("\nSigma-cache entries after one dilation sweep of the product of the generators:\n")
    print("| group | samples | entries | dilation s |")
    print("|---|---|---|---|")
    for args in CURVES["sigma-cache"]:
        r = measure("sigma-cache", args)
        print(f"| {args[0]} | {args[1]} | {r['entries']} | {r['dilation_s']:.3f} |")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--point":
        print(json.dumps(point(sys.argv[2], json.loads(sys.argv[3]))))
    else:
        main()
