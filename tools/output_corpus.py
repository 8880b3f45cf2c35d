"""Print the command-line output corpus of one source tree as one JSON document.

The corpus is what a behaviour-preserving change must leave alone:

- `run <check> --format json` for every check over every catalog group at
  default parameters (`perm-order` at level 3; group-free checks once,
  `ggs` with one accepted and one rejected vector), but for the two
  slow pairs in `SLOW`, and `run perm-order` at the deeper levels of
  `DEEP_ORDERS`, which pin tree-chain orders past level 3;
- `run lamplighter-core` at the ranges in `LAMP_RANGES`, and
  `run lamplighter-alpha` at the bounds in `ALPHA_BOUNDS`;
- `run witnesses` with each letter in `BAD_LETTERS`, outside its alphabet;
- `run stabilizer-projection --depth 0..5` and `run spine --depth 0..4`
  for every group with a lifting;
- `run dilation --element t^-2*a*t^5` on every group with a lifting,
  and `T^600*a*t^600` on Grigorchuk;
- the usage errors of `USAGE_ERRORS`, among them a portrait one level past
  the point limit;
- `portrait` plain, `--labels`, `--theta` and `--theta --labels`, each in
  DOT and in JSON, for every generator of every group (theta on levels
  -2..2 for the 5- and 7-ary gs5 and gs7, whose default portraits are
  megabytes).  A portrait's JSON is kept as text, byte for byte;
- `perm-group-on-level --format json` at levels 1-4 for every group;
- `catalog --format json` and `acceptance --format json`;
- `intersection` on g01inf with the generators of `BRACKETED`, words that
  start with a bracket beside a first-level tuple;
- `perm-group-on-level` and `run perm-order` at level 1 on `PRIME_257`, a
  cyclic group of order 257 on 257 letters, whose prime is too large for
  the tree chain's packed bytes;
- `perm-group-on-level` at levels 1-4 (with the orbit of 000 at level 3)
  and `run perm-order` at level 3 on `HANOI`, the Hanoi towers group on
  three pegs, whose local actions are transpositions.  Both specs go to
  the generic chain;
- `portrait --element s0*s0 --depth 3 --labels`, DOT and JSON, on
  `CHAIN_200`, the 200 states s_i = (s_(i+1 mod 200), 1)(1,2), whose
  factor codes pass 255, so the word problem keeps them as code tuples,
  not bytes.  The labels go through `word_is_trivial`;
- `run two-transitivity`, `run perm-order --level 3`, `run lifting` and
  `run spine` on `AFFINE_3_2`, the affine group of Q_3 generated by
  x -> x+1 and x -> 2x (the bundle `affine_bundle(3, 2)` of
  tests/test_affine.py, with an id), which its certified affine model
  decides, and `run lifting` on `AFFINE_REJECTED`, the same bundle with
  m1's map changed, whose certificate fails (exit 3, naming the word,
  phase and letter);
- `run lifting --depth 8` on the three groups with an L-presentation
  (`DEEP_CERTIFICATES`), which decides every phi^k relator up to 8, and
  `run spine --group grigorchuk --depth 8`;
- `run lifting` on `WRONG_B`, Grigorchuk's catalog lifting with
  b -> d*a*d*a and the catalog presentation: a lifting that is not an
  endomorphism, so sigma differs from phi and the certificate fails;
- `run perm-order --level 2` on each bare wreath-spec file of `BAD_SPECS`,
  usage errors that pin the spec parser's messages (an unknown section
  name, a permutation part that is not integers, a wrong arity and a
  cycle that never closes).
  The specs are written into a temporary directory, and their argv names
  the file alone.

Each entry records the exit code, stdout and stderr; the `seconds` field
of every report is blanked.  Usage:

    PYTHONPATH=src python3 tools/output_corpus.py > change.json
    PYTHONPATH=/path/to/parent/src python3 tools/output_corpus.py > parent.json
    diff parent.json change.json

The corpus takes about 5 s of CPU on a 2-core Xeon.  A tree whose `dilation`
samples (before it decided the exponent) spends about 16 s more on the
`T^600*a*t^600` entry.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from arboreal import catalog as _catalog
from arboreal.checks import CHECKS
from arboreal.cli import main

GROUP_FREE = ("grig-recursions", "lamplighter-alpha", "lamplighter-core", "properties")
GGS_VECTORS = (("5", "1,-1,0,0"), ("3", "1,-1"))
# (check, group) pairs left out: trees whose default top level is 6 for every
# alphabet take a minute or more on each (5^6 and 7^6 points); the default is
# now the deepest level of at most 5^5 points, 5 for gs5 and 4 for gs7
SLOW = {("two-transitivity", "gs5"), ("two-transitivity", "gs7")}
DEEP_ORDERS = (("gs5", "4"), ("grigorchuk", "8"))
LAMP_RANGES = (("0", "2"), ("9", "11"))
ALPHA_BOUNDS = ("0", "1", "40", "1000")
BAD_LETTERS = (("grigorchuk", "5"), ("gs3", "-1"))
USAGE_ERRORS = [["run", "dilation", "--group", "basilica", "--samples", "3"],
                ["run", "dilation", "--group", "basilica", "--seed", "5"],
                ["portrait", "--group", "grigorchuk", "--element", "x"],
                ["portrait", "--group", "grigorchuk", "--element", "a", "--depth", "21"],
                ["run", "dilation", "--group", "grigorchuk", "--element", "x"],
                *(["run", "dilation", "--group", "basilica", "--element", text]
                  for text in ("t^", "(a", "a*", "*a", "a**b"))]

BRACKETED = (("(ad)^2,b", "(1,a)"), ("b,(a*c)", "(1,a)"))
PRIME_257 = {"id": "z257", "wreath": "a=(" + ",".join(["1"] * 257) + ")["
             + ",".join(str((x + 256) % 257) for x in range(257)) + "]"}

HANOI = {"id": "hanoi", "wreath": "a=(a,1,1)(2,3),b=(1,b,1)(1,3),c=(1,1,c)(1,2)"}
CHAIN_200 = {"id": "chain200",
             "wreath": ",".join(f"s{i}=(s{(i + 1) % 200},1)(1,2)" for i in range(200))}
AFFINE_3_2 = {"id": "affine32",
              "wreath": "a=(1,1,a)(1,2,3),m0=(m0,m0,m1)(2,3),m1=(m0,m1,m1)(1,2)",
              "substitutions": {"sigma": {"letter": 0,
                                          "images": {"a": "a^3", "m0": "m0", "m1": "m0*a^3"}}},
              "default_sigma": "sigma",
              "affine": {"relabel": [[0, 1, 2]],
                         "maps": {"a": ["1", "1"], "m0": ["2", "0"], "m1": ["2", "1"]}}}
DEEP_CERTIFICATES = ("grigorchuk", "basilica", "img_z2i")
WRONG_B = {"id": "grigorchuk-wrong-b", "wreath": "a=(1,1)(1,2),b=(a,c),c=(a,d),d=(1,b)",
           "substitutions": {"sigma": {"letter": 1, "images": {"a": "a*c*a", "b": "d*a*d*a",
                                                               "c": "b", "d": "c"}}},
           "default_sigma": "sigma",
           "presentation": {"fixed": ["a^2", "b^2", "c^2", "d^2", "b*c*d"],
                            "iterated": ["(a*d)^4", "(a*d*a*c*a*c)^4"],
                            "phi": {"a": "a*c*a", "b": "d", "c": "b", "d": "c"}}}
BAD_SPECS = ("a=(1,zz)(1,2)", "a=(1,1)(1;2)", "a=(1,1)(1,2),b=(a,a,a)", "a=(1,1)(1,2]")
AFFINE_REJECTED = {**AFFINE_3_2, "id": "affine32x",
                   "affine": {"relabel": [[0, 1, 2]],
                              "maps": {"a": ["1", "1"], "m0": ["2", "0"], "m1": ["2", "0"]}}}


def _blank_seconds(value):
    if isinstance(value, list):
        return [_blank_seconds(v) for v in value]
    if isinstance(value, dict) and "seconds" in value:
        return {**value, "seconds": None}
    return value


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is part of the behaviour too
            code = f"{type(exc).__name__}: {exc}"
    text = out.getvalue()
    if ("--format" in argv and argv[argv.index("--format") + 1] == "json" and text.strip()
            and argv[0] != "portrait"):
        text = _blank_seconds(json.loads(text))
    return {"argv": argv, "exit": code, "stdout": text, "stderr": err.getvalue()}


def corpus():
    groups = sorted(_catalog.catalog())
    runs = []
    for check in sorted(CHECKS):
        if check == "ggs":
            runs += [["run", check, "--p", p, "--e", e] for p, e in GGS_VECTORS]
        elif check in GROUP_FREE:
            runs.append(["run", check])
        else:
            level = ["--level", "3"] if check == "perm-order" else []
            runs += [["run", check, "--group", g, *level] for g in groups
                     if (check, g) not in SLOW]
    runs += [["run", "perm-order", "--group", g, "--level", level] for g, level in DEEP_ORDERS]
    runs += [["run", "lamplighter-core", "--n-min", lo, "--n-max", hi] for lo, hi in LAMP_RANGES]
    runs += [["run", "lamplighter-alpha", "--bound", bound] for bound in ALPHA_BOUNDS]
    runs += [["run", "witnesses", "--group", g, "--letter", letter] for g, letter in BAD_LETTERS]
    lifted = [entry.id for entry in _catalog.entries_with_sigma()]
    runs += [["run", "stabilizer-projection", "--group", g, "--depth", str(depth)]
             for g in lifted for depth in range(6)]
    runs += [["run", "spine", "--group", g, "--depth", str(depth)]
             for g in lifted for depth in range(5)]
    runs += [["run", "dilation", "--group", g, "--element", "t^-2*a*t^5"] for g in lifted]
    runs.append(["run", "dilation", "--group", "grigorchuk", "--element", "T^600*a*t^600"])
    runs += [["run", "lifting", "--group", g, "--depth", "8"] for g in DEEP_CERTIFICATES]
    runs.append(["run", "spine", "--group", "grigorchuk", "--depth", "8"])
    calls = [argv + ["--format", "json"] for argv in runs] + USAGE_ERRORS
    for g in groups:
        entry = _catalog.get(g)
        window = ["--up", "2", "--down", "2"] if entry.automaton.size > 3 else []
        for name in entry.generators:
            for extra in ([], ["--labels"], ["--theta", *window],
                          ["--theta", "--labels", *window]):
                calls.append(["portrait", "--group", g, "--element", name, *extra])
                calls.append(["portrait", "--group", g, "--element", name, *extra,
                              "--format", "json"])
        for level in range(1, 5):
            calls.append(["perm-group-on-level", "--group", g, "--level", str(level),
                          "--format", "json"])
    calls.append(["catalog", "--format", "json"])
    calls.append(["acceptance", "--format", "json"])
    calls += [["intersection", "--group", "g01inf", "--level", "3", "--gens-a", a, "--gens-b", b]
              for a, b in BRACKETED]
    with tempfile.TemporaryDirectory() as tmp:
        spec, hanoi = os.path.join(tmp, "z257.json"), os.path.join(tmp, "hanoi.json")
        chain = os.path.join(tmp, "chain200.json")
        affine, rejected = os.path.join(tmp, "affine32.json"), os.path.join(tmp, "affine32x.json")
        wrong = os.path.join(tmp, "wrong_b.json")
        bad = {os.path.join(tmp, f"bad{k}.spec"): text for k, text in enumerate(BAD_SPECS)}
        specs = {spec: PRIME_257, hanoi: HANOI, chain: CHAIN_200, affine: AFFINE_3_2,
                 rejected: AFFINE_REJECTED, wrong: WRONG_B, **bad}
        for path, data in specs.items():
            with open(path, "w") as fh:
                fh.write(data) if isinstance(data, str) else json.dump(data, fh)
        calls += [["perm-group-on-level", "--spec", spec, "--level", "1", "--format", "json"],
                  ["run", "perm-order", "--spec", spec, "--level", "1", "--format", "json"]]
        calls += [["perm-group-on-level", "--spec", hanoi, "--level", str(level),
                   *(["--orbit", "000"] if level == 3 else []), "--format", "json"]
                  for level in range(1, 5)]
        calls.append(["run", "perm-order", "--spec", hanoi, "--level", "3", "--format", "json"])
        calls += [["portrait", "--spec", chain, "--element", "s0*s0", "--depth", "3",
                   "--labels", *fmt] for fmt in ([], ["--format", "json"])]
        calls += [["run", *check, "--spec", affine, "--format", "json"] for check in (
            ["two-transitivity"], ["perm-order", "--level", "3"], ["lifting"], ["spine"])]
        calls.append(["run", "lifting", "--spec", rejected, "--format", "json"])
        calls.append(["run", "lifting", "--spec", wrong, "--format", "json"])
        calls += [["run", "perm-order", "--spec", path, "--level", "2"] for path in bad]
        results = [_call(argv) for argv in calls]
    for result in results:  # the temporary directory is not part of the behaviour
        result["argv"] = [os.path.basename(a) if a in specs else a
                          for a in result["argv"]]
    return results


if __name__ == "__main__":
    json.dump(corpus(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
