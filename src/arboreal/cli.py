"""Command-line front end.

Subcommands mirror the computations: `run` executes a named check and
exits 0/1/2 for pass/fail/inconclusive (3 for usage errors); `portrait`
emits DOT or JSON portraits (rooted, or the unrooted theta-portrait);
`perm-group-on-level`, `stabilizer-of-first-level` and `intersection`
mirror the GAP session names; `acceptance` runs the full suite.  Output is
byte-identical across runs for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as _catalog
from .checks import CHECKS, flag, run_check
from .core import (
    WreathSpecError,
    _split_top,
    fmt_word,
    label_portrait,
    parse_elements,
    parse_vertex,
    portrait,
    portrait_dot,
    portrait_json,
)
from .hnn import theta_portrait
from .levels import intersection_trivial_on_level, perm_group_on_level, stabilizer_words
from .words import WordSyntaxError

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def cmd_run(args):
    params = {key: value for key, value in vars(args).items()
              if value is not None and key not in ("command", "check", "format", "func")}
    report = run_check(args.check, params)
    print(report.to_json() if args.format == "json" else report.text())
    return report.exit_code()


def cmd_portrait(args):
    entry = _catalog.resolve(vars(args))
    element = entry.element(args.element)
    candidates = dict(entry.elements())
    if args.theta:
        top, nodes = theta_portrait(element, entry.action(), args.up, args.down)
        # every node lies in the copy T^(up), so labels are keyed by the word there
        labels = label_portrait(top, args.up + args.down, candidates) if args.labels else None
        text = _render_unrooted(nodes, labels, args.format)
    else:
        nodes = portrait(element, args.depth)
        labels = label_portrait(element, args.depth, candidates) if args.labels else None
        text = portrait_dot(nodes, labels) if args.format == "dot" else portrait_json(nodes, labels)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _render_unrooted(nodes, labels, fmt):
    from .core import fmt_perm
    items = sorted(nodes, key=lambda v: (v.level, v.word))
    if fmt == "json":
        out = []
        for v in items:
            rec = {"vertex": str(v), "level": v.level, "perm": list(nodes[v])}
            if labels is not None:
                rec["section"] = labels.get(v.word)
            out.append(rec)
        return json.dumps(out, indent=2)
    lines = ["digraph theta_portrait {", "  node [shape=circle];"]
    for v in items:
        label = fmt_perm(nodes[v])
        if labels is not None and labels.get(v.word) is not None:
            label = f"{labels[v.word]} {label}"
        lines.append(f'  "{v}" [label="{label}" level={v.level}];')
    for v in items:
        if v.word:
            parent = type(v)(v.copy, v.word[:-1])
            lines.append(f'  "{parent}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_perm_group(args):
    entry = _catalog.resolve(vars(args))
    group = perm_group_on_level(entry.generator_list(args.gens), args.level)
    payload = {"group": entry.id, "level": args.level, "order": group.order()}
    if args.orbit is not None:
        orbit = sorted(group.orbit_vertices(parse_vertex(args.orbit)))
        payload["orbit"] = ["".join(map(str, v)) for v in orbit]
        payload["orbit_size"] = len(orbit)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def cmd_stabilizer(args):
    entry = _catalog.resolve(vars(args))
    target = "first-level" if not args.vertex else parse_vertex(args.vertex)
    words = stabilizer_words(entry.elements(), target)
    formatted = [fmt_word(w) for w in words]
    if args.format == "json":
        print(json.dumps({"group": entry.id, "target": str(args.vertex or "first-level"),
                          "generators": formatted}, indent=2))
    else:
        print(f"< {', '.join(formatted)} >")
    return 0


def cmd_intersection(args):
    entry = _catalog.resolve(vars(args))
    side_a, _ = parse_elements([c for c in _split_top(args.gens_a) if c.strip()], entry.automaton)
    side_b, _ = parse_elements([c for c in _split_top(args.gens_b) if c.strip()], entry.automaton)
    group_a = perm_group_on_level(side_a, args.level)
    group_b = perm_group_on_level(side_b, args.level)
    trivial = intersection_trivial_on_level(group_a, group_b)
    payload = {"level": args.level, "order_a": group_a.order(),
               "order_b": group_b.order(), "intersection_trivial": trivial}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("Group(())" if trivial else "nontrivial intersection")
        print(f"orders: {group_a.order()}, {group_b.order()} on level {args.level}")
    return 0 if trivial else 1


def cmd_catalog(args):
    if args.id:
        entry = _catalog.get(args.id)
        print(json.dumps(entry.to_json_dict(), indent=2))
    elif args.format == "json":
        print(_catalog.catalog_json())
    else:
        for key, entry in sorted(_catalog.catalog().items()):
            print(f"{key:12s} {entry.note}")
    return 0


def cmd_acceptance(args):
    from .acceptance import CRITERIA, run_all
    if args.criterion:
        report = CRITERIA[args.criterion - 1]()
        print(report.to_json() if args.format == "json" else report.text())
        return report.exit_code()
    reports = run_all(verbose=args.format != "json")
    failed = [r for r in reports if not r.ok]
    if args.format == "json":
        print(json.dumps([json.loads(r.to_json()) for r in reports], indent=2))
    else:
        print(f"{len(reports) - len(failed)}/{len(reports)} criteria passed")
    return 0 if not failed else 1


def build_parser():
    parser = _Parser(prog="arboreal",
                     description="exact computations with self-similar groups on trees")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named check")
    run.add_argument("check", choices=sorted(CHECKS))
    # one flag per declared param, passed as text for run_check to convert
    for name in dict.fromkeys(p.name for _, declared in CHECKS.values() for p in declared):
        run.add_argument(flag(name), dest=name)
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(func=cmd_run)

    por = sub.add_parser("portrait", help="portrait of an element, DOT or JSON")
    por.add_argument("--group")
    por.add_argument("--spec")
    por.add_argument("--element", required=True)
    por.add_argument("--depth", type=int, default=3)
    por.add_argument("--labels", action="store_true",
                     help="canonical section labels against the generators")
    por.add_argument("--theta", action="store_true",
                     help="unrooted portrait of theta(element)")
    por.add_argument("--up", type=int, default=3, help="levels above 0 (theta)")
    por.add_argument("--down", type=int, default=3, help="levels below 0 (theta)")
    por.add_argument("--format", choices=("dot", "json"), default="dot")
    por.add_argument("-o", "--output")
    por.set_defaults(func=cmd_portrait)

    pgl = sub.add_parser("perm-group-on-level", help="order (and orbits) on a level")
    pgl.add_argument("--group")
    pgl.add_argument("--spec")
    pgl.add_argument("--gens", help="comma-separated generator subset")
    pgl.add_argument("--level", type=int, required=True)
    pgl.add_argument("--orbit", help="vertex word whose orbit to report")
    pgl.add_argument("--format", choices=("text", "json"), default="text")
    pgl.set_defaults(func=cmd_perm_group)

    stab = sub.add_parser("stabilizer-of-first-level",
                          help="Schreier generator words of the stabilizer")
    stab.add_argument("--group")
    stab.add_argument("--spec")
    stab.add_argument("--vertex", help="stabilize this vertex instead of the level")
    stab.add_argument("--format", choices=("text", "json"), default="text")
    stab.set_defaults(func=cmd_stabilizer)

    inter = sub.add_parser("intersection",
                           help="triviality of the intersection of two level images")
    inter.add_argument("--group")
    inter.add_argument("--spec")
    inter.add_argument("--level", type=int, required=True)
    inter.add_argument("--gens-a", required=True,
                       help="words or first-level tuples, comma separated")
    inter.add_argument("--gens-b", required=True)
    inter.add_argument("--format", choices=("text", "json"), default="text")
    inter.set_defaults(func=cmd_intersection)

    cat = sub.add_parser("catalog", help="list or export the built-in groups")
    cat.add_argument("--id")
    cat.add_argument("--format", choices=("text", "json"), default="text")
    cat.set_defaults(func=cmd_catalog)

    acc = sub.add_parser("acceptance", help="run the acceptance suite")
    acc.add_argument("--criterion", type=int, help="run one criterion (1-9)")
    acc.add_argument("--format", choices=("text", "json"), default="text")
    acc.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WordSyntaxError, WreathSpecError, KeyError, ValueError, OSError) as err:
        # str() of a KeyError is the repr of its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"arboreal: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
