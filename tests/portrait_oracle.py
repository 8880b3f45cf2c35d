"""The in-memory portrait renderer the streamed writer replaced, kept as its oracle.

`portrait` and `label_portrait` build a node map of the whole tree,
`portrait_json`, `portrait_dot` and `render_unrooted` sort and render it,
and `render` is the text `arboreal portrait` printed from them.
"""

import json
from itertools import product

from arboreal.core import fmt_perm, fmt_vertex, match_label
from arboreal.hnn import UnrootedVertex, theta_portrait


def portrait(g, depth):
    """Map vertex -> root permutation of the section there, levels 0..depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    aut, nodes = g.automaton, {}
    for level, (sections, turns, _) in enumerate(aut._levels(aut._pack(g.word), depth)):
        nodes.update(zip(product(range(aut.size), repeat=level), map(turns.__getitem__, sections)))
    return nodes


def label_portrait(g, depth, candidates):
    """Canonical section labels: vertex -> candidate name, via exact equality.

    `candidates` maps names to TreeAutomorphisms (the identity is always
    tried first).  Unmatched sections are labelled None.  Each distinct
    section is matched once.
    """
    aut, names, labels = g.automaton, {}, {}
    for level, (sections, _, words) in enumerate(aut._levels(aut._pack(g.word), depth)):
        names.update({s: match_label(aut, aut._unpack(words[s]), candidates)
                      for s in dict.fromkeys(sections) if s not in names})
        labels.update(zip(product(range(aut.size), repeat=level), map(names.__getitem__, sections)))
    return labels


def portrait_json(nodes, labels=None):
    """Portrait as a JSON string; nodes sorted by (level, vertex)."""
    out = []
    for v in sorted(nodes, key=lambda v: (len(v), v)):
        rec = {"vertex": fmt_vertex(v), "perm": list(nodes[v])}
        if labels is not None:
            rec["section"] = labels.get(v)
        out.append(rec)
    return json.dumps(out, indent=2)


def portrait_dot(nodes, labels=None):
    """Portrait as DOT text: stable node order, fixed attribute order."""
    lines = ["digraph portrait {", "  node [shape=circle];"]
    for v in sorted(nodes, key=lambda v: (len(v), v)):
        name = fmt_vertex(v) or "root"
        label = fmt_perm(nodes[v])
        if labels is not None and labels.get(v) is not None:
            label = f"{labels[v]} {label}"
        lines.append(f'  "{name}" [label="{label}"];')
    for v in sorted(nodes, key=lambda v: (len(v), v)):
        if v == ():
            continue
        parent = fmt_vertex(v[:-1]) or "root"
        lines.append(f'  "{parent}" -> "{fmt_vertex(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def theta_nodes(g, action, up, down):
    """sigma^up(g) and the node map {UnrootedVertex: root permutation} of theta(g)
    on levels -up..down."""
    top = theta_portrait(g, action, up, down)
    return top, {UnrootedVertex(up, v): perm for v, perm in portrait(top, up + down).items()}


def render_unrooted(nodes, labels, fmt):
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


def render(entry, element, fmt="dot", labels=False, depth=3, theta=None):
    """What `arboreal portrait` printed: the rooted portrait to `depth`, or with
    theta = (up, down) the unrooted portrait of theta(element)."""
    candidates = dict(entry.elements())
    if theta is not None:
        up, down = theta
        top, nodes = theta_nodes(element, entry.action(), up, down)
        # every node lies in the copy T^(up), so labels are keyed by the word there
        names = label_portrait(top, up + down, candidates) if labels else None
        text = render_unrooted(nodes, names, fmt)
    else:
        nodes = portrait(element, depth)
        names = label_portrait(element, depth, candidates) if labels else None
        text = portrait_dot(nodes, names) if fmt == "dot" else portrait_json(nodes, names)
    return text if text.endswith("\n") else text + "\n"
