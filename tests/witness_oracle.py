"""The frontier search `lifting.self_replicating_witnesses` ran before it enumerated reduced
words with `itertools.product`, kept as its oracle (without a sigma).

Each length's reduced words are built from the last length's list, one symbol at a time, and
a seen set drops repeats.
"""

from arboreal.core import TreeAutomorphism
from arboreal.levels import orbit
from arboreal.lifting import LiftingError, WitnessReport, _lifting_condition


def frontier_witnesses(gens, letter, word_bound):
    items = list(gens.items())
    automaton = items[0][1].automaton
    if not 0 <= letter < automaton.size:
        raise ValueError(f"letter must be in 0..{automaton.size - 1}, got {letter}")
    i = letter

    report = WitnessReport(letter=i, witnesses={}, source={})
    for name, g in items:
        trivial = g.is_trivial()
        report.witnesses[name] = () if trivial else None
        report.source[name] = "trivial" if trivial else "search"
    if report.ok:
        return report

    if len(orbit((i,), gens.values(), TreeAutomorphism.act)) != automaton.size:
        raise LiftingError("group is not transitive on the first level")

    symbols = [(name, 1) for name, _ in items] + [(name, -1) for name, _ in items]
    targets = {name for name in report.witnesses if report.witnesses[name] is None}
    frontier = [()]
    seen_words = {()}
    length = 0
    while targets and length < word_bound:
        length += 1
        nxt = []
        for w in frontier:
            for sym in symbols:
                cand = automaton.reduce(w + (sym,))
                if len(cand) != length or cand in seen_words:
                    continue
                seen_words.add(cand)
                nxt.append(cand)
                for name in sorted(targets):
                    if all(_lifting_condition(automaton, cand, i, name)):
                        report.witnesses[name] = cand
                        targets.discard(name)
                        break
        frontier = nxt
    return report
