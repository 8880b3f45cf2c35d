"""The relator certificate on (name, ±1) tuples, the reference for the packed certificate.

`arboreal.lifting` writes the relators packed and, when sigma = phi, takes
sigma(phi^k(r)) as the next iterate; this is the same certificate through
the public tuple methods alone: phi^k(r) written by `apply_word` from
phi^(k-1)(r), sigma applied by `apply_word`, and each image decided by
`word_is_trivial`.
"""

from arboreal.core import fmt_word


def relators(presentation, depth):
    """Q together with phi^k(R) for k <= depth, with labels."""
    out = [(f"Q[{i}]={fmt_word(r)}", r) for i, r in enumerate(presentation.fixed)]
    for i, r in enumerate(presentation.iterated):
        w = r
        for k in range(depth + 1):
            out.append((f"phi^{k}(R[{i}]={fmt_word(r)})", w))
            if k < depth:
                w = presentation.phi.apply_word(w)
    return out


def certificate(sigma, presentation, depth):
    """(label, sigma(r) is trivial) for every relator r of `relators`."""
    aut = sigma.automaton
    return [(f"sigma({label})", aut.word_is_trivial(sigma.apply_word(r)))
            for label, r in relators(presentation, depth)]
