"""Free reduction on (name, ±1) factor tuples, the reference the packed engine is tested against.

`arboreal` reduces packed words only (`core._reduce_codes`); this loop over
factor tuples is the oracle for it, for `MealyAutomaton.reduce`, for
`reduced_product` and for sigma's powers.
"""

IDENTITY = "1"


def free_reduce(factors):
    """Free reduction: drop identity factors, cancel s^e s^-e."""
    out = []
    pop = out.pop
    push = out.append
    last_s, last_e = None, 0    # the last factor kept
    for f in factors:
        s, e = f
        if e == -last_e and s == last_s:
            pop()
            last_s, last_e = out[-1] if out else (None, 0)
        elif s != IDENTITY:
            push(f)
            last_s, last_e = f
    return tuple(out)
