"""Each output check of the benchmark accepts the right answer and rejects
a deliberately perturbed one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Every operation of every workload is run; the deep-vertex operations,
which raise RecursionError today, are given the evaluator's answer
instead.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import arboreal  # noqa: E402
import arboreal.acceptance  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _flip(digits, d=2):
    return digits[:-1] + ((digits[-1] + 1) % d,)


def _perturbations(name, out):
    kind = name.split()[0]
    if isinstance(out, bool):
        return [not out]
    if kind == "order":
        order, perms, orbit = out
        swapped = list(perms)
        swapped[0] = tuple(reversed(swapped[0]))
        return [(order * 2, perms, orbit), (order, swapped, orbit), (order, perms, orbit - 1)]
    if kind == "separation":
        return [dataclasses.replace(out, stabilizer_order=out.stabilizer_order * 2),
                dataclasses.replace(out, complement_order=out.complement_order * 2),
                dataclasses.replace(out, intersection_trivial=not out.intersection_trivial),
                dataclasses.replace(out, complement_faithful=False)]
    if kind == "decide" and name.startswith("decide sigma(relator)"):
        word, verdict = out
        return [(word[:-1], verdict), (word, not verdict)]
    if kind == "parse":
        return [out[:-1], out[:-1] + (oracle.invert(out[-1:])[0],)]
    if kind == "dilation":
        return [out + 1, out - 1]
    if kind == "theta":
        (a, b), rest = out[0], out[1:]
        other = arboreal.hnn.UnrootedVertex(b.copy + 1, b.word)
        return [[(a, other)] + rest]
    if kind == "spine":
        (m, v), rest = out[0], out[1:]
        return [[(m, arboreal.hnn.UnrootedVertex(m + 1, ()))] + rest]
    if kind in ("window", "boundary_apply", "theta_apply"):
        offset, digits = out
        return [(offset + 1, digits), (offset, _flip(digits))]
    if kind == "act":
        return [_flip(out)]
    if kind == "section":
        return [(("a", 1),) + out]
    if kind == "acceptance":
        return [dataclasses.replace(out, status="fail")]
    raise AssertionError(f"no perturbation for {name}")


def _deep_answer(name):
    grig = arboreal.catalog.get("grigorchuk")
    ev = oracle.Evaluator(grig.automaton)
    b = (("b", 1),)
    depth = int(name.split("^")[-1].split()[0]) if "^" in name else workloads.DEEP
    if name.startswith("act"):
        return ev.act(b, (1,) * depth)
    if name.startswith("section"):
        return ev.section(b, (1,) * depth)
    if name.startswith("theta_apply"):
        return 0, ev.act(b, (1,) * depth)
    basilica = arboreal.catalog.get("basilica")
    return oracle.boundary_apply(oracle.Evaluator(basilica.automaton),
                                 dict(basilica.sigma().images), 0, 0,
                                 (("a", 1), ("b", 1)), 0, 1, (0,) * workloads.DEEP)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_perturbed_answers(workload):
    ops = workloads.build(workload, arboreal, SEED)
    kinds = set()
    for op in ops:
        try:
            out = op.run()
        except RecursionError:
            out = _deep_answer(op.name)
        assert op.check(out) is None, op.name
        for wrong in _perturbations(op.name, out):
            assert op.check(wrong) is not None, f"{op.name} accepted {wrong!r:.200}"
        kinds.add(op.name.split()[0])
    assert kinds


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
