"""Spans around calls into arboreal's modules, installed from outside.

`Tracer.install` replaces each traced function by a wrapper under every
name it is bound to: a function imported by name into another module
(``hnn.level_perm``, ``acceptance.theta_apply``) is patched there as well
as where it is defined, and a method is patched on its class.  Only the
outermost call of a span name records a span, so recursion and nested
entry points (``apply_power`` calling ``apply_word``) count once and add
no frames below the first.  Spans are kept in memory in flat arrays and
summarised, or written out, when the run ends.  Memo sizes are read
without touching the caches.
"""

from __future__ import annotations

import gc
from array import array

# (module, function) -> span name
FUNCTIONS = {
    ("levels", "level_perm"): "levels.level_perm",
    ("levels", "_schreier_sims"): "levels.chain",
    ("levels", "intersection_trivial_on_level"): "levels.enumerate",
    ("levels", "stabilizer_words"): "levels.stabilizer",
    ("levels", "point_stabilizer_gens"): "levels.stabilizer",
    ("words", "evaluate"): "words.parse",
    ("lifting", "check_lifting"): "lifting.certificate",
    ("lifting", "verify_endomorphism_by_relators"): "lifting.certificate",
    ("lifting", "verify_endomorphism_by_quotient_separation"): "lifting.certificate",
    ("lifting", "ggs_lifting"): "lifting.certificate",
    ("hnn", "theta_apply"): "hnn.theta_apply",
    ("hnn", "hnn_multiply"): "hnn.multiply",
    ("hnn", "transitivity_witness"): "hnn.witness",
    ("padic", "boundary_apply"): "padic.boundary_apply",
    ("padic", "dilation_factor_empirical"): "padic.dilation",
}

# (module, class, method) -> span name
METHODS = {
    ("core", "MealyAutomaton", "word_is_trivial"): "core.trivial",
    ("core", "TreeAutomorphism", "act"): "core.act",
    ("core", "TreeAutomorphism", "section"): "core.section",
    ("levels", "LevelPermGroup", "__contains__"): "levels.sift",
    ("lifting", "Substitution", "apply_word"): "lifting.sigma",
    ("lifting", "Substitution", "apply_power"): "lifting.sigma",
}

MODULES = ("core", "words", "levels", "lifting", "hnn", "padic", "catalog",
           "checks", "acceptance", "cli")


def _factors(value):
    """Factor count of a parse result (a word, or an element holding one)."""
    if isinstance(value, tuple):
        return len(value)
    word = getattr(value, "word", None)
    if isinstance(word, tuple):
        return len(word) + getattr(value, "tneg", 0) + getattr(value, "tpos", 0)
    return 0


# span name -> function of the wrapped call's result, summed into a counter
COUNTERS = {
    "levels.level_perm": ("levels.level_perm.points", len),
    "words.parse": ("words.parse.factors", _factors),
}


class Tracer:
    """Spans timed by `clock`, a function returning seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self._ids = {}
        self._open = []
        self._stack = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {}
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(False)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        is_open = self._open
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        counter = COUNTERS.get(name)
        counters = self.counters
        clock = self.clock

        def traced(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            is_open[nid] = True
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                is_open[nid] = False
            if counter is not None:
                key, measure = counter
                counters[key] = counters.get(key, 0) + measure(out)
            return out

        return traced

    def run(self, name, fn):
        """A span opened by the benchmark itself around fn()."""
        return self.wrap(name, fn)()

    def install(self, package):
        modules = [package] + [getattr(package, m) for m in MODULES]
        for (mod, fname), span in FUNCTIONS.items():
            original = getattr(getattr(package, mod), fname)
            wrapper = self.wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for (mod, cname, mname), span in METHODS.items():
            cls = getattr(getattr(package, mod), cname)
            self._patch(cls, mname, self.wrap(span, vars(cls)[mname]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self):
        """span name -> (calls, seconds inclusive, seconds self)."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, own + dur - child[i])
        return out

    def write(self, path):
        """All spans, one per line: name, parent index, start, end (clock seconds)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.names[self.name_ids[i]]}\t{self.parents[i]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def memo_sizes(package):
    """Entries in the word-problem memos and the sigma-power action caches."""
    automaton_cls = package.core.MealyAutomaton
    action_cls = package.hnn.ScaleAction
    words = entries = 0
    for obj in gc.get_objects():
        if isinstance(obj, automaton_cls):
            words += len(obj._trivial) + len(obj._nontrivial)
        elif isinstance(obj, action_cls):
            entries += len(obj._act_cache)
    return {"core.trivial.memo_words": words, "hnn.sigma_cache.entries": entries}
