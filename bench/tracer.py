"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces the functions that the ``wordproblem``
modules expose, and the names they import from one another, with
wrappers.  A call records a span only when it crosses into another
layer (a layer is one module); calls inside a layer run straight through,
so recursion and helpers do not add spans.  Spans stay in flat arrays in
memory until the run ends.  ``uninstall()`` restores every attribute.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("words", "presentations", "dehn", "search", "rewriting", "terms",
          "reductions", "sequences", "cayley", "cli")


def _len0(args):
    return len(args[0]) if args and hasattr(args[0], "__len__") else 0


def _stats(result):
    # class_search/forward_search return (status, steps, stats)
    return result[2]


# Counts taken from arguments or results of specific functions, on every
# call, wherever it comes from.  Each maps (args, result) to an amount.
COUNTS = {
    "dehn.dehn_solve": [("dehn.steps", lambda a, r: len(r.trace))],
    "presentations.symmetrize": [
        ("presentations.symmetrized_words", lambda a, r: len(r.words))],
    "search.class_search": [("search.expanded", lambda a, r: _stats(r).expanded)],
    "search.forward_search": [("search.expanded", lambda a, r: _stats(r).expanded)],
    "rewriting.successors": [("rewriting.successor_calls", lambda a, r: 1)],
    "terms.tree_successors": [("terms.successor_calls", lambda a, r: 1)],
    "terms.search_tree_equivalence": [
        ("terms.expanded", lambda a, r: r.stats.expanded)],
    "reductions.tm_step": [("reductions.tm_steps", lambda a, r: r is not None)],
    "sequences.is_power_free": [("sequences.letters_checked", lambda a, r: _len0(a))],
    "cayley.todd_coxeter": [("cayley.cosets", lambda a, r: r.n_cosets)],
    "cayley.word_problem_finite": [("cayley.letters_traced", lambda a, r: _len0(a))],
}
# Maxima over a pass rather than sums.
MAXIMA = {
    "search.class_search": [("search.frontier_peak", lambda a, r: _stats(r).frontier_peak)],
    "search.forward_search": [("search.frontier_peak", lambda a, r: _stats(r).frontier_peak)],
}


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "layer.function"
        self.layer_of = []  # function id -> layer index
        self.query = -1
        self._patched = []  # (module, attribute, original)
        self._wrappers = {}  # "layer.function" -> wrapper, made once
        self.reset()

    def reset(self):
        self.fn = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        # stack of (span index, layer index); the bottom entry is outside
        self._stack = [(-1, -1)]

    # ------------------------------------------------------------ patching

    def install(self):
        wrappers = self._wrappers
        for layer in LAYERS:
            mod = importlib.import_module(f"wordproblem.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("wordproblem."):
                    continue
                key = f"{home.split('.')[-1]}.{obj.__name__}"
                if key not in wrappers:
                    wrappers[key] = self._wrap(obj, key)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, key):
        fid = len(self.names)
        layer = LAYERS.index(key.split(".")[0])
        self.names.append(key)
        self.layer_of.append(layer)
        counts = COUNTS.get(key, ())
        maxima = MAXIMA.get(key, ())
        letters = key.startswith("words.")
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.start)
                tracer.fn.append(fid)
                tracer.parent.append(stack[-1][0])
                tracer.qid.append(tracer.query)
                tracer.end.append(0.0)
                if letters:
                    tracer.counts["words.letters"] += _len0(args)
                stack.append((idx, layer))
                tracer.start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end[idx] = perf_counter()
                    stack.pop()
            for name, f in counts:
                tracer.counts[name] += f(args, result)
            for name, f in maxima:
                tracer.maxima[name] = max(tracer.maxima[name], f(args, result))
            return result

        return wrapper

    # ------------------------------------------------------------ analysis

    def self_times(self, n_queries):
        """Per-layer self time in seconds, per query: [layer][query]."""
        out = [[0.0] * n_queries for _ in LAYERS]
        calls = [0] * len(LAYERS)
        for i in range(len(self.start)):
            layer = self.layer_of[self.fn[i]]
            q = self.qid[i]
            dur = self.end[i] - self.start[i]
            out[layer][q] += dur
            calls[layer] += 1
            p = self.parent[i]
            if p >= 0:
                out[self.layer_of[self.fn[p]]][q] -= dur
        return out, calls

    def dump(self, path):
        """Write the spans as gzip'd tab-separated text, one span a line:
        index, name, parent index, query id, start and end in seconds."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span\tname\tparent\tquery\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.fn[i]]}\t{self.parent[i]}\t"
                         f"{self.qid[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
