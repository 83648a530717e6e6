"""Benchmark of the ``wordproblem`` package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Each workload is a single-threaded
closed loop: the next query starts only when the previous one returned.
An untimed warm-up pass feeds the correctness checks; then whole passes
over the query set are timed until S seconds have gone by.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separately traced run with
``--trace 1``.  A record of the run, and with ``--trace 1`` its spans,
go to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "bench" / "runs"

WORKLOADS = {
    "dehn-words": "dehn_words",
    "constructions": "constructions",
    "rewrite-search": "rewrite_search",
    "cli-mixed": "cli_mixed",
}
SETUP_SAMPLES = {"full": 9, "smoke": 1}
MIN_PASSES = {"full": 5, "smoke": 1}
MIN_TRACED_PAIRS = {"full": 3, "smoke": 1}

# A workload without the size classes of a ratio reports it as 0.
DOUBLING_METRICS = ("dehn.doubling", "presentations.doubling", "sequences.doubling",
                    "cayley.coset_doubling", "cayley.delta_doubling")
COUNT_METRICS = ("dehn.steps", "presentations.symmetrized_words", "words.letters",
                 "search.expanded", "rewriting.successor_calls", "terms.successor_calls",
                 "reductions.tm_steps", "sequences.letters_checked", "cayley.cosets",
                 "cayley.letters_traced")
CALL_METRICS = ("dehn", "presentations", "words", "cli")

SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {root!r}]
t0 = time.perf_counter()
{imports}
t1 = time.perf_counter()
from bench import {module} as w
inputs = w.generate({seed}, {size!r})
t2 = time.perf_counter()
w.build(inputs)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


class SetupProbe:
    """Set-up time measured in fresh interpreters: importing the package
    (and the CLI where the workload uses it) plus the program calls that
    build the workload's fixed objects; input generation is excluded.
    Samples are taken between timed passes, so that they spread over the
    run rather than share one moment of the machine's load."""

    def __init__(self, module, wl, seed, size):
        self.code = SETUP_CHILD.format(
            src=str(SRC), root=str(ROOT), module=module, seed=seed, size=size,
            imports="\n".join(f"import {m}" for m in wl.SETUP_IMPORTS))
        self.wanted = SETUP_SAMPLES[size]
        self.samples = []
        self._child()  # fills the file cache; not a sample

    def _child(self):
        out = subprocess.run([sys.executable, "-I", "-c", self.code], check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return float(out.strip().splitlines()[-1])

    def sample(self):
        if len(self.samples) < self.wanted:
            self.samples.append(self._child())

    def median(self):
        while len(self.samples) < self.wanted:
            self.sample()
        return statistics.median(self.samples)


def run_pass(qs, tracer=None):
    """Run every query once; return per-query seconds, results, failures."""
    times, results, failed = [], [], []
    # The benchmark's own objects (inputs, earlier results) are moved out of
    # the collector's reach, so that collections during a query scan only
    # what the program allocated.
    gc.collect()
    gc.freeze()
    try:
        for j, q in enumerate(qs):
            if tracer is not None:
                tracer.query = j
            t0 = perf_counter()
            try:
                r = q.run()
                bad = False
            except Exception as exc:  # a query that raises is a failed operation
                r, bad = exc, True
            times.append(perf_counter() - t0)
            results.append(r)
            failed.append(bad)
    finally:
        gc.unfreeze()  # so that the next collection can free what is dropped now
    return times, results, failed


def check_pass(qs, results, failed, reference=None):
    """Full checks, or with ``reference`` a comparison with the summaries
    of the checked warm-up pass.  Failed queries are not checked."""
    for j, q in enumerate(qs):
        if reference is not None:
            if failed[j] != reference[j][0] or (
                    not failed[j] and q.summary(results[j]) != reference[j][1]):
                print(f"result changed between passes: query {j} ({q.cls})",
                      file=sys.stderr)
                return False
        elif not failed[j] and not q.check(results[j]):
            print(f"check failed: query {j} ({q.cls})", file=sys.stderr)
            return False
    return True


def passes(wl, inputs, fixed, qs0, seconds, size, min_passes, between=None):
    """Yield the query list of each pass until the time is up; inputs are
    made afresh for each pass when the workload asks for it."""
    start = perf_counter()
    pass_no = 1
    while True:
        if between is not None:
            between()
        yield wl.queries(inputs, fixed, pass_no) if wl.FRESH_PER_PASS else qs0
        if pass_no >= min_passes and (
                size == "smoke" or perf_counter() - start >= seconds):
            return
        pass_no += 1


def tail_index(n):
    """Index of the highest percentile with at least ten samples beyond."""
    return n - 11 if n >= 40 else n - 1


def timed_run(wl, inputs, fixed, qs0, warm, seconds, size, setup):
    ref = [(f, None if f else q.summary(r)) for q, r, f in zip(qs0, warm[1], warm[2])]
    times, failed = [], []
    correct = True
    for qs in passes(wl, inputs, fixed, qs0, seconds, size, MIN_PASSES[size],
                        setup.sample):
        t, results, f = run_pass(qs)
        times.append(t)
        failed.append(f)
        correct &= check_pass(qs, results, f, None if wl.FRESH_PER_PASS else ref)
        del results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # One latency sample per query: its median time over the passes.  On a
    # shared host the speed changes for seconds at a time; the median over
    # passes spread through the run repeats far better than the minimum.
    # A query that failed gave no verdict and has no latency, and does not
    # count as completed.
    done = [j for j in range(len(qs0)) if not any(f[j] for f in failed)]
    sample = [statistics.median(t[j] for t in times) for j in done]
    classes = [qs0[j].cls for j in done]
    n = len(sample)
    order = sorted(range(n), key=sample.__getitem__)
    t_idx = tail_index(n)
    failed_s = sum(statistics.median(t[j] for t in times)
                   for j in range(len(qs0)) if j not in done)
    metrics = {
        "queries_per_s": n / (sum(sample) + failed_s),
        "query_p50_ms": 1000 * statistics.median(sample),
        "query_tail_ms": 1000 * sample[order[t_idx]],
        "setup_s": setup.median(),
        "peak_rss_mb": peak_rss_mb,
    }
    ranks = {}
    for rank, j in enumerate(order):
        ranks.setdefault(classes[j], []).append(rank)
    record = {
        "passes": len(times), "samples": n,
        "tail_percentile": round(100.0 * (t_idx + 1) / n, 2),
        "median_ranks": [(n - 1) // 2, n // 2], "tail_rank": t_idx,
        "median_classes": sorted({classes[order[(n - 1) // 2]], classes[order[n // 2]]}),
        "tail_class": classes[order[t_idx]],
        "class_ranks": {c: [min(r), max(r), len(r)] for c, r in ranks.items()},
        "class_median_ms": {c: 1000 * statistics.median(
            b for b, k in zip(sample, classes) if k == c) for c in ranks},
        "setup_samples_s": setup.samples,
        "query_s_by_pass": times, "classes": [q.cls for q in qs0],
    }
    return correct, len(qs0) * len(times), sum(map(sum, failed)), metrics, record


def traced_run(wl, inputs, fixed, qs0, seconds, size, dump_path):
    from bench.tracer import LAYERS, Tracer

    tracer = Tracer()
    n = len(qs0)
    classes = [q.cls for q in qs0]
    plain, traced, per_query = [], [], []
    first = None
    correct = True
    attempted = failed_total = 0
    for k, qs in enumerate(passes(wl, inputs, fixed, qs0, seconds, size, MIN_TRACED_PAIRS[size])):
        # Each pair runs the queries untraced and traced, in turns first,
        # so that neither side always meets the inputs first.
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_now:
                tracer.reset()
                tracer.install()
            try:
                t0 = perf_counter()
                _, results, failed = run_pass(qs, tracer if traced_now else None)
                elapsed = perf_counter() - t0
            finally:
                tracer.uninstall()
            attempted += n
            failed_total += sum(failed)
            if not traced_now:
                plain.append(elapsed)
                continue
            traced.append(elapsed)
            correct &= check_pass(qs, results, failed)
            selfs, calls = tracer.self_times(n)
            per_query.append(selfs)
            if first is None:
                extra = wl.pass_counts(results) if hasattr(wl, "pass_counts") else {}
                first = (dict(tracer.counts), dict(tracer.maxima), calls, extra)
                tracer.dump(dump_path)
        del results

    counts, maxima, calls, extra = first
    # per layer, the median over traced passes, as for the untraced latencies
    self_ms = [1000 * statistics.median(sum(p[i]) for p in per_query)
               for i in range(len(LAYERS))]
    m = {f"{layer}.self_ms": self_ms[i] for i, layer in enumerate(LAYERS)}
    for layer in CALL_METRICS:
        m[f"{layer}.calls"] = calls[LAYERS.index(layer)]
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    m["search.frontier_peak"] = maxima.get("search.frontier_peak", 0)
    expanded = counts.get("terms.expanded", 0)
    m["terms.us_per_expanded"] = (
        1000 * self_ms[LAYERS.index("terms")] / expanded if expanded else 0.0)
    m["cli.bytes_out"] = extra.get("cli.bytes_out", 0)
    for name in DOUBLING_METRICS:
        spec = wl.DOUBLING.get(name)
        m[name] = _doubling(per_query, LAYERS.index(spec[0]), classes, *spec[1:]) \
            if spec else 0.0
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    record = {"traced_passes": len(traced), "plain_pass_s": plain, "traced_pass_s": traced,
              "layer_self_ms_by_pass": [[1000 * sum(s) for s in p] for p in per_query]}
    return correct, attempted, failed_total, m, record


def _doubling(per_query, layer, classes, c1, c2):
    """Ratio of the layer's median self time per query (median over
    traced passes), in the 2x size class over the 1x class."""
    def class_median(c):
        return statistics.median(statistics.median(p[layer][j] for p in per_query)
                                 for j, k in enumerate(classes) if k == c)
    base = class_median(c1)
    return class_median(c2) / base if base > 0 else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one timed pass, every check still made")
    args = ap.parse_args(argv)

    if not (SRC / "wordproblem" / "__init__.py").is_file():
        print(f"error: no wordproblem package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    module = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    wl = importlib.import_module(f"bench.{module}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
             for m in spec[group]}
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")

    setup = None if args.trace else SetupProbe(module, wl, args.seed, size)
    inputs = wl.generate(args.seed, size)
    fixed = wl.build(inputs)
    try:
        qs0 = wl.queries(inputs, fixed, 0)
        warm = run_pass(qs0)
        correct = check_pass(qs0, warm[1], warm[2])
        if hasattr(wl, "check_inputs"):
            correct &= wl.check_inputs(inputs)
        if args.trace:
            ok, attempted, failed, metrics, record = traced_run(
                wl, inputs, fixed, qs0, args.seconds, size, RUNS / f"{tag}-spans.tsv.gz")
        else:
            ok, attempted, failed, metrics, record = timed_run(
                wl, inputs, fixed, qs0, warm, args.seconds, size, setup)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(inputs)
    result = {
        "correct": bool(correct and ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, result=result)
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
