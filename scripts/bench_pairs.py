"""Alternated parent/change benchmark pairs and the size ladders.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_N.json
        [--seed-base 1400] [--claim TEXT]

Run from the root of a checkout.  The change side is a copy of its
working tree (the files git tracks or would track), the parent side is
``git archive REV``; each is unpacked into a temporary directory, so
neither side starts with cached bytecode.  Ten pairs run; pair k runs
every workload of ``BENCHMARK.json`` for its ``run_seconds`` with seed
base + k, parent first when k is even, through ``bench/run.py --trace 0``
of each side, before pair k + 1 starts.  Per workload and end-to-end
metric the output holds both sides' median and quartiles and the pairs
the change won; per query class, each side's median over the pairs of
the class median that the run record (``bench/runs/<workload>-seed<N>-
trace0.json`` in that side's tree) holds.

Size ladders follow, each timed in a fresh interpreter per round;
a round takes the best of 3 runs per size, rounds alternate parent,
change, parent, change, parent, change, so no two consecutive rounds
belong to one side, and each size reports the median of its side's
three rounds.  The associativity ladder times
``search_tree_equivalence`` from the left comb of n leaves to the left
comb rotated by one leaf, which ends refuted-exhausted; its checks are
the full search statistics and, from an untimed search from the left
comb to the right comb, which ends proven, the statistics and a hash of
the trace.  The Dehn ladder times ``dehn_solve`` on the genus-16
surface group over ten seeded random freely reduced words of 1k, 2k,
4k and 8k letters, all certified nontrivial, so the scan is most of
the cost.  The power-freeness ladders time ``is_power_free`` on
Thue-Morse prefixes with k=3 and square-free ternary prefixes with k=2
of 1k to 32k letters, both power-free, so the whole word is checked.  Both sides must give the same answers.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
LEAVES = [8, 9, 10, 11]
LETTERS = [1000, 2000, 4000, 8000]
POWER_LETTERS = [1024, 2048, 4096, 8192, 16384, 32768]
ROUNDS = ("parent", "change") * 3

# each child prints [best seconds, answer check] per size
TREE_CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, {src!r})
from wordproblem.terms import ASSOCIATIVITY, Leaf, Node, search_tree_equivalence

def left_comb(names):
    t = Leaf(names[0])
    for x in names[1:]:
        t = Node(t, Leaf(x))
    return t

def right_comb(names):
    t = Leaf(names[-1])
    for x in reversed(names[:-1]):
        t = Node(Leaf(x), t)
    return t

out = []
for n in {sizes!r}:
    names = "ABCDEFGHIJKLMNOP"[:n]
    a, b = left_comb(names), left_comb(names[1:] + names[0])
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        o = search_tree_equivalence(a, b, [ASSOCIATIVITY], 10**7)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert o.status.value == "refuted-exhausted", o
    proof = search_tree_equivalence(a, right_comb(names), [ASSOCIATIVITY], 10**7)
    assert proof.status.value == "proven", proof
    trace = hashlib.sha256(repr(proof.trace).encode()).hexdigest()[:16]
    out.append((best, [list(o.stats), list(proof.stats), trace]))
print(json.dumps(out))
"""

DEHN_CHILD = """
import hashlib, json, random, sys, time
sys.path.insert(0, {src!r})
from wordproblem.dehn import dehn_solve
from wordproblem.presentations import catalog
from wordproblem.words import GenLetter

p = catalog("surface", genus=16)
out = []
for n in {sizes!r}:
    rng = random.Random(n)
    words = []
    for _ in range(10):
        w = []
        while len(w) < n:
            x = GenLetter(rng.randrange(p.n_gens), rng.choice((1, -1)))
            if not w or w[-1] != x.inverse():
                w.append(x)
        words.append(tuple(w))
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        outcomes = [dehn_solve(w, p) for w in words]
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert all(o.verdict.value == "nontrivial-certified" for o in outcomes)
    answers = repr([([tuple(s) for s in o.trace], [tuple(x) for x in o.final_word])
                    for o in outcomes])
    out.append((best, hashlib.sha256(answers.encode()).hexdigest()[:16]))
print(json.dumps(out))
"""


POWER_CHILD = """
import json, sys, time
sys.path.insert(0, {src!r})
from wordproblem.sequences import is_power_free, {prefix}

out = []
for n in {sizes!r}:
    word = {prefix}(n)
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        answer = is_power_free(word, {k})
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    out.append((best, repr(answer)))
print(json.dumps(out))
"""


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "bench" / "runs" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    result["tail_class"] = record.get("tail_class")
    result["median_classes"] = record.get("median_classes")
    result["class_median_ms"] = record.get("class_median_ms", {})
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 4),
            "quartiles": [round(q1, 4), round(q3, 4)]}


def class_medians(results) -> dict:
    """Per query class, the median over the runs of its median time (ms)."""
    classes = sorted({c for r in results for c in r["class_median_ms"]})
    return {c: round(statistics.median(r["class_median_ms"][c] for r in results
                                       if c in r["class_median_ms"]), 4)
            for c in classes}


def workload_table(runs, seeds, metrics):
    """runs: one (parent result, change result) per pair."""
    table = {
        "seeds": seeds, "pairs": len(runs),
        "correct": all(r["correct"] for pair in runs for r in pair),
        "failed": {side: sum(pair[i]["failed"] for pair in runs)
                   for i, side in enumerate(("parent", "change"))},
        "attempted": {side: sum(pair[i]["attempted"] for pair in runs)
                      for i, side in enumerate(("parent", "change"))},
        "tail_class": {side: dict(Counter(pair[i]["tail_class"] for pair in runs))
                       for i, side in enumerate(("parent", "change"))},
        "median_classes": {side: dict(Counter("+".join(pair[i]["median_classes"])
                                              for pair in runs))
                           for i, side in enumerate(("parent", "change"))},
        "class_median_ms": {side: class_medians([pair[i] for pair in runs])
                            for i, side in enumerate(("parent", "change"))},
        "metrics": {},
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [pair[0]["metrics"][name]["value"] for pair in runs]
        change = [pair[1]["metrics"][name]["value"] for pair in runs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        table["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                  "parent": summary(parent), "change": summary(change),
                                  "wins": f"{wins}/{len(runs)}"}
    return table


def ladder(parent: Path, change: Path, child: str, sizes: list, **fields) -> dict:
    """Each side's median round per size, its ratio from one size to the
    next, and the answer checks, which both sides must share.  `fields`
    fill the child's other placeholders."""
    rounds = {"parent": [], "change": []}
    for side in ROUNDS:
        checkout = parent if side == "parent" else change
        code = child.format(src=str(checkout / "src"), sizes=sizes, **fields)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        rounds[side].append(json.loads(done.stdout))
    checks = [c for _, c in rounds["parent"][0]]
    if any([c for _, c in r] != checks for side in rounds.values() for r in side):
        raise SystemExit("the two sides answered a ladder differently")
    out = {"sizes": sizes, "checks": checks}
    for side, side_rounds in rounds.items():
        median = [round(statistics.median(r[i][0] for r in side_rounds), 4)
                  for i in range(len(sizes))]
        out[f"{side}_s"] = median
        out[f"{side}_ratio"] = [round(b / a, 2) for a, b in zip(median, median[1:])]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seed-base", type=int, default=1400)
    ap.add_argument("--claim", default="", help="the gain the change claims, in words")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"],
                               cwd=ROOT, capture_output=True, check=True).stdout
        tars = {parent: ["git", "archive", rev],
                change: ["tar", "-c", "--null", "-T", "-"]}
        for checkout, cmd in tars.items():
            checkout.mkdir()
            archive = subprocess.run(cmd, cwd=ROOT, input=files, capture_output=True,
                                     check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive, check=True)
        runs = {w: [] for w in workloads}
        for k in range(PAIRS):
            for w in workloads:
                seed = args.seed_base + k
                sides = [(0, parent), (1, change)]
                pair = [None, None]
                for i, checkout in (sides if k % 2 == 0 else sides[::-1]):
                    pair[i] = run_bench(checkout, w, seed, seconds)
                runs[w].append(pair)
                print(f"pair {k} {w}: " + " ".join(
                    f"{side} {pair[i]['metrics']['queries_per_s']['value']:.1f}/s"
                    for i, side in enumerate(("parent", "change"))), file=sys.stderr)
        seeds = [args.seed_base + k for k in range(PAIRS)]
        out = {
            "parent": rev,
            "change": "the commit that adds this file",
            "python": platform.python_version(),
            "host": f"{platform.system()}, {platform.machine()}, {os.cpu_count()} CPUs",
            "command": (f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                        "--trace 0, run by python3 scripts/bench_pairs.py "
                        + " ".join(shlex.quote(a) for a in sys.argv[1:])),
            "order": ("pairs alternate which side runs first, parent first on even pair "
                      f"index; pair k runs every workload with seed {args.seed_base} + k "
                      "before pair k + 1 starts"),
            "claim": args.claim,
            "workloads": {w: workload_table(runs[w], seeds, spec["end_to_end"])
                          for w in workloads},
            "ladder": {
                "what": ("search_tree_equivalence(left_comb of n leaves, left_comb rotated "
                         "by one leaf, [ASSOCIATIVITY]), refuted-exhausted; sizes are "
                         "leaves; checks the search statistics (expanded, frontier peak, "
                         "depth), then those and a hash of the trace of the untimed proven "
                         "search from the left comb to the right comb; each round takes the "
                         "best of 3 runs, rounds alternated parent, change, parent, change, "
                         "parent, change, and each size reports its side's median round"),
                **ladder(parent, change, TREE_CHILD, LEAVES)},
            "dehn_ladder": {
                "what": ("dehn_solve on the genus-16 surface group over 10 random freely "
                         "reduced words per size, seeded by the size, all certified "
                         "nontrivial; sizes are letters, checks a hash of the traces and "
                         "final words; rounds alternated as in ladder, three per side, ratios "
                         "per doubling"),
                **ladder(parent, change, DEHN_CHILD, LETTERS)},
            "power_ladder": {
                "what": ("is_power_free on the first n letters of the Thue-Morse word "
                         "with k=3 and of the square-free ternary word with k=2, both "
                         "power-free; sizes are letters, checks the answers; rounds "
                         "alternated as in ladder, three per side, ratios per doubling"),
                "thue_morse_k3": ladder(parent, change, POWER_CHILD, POWER_LETTERS,
                                        prefix="thue_morse_prefix", k=3),
                "square_free_k2": ladder(parent, change, POWER_CHILD, POWER_LETTERS,
                                         prefix="square_free_ternary_prefix", k=2)},
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
