"""scripts/bench_pairs.py's ladder rounds: strictly alternated, three per
side, so no slow stretch of the host takes two of one side's rounds in a
row.  The script is standard library only and is loaded from its file."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_alternates_three_rounds_per_side(monkeypatch, tmp_path):
    bench_pairs = load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    ran = []

    def run(cmd, **kwargs):
        code = cmd[-1]
        ran.append("parent" if str(parent / "src") in code else "change")
        # each side's rounds time 1, 2, 3 s at every size
        seconds = ran.count(ran[-1])
        return SimpleNamespace(stdout=json.dumps([[seconds, "same"], [2 * seconds, "same"]]))

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = bench_pairs.ladder(parent, change, "{src} {sizes}", [1, 2])
    assert all(a != b for a, b in zip(ran, ran[1:])), ran
    assert ran.count("parent") == ran.count("change") == 3
    assert out["parent_s"] == out["change_s"] == [2, 4]
    assert out["checks"] == ["same", "same"]
