"""scripts/uncovered.py's tracer check: a test after whose call the
tracer is gone fails under its own name, so a run whose later tests went
untraced cannot pass for a whole one.  The hook is driven here by hand;
the trace function itself is left alone."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "uncovered.py"


def load_script():
    spec = importlib.util.spec_from_file_location("uncovered", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_after_call(check, when="call"):
    hook = check.pytest_runtest_makereport(SimpleNamespace(nodeid="tests/test_x.py::test_deep"),
                                           SimpleNamespace(when=when))
    next(hook)
    with pytest.raises(StopIteration) as done:
        hook.send(SimpleNamespace(outcome="passed", longrepr=None))
    return done.value.value


def test_a_test_that_clears_the_tracer_fails_under_its_name():
    check = load_script().TracerCheck(lambda frame, event, arg: None)
    report = report_after_call(check)
    assert report.outcome == "failed"
    assert report.longrepr.startswith("tests/test_x.py::test_deep cleared the tracer")
    assert report_after_call(check, when="setup").outcome == "passed"


def test_a_test_that_keeps_the_tracer_passes():
    check = load_script().TracerCheck(sys.gettrace())
    assert report_after_call(check).outcome == "passed"
