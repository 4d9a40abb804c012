"""Every entry point the benchmark tracer wraps must still exist.

The tracer (perfbench/spans.py) replaces each target where the solver
looks it up and raises ``MissingTraceTarget`` when one is gone; entering
it here makes a rename that drops a traced layer fail this suite too.
"""

import importlib.util
import sys
from pathlib import Path

import vmsflow.solve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_target():
    spans = load_spans()
    original = vmsflow.solve.assemble_system
    with spans.Tracer().installed():
        assert vmsflow.solve.assemble_system is not original
    assert vmsflow.solve.assemble_system is original
