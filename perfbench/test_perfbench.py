"""Benchmark-local tests: the correctness gate and the exactness of traced counts.

    python3 -m pytest -q perfbench/test_perfbench.py     (about 30 s)
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import MissingTraceTarget, Tracer  # noqa: E402
from vmsflow.output import write_outputs  # noqa: E402
from workloads import WORKLOADS, gate, re_factor, run_op  # noqa: E402

COUNT_UNITS = ("count", "ratio", "norm", "bytes")


def traced_op(name: str, seed: int | None, outdir: Path):
    workload = WORKLOADS[name]
    factor = re_factor(seed)
    tracer = Tracer()
    tracer.op = 1
    with tracer.installed(), tracer.span("op"):
        result = run_op(workload, factor, outdir, tracer.span)
    assert gate(workload, result) == []
    metrics = run.layer_metrics(tracer, 1, result, workload.config(factor).tol)
    counts = {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}
    counts["nonlinear_iters"] = result.iterations
    return result, counts


@pytest.fixture(scope="module")
def lid_newton(tmp_path_factory):
    return traced_op("lid-newton", None, tmp_path_factory.mktemp("lid"))


def test_gate_passes_nominal_and_rejects_perturbed_state(lid_newton, tmp_path):
    result, _ = lid_newton
    workload = WORKLOADS["lid-newton"]
    assert gate(workload, result) == []

    # A damped velocity field moves the centreline minimum away from Ghia et al.
    state = result.state.copy()
    state.vbar *= 0.9
    written = write_outputs(state, result.problem.mesh, result.reports[0], tmp_path)
    reasons = gate(workload, dataclasses.replace(result, state=state, written=written))
    assert any("centreline" in r for r in reasons)


def test_gate_rejects_unconverged_and_loose_residual(lid_newton):
    result, _ = lid_newton
    workload = WORKLOADS["lid-newton"]
    report = result.reports[0]
    loose = type(report)(residual_history=report.residual_history * 1e3,
                         converged=True, diverged=False, iterations=report.iterations)
    stalled = type(report)(residual_history=report.residual_history,
                           converged=False, diverged=True, iterations=report.iterations)
    for reports, words in (([loose], "> tol"), ([stalled], "did not converge"),
                           ([], "expected 1")):
        reasons = gate(workload, dataclasses.replace(result, reports=reports))
        assert any(words in r for r in reasons)


def test_nominal_counts_match_the_seed_baseline(lid_newton, tmp_path):
    _, counts = lid_newton
    assert counts["nonlinear_iters"] == 7
    assert counts["newton.assemble.calls"] == 8
    assert counts["solve.lu_factor.calls"] == 7
    assert counts["fixed_point.assemble.calls"] == 0

    _, ladder = traced_op("step-ladder", None, tmp_path)
    assert ladder["nonlinear_iters"] == 64
    assert ladder["newton.assemble.calls"] == 90
    assert ladder["mesh.build.calls"] == 27


@pytest.mark.parametrize("name", ["step-ladder", "lid-newton"])
def test_counts_repeat_exactly_at_one_seed(name, tmp_path):
    _, first = traced_op(name, 3, tmp_path / "a")
    _, second = traced_op(name, 3, tmp_path / "b")
    assert first == second
    assert first["solve.lu_nnz"] > 0


def test_missing_trace_target_fails_loudly(monkeypatch):
    import vmsflow.solve
    original = vmsflow.solve.assemble_system
    monkeypatch.delattr(vmsflow.solve, "fp_assemble")
    with pytest.raises(MissingTraceTarget, match="fp_assemble"):
        with Tracer().installed():
            pass
    # Targets wrapped before the missing one are restored on the way out.
    assert vmsflow.solve.assemble_system is original


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    parent, child = tracer.spans
    selfs = tracer.self_times()
    assert child.parent == 0
    assert selfs[0] == pytest.approx(parent.end - parent.start - (child.end - child.start))
