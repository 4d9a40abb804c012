"""The three benchmark workloads, one operation of each, and its correctness gate.

An operation is what a ``vmsflow solve`` user waits for: build the problem
(set-up), run the solver, write the output set.
The seed only jitters the Reynolds number by at most ``JITTER`` (relative),
which leaves every nominal iteration count unchanged.
"""

from __future__ import annotations

import csv
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from vmsflow import output, problems, solve

JITTER = 0.002

# Ghia, Ghia & Shin (1982), Re = 400: minimum of u on the vertical centreline.
GHIA_U_MIN = -0.3273
GHIA_Y_AT_MIN = 0.2813
GHIA_U_TOL = 0.02
GHIA_Y_TOL = 0.05


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; why each was chosen is in README.md."""

    name: str
    setup: Callable[[float], object]          # Reynolds factor -> ProblemSpec
    config: Callable[[float], solve.SolverConfig]
    check_ghia: bool                          # gate on the Ghia centreline minimum


def _lid(n: int):
    return lambda f: problems.lid_cavity(n, re=400.0 * f)


def _steady(strategy: str):
    return lambda f: solve.SolverConfig(strategy=strategy, tol=1e-10)


# lid-picard runs at n=32, not at lid-newton's n=64: an n=64 fixed-point solve
# takes 15-22 s, one sample per run, too few to hold the run's upper quartile
# steady on a shared host (README.md, "Steadiness").
WORKLOADS = {
    w.name: w for w in (
        Workload("lid-newton", _lid(64), _steady("newton"), check_ghia=True),
        Workload("lid-picard", _lid(32), _steady("fixed_point"), check_ghia=True),
        Workload(
            "step-ladder",
            lambda f: problems.backward_step(re=150.0 * f, h=0.25),
            lambda f: solve.SolverConfig(
                strategy="newton", tol=1e-10,
                continuation=solve.ContinuationConfig(15.0 * f, 150.0 * f, 1.1),
            ),
            check_ghia=False,
        ),
    )
}


def re_factor(seed: int | None) -> float:
    """Reynolds-number factor for a seed; ``None`` gives the nominal inputs."""
    return 1.0 if seed is None else 1.0 + random.Random(seed).uniform(-JITTER, JITTER)


@dataclass
class OpResult:
    setup_s: float
    solve_s: float
    write_s: float
    iterations: int
    reports: list          # one IterationReport per solve (continuation rung)
    state: object
    problem: object
    config: solve.SolverConfig
    written: list          # paths of the output set

    @property
    def total_s(self) -> float:
        return self.setup_s + self.solve_s + self.write_s


def _no_span(name):
    return nullcontext()


def run_op(workload: Workload, factor: float, outdir: Path, span=_no_span) -> OpResult:
    """Set up, solve and write once; ``span(name)`` brackets each phase."""
    config = workload.config(factor)
    t0 = perf_counter()
    with span("setup"):
        problem = workload.setup(factor)
    t1 = perf_counter()
    with span("solve"):
        state, report = solve.solve(problem, config)
        reports = [r for _, r in report.sub_reports] or [report]
    t2 = perf_counter()
    with span("output.write"):
        written = output.write_outputs(state, problem.mesh, report, outdir,
                                       {"problem": problem.name, "re": problem.re})
    t3 = perf_counter()
    return OpResult(t1 - t0, t2 - t1, t3 - t2, sum(r.iterations for r in reports),
                    reports, state, problem, config, written)


def centreline_minimum(profile_csv: Path) -> tuple[float, float]:
    """(u_min, y at u_min) from the written x = 0.5 profile."""
    with open(profile_csv, encoding="ascii") as f:
        rows = [(float(r["y"]), float(r["u"])) for r in csv.DictReader(f)]
    y, u = min(rows, key=lambda r: r[1])
    return u, y


def gate(workload: Workload, result: OpResult) -> list[str]:
    """Reasons the operation failed; empty when every condition holds."""
    config = result.config
    expected = len(config.continuation.ladder()) if config.continuation is not None else 1
    failures = []
    if len(result.reports) != expected:
        failures.append(f"{len(result.reports)} solves, expected {expected}")
    for k, rep in enumerate(result.reports):
        if not rep.converged:
            failures.append(f"solve {k} did not converge ({rep.failure or 'no failure message'})")
        elif config.strategy == "newton" and not rep.final_residual <= config.tol:
            failures.append(f"solve {k} residual {rep.final_residual:.3e} > tol")
    for path in result.written:
        if not Path(path).is_file() or Path(path).stat().st_size == 0:
            failures.append(f"output {path} missing or empty")
    if workload.check_ghia and not failures:
        u, y = centreline_minimum(Path(result.written[0]).parent / "profile_u_x05.csv")
        if abs(u - GHIA_U_MIN) > GHIA_U_TOL or abs(y - GHIA_Y_AT_MIN) > GHIA_Y_TOL:
            failures.append(f"centreline u_min {u:.4f} at y={y:.3f}, Ghia {GHIA_U_MIN} "
                            f"at y={GHIA_Y_AT_MIN}")
    return failures
