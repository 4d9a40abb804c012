"""Nonlinear solution strategies and the sparse linear-solve contract.

A problem object must expose ``mesh``, ``bc``, ``nu`` and ``body_force``
attributes (``vmsflow.problems.ProblemSpec`` does); continuation
additionally requires a ``with_re`` method.  Reports are immutable once
returned.  A solve builds one ``Discretization``, which continuation and
time marching share across every rung and step.

One iteration of either strategy is: solve the linearized system at the
current state, apply the update, evaluate and record the residual of
the new state.  The recorded residual is the 2-norm of the monolithic
nonlinear residual (assembled coarse momentum and continuity over the
free DOFs, plus every element's fine-scale residual); the fixed-point
strategy evaluates it at its iterate with zero fine-scale coefficients
(``residual_norm``), which makes the histories of the two strategies
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vmsflow.fixed_point import TauSingularError, fp_assemble
from vmsflow.mesh import DofMap, Mesh, build_dof_map
from vmsflow.newton import (
    Discretization,
    FineScaleSingularError,
    State,
    assemble_system,
    residual_norm,
)

LINEAR_TOL = 1e-10        # relative residual bound of every linear solve
DIVERGENCE_RATIO = 1e3    # residual growth over its running minimum that means divergence


class LinearSolveError(RuntimeError):
    """Raised when the sparse linear solver cannot produce a usable solution."""


def linear_solve(matrix, rhs: np.ndarray, linear_tol: float = LINEAR_TOL) -> np.ndarray:
    """Direct sparse solve with a verified residual.

    Uses an LU factorization (the systems are indefinite saddle-point
    matrices, so pivoting matters); one step of iterative refinement is
    applied before the residual check ``|Ax - b| <= max(1e-12,
    linear_tol * |b|)``.  Deterministic for identical inputs.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size == 0:
        return np.zeros(0)
    A = sp.csc_matrix(matrix)
    if A.shape[0] != A.shape[1] or A.shape[0] != rhs.size:
        raise LinearSolveError(
            f"matrix of shape {A.shape} does not match right-hand side of size {rhs.size}"
        )
    try:
        lu = spla.splu(A)
        x = lu.solve(rhs)
    except (RuntimeError, ValueError) as err:
        raise LinearSolveError(f"sparse factorization failed: {err}") from err
    bound = max(1e-12, linear_tol * float(np.linalg.norm(rhs)))
    resid = rhs - A @ x
    if not np.all(np.isfinite(x)) or np.linalg.norm(resid) > bound:
        if np.all(np.isfinite(x)):
            x = x + lu.solve(resid)
            resid = rhs - A @ x
        if not np.all(np.isfinite(x)) or np.linalg.norm(resid) > bound:
            raise LinearSolveError(
                "linear solve did not reach the requested accuracy "
                f"(|r| = {np.linalg.norm(resid):.3e}, bound = {bound:.3e}); "
                "the matrix is likely singular or severely ill-conditioned"
            )
    return x


@dataclass(frozen=True)
class ContinuationConfig:
    re_start: float
    re_target: float
    factor: float = 1.1

    def __post_init__(self):
        if self.factor <= 1.0:
            raise ValueError("continuation factor must exceed 1")
        if self.re_start <= 0 or self.re_target < self.re_start:
            raise ValueError("continuation needs 0 < re_start <= re_target")

    def ladder(self) -> list[float]:
        rungs = [self.re_start]
        while rungs[-1] < self.re_target - 1e-12:
            rungs.append(min(rungs[-1] * self.factor, self.re_target))
        return rungs


@dataclass(frozen=True)
class SolverConfig:
    strategy: str = "newton"          # "newton" or "fixed_point"
    tol: float = 1e-8                 # absolute tolerance on the residual 2-norm
    max_iter: int = 25
    dt: float | None = None
    n_steps: int | None = None
    continuation: ContinuationConfig | None = None
    increment_tol: float | None = None  # fixed-point stagnation tolerance; tol if None
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.strategy not in ("newton", "fixed_point"):
            raise ValueError(f"unknown strategy '{self.strategy}'")


@dataclass(frozen=True)
class IterationReport:
    """Residual history and outcome flags of one nonlinear solve.

    ``iterations`` equals ``len(residual_history)``; the fixed-point
    strategy additionally records the velocity-increment norm of every
    update.  Divergence means the residual grew past
    ``DIVERGENCE_RATIO`` times its running minimum, stopped being
    finite, or a linear/stabilization failure ended the iteration (the
    message is kept in ``failure``).
    """

    residual_history: np.ndarray
    converged: bool
    diverged: bool
    iterations: int
    increment_history: np.ndarray | None = None
    sub_reports: tuple = ()
    failure: str | None = None

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1]) if self.iterations else float("nan")


def lifted_state(mesh: Mesh, dofmap: DofMap, dt: float | None = None,
                 vbar_prev: np.ndarray | None = None) -> State:
    """Zero state with the prescribed Dirichlet/pin values installed."""
    state = State.zeros(mesh, dt=dt, vbar_prev=vbar_prev)
    idx, vals = dofmap.constrained_values()
    velocity = idx < 2 * mesh.n_nodes
    state.vbar.reshape(-1)[idx[velocity]] = vals[velocity]
    state.p[idx[~velocity] - 2 * mesh.n_nodes] = vals[~velocity]
    return state


def _setup(problem) -> Discretization:
    return Discretization(problem.mesh, build_dof_map(problem.mesh, problem.bc),
                          problem.bc)


def newton_solve(problem, config: SolverConfig, state0: State | None = None
                 ) -> tuple[State, IterationReport]:
    """Consistent Newton iteration with per-element static condensation.

    Starts from the Dirichlet-lifted zero state unless ``state0`` is
    given (warm starts keep any transient fields it carries).  Each
    iteration solves the condensed system, updates velocity and
    pressure, recovers the fine-scale increment element by element, and
    records the residual of the updated state; the assembly at the new
    state doubles as the next iteration's linearization.
    """
    return _newton(problem, _setup(problem), config, state0)


def _newton(problem, disc: Discretization, config: SolverConfig, state0: State | None):
    nu, body_force = problem.nu, problem.body_force
    state = state0.copy() if state0 is not None else lifted_state(disc.mesh, disc.dofmap)
    n = disc.mesh.n_nodes

    history: list[float] = []
    failure = None
    converged = diverged = False
    min_resid = np.inf
    try:
        system = assemble_system(disc, state, nu, body_force)
        for _ in range(config.max_iter):
            delta = np.zeros(disc.dofmap.total)
            delta[disc.free] = linear_solve(system.matrix, system.rhs)
            dbeta = system.recover_beta(state, delta)
            state.vbar += delta[: 2 * n].reshape(n, 2)
            state.p += delta[2 * n:]
            state.beta += dbeta
            system = assemble_system(disc, state, nu, body_force)
            resid = system.residual_norm
            history.append(resid)
            if not np.isfinite(resid) or resid > DIVERGENCE_RATIO * min_resid:
                diverged = True
                break
            min_resid = min(min_resid, resid)
            if resid <= config.tol:
                converged = True
                break
    except (FineScaleSingularError, LinearSolveError) as err:
        failure, diverged = str(err), True

    report = IterationReport(
        residual_history=np.array(history),
        converged=converged,
        diverged=diverged,
        iterations=len(history),
        failure=failure,
    )
    return state, report


def fixed_point_solve(problem, config: SolverConfig, state0: State | None = None
                      ) -> tuple[State, IterationReport]:
    """Fixed-point (Picard) iteration on the stabilized linearized form.

    The fine scale never appears as an unknown (``state.beta`` stays
    zero).  Two metrics are recorded per iteration: the comparison
    residual, i.e. the monolithic nonlinear residual evaluated at the
    new iterate, and the velocity-increment 2-norm.  The iteration stops
    when the comparison residual reaches ``tol`` or the increment falls
    below ``increment_tol`` (the iterate then sits on the scheme's own
    fixed point, which for equal discretizations differs from the
    Newton solution at the level of the stabilization approximation).
    """
    return _fixed_point(problem, _setup(problem), config, state0)


def _fixed_point(problem, disc: Discretization, config: SolverConfig,
                 state0: State | None):
    nu, body_force = problem.nu, problem.body_force
    state = state0.copy() if state0 is not None else lifted_state(disc.mesh, disc.dofmap)
    state.beta[:] = 0.0
    n = disc.mesh.n_nodes
    inc_tol = config.tol if config.increment_tol is None else config.increment_tol

    history: list[float] = []
    increments: list[float] = []
    failure = None
    converged = diverged = False
    min_resid = np.inf
    for _ in range(config.max_iter):
        try:
            matrix, rhs = fp_assemble(disc, state.vbar, nu, body_force,
                                      state.dt, state.vbar_prev)
            solution = linear_solve(matrix, rhs)
        except (TauSingularError, LinearSolveError) as err:
            failure, diverged = str(err), True
            break
        full = disc.prescribed.copy()
        full[disc.free] = solution
        new_vbar = full[: 2 * n].reshape(n, 2)
        increment = float(np.linalg.norm(new_vbar - state.vbar))
        state.vbar = new_vbar
        state.p = full[2 * n:]

        resid = residual_norm(disc, state, nu, body_force)
        history.append(resid)
        increments.append(increment)
        if not np.isfinite(resid) or resid > DIVERGENCE_RATIO * min_resid:
            diverged = True
            break
        min_resid = min(min_resid, resid)
        if resid <= config.tol or increment <= inc_tol:
            converged = True
            break

    report = IterationReport(
        residual_history=np.array(history),
        converged=converged,
        diverged=diverged,
        iterations=len(history),
        increment_history=np.array(increments),
        failure=failure,
    )
    return state, report


def _solve_once(problem, disc: Discretization, config: SolverConfig,
                state0: State | None = None):
    loop = _fixed_point if config.strategy == "fixed_point" else _newton
    return loop(problem, disc, config, state0)


def solve(problem, config: SolverConfig, state0: State | None = None):
    """Dispatch on the configured strategy (continuation when requested)."""
    if config.continuation is not None:
        return continuation_solve(problem, config)
    return _solve_once(problem, _setup(problem), config, state0)


def continuation_solve(problem, config: SolverConfig
                       ) -> tuple[State, IterationReport]:
    """Reynolds continuation: warm-start each rung from the previous solution.

    Solves at ``re_start`` from a cold start, multiplies the Reynolds
    number by the configured factor (capped at ``re_target``) and reuses
    the converged state as the next starting point.  The first rung that
    fails terminates the ladder; the partial chain is returned with the
    per-rung reports attached as ``sub_reports`` of (re, report) pairs.
    Every rung shares one set-up: ``problem.with_re`` must keep the
    geometry and boundary data and change only the viscosity.
    """
    if config.continuation is None:
        raise ValueError("continuation_solve needs config.continuation")
    ladder = config.continuation.ladder()
    disc = _setup(problem)
    state = None
    subs: list[tuple[float, IterationReport]] = []
    all_resid: list[float] = []
    for re in ladder:
        rung_problem = problem.with_re(re)
        state_out, report = _solve_once(rung_problem, disc, config, state)
        subs.append((re, report))
        all_resid.extend(report.residual_history.tolist())
        if not report.converged:
            break
        state = state_out
    reached = len(subs) == len(ladder) and subs[-1][1].converged
    chain = IterationReport(
        residual_history=np.array(all_resid),
        converged=reached,
        diverged=any(r.diverged for _, r in subs),
        iterations=sum(r.iterations for _, r in subs),
        sub_reports=tuple(subs),
        failure=subs[-1][1].failure,
    )
    return (state if state is not None else state_out), chain


def time_march(problem, config: SolverConfig, state0: State | None = None
               ) -> tuple[list[State], list[IterationReport]]:
    """Backward-Euler marching with the configured nonlinear strategy.

    Every step solves the transient nonlinear problem with the previous
    step's velocity in the acceleration term, warm-started from that
    same state.  Snapshots (including the initial state) are kept every
    ``snapshot_stride`` steps; an unconverged step terminates the march
    and the partial history is returned.
    """
    if config.dt is None or config.n_steps is None:
        raise ValueError("time_march needs dt and n_steps in the configuration")
    disc = _setup(problem)
    state = lifted_state(problem.mesh, disc.dofmap) if state0 is None else state0.copy()
    states = [state.copy()]
    reports: list[IterationReport] = []
    for step in range(1, config.n_steps + 1):
        start = state.copy()
        start.dt = config.dt
        start.vbar_prev = state.vbar.copy()
        state, report = _solve_once(problem, disc, config, start)
        reports.append(report)
        if not report.converged:
            break
        if step % config.snapshot_stride == 0 or step == config.n_steps:
            states.append(state.copy())
    return states, reports


__all__ = [
    "ContinuationConfig",
    "IterationReport",
    "LinearSolveError",
    "SolverConfig",
    "continuation_solve",
    "fixed_point_solve",
    "lifted_state",
    "linear_solve",
    "newton_solve",
    "solve",
    "time_march",
]
