"""Nonlinear solution strategies and the sparse linear-solve contract.

``solve`` is the one steady entry point and ``time_march`` the transient
one; a ``SolverConfig`` alone picks the strategy (Newton or fixed point)
and, through ``continuation``, the Reynolds ladder ``solve`` climbs (its
rungs and their bound come from ``ContinuationConfig.ladder`` alone).
``time_march`` takes its step size and count as arguments, checks its
inputs and builds its set-up at the call, then returns an iterator that
yields each step's state and report.
A problem object must expose ``mesh``, ``bc``, ``nu`` and ``body_force``
attributes (``vmsflow.problems.ProblemSpec`` does); a ladder also needs a
``with_re`` that keeps the mesh, boundary data and body force and
re-targets only the viscosity, as ``ProblemSpec.with_re`` does.  Reports
are immutable once returned.  Each call builds one immutable
``Discretization`` (body-force load included), which both strategies
assemble from with ``(disc, state, nu)`` and every rung and step shares;
nothing on the problem keeps it, nor anything ``solve`` returns, and the
iterator of ``time_march`` holds it only until it is exhausted or dropped.
Its ``free`` lists the free DOFs in ``mesh.elimination_order``, so every
assembled system arrives permuted and in CSC format; ``factorize``
factors it in that order, with LAPACK's banded LU in float64 when the
order keeps it within ``BAND_LIMIT`` of the diagonal and with SuperLU
otherwise, in float32 when every entry fits.  The solve of the returned
``Factorization`` refines in float64 until the residual bound of
``LINEAR_TOL`` holds, falling back once to a float64 factor when the
float32 one cannot get there; ``linear_solve`` is ``factorize(A).solve(b)``.

One loop, ``_iterate``, drives both strategies: it records the residual
of every update, tests for divergence and stops, and names why it
stopped.  A strategy is only its update: the condensed Newton solve
with fine-scale recovery (linearizing only an iterate it updates), or
the stabilized fixed-point solve.  The recorded residual is the 2-norm
of the monolithic nonlinear residual (assembled coarse momentum and
continuity over the free DOFs, plus every element's fine-scale
residual); fixed point evaluates it at its iterate with zero fine-scale
coefficients (``assemble_system``, which linearizes only on demand), which
makes the histories of the two strategies directly comparable.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from vmsflow.fixed_point import TauSingularError, fp_assemble
from vmsflow.mesh import BAND_LIMIT, DofMap, Mesh, build_dof_map
from vmsflow.newton import (
    Discretization,
    FineScaleSingularError,
    State,
    assemble_system,
)

LINEAR_TOL = 1e-10        # relative residual bound of every linear solve
MAX_REFINEMENTS = 3       # refinement steps one solve may take, each cutting the residual tenfold
DIVERGENCE_RATIO = 1e3    # residual growth over its running minimum that means divergence
MAX_RUNGS = 1000          # most rungs a continuation ladder may have
_SINGLE_MAX = float(np.finfo(np.float32).max)


class LinearSolveError(RuntimeError):
    """Raised when the sparse linear solver cannot produce a usable solution."""


class Factorization:
    """LU factors of one square CSC matrix and the solve that checks its residual.

    ``kind`` names the factor: ``"band"`` (LAPACK's banded LU in float64),
    ``"superlu32"`` (SuperLU of the entries cast to float32) or
    ``"superlu"`` (SuperLU in float64).  ``solve(b)`` refines in float64,
    with the residual computed from the float64 matrix, until
    ``|b - Ax| <= max(1e-12, LINEAR_TOL * |b|)`` holds, in at most
    ``MAX_REFINEMENTS`` steps that must each cut the residual tenfold.  A
    float32 factor that misses the bound is replaced, once, by the float64
    one, which runs the same loop; a float64 factor that misses it raises
    ``LinearSolveError``.
    """

    def __init__(self, matrix, kind: str, lu_solve):
        self._matrix, self.kind, self._lu_solve = matrix, kind, lu_solve

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        A = self._matrix
        if A.shape[0] != rhs.size:
            raise LinearSolveError(f"matrix of shape {A.shape} does not match "
                                   f"right-hand side of size {rhs.size}")
        if not np.isfinite(rhs).all():
            k = int(np.flatnonzero(~np.isfinite(rhs))[0])
            raise LinearSolveError(f"right-hand side entry {k} is {rhs[k]}; "
                                   "a non-finite right-hand side is not solved")
        if rhs.size == 0:
            return np.zeros(0)
        bound = max(1e-12, LINEAR_TOL * _norm(rhs))
        x, resid = _refine(A, rhs, self._lu_solve, bound)
        if x is None and self.kind == "superlu32":
            self.kind, self._lu_solve = "superlu", _superlu(A)
            x, resid = _refine(A, rhs, self._lu_solve, bound)
        if x is None:
            raise LinearSolveError(
                "linear solve did not reach the requested accuracy "
                f"(|r| = {resid:.3e}, bound = {bound:.3e}); "
                "the matrix is likely singular or severely ill-conditioned"
            )
        return x


def factorize(matrix) -> Factorization:
    """LU factorization of a square matrix, in the order in which it arrives.

    The matrix is expected to arrive already in the order in which it is
    factored (``Discretization.free`` numbers the unknowns by
    ``mesh.elimination_order``) and in CSC format (``free_matrix`` builds
    it, and a CSC input is read as it is; other inputs are converted).  A
    non-finite entry, or a row or column without any stored entry, raises
    ``LinearSolveError`` naming it before any factor is tried.  When
    neither its lower nor its upper half-bandwidth, read from the first
    and last row of each column, exceeds ``BAND_LIMIT``, LAPACK's banded
    LU with partial pivoting factors it in float64 (``dgbtrf``;
    ``sgbtrf`` is no faster).  Otherwise SuperLU does,
    keeping the column order and pivoting only where a diagonal entry
    falls below 0.1 of its column's largest (the systems are indefinite
    saddle-point matrices), on the entries cast to float32 when every one
    is within float32's range, and in float64 otherwise or when the
    float32 factor fails.  An exact zero pivot or a failed factorization
    raises ``LinearSolveError``.  Deterministic for identical inputs.
    """
    A = matrix if sp.issparse(matrix) and matrix.format == "csc" else sp.csc_matrix(matrix)
    if A.shape[0] != A.shape[1]:
        raise LinearSolveError(f"matrix of shape {A.shape} is not square")
    A.sum_duplicates()       # in place, as splu does; free on a matrix marked canonical
    if not np.isfinite(A.data).all():
        k = int(np.flatnonzero(~np.isfinite(A.data))[0])
        column = int(np.searchsorted(A.indptr, k, side="right")) - 1
        raise LinearSolveError(f"matrix entry ({A.indices[k]}, {column}) is {A.data[k]}; "
                               "a matrix with a non-finite entry is not factored")
    # SuperLU writes out of bounds when a row is empty, and can crash the process.
    for line, counts in (("row", np.bincount(A.indices, minlength=A.shape[0])),
                         ("column", np.diff(A.indptr))):
        if not counts.all():
            raise LinearSolveError(f"matrix {line} {int(np.argmin(counts))} is empty; "
                                   "a structurally singular matrix is not factored")
    kl, ku = _bandwidths(A)
    if max(kl, ku) <= BAND_LIMIT:
        return Factorization(A, "band", _band_lu(A, kl, ku))
    if _fits_single(A.data):
        single = sp.csc_matrix((A.data.astype(np.float32), A.indices, A.indptr), shape=A.shape)
        single.has_canonical_format = True      # A's pattern, which is canonical
        try:
            return Factorization(A, "superlu32", _superlu(single))
        except LinearSolveError:
            pass
    return Factorization(A, "superlu", _superlu(A))


def linear_solve(matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct sparse solve with a verified residual: ``factorize(matrix).solve(rhs)``.

    The banded LU factors in float64, SuperLU in float32 when every entry
    fits.  The solution is refined in float64 until the ``LINEAR_TOL``
    bound holds, and a float32 factor that cannot get there is replaced
    once by the float64 one; a non-finite entry or right-hand side, an
    empty row or column, a float64 factor that
    misses the bound, an exact zero pivot or a failed factorization raises
    ``LinearSolveError`` (see ``Factorization`` and ``factorize``).
    """
    return factorize(matrix).solve(rhs)


def _fits_single(data: np.ndarray) -> bool:
    """Whether every entry, finite by then, is within float32's range."""
    return bool(np.all(np.abs(data) <= _SINGLE_MAX))


def _norm(v: np.ndarray) -> float:
    """2-norm of ``v``, rescaled by its largest entry when the squares overflow."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == np.inf and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def _refine(A, b: np.ndarray, lu_solve, bound: float) -> tuple[np.ndarray | None, float]:
    """``lu_solve(b)``, refined with ``lu_solve`` of the float64 residual until
    its norm is at most ``bound``; at most ``MAX_REFINEMENTS`` steps, each of
    which must cut it tenfold.  Returns the solution, or None if it missed
    the bound, and the last residual norm.  An overflow on the way is silent:
    it leaves a non-finite solution or residual, which misses the bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = lu_solve(b)
        resid = b - A @ x
        norm = _norm(resid)
        for _ in range(MAX_REFINEMENTS):
            if not bound < norm < np.inf:     # met, or past repair
                break
            x = x + lu_solve(resid)
            resid = b - A @ x
            last, norm = norm, _norm(resid)
            if not norm <= 0.1 * last:
                break
    met = norm <= bound and norm < np.inf and np.all(np.isfinite(x))
    return (x if met else None), norm


def _superlu(A):
    """SuperLU's factor of a canonical CSC matrix in its own precision; returns
    its float64 solve.

    A float32 factor solves a right-hand side scaled to unit max, so that
    its cast neither overflows nor flushes to zero.
    """
    try:
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1)
    except (RuntimeError, ValueError) as err:
        raise LinearSolveError(f"LU factorization failed: {err}") from err
    if A.dtype == np.float64:
        return lu.solve

    def solve(b):
        scale = np.abs(b).max(initial=0.0) or 1.0
        return lu.solve((b / scale).astype(np.float32)).astype(float) * scale
    return solve


def _bandwidths(A) -> tuple[int, int]:
    """Lower and upper half-bandwidth of a canonical CSC matrix, from the
    first and last stored row of each non-empty column."""
    starts, ends = A.indptr[:-1], A.indptr[1:]
    columns = np.flatnonzero(ends > starts)
    lower = A.indices[ends[columns] - 1] - columns
    upper = columns - A.indices[starts[columns]]
    return int(lower.max(initial=0)), int(upper.max(initial=0))


def _band_lu(A, kl: int, ku: int):
    """LAPACK banded LU of a canonical CSC matrix with half-bandwidths
    (kl, ku); returns its solve.

    Entry (i, j) goes to row ``kl + ku + i - j`` of a Fortran-ordered
    (2 kl + ku + 1, n) band array; the top ``kl`` rows take the fill of
    the row interchanges.  An exact zero pivot raises ``LinearSolveError``.
    """
    n = A.shape[0]
    depth = 2 * kl + ku + 1
    flat = np.zeros(depth * n)
    columns = np.repeat(np.arange(n), np.diff(A.indptr))
    flat[A.indices + columns * (depth - 1) + kl + ku] = A.data
    lu, pivots, info = lapack.dgbtrf(flat.reshape((depth, n), order="F"), kl, ku,
                                     overwrite_ab=True)
    if info > 0:    # U[info - 1, info - 1] is exactly zero
        raise LinearSolveError(f"exact zero pivot in column {info - 1} of the banded LU")
    return lambda b: lapack.dgbtrs(lu, kl, ku, b, pivots)[0]


@dataclass(frozen=True)
class ContinuationConfig:
    """Reynolds ladder from ``re_start`` up to ``re_target`` in steps of ``factor``.

    Construction builds ``ladder()`` once, which raises ``ValueError`` as
    soon as a rung past ``MAX_RUNGS`` would be added.
    """

    re_start: float
    re_target: float
    factor: float = 1.1

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.factor > 1.0:
            raise ValueError(f"continuation factor must exceed 1, got {self.factor}")
        if not 0 < self.re_start <= self.re_target < np.inf:
            raise ValueError("continuation needs 0 < re_start <= re_target < inf, "
                             f"got {self.re_start}, {self.re_target}")
        self.ladder()

    def ladder(self) -> list[float]:
        """``re_start`` times powers of ``factor``, the first product within
        1e-12 (relative) of ``re_target``, or past it, replaced by ``re_target``."""
        target = self.re_target
        rungs = [self.re_start]
        while target - rungs[-1] > 1e-12 * target:
            if len(rungs) == MAX_RUNGS:     # logs of each end, as their ratio can overflow
                count = math.ceil((math.log(target) - math.log(self.re_start))
                                  / math.log(self.factor)) + 1
                raise ValueError(f"continuation ladder of {count} rungs exceeds the limit of "
                                 f"{MAX_RUNGS}; raise re_start or the factor")
            rung = rungs[-1] * self.factor
            rungs.append(rung if target - rung > 1e-12 * target else target)
        return rungs


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    strategy: str = "newton"          # "newton" or "fixed_point"
    tol: float = 1e-8                 # absolute tolerance on the residual 2-norm
    max_iter: int = 25
    continuation: ContinuationConfig | None = None
    increment_tol: float | None = None  # fixed-point stagnation tolerance; tol if None

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.increment_tol is not None and not 0 <= self.increment_tol < np.inf:
            raise ValueError("increment_tol must be non-negative and finite, "
                             f"got {self.increment_tol}")
        if self.strategy not in ("newton", "fixed_point"):
            raise ValueError(f"unknown strategy '{self.strategy}'")
        _check_count("max_iter", self.max_iter)


@dataclass(frozen=True, init=False)
class IterationReport:
    """Residual history and stop reason of one nonlinear solve, and the flags
    derived from them.

    ``stop_reason`` is ``tol``, ``increment``, ``max_iter``, ``diverged``,
    ``linear_failure``, ``fine_scale_singular`` or ``tau_singular``; the
    first two mean ``converged``, and every one but those and ``max_iter``
    means ``diverged``: the residual grew past ``DIVERGENCE_RATIO`` times
    its running minimum or stopped being finite, or a linear/stabilization
    failure ended the iteration (the message is kept in ``failure``).
    ``iterations`` is ``len(residual_history)``; the fixed-point strategy
    additionally records the velocity-increment norm of every update.  A
    singular fine-scale block is detected only when a Newton linearization
    is built, so the iterate whose residual stops the solve is never
    checked for one.

    A report may instead be built from the flags ``converged``, ``diverged``
    and ``iterations`` (the benchmark's gate test does): with no
    ``stop_reason`` they give ``tol``, ``diverged`` or ``max_iter``.  They
    are checked, never stored, so a flag that contradicts the report's own
    data raises ``ValueError``.
    """

    residual_history: np.ndarray
    stop_reason: str
    increment_history: np.ndarray | None = None
    sub_reports: tuple = ()
    failure: str | None = None

    def __init__(self, residual_history, stop_reason=None, increment_history=None,
                 sub_reports=(), failure=None, *, converged=None, diverged=None,
                 iterations=None):
        if stop_reason is None:
            if converged is None:
                raise TypeError("IterationReport needs a stop_reason or converged")
            stop_reason = "tol" if converged else "diverged" if diverged else "max_iter"
        for name, value in (("residual_history", residual_history),
                            ("stop_reason", stop_reason),
                            ("increment_history", increment_history),
                            ("sub_reports", sub_reports), ("failure", failure)):
            object.__setattr__(self, name, value)
        for name, given in (("converged", converged), ("diverged", diverged),
                            ("iterations", iterations)):
            if given is not None and given != getattr(self, name):
                raise ValueError(f"{name}={given!r} contradicts stop_reason "
                                 f"'{stop_reason}' with {self.iterations} residuals")

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("tol", "increment")

    @property
    def diverged(self) -> bool:
        return not self.converged and self.stop_reason != "max_iter"

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1]) if self.iterations else float("nan")


def lifted_state(mesh: Mesh, dofmap: DofMap) -> State:
    """Zero state with the prescribed Dirichlet/pin values installed."""
    return State(*dofmap.split(dofmap.prescribed.copy()), np.zeros((mesh.n_triangles, 2)))


def _setup(problem) -> Discretization:
    return Discretization(problem.mesh, build_dof_map(problem.mesh, problem.bc),
                          problem.bc, problem.body_force)


def _newton_steps(disc: Discretization, nu: float, state: State):
    """Newton updates of ``state`` in place, each yielding (residual, None)."""
    system = assemble_system(disc, state, nu)
    while True:
        delta = np.zeros(disc.dofmap.total)
        delta[disc.free] = linear_solve(system.matrix, system.rhs)
        dbeta = system.recover_beta(state, delta)
        dvbar, dp = disc.dofmap.split(delta)
        state.vbar += dvbar
        state.p += dp
        state.beta += dbeta
        system = assemble_system(disc, state, nu)
        yield system.residual, None


def _fixed_point_steps(disc: Discretization, nu: float, state: State):
    """Fixed-point updates of ``state`` in place, each yielding (residual, increment)."""
    state.beta[:] = 0.0
    while True:
        matrix, rhs = fp_assemble(disc, state, nu)
        full = disc.dofmap.prescribed.copy()
        full[disc.free] = linear_solve(matrix, rhs)
        new_vbar, new_p = disc.dofmap.split(full)
        increment = float(np.linalg.norm(new_vbar - state.vbar))
        state.vbar, state.p = new_vbar, new_p
        yield assemble_system(disc, state, nu).residual, increment


# Per strategy: its updates, and whether the velocity increment is recorded and stops.
_STRATEGIES = {"newton": (_newton_steps, False), "fixed_point": (_fixed_point_steps, True)}
_FAILURE_STOPS = {LinearSolveError: "linear_failure", TauSingularError: "tau_singular",
                  FineScaleSingularError: "fine_scale_singular"}


def _check_fits(state: State, mesh: Mesh) -> None:
    nodes, elements = (mesh.n_nodes, 2), (mesh.n_triangles, 2)
    for name, shape in (("vbar", nodes), ("p", nodes[:1]), ("beta", elements),
                        ("vbar_prev", nodes)):
        value = getattr(state, name)
        if value is not None and np.shape(value) != shape:
            raise ValueError(f"start state {name} has shape {np.shape(value)}, "
                             f"but the mesh needs {shape}")


def _iterate(disc: Discretization, nu: float, config: SolverConfig, state0: State | None
             ) -> tuple[State, IterationReport]:
    """Run ``config.strategy`` from a copy of ``state0`` (transient fields kept) or lifted.

    A ``state0`` whose fields do not fit the mesh raises ``ValueError``.
    """
    if state0 is not None:
        _check_fits(state0, disc.mesh)
    updates, tracks_increment = _STRATEGIES[config.strategy]
    state = state0.copy() if state0 is not None else lifted_state(disc.mesh, disc.dofmap)
    inc_tol = config.tol if config.increment_tol is None else config.increment_tol

    history: list[float] = []
    increments: list[float | None] = []
    failure = None
    stop = "max_iter"
    min_resid = np.inf
    steps = updates(disc, nu, state)
    try:
        for _ in range(config.max_iter):
            resid, increment = next(steps)
            history.append(resid)
            increments.append(increment)
            if not np.isfinite(resid) or resid > DIVERGENCE_RATIO * min_resid:
                stop = "diverged"
            elif resid <= config.tol:
                stop = "tol"
            elif tracks_increment and increment <= inc_tol:
                stop = "increment"
            else:
                min_resid = min(min_resid, resid)
                continue
            break
    except tuple(_FAILURE_STOPS) as err:
        failure, stop = str(err), _FAILURE_STOPS[type(err)]

    return state, IterationReport(
        residual_history=np.array(history),
        stop_reason=stop,
        increment_history=np.array(increments) if tracks_increment else None,
        failure=failure,
    )


def solve(problem, config: SolverConfig, state0: State | None = None
          ) -> tuple[State, IterationReport]:
    """Steady solve with ``config.strategy``, up ``config.continuation``'s ladder if set.

    Starts from ``state0`` or the Dirichlet-lifted zero state.  Fixed
    point also stops on the velocity increment (``increment_tol``), at the
    scheme's own fixed point, off the Newton solution by the stabilization
    approximation.  A ladder starts cold at ``re_start`` and warm-starts
    each rung from the last; the first rung that fails ends it.  Its report
    is the last rung's, with every rung's residual and increment histories
    joined (so its iterations are their sum) and (re, report) pairs as
    ``sub_reports``.  Every rung shares one set-up, so ``problem.with_re``
    must keep the body force.  A ``state0`` carrying ``dt`` or
    ``vbar_prev`` belongs to ``time_march``, and a ladder takes no
    ``state0``; each raises ``ValueError``.
    """
    if state0 is not None and config.continuation is not None:
        raise ValueError("a continuation ladder starts cold; it takes no state0")
    if state0 is not None and (state0.dt is not None or state0.vbar_prev is not None):
        raise ValueError("a state0 with dt or vbar_prev is a time_march step; "
                         "a steady solve takes a steady start state")
    disc = _setup(problem)
    if config.continuation is None:
        return _iterate(disc, problem.nu, config, state0)
    state = None
    subs: list[tuple[float, IterationReport]] = []
    for re in config.continuation.ladder():
        rung = problem.with_re(re)
        if rung.body_force is not problem.body_force:
            raise ValueError(f"continuation rung Re={re:g} changes the body force")
        state_out, report = _iterate(disc, rung.nu, config, state)
        subs.append((re, report))
        if not report.converged:
            break
        state = state_out
    # Every rung before the last converged, so the last rung's stop reason is the ladder's.
    increments = None if report.increment_history is None else \
        np.concatenate([r.increment_history for _, r in subs])
    return (state if state is not None else state_out), replace(
        report,
        residual_history=np.concatenate([r.residual_history for _, r in subs]),
        increment_history=increments,
        sub_reports=tuple(subs),
    )


def time_march(problem, config: SolverConfig, dt: float, n_steps: int,
               state0: State | None = None) -> Iterator[tuple[State, IterationReport]]:
    """Backward-Euler marching, ``n_steps`` steps of size ``dt``, with the
    configured nonlinear strategy.

    The inputs are checked and the one set-up is built before any step: a
    ``dt`` outside [1e-100, inf) (the mass term over ``dt`` overflows
    below), an ``n_steps`` that is not an integer of at least 1, a
    continuation, or a ``state0`` that does not fit the mesh raises
    ``ValueError`` at the call.  The returned iterator then runs the
    steps, from ``state0`` or the lifted zero state.  Every step solves the
    transient nonlinear problem with the previous step's velocity in the
    acceleration term, warm-started from that same state, and yields a
    copy of the state the march holds after it, with the step's report.
    An unconverged step yields the last converged state and ends the
    march.  The set-up lives until the iterator is exhausted or dropped.
    """
    # Each check is written so that NaN fails it.
    if not 1e-100 <= dt < np.inf:
        raise ValueError(f"time step must be positive, finite and >= 1e-100, got dt={dt}")
    _check_count("n_steps", n_steps)
    if config.continuation is not None:
        raise ValueError("time_march does not run a continuation ladder")
    if state0 is not None:
        _check_fits(state0, problem.mesh)
    disc = _setup(problem)
    state = lifted_state(problem.mesh, disc.dofmap) if state0 is None else state0.copy()
    return _march(disc, problem.nu, config, dt, n_steps, state)


def _march(disc: Discretization, nu: float, config: SolverConfig, dt: float, n_steps: int,
           state: State):
    """The steps of ``time_march`` from ``state``, each yielding (state copy, report)."""
    for _ in range(n_steps):
        start = replace(state, dt=dt, vbar_prev=state.vbar)  # _iterate copies it
        stepped, report = _iterate(disc, nu, config, start)
        if report.converged:
            state = stepped
        yield state.copy(), report
        if not report.converged:
            return
