"""Nonlinear solution strategies and the sparse linear-solve contract.

``solve`` is the one steady entry point and ``time_march`` the transient
one; a ``SolverConfig`` alone picks the strategy (Newton or fixed point)
and, through ``continuation``, the Reynolds ladder ``solve`` climbs (its
rungs and their bound come from ``ContinuationConfig.ladder`` alone).
``time_march`` takes its step size and count as arguments, checks its
inputs and builds its set-up at the call, then returns an iterator that
yields each step's state and report.  A ladder and a march are both paths
of points, which one loop, ``_path``, follows; it starts each point after
the first from ``_extrapolate``, the polynomial extrapolation in log Re or
in the step count through up to ``PREDICTOR_POINTS`` converged states.
Their divided differences are kept across points (``_Differences``), so a
prediction costs O(points) vector operations per point, not O(points^2).
On a Newton ladder a rung that took more than one update also leaves, for
the next rung, its tangent dx/dlog Re (``_tangent``): one solve with its
last factor, which enters the table as a Hermite node.  A march step has no
parameter derivative to solve for, and fixed point no factor of J, so
neither carries a tangent.
A problem object must expose ``mesh``, ``bc``, ``nu`` and ``body_force``
attributes (``vmsflow.problems.ProblemSpec`` does); a ladder also needs
``re``, its last rung, and a ``with_re`` that keeps the mesh, boundary
data and body force and re-targets only the viscosity.  Reports
are immutable once returned.  Each call builds one immutable
``Discretization`` (body-force load included), which both strategies
assemble from with ``(disc, state, nu)`` and every rung and step shares;
nothing on the problem keeps it, nor anything ``solve`` returns, and the
iterator of ``time_march`` holds it only until it is exhausted or dropped.
Its ``free`` lists the free DOFs in ``mesh.elimination_order``, so every
assembled system arrives permuted and in CSC format on the set-up's
``pattern``, whose empty lines, bandwidths and band positions are read
once; ``factorize`` factors it in that order, with LAPACK's banded LU in
float64 when the order keeps it within ``BAND_LIMIT`` of the diagonal and
with SuperLU otherwise, in float32 when every entry fits.  The returned ``Factorization``
has one method, ``solve(b)``, which refines in float64 until the bound of
``LINEAR_TOL`` holds, falling back once to a float64 factor when the
float32 one cannot get there; ``linear_solve`` is ``factorize(A).solve(b)``.
The fixed-point update alone keeps a factor: within one ``_iterate``
call it hands ``linear_solve`` a list that holds the solve of the last
factor, without its matrix.  Each new matrix is solved first with it,
refined against the new matrix to the same bound, and factored only when
that misses, after the kept solve is dropped, so one factor is alive at
a time; the list dies with the loop at the end of the solve, rung or
step.  Newton factors every matrix: a kept Newton factor would live
through the tangent and condensation build, which raises the peak memory
of a solve.  Only a ladder rung keeps its update's factor past its solve,
through the residual assembly that follows, for the rung's tangent, and
drops it before the next linearization.

One loop, ``_iterate``, drives both strategies: it records the residual
of every update, tests for divergence and stops, and names why it
stopped.  The Dirichlet and pin values enter only its start state
(``lifted_state``).  A strategy is only its update, an increment on the
free DOFs from ``matrix . delta = -residual``: the condensed Newton solve
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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from vmsflow.fixed_point import TauSingularError, fp_assemble
from vmsflow.mesh import DofMap, Mesh, build_dof_map
from vmsflow.newton import (
    CscPattern,
    Discretization,
    FineScaleSingularError,
    State,
    assemble_system,
    viscous_residual,
)

LINEAR_TOL = 1e-10        # relative residual bound of every linear solve
MAX_REFINEMENTS = 3       # refinement steps one solve may take, each cutting the residual tenfold
DIVERGENCE_RATIO = 1e3    # residual growth over its running minimum that means divergence
MAX_RUNGS = 1000          # most rungs a continuation ladder may have
PREDICTOR_POINTS = 5      # most converged states a rung or step is extrapolated from
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
    ``LinearSolveError``, as does a right-hand side that does not fit or is
    not finite.
    """

    def __init__(self, matrix, kind: str, lu_solve):
        self._matrix, self.kind, self._lu_solve = matrix, kind, lu_solve

    def solve(self, rhs) -> np.ndarray:
        A = self._matrix
        with np.errstate(over="ignore", invalid="ignore"):     # as _refine needs
            rhs, bound = _checked_rhs(A, rhs)
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


def factorize(matrix, pattern: CscPattern | None = None) -> Factorization:
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

    The empty lines, the half-bandwidths and the band positions are read
    from ``pattern`` when the matrix is stored on its index arrays
    (``CscPattern.holds``; ``Discretization.pattern`` for every matrix
    its ``free_matrix`` builds), and from the matrix's own pattern otherwise.
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
    if pattern is None or not pattern.holds(A):
        pattern = CscPattern(A.indices, A.indptr)
    # SuperLU writes out of bounds when a row is empty, and can crash the process.
    if pattern.empty is not None:
        line, k = pattern.empty
        raise LinearSolveError(f"matrix {line} {k} is empty; "
                               "a structurally singular matrix is not factored")
    if pattern.band_index is not None:
        return Factorization(A, "band", _band_lu(A, pattern))
    if _fits_single(A.data):
        single = sp.csc_matrix((A.data.astype(np.float32), A.indices, A.indptr), shape=A.shape)
        single.has_canonical_format = True      # A's pattern, which is canonical
        try:
            return Factorization(A, "superlu32", _superlu(single))
        except LinearSolveError:
            pass
    return Factorization(A, "superlu", _superlu(A))


def linear_solve(matrix, rhs: np.ndarray, kept: list | None = None,
                 pattern: CscPattern | None = None) -> np.ndarray:
    """Direct sparse solve with a verified residual: ``factorize(matrix, pattern).solve(rhs)``.

    The banded LU factors in float64, SuperLU in float32 when every entry
    fits.  The solution is refined in float64 until the ``LINEAR_TOL``
    bound holds, and a float32 factor that cannot get there is replaced
    once by the float64 one; a non-finite entry or right-hand side, an
    empty row or column, a float64 factor that
    misses the bound, an exact zero pivot or a failed factorization raises
    ``LinearSolveError`` (see ``Factorization`` and ``factorize``).

    ``kept``, a list the caller holds across calls, carries the solve of
    the last factor from one call to the next: ``matrix`` is solved first
    with it (``_kept_solve``), and only when that misses is it dropped and
    ``matrix`` factored.  The new factor's solve is then kept, without
    ``matrix``.
    """
    if kept is None:
        return factorize(matrix, pattern).solve(rhs)
    x = _kept_solve(kept[0], matrix, rhs) if kept else None
    if x is None:
        kept.clear()                # one factor alive at a time
        factor = factorize(matrix, pattern)
        x = factor.solve(rhs)
        kept.append(factor._lu_solve)
    return x


def _kept_solve(lu_solve, matrix, rhs) -> np.ndarray | None:
    """``matrix`` solved with ``lu_solve``, another matrix's factor, and refined
    against ``matrix``: the solution when the ``LINEAR_TOL`` bound holds, else
    None.  A right-hand side that does not fit or is not finite raises."""
    with np.errstate(over="ignore", invalid="ignore"):     # as _refine needs
        rhs, bound = _checked_rhs(matrix, rhs)
        return _refine(matrix, rhs, lu_solve, bound)[0]


def _checked_rhs(A, rhs) -> tuple[np.ndarray, float]:
    """``rhs`` in float64 and its residual bound; ``LinearSolveError`` when it
    does not match ``A`` or has a non-finite entry.  Called under
    ``np.errstate(over="ignore")``: the norm is finite whenever every entry
    is, so the entries are scanned only when it is not."""
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != rhs.size:
        raise LinearSolveError(f"matrix of shape {A.shape} does not match "
                               f"right-hand side of size {rhs.size}")
    norm = _norm(rhs)
    if not norm < math.inf and not np.isfinite(rhs).all():
        k = int(np.flatnonzero(~np.isfinite(rhs))[0])
        raise LinearSolveError(f"right-hand side entry {k} is {rhs[k]}; "
                               "a non-finite right-hand side is not solved")
    return rhs, max(1e-12, LINEAR_TOL * norm)


def _fits_single(data: np.ndarray) -> bool:
    """Whether every entry, finite by then, is within float32's range."""
    return bool(np.all(np.abs(data) <= _SINGLE_MAX))


def _norm(v: np.ndarray) -> float:
    """2-norm of ``v``'s entries, rescaled by its largest entry when the squares
    overflow: bitwise ``np.linalg.norm``'s where they do not.  Called under
    ``np.errstate(over="ignore")``, one per loop that calls it, since
    ``np.dot`` warns on overflow."""
    v = v.reshape(-1)                       # a column right-hand side, as np.linalg.norm reads it
    norm = math.sqrt(v.dot(v))
    if norm == math.inf and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        norm = scale * _norm(v / scale)
    return norm


def _refine(A, b: np.ndarray, lu_solve, bound: float) -> tuple[np.ndarray | None, float]:
    """``lu_solve(b)``, refined with ``lu_solve`` of the float64 residual until
    its norm is at most ``bound``; at most ``MAX_REFINEMENTS`` steps, each of
    which must cut it tenfold.  Returns the solution, or None if it missed
    the bound, and the last residual norm.  Called under
    ``np.errstate(over="ignore", invalid="ignore")``, so an overflow on the
    way is silent: it leaves a non-finite solution or residual, which
    misses the bound.  An empty ``b`` is solved without ``lu_solve``."""
    if b.size == 0:
        return np.zeros(0), 0.0
    x = lu_solve(b)
    resid = b - A @ x
    norm = _norm(resid)
    for _ in range(MAX_REFINEMENTS):
        if not bound < norm < math.inf:     # met, or past repair
            break
        x = x + lu_solve(resid)
        resid = b - A @ x
        last, norm = norm, _norm(resid)
        if not norm <= 0.1 * last:
            break
    met = norm <= bound and norm < math.inf and np.isfinite(x).all()
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


def _band_lu(A, pattern: CscPattern):
    """LAPACK banded LU of a canonical CSC matrix on ``pattern``, whose
    ``band_index`` places its entries (see ``CscPattern``); returns its solve.
    An exact zero pivot raises ``LinearSolveError``."""
    kl, ku, n = pattern.kl, pattern.ku, A.shape[0]
    depth = 2 * kl + ku + 1
    flat = np.zeros(depth * n)
    flat[pattern.band_index] = A.data
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


@dataclass(frozen=True, init=False, slots=True)
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


def lifted_state(mesh: Mesh, dofmap: DofMap, state: State | None = None) -> State:
    """A copy of ``state``, or of the zero state, with the prescribed Dirichlet
    and pin values installed on the constrained DOFs: the one place they enter."""
    start = State.zeros(mesh) if state is None else state.copy()
    values = dofmap.prescribed.copy()
    values[dofmap.free] = np.concatenate([start.vbar.ravel(), start.p])[dofmap.free]
    start.vbar, start.p = dofmap.split(values)
    return start


class _Differences:
    """Divided differences through the last ``PREDICTOR_POINTS`` converged
    points of a path, kept across points.

    ``t`` holds the nodes, newest first, ``edge[k]`` the divided difference
    f[t_0, ..., t_k] over ``vbar``, ``p`` and ``beta`` joined, and ``state``
    the newest point's state.  A point is one node, and its tangent a
    second node at the same parameter whose first divided difference with
    the first is the tangent (the confluent, Hermite form).  A node enters
    at the front in O(points) vector operations, as f[t_0, ..., t_k] =
    (f[t_1, ..., t_k] - f[t_0, ..., t_{k-1}]) / (t_k - t_0) with the old
    edge first: the operands of the whole table, so the edge is bitwise the
    one a rebuild from the window gives.
    """

    def __init__(self):
        self.t: list = []
        self.edge: list[np.ndarray] = []
        self.nodes: list[int] = []      # per point, newest first: 1, or 2 with a tangent
        self.state: State | None = None

    def add(self, parameter, state: State, tangent: np.ndarray | None = None) -> None:
        """Enter the converged ``state`` at ``parameter``, and its tangent if given."""
        self.state = state
        self.nodes = [1, *self.nodes[:PREDICTOR_POINTS - 1]]
        self._insert(parameter, np.concatenate([state.vbar.ravel(), state.p,
                                                state.beta.ravel()]))
        self.add_tangent(tangent)

    def add_tangent(self, tangent: np.ndarray | None) -> None:
        """Enter the newest point's tangent (over ``vbar``, ``p`` and ``beta``
        joined) as its second node; None enters nothing."""
        if tangent is not None:
            self.nodes[0] = 2
            self._insert(self.t[0], self.edge[0], tangent)

    def _insert(self, parameter, vector: np.ndarray, slope: np.ndarray | None = None) -> None:
        old, t = self.edge, self.t
        edge = [vector]
        for k in range(1, sum(self.nodes)):
            edge.append(slope if k == 1 and slope is not None
                        else (old[k - 1] - edge[k - 1]) / (t[k - 1] - parameter))
        self.edge, self.t = edge, [parameter, *t[:len(edge) - 1]]


def _extrapolate(table: _Differences, parameter) -> State:
    """The start at ``parameter`` from the divided differences ``table``: every
    start after a path's first.

    The Newton form of the interpolating polynomial, from the newest node
    back: term k is ``table.edge[k]`` times ``(t - t_0) ... (t - t_{k-1})``,
    exact on polynomials of degree 2m - 1 when each of m points has a
    tangent.  Term 1, the secant or the newest tangent, is always added;
    each later term only while its norm is below the last added one's, so
    a path whose differences grow falls back to term 1.  With a tangent in
    the window the norms are compared in each of ``vbar``, ``p`` and
    ``beta``: their scales differ, so the whole vector's norm follows the
    largest alone, and on coarse lid ladders it let Hermite terms through
    that grew in ``vbar`` and drove Newton to divergence.  Without one, the
    whole vector's norm alone is compared.
    """
    x = table.state
    a, b = x.vbar.size, x.vbar.size + x.p.size
    fields = 2 in table.nodes
    start, weight, last = table.edge[0].copy(), 1.0, ()
    with np.errstate(over="ignore"):        # as _norm needs: it rescales an overflow
        for k in range(1, len(table.edge)):
            weight *= parameter - table.t[k - 1]
            term = weight * table.edge[k]
            size = (_norm(term[:a]), _norm(term[a:b]), _norm(term[b:])) if fields \
                else (_norm(term),)
            if k > 1 and not all(new < old for new, old in zip(size, last)):
                break
            start += term
            last = size
    return State(start[:a].reshape(x.vbar.shape), start[a:b], start[b:].reshape(x.beta.shape))


def _predict(points: list[tuple], parameter) -> State:
    """``_extrapolate`` through the converged ``points`` ``(parameter, state)`` or
    ``(parameter, state, tangent)``, oldest first, entered in turn into a
    ``_Differences``, which keeps the last ``PREDICTOR_POINTS`` of them."""
    table = _Differences()
    for point in points:
        table.add(*point)
    return _extrapolate(table, parameter)


def _setup(problem) -> Discretization:
    return Discretization(problem.mesh, build_dof_map(problem.mesh, problem.bc),
                          problem.bc, problem.body_force)


def _newton_steps(disc: Discretization, nu: float, state: State, last: list | None = None):
    """Newton updates of ``state`` in place, each yielding (residual, None).

    With ``last``, a list, each update leaves in it the solve of its factor
    and its linearized system (assembled with ``coupling``) from its solve
    through the residual assembly that follows; the next update clears it
    before it linearizes, so the last update's stay for ``_tangent``.
    """
    coupling = last is not None
    system = assemble_system(disc, state, nu, coupling)
    while True:
        delta = np.zeros(disc.dofmap.total)
        delta[disc.free] = linear_solve(system.matrix, system.rhs, last, pattern=disc.pattern)
        dbeta = system.recover_beta(state, delta)
        dvbar, dp = disc.dofmap.split(delta)
        state.vbar += dvbar
        state.p += dp
        state.beta += dbeta
        if last is not None:
            last.append(system)
        system = assemble_system(disc, state, nu, coupling)
        yield system.residual, None
        if last is not None:
            last.clear()                # an empty list: linear_solve factors the next matrix


def _tangent(disc: Discretization, nu: float, state: State, last: list) -> np.ndarray | None:
    """The path's tangent dx/dlog Re at the converged ``state``, over ``vbar``,
    ``p`` and ``beta`` as ``_Differences`` joins them, or None when its solve misses
    the ``LINEAR_TOL`` bound.

    With Re proportional to 1/nu, dx/dlog Re = nu J^-1 dR/dnu, and nu dR/dnu
    is the viscous residual (``viscous_residual``).  J is the last update's
    linearization, one update behind ``state``: ``last`` holds its factor's
    solve and its system, which condenses the residual; the fine part is
    recovered as an update's is.  No factor or linearization is added.
    """
    lu_solve, system = last
    Rvp, Rf = viscous_residual(disc, state, nu)
    x = _kept_solve(lu_solve, system.matrix, system.condensed_rhs(Rvp, Rf))
    if x is None:
        return None
    delta = np.zeros(disc.dofmap.total)    # J delta = -nu dR/dnu: the tangent is -delta
    delta[disc.free] = x
    dvbar, dp = disc.dofmap.split(delta)
    dbeta = system.fine_increment(Rf, delta)
    return -np.concatenate([dvbar.ravel(), dp, dbeta.ravel()])


def _fixed_point_steps(disc: Discretization, nu: float, state: State):
    """Fixed-point updates of ``state`` in place, each yielding (residual, increment)."""
    state.beta[:] = 0.0
    kept: list = []
    while True:
        matrix, rhs = fp_assemble(disc, state, nu)
        delta = np.zeros(disc.dofmap.total)
        delta[disc.free] = linear_solve(matrix, rhs, kept, pattern=disc.pattern)
        del matrix, rhs             # not held through the next assembly
        dvbar, dp = disc.dofmap.split(delta)
        state.vbar += dvbar
        state.p += dp
        yield assemble_system(disc, state, nu).residual, float(np.linalg.norm(dvbar))


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


def _iterate(disc: Discretization, nu: float, config: SolverConfig, state0: State | None,
             last: list | None = None) -> tuple[State, IterationReport]:
    """Run ``config.strategy`` from ``lifted_state`` of a checked ``state0`` (its
    constrained values replaced, transient fields kept) or of the zero state.
    A Newton run given ``last`` leaves its last update's factor and system
    there (``_newton_steps``)."""
    updates, tracks_increment = _STRATEGIES[config.strategy]
    state = lifted_state(disc.mesh, disc.dofmap, state0)
    inc_tol = config.tol if config.increment_tol is None else config.increment_tol

    history: list[float] = []
    increments: list[float | None] = []
    failure = None
    stop = "max_iter"
    min_resid = np.inf
    steps = updates(disc, nu, state) if last is None else updates(disc, nu, state, last)
    try:
        for _ in range(config.max_iter):
            resid, increment = next(steps)
            history.append(resid)
            increments.append(increment)
            if not math.isfinite(resid) or resid > DIVERGENCE_RATIO * min_resid:
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

    Starts from ``lifted_state`` of ``state0`` (its constrained values
    replaced) or of the zero state.  Fixed point also stops on the velocity
    increment (``increment_tol``), at the scheme's own fixed point, off the
    Newton solution by the stabilization approximation.  A ladder is a path
    in Re (``_path``) that starts cold; it returns the last converged rung's
    state, or the first rung's own iterate when that rung fails.  Its report
    is the last rung's, with every rung's residual and increment histories
    joined (so its iterations are their sum) and (re, report) pairs as
    ``sub_reports``.  Every rung shares one set-up, so each rung that
    ``problem.with_re`` builds must keep the body force, and a ladder must
    end at ``problem.re`` and takes no ``state0``; a ``state0`` must fit the
    mesh and carry no ``dt`` or ``vbar_prev`` (``time_march``'s).  Each of
    these raises ``ValueError`` before set-up.
    """
    if state0 is not None and config.continuation is not None:
        raise ValueError("a continuation ladder starts cold; it takes no state0")
    if config.continuation is not None and config.continuation.re_target != problem.re:
        raise ValueError(f"continuation ladder ends at Re={config.continuation.re_target!r}, "
                         f"but the problem's Re is {problem.re!r}")
    if state0 is not None and (state0.dt is not None or state0.vbar_prev is not None):
        raise ValueError("a state0 with dt or vbar_prev is a time_march step; "
                         "a steady solve takes a steady start state")
    if state0 is not None:
        _check_fits(state0, problem.mesh)
    rungs = [] if config.continuation is None else \
        [(re, problem.with_re(re)) for re in config.continuation.ladder()]
    for re, rung in rungs:
        if rung.body_force is not problem.body_force:
            raise ValueError(f"continuation rung Re={re:g} changes the body force")
    disc = _setup(problem)
    if not rungs:
        return _iterate(disc, problem.nu, config, state0)
    points = _path(disc, config, None, ((math.log(re), rung.nu, None) for re, rung in rungs))
    subs: list[tuple[float, IterationReport]] = []
    for (re, _), (state, iterate, report) in zip(rungs, points):
        subs.append((re, report))
    # Every rung before the last converged, so the last rung's stop reason is the ladder's.
    increments = None if report.increment_history is None else \
        np.concatenate([r.increment_history for _, r in subs])
    return (iterate if state is None else state), replace(
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
    steps, a path in step counts (``_path``), from ``lifted_state`` of
    ``state0`` (its constrained values replaced) or of the zero state.  A
    step yields a copy of the state the march holds after it, with the
    step's report.  An unconverged step yields the last converged state
    and ends the march.  The set-up lives until the iterator is exhausted
    or dropped.
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
    start = lifted_state(problem.mesh, disc.dofmap, state0)
    steps = ((k, problem.nu, dt) for k in range(n_steps))
    return ((s.copy(), r) for s, _, r in _path(disc, config, start, steps))


def _path(disc: Discretization, config: SolverConfig, state: State | None, path: Iterable):
    """Solve the ``(parameter, nu, dt)`` points of ``path`` in turn from ``state``
    (None: the zero state), yielding per point the last converged state
    (``state`` before any), the point's own iterate and its report.

    The first point starts from ``state``, and each later one from
    ``_extrapolate``, the polynomial extrapolation through up to the last
    ``PREDICTOR_POINTS`` converged states, whose divided differences the
    loop keeps in one ``_Differences`` (Allgower and Georg 2003; the
    DASSL predictor of Brenan, Campbell and Petzold 1996) in the parameter:
    a ladder's log Re, a march's step count.  From one point without a
    tangent that is the point's state; on a geometric ladder, or a march,
    the secant term is ``x_k + (x_k - x_{k-1})``.  ``state`` is no point of
    the path, as an extrapolation through an impulsive start overshoots.

    A Newton rung of a ladder keeps its last update's factor, and the next
    rung first turns it into the rung's tangent (``_tangent``, one solve),
    which enters the table as a second, Hermite node: only after a rung
    that took more than one update, as one that converged in one update
    from its start cannot be started better, and never after the last
    rung, which no rung follows.  A march step has no tangent: its residual
    depends on the last step's velocity, not on the step count, so no
    derivative in the parameter exists to solve for.  Nor has fixed point,
    whose factor is of the Picard matrix, not of J.  A point with a ``dt``
    is a backward-Euler step from the last converged velocity.  There is no
    step control: the first point that fails ends the path.
    """
    table = _Differences()          # the last PREDICTOR_POINTS converged points
    tangent = None                  # computes the newest point's tangent, when it has one
    for parameter, nu, dt in path:
        if tangent is not None:
            table.add_tangent(tangent())
            tangent = None          # the factor goes before this point's first linearization
        start = _extrapolate(table, parameter) if table.edge else state
        last = [] if dt is None and config.strategy == "newton" else None
        if dt is not None:
            start = replace(start, dt=dt, vbar_prev=state.vbar)  # _iterate copies it
        iterate, report = _iterate(disc, nu, config, start, last)
        if report.converged:
            state = iterate
            table.add(parameter, state)
            if last and report.iterations > 1:
                tangent = partial(_tangent, disc, nu, state, last)
        yield state, iterate, report
        if not report.converged:
            return
