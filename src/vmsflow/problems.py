"""Benchmark problem definitions, error norms, and convergence studies.

Reynolds numbers follow the usual benchmark convention: unit reference
velocity and length for the cavities, and for the backward-facing step a
unit peak inflow speed with the full channel height as length, so
``nu = 1 / Re`` in every case, and a builder refuses a Reynolds number
outside [1e-100, 1e100].  The body-force-driven cavity keeps the
same polynomial body force at every Reynolds number; its closed-form
solution is a problem's ``exact`` only at unit viscosity, where it
satisfies the momentum balance ``v . grad v - laplacian(v) + grad p = b``
exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from vmsflow.mesh import (
    BoundaryConditions,
    Mesh,
    backward_step_mesh,
    unit_square_mesh,
)
from vmsflow.newton import ElementBatch, State
from vmsflow.solve import IterationReport, SolverConfig, solve


def _split(points):
    pts = np.asarray(points, dtype=float)
    return pts[..., 0], pts[..., 1]


def cavity_body_force(points) -> np.ndarray:
    """Polynomial body force of the manufactured cavity problem.

    Transcribed term by term; the two product groups are the convective
    part, the leading polynomials the Stokes part at unit viscosity.
    """
    x, y = _split(points)
    vx = x**2 * (1 - x) ** 2 * (2 * y - 6 * y**2 + 4 * y**3)
    vy = -(y**2) * (1 - y) ** 2 * (2 * x - 6 * x**2 + 4 * x**3)

    bx = (
        (12 - 24 * y) * x**4
        + (-24 + 48 * y) * x**3
        + (-48 * y + 72 * y**2 - 48 * y**3 + 12) * x**2
        + (-2 + 24 * y - 72 * y**2 + 48 * y**3) * x
        + 1 - 4 * y + 12 * y**2 - 8 * y**3
        + (4 * x * y - 12 * x * y**2 + 8 * x * y**3
           - 12 * x**2 * y + 36 * x**2 * y**2 - 24 * x**2 * y**3
           + 8 * x**3 * y - 24 * x**3 * y**2 + 16 * x**3 * y**3) * vx
        + (2 * x**2 - 12 * x**2 * y + 12 * x**2 * y**2
           - 4 * x**3 + 24 * x**3 * y - 24 * x**3 * y**2
           + 2 * x**4 - 12 * x**4 * y + 12 * x**4 * y**2) * vy
    )
    by = (
        (8 - 48 * y + 48 * y**2) * x**3
        + (-12 + 72 * y - 72 * y**2) * x**2
        + (4 - 24 * y + 48 * y**2 - 48 * y**3 + 24 * y**4) * x
        - 12 * y**2 + 24 * y**3 - 12 * y**4
        + (-2 * y**2 + 12 * y**2 * x - 12 * y**2 * x**2
           + 4 * y**3 - 24 * y**3 * x + 24 * y**3 * x**2
           - 2 * y**4 + 12 * y**4 * x - 12 * y**4 * x**2) * vx
        + (-4 * y * x + 12 * y * x**2 - 8 * y * x**3
           + 12 * y**2 * x - 36 * y**2 * x**2 + 24 * y**2 * x**3
           - 8 * y**3 * x + 24 * y**3 * x**2 - 16 * y**3 * x**3) * vy
    )
    return np.stack([bx, by], axis=-1)


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form fields with the derivatives needed by the error norms."""

    velocity: Callable
    pressure: Callable
    pressure_gradient: Callable


def cavity_exact_solution() -> ExactSolution:
    """Manufactured cavity solution, valid at unit viscosity.

    The velocity derives from the stream function x^2 (1-x)^2 y^2 (1-y)^2,
    so it is divergence-free and vanishes with its tangential component
    on the whole boundary; the pressure is x (1 - x).
    """

    def f(x):
        return x**2 * (1 - x) ** 2

    def df(x):
        return 2 * x - 6 * x**2 + 4 * x**3

    def velocity(points):
        x, y = _split(points)
        return np.stack([f(x) * df(y), -f(y) * df(x)], axis=-1)

    def pressure(points):
        x, _ = _split(points)
        return x * (1 - x)

    def pressure_gradient(points):
        x, _ = _split(points)
        g = np.zeros(np.shape(x) + (2,))
        g[..., 0] = 1 - 2 * x
        return g

    return ExactSolution(
        velocity=velocity,
        pressure=pressure,
        pressure_gradient=pressure_gradient,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark instance: geometry, boundary data, and parameters."""

    name: str
    mesh: Mesh
    bc: BoundaryConditions
    nu: float
    body_force: Callable | None
    re: float | None = None

    @property
    def exact(self) -> ExactSolution | None:
        """The cavity's closed-form solution, which holds only with the cavity's
        body force at unit viscosity; None otherwise."""
        if self.body_force is cavity_body_force and self.nu == 1.0:
            return cavity_exact_solution()
        return None

    def with_re(self, re: float) -> "ProblemSpec":
        """The same mesh, boundary data and body force at another Reynolds number."""
        re, nu = _resolve_nu(re, None)
        return replace(self, re=re, nu=nu)


def _zero_velocity(points):
    return np.zeros(np.shape(np.asarray(points))[:-1] + (2,))


def _resolve_nu(re, nu):
    if (re is None) == (nu is None):
        raise ValueError("give exactly one of re and nu")
    name, given = ("re", re) if nu is None else ("nu", nu)
    if not 0 < given < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {given}")
    if nu is None:
        nu = 1.0 / re
    else:
        re = 1.0 / nu
    if not 1e-100 <= re <= 1e100:      # past it, 1/given or nu squared overflows
        raise ValueError(f"{name}={given:g} gives Reynolds number {re:g}, outside [1e-100, 1e100]")
    return float(re), float(nu)


def _origin_pin(mesh: Mesh, pressure: Callable | None = None) -> tuple[int, float]:
    """Pressure pin at the node nearest the origin, to ``pressure`` there (0 if None)."""
    node = int(np.argmin(np.einsum("ni,ni->n", mesh.node_coords, mesh.node_coords)))
    return node, 0.0 if pressure is None else float(pressure(mesh.node_coords[node]))


def body_force_cavity(n: int, re: float | None = None, nu: float | None = None
                      ) -> ProblemSpec:
    """Body-force-driven cavity on the unit square, no-slip everywhere.

    The pressure is pinned at the node nearest the origin to the value
    of the manufactured pressure there; the closed-form solution is its
    ``exact`` only at unit viscosity.
    """
    if n < 4:
        raise ValueError(f"body_force_cavity needs n >= 4, got {n}")
    re, nu = _resolve_nu(re, nu)
    mesh = unit_square_mesh(n)
    bc = BoundaryConditions(
        dirichlet={tag: _zero_velocity for tag in ("left", "right", "bottom", "top")},
        pressure_pin=_origin_pin(mesh, cavity_exact_solution().pressure),
    )
    return ProblemSpec(
        name="body_force_cavity",
        mesh=mesh,
        bc=bc,
        nu=nu,
        body_force=cavity_body_force,
        re=re,
    )


def lid_cavity(n: int, re: float | None = None, nu: float | None = None
               ) -> ProblemSpec:
    """Lid-driven cavity: unit horizontal velocity on top, no-slip walls.

    The wall tags are listed after the lid tag, so the corner nodes take
    the wall value and the prescribed velocity drops to zero there.
    """
    if n < 8:
        raise ValueError(f"lid_cavity needs n >= 8, got {n}")
    re, nu = _resolve_nu(re, nu)
    mesh = unit_square_mesh(n)

    def lid_velocity(points):
        out = np.zeros(np.shape(np.asarray(points))[:-1] + (2,))
        out[..., 0] = 1.0
        return out

    bc = BoundaryConditions(
        dirichlet={
            "top": lid_velocity,
            "bottom": _zero_velocity,
            "left": _zero_velocity,
            "right": _zero_velocity,
        },
        pressure_pin=_origin_pin(mesh),
    )
    return ProblemSpec(
        name="lid_cavity",
        mesh=mesh,
        bc=bc,
        nu=nu,
        body_force=None,
        re=re,
    )


def backward_step(re: float | None = None, nu: float | None = None,
                  h: float = 0.25) -> ProblemSpec:
    """Backward-facing step with parabolic inflow and natural outflow.

    The channel is ``backward_step_mesh``'s, and the inflow profile
    peaks at 1 in the middle of its opening 0.5 <= y <= 1; the outflow
    boundary is traction-free, so no pressure pin is needed.
    """
    re, nu = _resolve_nu(re, nu)
    mesh = backward_step_mesh(h=h)

    def inflow_velocity(points):
        _, y = _split(points)
        out = np.zeros(np.shape(y) + (2,))
        out[..., 0] = 4.0 * (y - 0.5) * (1.0 - y) / 0.5**2
        return out

    bc = BoundaryConditions(
        dirichlet={"inflow": inflow_velocity, "walls": _zero_velocity},
        neumann={"outflow": None},
    )
    return ProblemSpec(
        name="backward_step",
        mesh=mesh,
        bc=bc,
        nu=nu,
        body_force=None,
        re=re,
    )


PROBLEM_BUILDERS = {
    "body_force_cavity": body_force_cavity,
    "lid_cavity": lid_cavity,
    "backward_step": backward_step,
}


@dataclass(frozen=True)
class ErrorNorms:
    l2_velocity: float
    h1_semi_pressure: float
    l2_pressure: float


def error_norms(state: State, exact: ExactSolution | None, mesh: Mesh) -> ErrorNorms:
    """Quadrature-evaluated error norms of a discrete state.

    The discrete velocity is the full field (nodal part plus the bubble
    fine scale; the fine coefficients are zero for fixed-point states).
    The discrete pressure gradient is piecewise constant; the exact
    gradient is evaluated analytically.
    """
    if exact is None:
        raise ValueError("error_norms needs the problem's exact solution")
    batch = ElementBatch(mesh)
    tris, N = batch.tris_t, batch.N                      # (3, E), (Q, 3)
    # At the quadrature points, element index last: scalars (Q, E), vectors (2, Q, E).
    xq = np.matmul(N, mesh.node_coords[tris].transpose(2, 0, 1))
    vq = np.matmul(N, state.vbar[tris].transpose(2, 0, 1))
    vq += batch.bq[:, None] * state.beta.T[:, None]
    p = state.p[tris]
    gp = np.einsum("ae,aje->je", p, batch.G)             # the constant discrete gradient
    points = xq.transpose(1, 2, 0)                       # (Q, E, 2), as the exact fields take them
    dv = vq - np.moveaxis(exact.velocity(points), -1, 0)
    dpg = gp[:, None] - np.moveaxis(exact.pressure_gradient(points), -1, 0)
    dp = N @ p - exact.pressure(points)
    wd = np.ascontiguousarray(batch.wd.T)
    return ErrorNorms(
        l2_velocity=float(np.sqrt(np.einsum("qe,iqe,iqe->", wd, dv, dv))),
        h1_semi_pressure=float(np.sqrt(np.einsum("qe,iqe,iqe->", wd, dpg, dpg))),
        l2_pressure=float(np.sqrt(np.einsum("qe,qe,qe->", wd, dp, dp))),
    )


_NORM_FIELDS = ("l2_velocity", "h1_semi_pressure", "l2_pressure")


@dataclass(frozen=True)
class ConvergenceTable:
    """Mesh-refinement errors and the solve of each level, from which the
    least-squares convergence rates and ``complete`` derive."""

    rows: tuple[tuple[float, ErrorNorms], ...]
    reports: tuple[IterationReport, ...] = ()

    @property
    def rates(self) -> dict[str, float]:
        return fit_rates(self.rows)

    @property
    def complete(self) -> bool:
        """Whether every solve converged, so that every level has its row."""
        return all(r.converged for r in self.reports)


def fit_rates(rows) -> dict[str, float]:
    """Least-squares slope of log(error) against log(h) per norm (NaN under two rows)."""
    hs = np.array([h for h, _ in rows])
    rates = {}
    for name in _NORM_FIELDS:
        errs = np.array([getattr(norms, name) for _, norms in rows])
        if len(rows) >= 2 and np.all(errs > 0):
            rates[name] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        else:
            rates[name] = float("nan")
    return rates


def convergence_study(problem_factory: Callable[[int], ProblemSpec],
                      ns, config: SolverConfig | None = None) -> ConvergenceTable:
    """Solve a mesh family and tabulate errors against the exact solution.

    ``problem_factory`` maps a subdivision count to a problem whose
    ``exact`` is set; ``h = 1/n`` is recorded per row.  ``solve``
    runs every level with ``config`` (default: Newton, tol 1e-10, 50
    iterations).  At least three strictly increasing counts are checked
    before any solve, and each level's ``exact`` before its solve.  A level
    that fails to converge ends the study with the partial table (not ``complete``).
    """
    ns = list(ns)
    if len(ns) < 3:
        raise ValueError("a convergence study needs at least 3 mesh levels")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"mesh levels must increase strictly, got {ns}")
    if config is None:
        config = SolverConfig(tol=1e-10, max_iter=50)
    rows = []
    reports = []
    for n in ns:
        problem = problem_factory(n)
        if problem.exact is None:
            raise ValueError(f"{problem.name} at nu={problem.nu:g} has no exact solution to study")
        state, report = solve(problem, config)
        reports.append(report)
        if not report.converged:
            break
        rows.append((1.0 / n, error_norms(state, problem.exact, problem.mesh)))
    return ConvergenceTable(rows=tuple(rows), reports=tuple(reports))
