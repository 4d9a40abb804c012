"""The shared set-up and scatter path of both nonlinear strategies.

Oracles: the condensed Newton system and the lifted fixed-point system
must equal a dense sum of the public per-element operations, and both
must be invariant under a cyclic rotation of each triangle's local nodes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsflow.fixed_point import fp_assemble, fp_element_system
from vmsflow.mesh import BoundaryConditions, Mesh, build_dof_map, unit_square_mesh
from vmsflow.newton import (
    Discretization,
    assemble_system,
    condense,
    element_dofs,
    element_residuals,
    element_tangent,
    residual_norm,
    traction_vector,
)
from vmsflow.problems import backward_step, body_force_cavity, lid_cavity
from vmsflow.solve import SolverConfig, solve

from helpers import random_state


def linear_force(points):
    x, y = points[..., 0], points[..., 1]
    return np.stack([1.0 + 2.0 * x - y, 0.5 - x + 3.0 * y], axis=-1)


def outflow_traction(points):
    y = points[..., 1]
    return np.stack([1.0 + y, -0.5 * y**2], axis=-1)


def lid(points):
    out = np.zeros(np.shape(points)[:-1] + (2,))
    out[..., 0] = 1.0
    return out


def zero(points):
    return np.zeros(np.shape(points)[:-1] + (2,))


def cavity_case():
    prob = lid_cavity(8, re=50)
    return prob.mesh, prob.bc, prob.nu


def step_case():
    prob = backward_step(re=20, h=0.5)
    bc = BoundaryConditions(dirichlet=prob.bc.dirichlet,
                            neumann={"outflow": outflow_traction})
    return prob.mesh, bc, prob.nu


def dense_newton(mesh, dofmap, bc, state, nu, body_force):
    """Condensed matrix, rhs and residual norm summed element by element."""
    total, free = dofmap.total, dofmap.free
    K = np.zeros((total, total))
    R_hat = np.zeros(total)
    R_vp = np.zeros(total)
    rf2 = 0.0
    for e, dofs in enumerate(element_dofs(mesh, dofmap)):
        res = element_residuals(mesh, e, state, nu, body_force)
        cond = condense(res, element_tangent(mesh, e, state, nu), e)
        K[np.ix_(dofs, dofs)] += cond.K_hat
        R_hat[dofs] += cond.R_hat
        R_vp[dofs] += np.concatenate([res.Rc, res.Rp])
        rf2 += res.Rf @ res.Rf
    load = traction_vector(mesh, dofmap, bc)
    norm = np.sqrt(np.sum((R_vp - load)[free] ** 2) + rf2)
    return K[np.ix_(free, free)], -(R_hat - load)[free], norm


def dense_fixed_point(mesh, dofmap, bc, v_c, vbar_prev, nu, dt, body_force):
    """Lifted linearized system summed element by element."""
    total, free = dofmap.total, dofmap.free
    K = np.zeros((total, total))
    F = traction_vector(mesh, dofmap, bc)
    for e, dofs in enumerate(element_dofs(mesh, dofmap)):
        sys_e = fp_element_system(mesh, e, v_c, vbar_prev, nu, dt, body_force)
        K[np.ix_(dofs, dofs)] += sys_e.K
        F[dofs] += sys_e.F
    idx, vals = dofmap.constrained_values()
    return K[np.ix_(free, free)], F[free] - K[np.ix_(free, idx)] @ vals


def assert_close(actual, expected, rel):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= rel * scale


@pytest.mark.parametrize("case", [cavity_case, step_case], ids=["cavity", "step"])
@pytest.mark.parametrize("dt", [None, 0.1], ids=["steady", "transient"])
def test_scatter_matches_dense_element_sum(case, dt):
    mesh, bc, nu = case()
    dofmap = build_dof_map(mesh, bc)
    disc = Discretization(mesh, dofmap, bc)
    state = random_state(mesh, np.random.default_rng(11), dt=dt)

    K, rhs, norm = dense_newton(mesh, dofmap, bc, state, nu, linear_force)
    system = assemble_system(disc, state, nu, linear_force)
    assert_close(system.matrix.toarray(), K, 1e-13)
    assert_close(system.rhs, rhs, 1e-13)
    assert system.residual_norm == pytest.approx(norm, rel=1e-13)
    assert residual_norm(disc, state, nu, linear_force) == system.residual_norm

    K, rhs = dense_fixed_point(mesh, dofmap, bc, state.vbar, state.vbar_prev,
                               nu, dt, linear_force)
    matrix, load = fp_assemble(disc, state.vbar, nu, linear_force, dt, state.vbar_prev)
    assert_close(matrix.toarray(), K, 1e-13)
    assert_close(load, rhs, 1e-13)


def rotation_bc():
    return BoundaryConditions(
        dirichlet={"top": lid, "left": zero, "bottom": zero},
        neumann={"right": outflow_traction},
    )


def assembled(mesh, state, nu):
    bc = rotation_bc()
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc)
    system = assemble_system(disc, state, nu, linear_force)
    K, F = fp_assemble(disc, state.vbar, nu, linear_force, state.dt, state.vbar_prev)
    return (system.matrix.toarray(), system.rhs, system.residual_norm,
            residual_norm(disc, state, nu, linear_force), K.toarray(), F)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), transient=st.booleans(),
       nu=st.floats(0.01, 2.0))
def test_assembly_invariant_under_local_node_rotation(seed, transient, nu):
    # The degree-8 rule is exact for every integrand here (the body force is
    # linear), so only round-off may separate the two numberings.
    rng = np.random.default_rng(seed)
    mesh = unit_square_mesh(3)
    shifts = rng.integers(0, 3, mesh.n_triangles)
    local = (np.arange(3)[None, :] + shifts[:, None]) % 3
    rotated = Mesh(mesh.node_coords, np.take_along_axis(mesh.triangles, local, axis=1),
                   mesh.boundary_edges, mesh.tags)
    state = random_state(mesh, rng, dt=0.1 if transient else None)
    for a, b in zip(assembled(mesh, state, nu), assembled(rotated, state, nu)):
        assert_close(np.asarray(b), np.asarray(a), 1e-12)


def nan_force(points):
    return np.full(np.shape(points), np.nan)


@pytest.mark.parametrize("strategy", ["newton", "fixed_point"])
def test_non_finite_body_force_is_a_named_error(strategy):
    prob = dataclasses.replace(body_force_cavity(4, re=10), body_force=nan_force)
    with pytest.raises(ValueError, match="body force nan_force is not finite"):
        solve(prob, SolverConfig(strategy=strategy))
