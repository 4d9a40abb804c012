"""Stabilization tensor and the linearized stabilized element/global systems.

The plain Galerkin blocks of the linearized form are cross-checked
against the Newton module: with the fine scale switched off, the
fixed-point out-of-balance force at the linearization state must equal
the Newton residual blocks evaluated there.  The stabilization tensor is
verified entrywise against adaptive quadrature.
"""

import numpy as np
import pytest
from scipy.integrate import dblquad

from vmsflow.fixed_point import (
    TauSingularError,
    compute_tau,
    fp_assemble,
    fp_element_system,
)
from vmsflow.mesh import Mesh, BoundaryConditions, build_dof_map, unit_square_mesh
from vmsflow.newton import Discretization, State, element_residuals
from vmsflow.solve import LinearSolveError, linear_solve

from helpers import random_state

REF_COORDS = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def reference_triangle_mesh(scale=1.0):
    coords = scale * REF_COORDS
    return Mesh(coords, np.array([[0, 1, 2]]),
                ((0, 1, "edge"), (1, 2, "edge"), (2, 0, "edge")), ("edge",))


def bubble_grad(x, y):
    # gradient of x*y*(1-x-y) in physical = reference coordinates
    return np.array([y * (1 - 2 * x - y), x * (1 - x - 2 * y)])


class TestTau:
    def test_zero_velocity_matches_adaptive_quadrature(self):
        mesh = reference_triangle_mesh()
        tau = compute_tau(mesh, 0, np.zeros((3, 2)), nu=1.0)

        def entry(i, j):
            def f(y, x):
                g = bubble_grad(x, y)
                return (g @ g) * (i == j) + g[i] * g[j]

            val, _ = dblquad(f, 0.0, 1.0, 0.0, lambda x: 1.0 - x,
                             epsabs=1e-14, epsrel=1e-13)
            return val

        A_ref = np.array([[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]])
        np.testing.assert_allclose(tau.A, A_ref, atol=1e-12)
        assert tau.w_b == pytest.approx(1 / 120, rel=1e-14)

    def test_viscosity_homogeneity(self):
        mesh = unit_square_mesh(3)
        v0 = np.zeros((mesh.n_nodes, 2))
        c = 7.3
        t1 = compute_tau(mesh, 4, v0, nu=1.0)
        t2 = compute_tau(mesh, 4, v0, nu=c)
        np.testing.assert_allclose(t2.A, c * t1.A, rtol=1e-14)
        np.testing.assert_allclose(t2.at(1 / 27), t1.at(1 / 27) / c, rtol=1e-12)

    def test_symmetric_at_zero_velocity(self):
        mesh = unit_square_mesh(3)
        tau = compute_tau(mesh, 2, np.zeros((mesh.n_nodes, 2)), nu=0.3)
        np.testing.assert_allclose(tau.A, tau.A.T, atol=1e-13)
        # positive definite: both eigenvalues positive
        assert np.all(np.linalg.eigvalsh(tau.A) > 0)

    def test_mesh_scaling(self):
        h = 0.5
        t1 = compute_tau(reference_triangle_mesh(), 0, np.zeros((3, 2)), nu=1.0)
        t2 = compute_tau(reference_triangle_mesh(h), 0, np.zeros((3, 2)), nu=1.0)
        assert t2.w_b == pytest.approx(h**2 * t1.w_b, rel=1e-14)
        np.testing.assert_allclose(t2.A, t1.A, rtol=1e-13)
        np.testing.assert_allclose(t2.at(1.0), h**2 * t1.at(1.0), rtol=1e-12)

    def test_singular_tensor_detected(self):
        # A is affine in the amplitude of a linear shear iterate; drive its
        # determinant through zero and hit the root
        mesh = reference_triangle_mesh()

        def A_of(s):
            v_c = np.column_stack([s * mesh.node_coords[:, 0],
                                   -s * mesh.node_coords[:, 1]])
            return v_c

        def det_of(s):
            tau = compute_tau(mesh, 0, A_of(s), nu=1e-3)
            return np.linalg.det(tau.A)

        lo, hi = 0.0, 2.0
        assert det_of(lo) > 0 > det_of(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            try:
                d = det_of(mid)
            except TauSingularError:
                return
            if d > 0:
                lo = mid
            else:
                hi = mid
        pytest.fail("no singular stabilization matrix found near the root")


class TestFpElementSystem:
    def test_zero_iterate_is_stokes_like(self):
        # the velocity-test weighting vanishes at v_c = 0, so stabilization
        # touches only pressure rows/columns
        mesh = unit_square_mesh(2)
        v0 = np.zeros((mesh.n_nodes, 2))
        on = fp_element_system(mesh, 1, v0, None, nu=0.7)
        off = fp_element_system(mesh, 1, v0, None, nu=0.7, stabilize=False)
        np.testing.assert_allclose(on.K[:6, :6], off.K[:6, :6], atol=1e-15)
        np.testing.assert_allclose(on.K[:6, :6], on.K[:6, :6].T, atol=1e-13)
        np.testing.assert_allclose(on.K[:6, 6:], off.K[:6, 6:], atol=1e-15)
        # pressure-pressure block becomes a (negative of a) graph-Laplacian-like
        # stabilization block instead of zero
        assert np.abs(off.K[6:, 6:]).max() == 0.0
        assert np.abs(on.K[6:, 6:]).max() > 0.0

    def test_galerkin_blocks_match_newton_linearization(self):
        # out-of-balance force of the unstabilized linearized system at the
        # linearization state equals the Newton residual with beta = 0
        mesh = unit_square_mesh(3)
        rng = np.random.default_rng(17)
        state = random_state(mesh, rng)
        state.beta[:] = 0.0
        nu = 0.45

        def bf(points):
            x, y = points[..., 0], points[..., 1]
            return np.stack([np.sin(x + y), np.cos(x - y)], axis=-1)

        for e in (0, 5, 11):
            sys_e = fp_element_system(mesh, e, state.vbar, None, nu,
                                      body_force=bf, stabilize=False)
            tri = mesh.triangles[e]
            x = np.concatenate([state.vbar[tri].reshape(-1), state.p[tri]])
            out_of_balance = sys_e.K @ x - sys_e.F
            r = element_residuals(mesh, e, state, nu, bf)
            np.testing.assert_allclose(out_of_balance[:6], r.Rc, atol=1e-13)
            np.testing.assert_allclose(out_of_balance[6:], -r.Rp, atol=1e-13)

    def test_stabilization_vanishes_on_strong_solution(self):
        # constant iterate, linear pressure with grad p = b: the residual slot
        # is identically zero, so stabilized and plain systems agree at that
        # state (out-of-balance forces match)
        mesh = unit_square_mesh(2)
        c = np.array([0.8, -0.3])
        b0 = np.array([0.25, 1.5])

        def bf(points):
            return np.broadcast_to(b0, points.shape).copy()

        vbar = np.broadcast_to(c, (mesh.n_nodes, 2)).copy()
        p = mesh.node_coords @ b0
        x_nodes = lambda tri: np.concatenate([vbar[tri].reshape(-1), p[tri]])
        for e in range(mesh.n_triangles):
            on = fp_element_system(mesh, e, vbar, None, 0.6, body_force=bf)
            off = fp_element_system(mesh, e, vbar, None, 0.6, body_force=bf,
                                    stabilize=False)
            x = x_nodes(mesh.triangles[e])
            np.testing.assert_allclose(on.K @ x - on.F, off.K @ x - off.F, atol=1e-14)

    def test_not_self_adjoint_at_generic_iterate(self):
        mesh = unit_square_mesh(3)
        rng = np.random.default_rng(23)
        v_c = rng.uniform(-1, 1, (mesh.n_nodes, 2))
        on = fp_element_system(mesh, 7, v_c, None, nu=0.5)
        off = fp_element_system(mesh, 7, v_c, None, nu=0.5, stabilize=False)
        stab = on.K - off.K
        assert np.abs(stab - stab.T).max() > 1e-6 * np.abs(stab).max()

    def test_transient_requires_previous_velocity(self):
        mesh = unit_square_mesh(2)
        with pytest.raises(ValueError, match="previous velocity"):
            fp_element_system(mesh, 0, np.zeros((mesh.n_nodes, 2)), None,
                              nu=1.0, dt=0.1)

    def test_transient_galerkin_matches_newton_residual(self):
        # the backward-Euler cross-module oracle: the unstabilized transient
        # out-of-balance force at the linearization state equals the Newton
        # transient residual with beta = 0
        mesh = unit_square_mesh(2)
        rng = np.random.default_rng(31)
        state = random_state(mesh, rng, dt=0.13)
        state.beta[:] = 0.0

        def bf(points):
            x, y = points[..., 0], points[..., 1]
            return np.stack([x * y, np.cos(y)], axis=-1)

        for e in (0, 3, 6):
            sys_e = fp_element_system(mesh, e, state.vbar, state.vbar_prev, 0.8,
                                      dt=state.dt, body_force=bf, stabilize=False)
            tri = mesh.triangles[e]
            x = np.concatenate([state.vbar[tri].reshape(-1), state.p[tri]])
            out_of_balance = sys_e.K @ x - sys_e.F
            r = element_residuals(mesh, e, state, 0.8, bf)
            np.testing.assert_allclose(out_of_balance[:6], r.Rc, atol=1e-13)
            np.testing.assert_allclose(out_of_balance[6:], -r.Rp, atol=1e-13)


def zero_velocity(points):
    return np.zeros(np.shape(np.asarray(points))[:-1] + (2,))


class TestFpAssemble:
    def test_system_dimension(self):
        mesh = unit_square_mesh(3)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(mesh, bc)
        K, rhs = fp_assemble(Discretization(mesh, dofmap, bc),
                             np.zeros((mesh.n_nodes, 2)), 1.0, None)
        assert K.shape == (dofmap.free.size, dofmap.free.size)
        assert rhs.size == dofmap.free.size

    def test_stokes_velocity_block_symmetric(self):
        mesh = unit_square_mesh(3)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(mesh, bc)
        K, _ = fp_assemble(Discretization(mesh, dofmap, bc),
                           np.zeros((mesh.n_nodes, 2)), 1.0, None, stabilize=False)
        K = K.toarray()
        nv = np.count_nonzero(dofmap.free < 2 * mesh.n_nodes)
        Kvv = K[:nv, :nv]
        assert np.abs(Kvv - Kvv.T).max() <= 1e-12 * max(np.abs(Kvv).max(), 1.0)

    def test_equal_order_needs_stabilization(self):
        # without the stabilization the equal-order pair is singular (or
        # produces a badly polluted pressure); with it the solve is clean
        from vmsflow.problems import body_force_cavity

        prob = body_force_cavity(8, nu=1.0)
        dofmap = build_dof_map(prob.mesh, prob.bc)
        v0 = np.zeros((prob.mesh.n_nodes, 2))

        def solve(stabilize):
            K, rhs = fp_assemble(Discretization(prob.mesh, dofmap, prob.bc), v0, 1.0,
                                 prob.body_force, stabilize=stabilize)
            x = linear_solve(K, rhs)
            full = np.zeros(dofmap.total)
            full[dofmap.free] = x
            idx, vals = dofmap.constrained_values()
            full[idx] = vals
            return full[2 * prob.mesh.n_nodes:]

        p_stab = solve(True)
        osc_stab = _max_neighbor_jump(p_stab, 8)
        try:
            p_raw = solve(False)
        except LinearSolveError:
            return  # singular system: the expected failure mode
        assert _max_neighbor_jump(p_raw, 8) > 5.0 * osc_stab


def _max_neighbor_jump(p, n):
    P = p.reshape(n + 1, n + 1)
    return max(np.abs(np.diff(P, axis=0)).max(), np.abs(np.diff(P, axis=1)).max())
