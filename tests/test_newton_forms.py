"""Element residuals, consistent tangent blocks, condensation, and assembly.

The central property is tangent exactness: central finite differences of
the residuals are the arbiter for every block.  The residual is a
quadratic polynomial of the unknowns (the convection term), so central
differences are exact up to roundoff; the error is checked both at the
stated tolerance and, across step sizes, against an O(eps^2)-or-floor
envelope.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsflow.fem import triangle_quadrature
from vmsflow.mesh import BoundaryConditions, backward_step_mesh, build_dof_map, unit_square_mesh
from vmsflow.newton import (
    ElementBatch,
    FineScaleSingularError,
    State,
    Discretization,
    _body_force_load,
    _fields,
    _residuals_batched,
    _tangent_batched,
    assemble_system,
    condense,
    element_dofs,
    element_residuals,
    element_tangent,
    recover_fine_scale,
    traction_vector,
)
from vmsflow.solve import SolverConfig, newton_solve

from helpers import (
    all_neumann_bc,
    element_geometry,
    element_tangent_matrix,
    get_monolithic,
    monolithic_residual,
    monolithic_tangent,
    perturbed_square_mesh,
    random_state,
    set_monolithic,
    traction_reference,
)


def smooth_body_force(points):
    x, y = points[..., 0], points[..., 1]
    return np.stack([np.sin(x + 2 * y), np.cos(3 * x * y)], axis=-1)


class TestElementResiduals:
    def test_zero_state_zero_force(self):
        mesh = unit_square_mesh(2)
        r = element_residuals(mesh, 0, State.zeros(mesh), nu=1.0)
        np.testing.assert_array_equal(r.Rc, 0.0)
        np.testing.assert_array_equal(r.Rp, 0.0)
        np.testing.assert_array_equal(r.Rf, 0.0)

    def test_constant_body_force_loads(self):
        mesh = unit_square_mesh(3)
        b0 = np.array([0.4, -1.1])

        def const_force(points):
            return np.broadcast_to(b0, points.shape).copy()

        e = 5
        r = element_residuals(mesh, e, State.zeros(mesh), 1.0, const_force)
        area = mesh.triangle_areas()[e]
        np.testing.assert_allclose(
            r.Rc.reshape(3, 2), np.tile(-area / 3 * b0, (3, 1)), atol=1e-15
        )
        np.testing.assert_allclose(r.Rp, 0.0, atol=1e-16)
        # bubble volume: int b dOmega = detJ * 1/120 = 2*area/120
        np.testing.assert_allclose(r.Rf, -b0 * 2 * area / 120, atol=1e-16)

    def test_uniform_velocity_is_equilibrium(self):
        mesh = unit_square_mesh(2)
        state = State.zeros(mesh)
        state.vbar[:] = [0.7, -0.2]
        r = element_residuals(mesh, 1, state, nu=0.3)
        np.testing.assert_allclose(r.Rc, 0.0, atol=1e-15)
        np.testing.assert_allclose(r.Rp, 0.0, atol=1e-15)
        np.testing.assert_allclose(r.Rf, 0.0, atol=1e-15)

    def test_transient_needs_previous_velocity(self):
        mesh = unit_square_mesh(2)
        state = State.zeros(mesh)
        state.dt = 0.1
        state.vbar_prev = None
        with pytest.raises(ValueError, match="vbar_prev"):
            element_residuals(mesh, 0, state, nu=1.0)

    def test_transient_reduces_to_steady_at_rest(self):
        # matching previous velocity kills the acceleration exactly
        mesh = unit_square_mesh(2)
        rng = np.random.default_rng(2)
        steady = random_state(mesh, rng)
        trans = steady.copy()
        trans.dt = 1e-3
        trans.vbar_prev = steady.vbar.copy()
        for e in range(mesh.n_triangles):
            rs = element_residuals(mesh, e, steady, 0.5, smooth_body_force)
            rt = element_residuals(mesh, e, trans, 0.5, smooth_body_force)
            np.testing.assert_array_equal(rs.Rc, rt.Rc)
            np.testing.assert_array_equal(rs.Rf, rt.Rf)


class TestElementTangent:
    @pytest.mark.parametrize("dt", [None, 0.37])
    def test_finite_difference_consistency(self, dt):
        mesh = unit_square_mesh(2)
        rng = np.random.default_rng(42)
        nu = 0.8
        e = 3
        state = random_state(mesh, rng, dt=dt)
        K = element_tangent_matrix(element_tangent(mesh, e, state, nu))
        tri = mesh.triangles[e]
        eps = 1e-6
        for _ in range(5):
            d = rng.normal(size=11)
            d /= np.linalg.norm(d)

            def perturbed(sign):
                s = state.copy()
                for a in range(3):
                    s.vbar[tri[a]] += sign * eps * d[2 * a:2 * a + 2]
                    s.p[tri[a]] += sign * eps * d[6 + a]
                s.beta[e] += sign * eps * d[9:]
                return s

            def resid(s):
                r = element_residuals(mesh, e, s, nu, smooth_body_force)
                return np.concatenate([r.Rc, r.Rp, r.Rf])

            fd = (resid(perturbed(+1)) - resid(perturbed(-1))) / (2 * eps)
            Kd = K @ d
            assert np.linalg.norm(fd - Kd) / np.linalg.norm(Kd) <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), transient=st.booleans(),
           nu=st.floats(0.01, 2.0))
    def test_batched_finite_differences_on_perturbed_mesh(self, seed, transient, nu):
        # Every element at once through the batched kernels: the directional
        # derivative of each element residual along one global direction.
        rng = np.random.default_rng(seed)
        mesh = perturbed_square_mesh(3, rng)
        state = random_state(mesh, rng, dt=rng.uniform(0.05, 1.0) if transient else None)
        batch = ElementBatch(mesh)
        load = _body_force_load(batch, smooth_body_force)
        E = mesh.n_triangles
        b = {k: np.moveaxis(v, -1, 0)        # element index first
             for k, v in _tangent_batched(batch, _fields(batch, state, nu)).items()}
        K = np.concatenate([
            np.concatenate([b["Kcc"], b["Kcp"], b["Kcf"]], axis=2),
            np.concatenate([b["Kpc"], np.zeros((E, 3, 3)), b["Kpf"]], axis=2),
            np.concatenate([b["Kfc"], b["Kfp"], b["Kff"]], axis=2),
        ], axis=1)                                                # (E, 11, 11)
        dv = rng.normal(size=state.vbar.shape)
        dp = rng.normal(size=state.p.shape)
        db = rng.normal(size=state.beta.shape)
        eps = 1e-6

        def resid(sign):
            s = state.copy()
            s.vbar += sign * eps * dv
            s.p += sign * eps * dp
            s.beta += sign * eps * db
            return np.concatenate(_residuals_batched(batch, _fields(batch, s, nu), load)).T

        fd = (resid(+1) - resid(-1)) / (2 * eps)
        tris = mesh.triangles
        d = np.concatenate([dv[tris].reshape(E, 6), dp[tris], db], axis=1)
        Kd = np.matmul(K, d[..., None])[..., 0]
        err = np.linalg.norm(fd - Kd, axis=1) / np.linalg.norm(Kd, axis=1)
        assert err.max() <= 1e-6

    def test_stokes_limit_viscous_block(self):
        # at zero state the velocity block is the pure viscous matrix
        # nu * area * (grad N_a . grad N_b) on each 2x2 identity block
        mesh = unit_square_mesh(2)
        nu = 0.65
        e = 4
        tan = element_tangent(mesh, e, State.zeros(mesh), nu)
        from vmsflow.fem import DN_REF

        coords = mesh.node_coords[mesh.triangles[e]]
        geom = element_geometry(coords)
        G = DN_REF @ geom.Jinv
        area = geom.detJ / 2
        expected = np.kron(nu * area * (G @ G.T), np.eye(2))
        np.testing.assert_allclose(tan.Kcc, expected, atol=1e-14)
        np.testing.assert_allclose(tan.Kcc, tan.Kcc.T, atol=1e-14)

    def test_pressure_divergence_adjointness(self):
        # exact derivatives of the implemented residuals give Kcp = Kpc^T
        # (both carry the minus sign of the residual definitions)
        mesh = unit_square_mesh(2)
        rng = np.random.default_rng(1)
        for state in (State.zeros(mesh), random_state(mesh, rng)):
            tan = element_tangent(mesh, 2, state, 1.0)
            np.testing.assert_allclose(tan.Kcp, tan.Kpc.T, atol=1e-15)

    def test_transient_mass_blocks(self):
        mesh = unit_square_mesh(2)
        rng = np.random.default_rng(3)
        state = random_state(mesh, rng)
        t_steady = element_tangent(mesh, 0, state, 1.0)
        state.dt = 0.25
        state.vbar_prev = np.zeros_like(state.vbar)
        t_trans = element_tangent(mesh, 0, state, 1.0)
        dKcc = t_trans.Kcc - t_steady.Kcc
        area = mesh.triangle_areas()[0]
        # mass matrix of linear triangles: area/12 * (1 + delta_ab)
        mass = area / 12 * (np.ones((3, 3)) + np.eye(3))
        np.testing.assert_allclose(dKcc, np.kron(mass / 0.25, np.eye(2)), atol=1e-14)
        # fine block gains b*N_b/dt, fine-fine block is unchanged
        np.testing.assert_allclose(t_trans.Kff, t_steady.Kff, atol=1e-16)
        geom = element_geometry(mesh.node_coords[mesh.triangles[0]])
        np.testing.assert_allclose(
            t_trans.Kfc - t_steady.Kfc,
            np.kron(np.full((1, 3), geom.detJ / 120 / 3 / 0.25), np.eye(2)),
            atol=1e-14,
        )


class TestCondensation:
    def _random_blocks(self, rng):
        mesh = unit_square_mesh(2)
        state = random_state(mesh, rng)
        e = 1
        res = element_residuals(mesh, e, state, 0.9, smooth_body_force)
        tan = element_tangent(mesh, e, state, 0.9)
        return res, tan

    def test_decoupled_reduces_to_coarse_block(self):
        import dataclasses

        rng = np.random.default_rng(8)
        res, tan = self._random_blocks(rng)
        tan0 = dataclasses.replace(
            tan,
            Kcf=np.zeros((6, 2)), Kpf=np.zeros((3, 2)),
            Kfc=np.zeros((2, 6)), Kfp=np.zeros((2, 3)),
        )
        c = condense(res, tan0)
        expected = np.zeros((9, 9))
        expected[:6, :6] = tan.Kcc
        expected[:6, 6:] = tan.Kcp
        expected[6:, :6] = tan.Kpc
        np.testing.assert_allclose(c.K_hat, expected, atol=1e-15)
        np.testing.assert_allclose(c.R_hat, np.concatenate([res.Rc, res.Rp]), atol=1e-15)

    def test_matches_monolithic_solve(self):
        rng = np.random.default_rng(12)
        res, tan = self._random_blocks(rng)
        K = element_tangent_matrix(tan)
        R = np.concatenate([res.Rc, res.Rp, res.Rf])
        mono = np.linalg.solve(K, -R)
        c = condense(res, tan)
        dvp = np.linalg.solve(c.K_hat, -c.R_hat)
        dbeta = recover_fine_scale(c, dvp[:6], dvp[6:])
        assert np.linalg.norm(dvp - mono[:9]) / np.linalg.norm(mono[:9]) <= 1e-10
        assert np.linalg.norm(dbeta - mono[9:]) / np.linalg.norm(mono[9:]) <= 1e-10

    def test_singular_fine_block_rejected(self):
        import dataclasses

        rng = np.random.default_rng(5)
        res, tan = self._random_blocks(rng)
        bad = dataclasses.replace(tan, Kff=np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(FineScaleSingularError):
            condense(res, bad, element_index=7)

    def test_recover_zero_for_balanced_element(self):
        rng = np.random.default_rng(6)
        res, tan = self._random_blocks(rng)
        import dataclasses

        res0 = dataclasses.replace(res, Rf=np.zeros(2))
        c = condense(res0, tan)
        np.testing.assert_array_equal(
            recover_fine_scale(c, np.zeros(6), np.zeros(3)), 0.0
        )


class TestGlobalAssembly:
    def setup_method(self):
        self.mesh = unit_square_mesh(4)
        self.bc = all_neumann_bc(self.mesh)
        self.dofmap = build_dof_map(self.mesh, self.bc)
        self.rng = np.random.default_rng(21)

    def test_matvec_matches_global_fd(self):
        nu = 0.7
        state = random_state(self.mesh, self.rng)
        K = monolithic_tangent(self.mesh, self.dofmap, state, nu)
        x0 = get_monolithic(self.mesh, self.dofmap, state)
        eps = 1e-6
        d = self.rng.normal(size=x0.size)
        d /= np.linalg.norm(d)

        def resid(x):
            s = set_monolithic(self.mesh, self.dofmap, state, x)
            return monolithic_residual(self.mesh, self.dofmap, s, nu, smooth_body_force)

        fd = (resid(x0 + eps * d) - resid(x0 - eps * d)) / (2 * eps)
        Kd = K @ d
        assert np.linalg.norm(fd - Kd) / np.linalg.norm(Kd) <= 1e-6

    def test_residual_small_at_converged_state(self):
        from vmsflow.problems import body_force_cavity

        prob = body_force_cavity(4, nu=1.0)
        state, report = newton_solve(prob, SolverConfig(tol=1e-11, max_iter=20))
        assert report.converged
        dofmap = build_dof_map(prob.mesh, prob.bc)
        rhs = assemble_system(Discretization(prob.mesh, dofmap, prob.bc, prob.body_force),
                              state, prob.nu).rhs
        assert np.linalg.norm(rhs) <= 1e-11
        # per-element fine residuals meet the tolerance as well
        for e in range(prob.mesh.n_triangles):
            r = element_residuals(prob.mesh, e, state, prob.nu, prob.body_force)
            assert np.linalg.norm(r.Rf) <= 1e-11

    def test_all_dirichlet_without_pin_fails(self):
        def zero(points):
            return np.zeros(np.shape(np.asarray(points))[:-1] + (2,))

        bc = BoundaryConditions(dirichlet={t: zero for t in self.mesh.tags})
        with pytest.raises(ValueError, match="pressure_pin"):
            build_dof_map(self.mesh, bc)

    def test_translation_consistency(self):
        # constant Dirichlet data with the matching constant interior state
        # is an exact steady equilibrium: zero residual everywhere
        c = np.array([0.3, -1.4])

        def const_vel(points):
            return np.broadcast_to(c, np.shape(np.asarray(points))[:-1] + (2,)).copy()

        bc = BoundaryConditions(
            dirichlet={t: const_vel for t in self.mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(self.mesh, bc)
        state = State.zeros(self.mesh)
        state.vbar[:] = c
        system = assemble_system(Discretization(self.mesh, dofmap, bc), state, 0.9)
        assert system.residual_norm <= 1e-14

    def test_fine_scale_locality(self):
        # beta recovery of an element only reads that element's DOFs
        nu = 0.8
        state = random_state(self.mesh, self.rng)
        system = assemble_system(Discretization(self.mesh, self.dofmap, self.bc,
                                                smooth_body_force), state, nu)
        edofs = element_dofs(self.mesh, self.dofmap)
        e = 7
        delta = np.zeros(self.dofmap.total)
        far = np.setdiff1d(np.arange(self.dofmap.total), edofs[e])
        delta[far] = self.rng.normal(size=far.size)
        dbeta = system.recover_beta(state, delta)
        base = -np.einsum("mn,n->m", system.Kff_inv[..., e], system.Rf[:, e])
        np.testing.assert_allclose(dbeta[e], base, atol=1e-14)

    def test_stale_condensation_data_rejected(self):
        state = random_state(self.mesh, self.rng)
        system = assemble_system(Discretization(self.mesh, self.dofmap, self.bc,
                                                smooth_body_force), state, 1.0)
        state.vbar[0, 0] += 1e-3
        with pytest.raises(RuntimeError, match="stale"):
            system.recover_beta(state, np.zeros(self.dofmap.total))

    def test_assembly_deterministic(self):
        state = random_state(self.mesh, self.rng)
        a1 = assemble_system(Discretization(self.mesh, self.dofmap, self.bc,
                                            smooth_body_force), state, 0.5)
        a2 = assemble_system(Discretization(self.mesh, self.dofmap, self.bc,
                                            smooth_body_force), state, 0.5)
        assert a1.residual_norm == a2.residual_norm
        np.testing.assert_array_equal(a1.rhs, a2.rhs)
        np.testing.assert_array_equal(a1.matrix.toarray(), a2.matrix.toarray())


class TestTraction:
    @pytest.mark.parametrize("mesh, dirichlet, neumann", [
        (unit_square_mesh(16), ("left", "top"), ("right", "bottom")),   # sharing a corner
        (backward_step_mesh(h=0.05), ("inflow", "walls"), ("outflow",)),
    ], ids=["square", "step"])
    def test_matches_the_edge_by_edge_loop(self, mesh, dirichlet, neumann):
        # one call per tag and one scatter; the per-edge sums may only
        # round differently, within a few units in the last place
        def traction(points):
            x, y = points[..., 0], points[..., 1]
            return np.stack([np.sin(3 * x) + y**3, np.cos(y) - x], axis=-1)

        bc = BoundaryConditions(dirichlet={t: lambda p: np.zeros(p.shape) for t in dirichlet},
                                neumann={t: traction for t in neumann})
        dofmap = build_dof_map(mesh, bc)
        want = traction_reference(mesh, dofmap, bc)
        got = traction_vector(mesh, dofmap, bc)
        np.testing.assert_array_equal(got != 0.0, want != 0.0)
        assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()

    def test_edge_load_against_hand_integral(self):
        mesh = unit_square_mesh(2)

        def traction(points):
            out = np.zeros(points.shape)
            out[..., 0] = points[..., 1] ** 2   # h_x = y^2 on the right edge
            return out

        bc = BoundaryConditions(
            dirichlet={}, neumann={"right": traction, "left": None,
                                   "top": None, "bottom": None},
        )
        dofmap = build_dof_map(mesh, bc)
        load = traction_vector(mesh, dofmap, bc)
        # x=1 edge nodes at y = 0, 1/2, 1; hat-function integrals of y^2:
        # node y0: int_0^{1/2} (1-2y) y^2 = 1/96; middle node:
        # int_0^{1/2} 2y*y^2 + int_{1/2}^1 (2-2y) y^2 = 1/32 + 11/96 = 7/48
        right = [int(np.argmin(np.abs(mesh.node_coords - [1.0, y]).sum(axis=1)))
                 for y in (0.0, 0.5, 1.0)]
        got = [load[2 * node] for node in right]
        # two-point Gauss is exact for these cubics
        assert got[0] == pytest.approx(1 / 96, rel=1e-13)
        assert got[1] == pytest.approx(7 / 48, rel=1e-13)
        assert got[2] == pytest.approx(17 / 96, rel=1e-13)
        assert sum(got) == pytest.approx(1 / 3, rel=1e-13)
        assert np.all(load[1::2] == 0.0)
