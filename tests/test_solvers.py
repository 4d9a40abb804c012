"""Linear-solve contract and the nonlinear solution strategies."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from vmsflow.mesh import build_dof_map
from vmsflow.problems import backward_step, body_force_cavity, lid_cavity
from vmsflow.solve import (
    ContinuationConfig,
    LinearSolveError,
    SolverConfig,
    continuation_solve,
    fixed_point_solve,
    lifted_state,
    linear_solve,
    newton_solve,
    solve,
    time_march,
)


class TestLinearSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(linear_solve(sp.eye(3).tocsr(), b), b)

    def test_saddle_2x2(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(linear_solve(A, [2.0, 1.0]), [1.0, 1.0], atol=1e-14)

    def test_random_spd(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(50, 50))
        A = sp.csr_matrix(M.T @ M + np.eye(50))
        b = rng.normal(size=50)
        x = linear_solve(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(LinearSolveError):
            linear_solve(A, [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LinearSolveError):
            linear_solve(sp.eye(3).tocsr(), np.ones(2))

    def test_empty_system(self):
        assert linear_solve(sp.csr_matrix((0, 0)), np.zeros(0)).size == 0


class TestNewtonSolve:
    def test_trivial_problem_one_iteration(self):
        prob = dataclasses.replace(body_force_cavity(4, nu=1.0), body_force=None)
        state, report = newton_solve(prob, SolverConfig(tol=1e-12, max_iter=5))
        assert report.converged
        assert report.iterations == 1
        assert np.abs(state.vbar).max() == 0.0
        assert report.final_residual == 0.0

    def test_manufactured_cavity_quadratic(self):
        prob = body_force_cavity(8, nu=1.0)
        state, report = newton_solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        assert report.converged
        assert report.iterations <= 4
        # steep contraction in the tail
        r = report.residual_history
        assert r[-1] <= 1e-8 * r[0]

    def test_local_quadratic_convergence_from_perturbed_interpolant(self):
        # start at the exact nodal interpolant plus noise on the interior
        # velocity DOFs; the residual sequence must contract quadratically.
        # The noise has to be large enough to exercise the convective
        # nonlinearity: at unit viscosity a small perturbation is wiped out
        # in a single step and leaves no measurable sequence above roundoff.
        prob = body_force_cavity(8, nu=1.0)
        dofmap = build_dof_map(prob.mesh, prob.bc)
        state0 = lifted_state(prob.mesh, dofmap)
        state0.vbar = np.asarray(prob.exact.velocity(prob.mesh.node_coords))
        state0.p = np.asarray(prob.exact.pressure(prob.mesh.node_coords))
        rng = np.random.default_rng(4)
        noise = 2.0 * rng.standard_normal(state0.vbar.shape)
        boundary = prob.mesh.boundary_nodes()
        noise[boundary] = 0.0
        state0.vbar += noise
        from vmsflow.newton import Discretization, assemble_system

        r0 = assemble_system(Discretization(prob.mesh, dofmap, prob.bc), state0,
                             prob.nu, prob.body_force).residual_norm
        _, report = newton_solve(prob, SolverConfig(tol=1e-14, max_iter=12),
                                 state0=state0)
        r = [r0] + [v for v in report.residual_history if v > 1e-13]
        assert len(r) >= 3
        # convergence order from the final three usable residuals
        order = np.log(r[-1] / r[-2]) / np.log(r[-2] / r[-3])
        assert order >= 1.8

    def test_divergence_flagged_not_raised(self):
        prob = body_force_cavity(16, re=5000)
        state, report = newton_solve(prob, SolverConfig(tol=1e-8, max_iter=25))
        assert report.diverged
        assert not report.converged

    def test_determinism(self):
        prob = body_force_cavity(8, re=50)
        cfg = SolverConfig(tol=1e-10, max_iter=15)
        _, r1 = newton_solve(prob, cfg)
        _, r2 = newton_solve(prob, cfg)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.residual_history, r2.residual_history)


class TestFixedPointSolve:
    def test_low_reynolds_converges(self):
        prob = body_force_cavity(8, re=1)
        state, report = fixed_point_solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-8, max_iter=50)
        )
        assert report.converged
        assert not report.diverged
        assert np.all(state.beta == 0.0)
        assert report.increment_history is not None
        assert report.increment_history[-1] <= 1e-8 or report.final_residual <= 1e-8

    def test_exact_fixed_point_is_stationary(self):
        prob = body_force_cavity(8, nu=1.0)
        cfg = SolverConfig(strategy="fixed_point", tol=1e-12, max_iter=50,
                           increment_tol=1e-13)
        state, report = fixed_point_solve(prob, cfg)
        assert report.converged
        # one more sweep from the fixed point barely moves
        state2, report2 = fixed_point_solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-12, max_iter=1,
                               increment_tol=0.0),
            state0=state,
        )
        assert report2.increment_history[0] <= 1e-10

    def test_comparison_residual_floor(self):
        # the fixed-point iterate stagnates above the Newton residual scale:
        # the two discretizations differ at the stabilization level
        prob = body_force_cavity(8, nu=1.0)
        state, report = fixed_point_solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-12, max_iter=30)
        )
        assert report.converged          # by increment stagnation
        assert report.final_residual > 1e-6

    def test_strategies_agree_within_discretization_error(self):
        # both converged velocity fields sit within a small multiple of the
        # discretization error of either against the closed-form solution
        from vmsflow.fem import triangle_quadrature
        from vmsflow.newton import ElementBatch
        from vmsflow.problems import error_norms

        prob = body_force_cavity(16, nu=1.0)
        newton_state, newton_rep = newton_solve(prob, SolverConfig(tol=1e-11, max_iter=20))
        fp_state, fp_rep = fixed_point_solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-11, max_iter=50)
        )
        assert newton_rep.converged and fp_rep.converged
        batch = ElementBatch(prob.mesh, triangle_quadrature(8))
        vn = np.einsum("qa,eai->eqi", batch.N, newton_state.vbar[batch.tris])
        vn += batch.bq[None, :, None] * newton_state.beta[:, None, :]
        vf = np.einsum("qa,eai->eqi", batch.N, fp_state.vbar[batch.tris])
        diff = np.sqrt(np.einsum("eq,eqi,eqi->", batch.wd, vn - vf, vn - vf))
        err_n = error_norms(newton_state, prob.exact, prob.mesh).l2_velocity
        err_f = error_norms(fp_state, prob.exact, prob.mesh).l2_velocity
        assert diff <= 10.0 * min(err_n, err_f)


class TestContinuation:
    def test_ladder_values(self):
        cfg = ContinuationConfig(re_start=15, re_target=150, factor=1.1)
        ladder = cfg.ladder()
        assert ladder[0] == 15
        assert ladder[-1] == 150
        np.testing.assert_allclose(ladder[:-1], 15 * 1.1 ** np.arange(len(ladder) - 1))
        assert ladder[-2] < 150

    def test_single_rung_identical_to_direct(self):
        prob = body_force_cavity(8, re=40)
        cfg = SolverConfig(tol=1e-10, max_iter=15,
                           continuation=ContinuationConfig(40, 40))
        state_c, report_c = continuation_solve(prob, cfg)
        state_d, report_d = newton_solve(prob, SolverConfig(tol=1e-10, max_iter=15))
        assert len(report_c.sub_reports) == 1
        np.testing.assert_array_equal(
            report_c.sub_reports[0][1].residual_history, report_d.residual_history
        )
        np.testing.assert_array_equal(state_c.vbar, state_d.vbar)

    def test_warm_start_monotonicity(self):
        # iteration counts on warm-started rungs never exceed the cold count
        prob = backward_step(re=25, h=0.25)
        cfg = SolverConfig(tol=1e-8, max_iter=25,
                           continuation=ContinuationConfig(15, 25, factor=1.3))
        _, chain = continuation_solve(prob, cfg)
        assert chain.converged
        for re, sub in chain.sub_reports[1:]:
            _, cold = newton_solve(prob.with_re(re), SolverConfig(tol=1e-8, max_iter=25))
            assert sub.iterations <= cold.iterations

    def test_requires_continuation_config(self):
        prob = body_force_cavity(8, re=40)
        with pytest.raises(ValueError):
            continuation_solve(prob, SolverConfig())

    def test_step_direct_solve_struggles_against_warm_rungs(self):
        # the cold solve at the target Reynolds number takes more iterations
        # than any warm-started rung of the ladder that reaches it
        prob = backward_step(re=150)
        cfg = SolverConfig(tol=1e-8, max_iter=25,
                           continuation=ContinuationConfig(15, 150, factor=1.1))
        _, chain = continuation_solve(prob, cfg)
        assert chain.converged
        _, direct = newton_solve(prob, SolverConfig(tol=1e-8, max_iter=25))
        warm_counts = [rep.iterations for _, rep in chain.sub_reports[1:]]
        assert (not direct.converged) or direct.iterations > max(warm_counts)

    def test_dispatch_through_solve(self):
        prob = body_force_cavity(8, re=20)
        cfg = SolverConfig(tol=1e-9, max_iter=15, continuation=ContinuationConfig(10, 20, 1.5))
        state, report = solve(prob, cfg)
        assert report.converged
        assert len(report.sub_reports) >= 2


class TestTimeMarch:
    def test_zero_steps_returns_initial(self):
        prob = body_force_cavity(8, nu=1.0)
        states, reports = time_march(prob, SolverConfig(dt=0.1, n_steps=0))
        assert len(states) == 1
        assert reports == []
        assert np.all(states[0].vbar == 0.0)

    def test_steady_state_is_fixed_point_of_march(self):
        prob = body_force_cavity(8, nu=1.0)
        steady, rep = newton_solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        assert rep.converged
        states, reports = time_march(
            prob, SolverConfig(tol=1e-8, max_iter=5, dt=0.5, n_steps=3), state0=steady
        )
        assert all(r.converged for r in reports)
        assert all(r.iterations <= 2 for r in reports)
        drift = max(np.abs(s.vbar - steady.vbar).max() for s in states)
        assert drift <= 1e-8

    def test_huge_step_matches_steady(self):
        prob = body_force_cavity(8, nu=1.0)
        steady, _ = newton_solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        states, reports = time_march(prob, SolverConfig(tol=1e-12, max_iter=10,
                                                        dt=1e6, n_steps=1))
        assert reports[0].converged
        assert np.abs(states[-1].vbar - steady.vbar).max() <= 1e-6

    def test_requires_dt_and_steps(self):
        prob = body_force_cavity(8, nu=1.0)
        with pytest.raises(ValueError):
            time_march(prob, SolverConfig(dt=0.1))

    def test_snapshot_stride(self):
        prob = body_force_cavity(8, nu=1.0)
        states, reports = time_march(
            prob, SolverConfig(tol=1e-6, max_iter=8, dt=0.2, n_steps=4,
                               snapshot_stride=2)
        )
        assert len(reports) == 4
        assert len(states) == 3  # initial, step 2, step 4

    def test_fixed_point_march_approaches_steady(self):
        # transient fixed-point path: a few large steps from rest settle
        # onto the same flow the steady solvers find
        prob = body_force_cavity(8, nu=1.0)
        steady, _ = newton_solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        states, reports = time_march(
            prob,
            SolverConfig(strategy="fixed_point", tol=1e-10, max_iter=30,
                         dt=5.0, n_steps=4),
        )
        assert all(r.converged for r in reports)
        assert np.abs(states[-1].vbar - steady.vbar).max() <= 1e-3


class TestConfigValidation:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            SolverConfig(strategy="secant")

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            ContinuationConfig(10, 100, factor=1.0)
