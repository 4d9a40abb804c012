"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances are pinned here; shared expensive solves live in
module-scoped fixtures.  Two clauses assert what the discretization
promises rather than a figure it cannot give, and one clause is expected
to fail; each printed line carries the measured numbers.

* Criterion 2b checks first-order pressure-gradient convergence where the
  method gives it.  Over the whole domain the H1-seminorm rate is sharp
  at 1/2 (measured 0.543 Newton, 0.550 fixed point, levels 8-64): the
  pressure converges at h^(3/2) in L2, and the error concentrates in the
  wall layer of low-order residual-based forms, whose strong residual
  loses the viscous term on linear elements (Jansen, Collis, Whiting and
  Shakib, CMAME 174, 1999).  At n = 64 the elements within 2h of the
  walls hold 0.085 of the 0.093 total, and that strip converges at 0.57.
  On the fixed interior square [1/8, 7/8]^2 (elements by centroid) the
  rate is 1.42 (Newton) and 1.50 (fixed point).  The test asserts an
  interior rate >= 0.75 (one-sided: uniform meshes superconverge there)
  and a whole-domain rate >= 0.4.
* Criterion 8, second part: one backward-Euler step from rest differs
  from the steady lid solve by exactly C/dt, C = max|dev| dt = 2.3126,
  so a fixed bound on one step's deviation (formerly 1e-6 at dt = 1e6)
  tests the time step, not the scheme.  The test
  takes steps at dt = 1e6 and 1e7 and asserts that both converge, that
  max|d(1e6) - 10 d(1e7)| <= 1e-3 max|d(1e6)| (measured 5.9e-6), and that
  the extrapolated limit (10 v(1e7) - v(1e6)) / 9 matches the steady solve
  within 1e-9 (measured 1.5e-12).
* Criterion 4, Newton half, fails and its cause is not settled.  The
  body-force cavity keeps its unit-viscosity force at every Re, so the
  velocity grows with Re (max|v| 3.98 at Re = 400, 5.45 at Re = 1000).
  At n = 32 the Re = 1000 rung converges in 7 iterations; the jump to
  Re = 5000 fails after its 8 iterations (after 5 while SuperLU factored
  in float64: the count moves with round-off) and a cold start stalls.  Natural
  continuation with 5% steps, halved on failure, reaches Re ~ 3400;
  past that Newton stalls even on 0.16% steps.  Along that branch the
  per-element fine-scale blocks lose conditioning: the smallest
  2|det Kff| / ||Kff||_F^2 falls from 0.50 at Re = 1000 to 0.075 at
  Re = 2527.  The tangent (criterion 1) and the Newton loop
  (criterion 5) show no fault.  The fixed-point half passes.
"""

from typing import NamedTuple

import numpy as np
import pytest

from vmsflow.fem import triangle_quadrature
from vmsflow.mesh import build_dof_map, unit_square_mesh
from vmsflow.newton import ElementBatch, condense, element_residuals, element_tangent
from vmsflow.fixed_point import compute_tau
from vmsflow.problems import (
    backward_step,
    body_force_cavity,
    cavity_body_force,
    cavity_exact_solution,
    error_norms,
    fit_rates,
    lid_cavity,
)
from vmsflow.solve import (
    ContinuationConfig,
    SolverConfig,
    solve,
    time_march,
)

from helpers import (
    all_neumann_bc,
    cavity_velocity_gradient,
    cavity_velocity_laplacian,
    element_tangent_matrix,
    get_monolithic,
    monolithic_residual,
    monolithic_tangent,
    random_state,
    set_monolithic,
)


def _line(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


# --------------------------------------------------------------------------
# criterion 1: tangent consistency (property-based cornerstone)
# --------------------------------------------------------------------------

def test_criterion_1_tangent_consistency():
    rng = np.random.default_rng(2024)
    eps_list = (1e-4, 1e-5, 1e-6)
    # roundoff floor of a central difference scales like machine eps / eps
    floor = {eps: 3e-15 / eps for eps in eps_list}
    worst = {eps: 0.0 for eps in eps_list}
    states_checked = 0
    for n_cells in (2, 4):
        mesh = unit_square_mesh(n_cells)
        bc = all_neumann_bc(mesh)
        dofmap = build_dof_map(mesh, bc)
        for k in range(10):
            nu = 1.0 if k % 2 == 0 else 0.01
            state = random_state(mesh, rng)
            states_checked += 1
            K = monolithic_tangent(mesh, dofmap, state, nu)
            x0 = get_monolithic(mesh, dofmap, state)
            d = rng.normal(size=x0.size)
            d /= np.linalg.norm(d)
            Kd = K @ d
            errs = {}
            for eps in eps_list:
                rp = monolithic_residual(
                    mesh, dofmap, set_monolithic(mesh, dofmap, state, x0 + eps * d), nu
                )
                rm = monolithic_residual(
                    mesh, dofmap, set_monolithic(mesh, dofmap, state, x0 - eps * d), nu
                )
                errs[eps] = np.linalg.norm((rp - rm) / (2 * eps) - Kd) / np.linalg.norm(Kd)
                worst[eps] = max(worst[eps], errs[eps])
            # O(eps^2) decrease or already at the roundoff floor: the
            # residual is a quadratic polynomial of the unknowns, so the
            # truncation term vanishes and errors sit on the floor.
            assert errs[1e-5] <= max(0.04 * errs[1e-4], floor[1e-5])
            assert errs[1e-6] <= max(0.04 * errs[1e-5], floor[1e-6])
    ok = worst[1e-6] <= 1e-6 and states_checked >= 20
    _line(1, ok, f"{states_checked} states; max rel FD error at eps=1e-6: "
          f"{worst[1e-6]:.2e} (eps-sweep: " +
          ", ".join(f"{eps:.0e}->{worst[eps]:.1e}" for eps in eps_list) + ")")
    assert worst[1e-6] <= 1e-6
    assert states_checked >= 20


# --------------------------------------------------------------------------
# criterion 2: manufactured-solution convergence, both strategies
# --------------------------------------------------------------------------

class CavityStudy(NamedTuple):
    rows: list          # (h, ErrorNorms) per level, coarsest first
    rates: dict         # fit_rates over the whole domain
    solved: list        # (problem, discrete state) per level


@pytest.fixture(scope="module")
def cavity_studies():
    # the steps of convergence_study, keeping the discrete states for the
    # subdomain norms of criterion 2b
    ns = (8, 16, 32, 64)
    studies = {}
    for strategy in ("newton", "fixed_point"):
        config = SolverConfig(strategy=strategy, tol=1e-10, max_iter=60)
        rows, solved = [], []
        for n in ns:
            problem = body_force_cavity(n, nu=1.0)
            state, report = solve(problem, config)
            assert report.converged
            rows.append((1.0 / n, error_norms(state, problem.exact, problem.mesh)))
            solved.append((problem, state))
        studies[strategy] = CavityStudy(rows, fit_rates(rows), solved)
    return studies


def test_criterion_2a_velocity_rate(cavity_studies):
    rates = {s: t.rates["l2_velocity"] for s, t in cavity_studies.items()}
    ok = all(abs(r - 2.0) <= 0.2 for r in rates.values())
    _line("2a", ok, "L2 velocity rates: " +
          ", ".join(f"{s}={r:.3f}" for s, r in rates.items()) + " (want 2.0 +/- 0.2)")
    for r in rates.values():
        assert abs(r - 2.0) <= 0.2


def interior_pressure_h1_error(problem, state, lo, hi):
    """Pressure H1-seminorm error over the elements with centroid in (lo, hi)^2."""
    mesh = problem.mesh
    centroids = mesh.node_coords[mesh.triangles].mean(axis=1)
    inside = np.flatnonzero(np.all((centroids > lo) & (centroids < hi), axis=1))
    batch = ElementBatch(mesh, elements=inside)
    gp = np.einsum("ea,aje->ej", state.p[batch.tris], batch.G)
    dpg = gp[:, None, :] - problem.exact.pressure_gradient(batch.xq)
    return float(np.sqrt(np.einsum("eq,eqi,eqi->", batch.wd, dpg, dpg)))


def test_criterion_2b_pressure_rate(cavity_studies):
    # First order in the interior; the wall layer caps the whole domain at 1/2.
    lo, hi = 1 / 8, 7 / 8
    whole = {s: t.rates["h1_semi_pressure"] for s, t in cavity_studies.items()}
    interior = {}
    for s, t in cavity_studies.items():
        hs = [h for h, _ in t.rows]
        errs = [interior_pressure_h1_error(prob, st, lo, hi) for prob, st in t.solved]
        interior[s] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = (all(r >= 0.75 for r in interior.values())
          and all(r >= 0.4 for r in whole.values()))
    _line("2b", ok, "pressure H1-seminorm rates on [1/8, 7/8]^2: " +
          ", ".join(f"{s}={r:.3f}" for s, r in interior.items()) +
          " (want >= 0.75); whole domain: " +
          ", ".join(f"{s}={r:.3f}" for s, r in whole.items()) +
          " (want >= 0.4; sharp value 0.5)")
    for s in cavity_studies:
        assert interior[s] >= 0.75
        assert whole[s] >= 0.4


def test_criterion_2c_newton_error_never_worse(cavity_studies):
    newton_rows = cavity_studies["newton"].rows
    fp_rows = cavity_studies["fixed_point"].rows
    pairs = [
        (hn, en.l2_velocity, ef.l2_velocity)
        for (hn, en), (_, ef) in zip(newton_rows, fp_rows)
    ]
    ok = all(en <= ef for _, en, ef in pairs)
    _line("2c", ok, "Newton vs fixed-point L2 velocity error per level: " +
          ", ".join(f"h={h:.4g}: {en:.3e}<={ef:.3e}" for h, en, ef in pairs))
    for _, en, ef in pairs:
        assert en <= ef


# --------------------------------------------------------------------------
# criterion 3: iteration-count contrast at Re = 400
# --------------------------------------------------------------------------

def test_criterion_3_re400_contrast():
    prob = body_force_cavity(32, re=400)
    cfg = SolverConfig(tol=1e-8, max_iter=25)
    _, newton_rep = solve(prob, cfg)
    _, fp_rep = solve(
        prob, SolverConfig(strategy="fixed_point", tol=1e-8, max_iter=25,
                           increment_tol=0.0)
    )
    reached = np.flatnonzero(fp_rep.residual_history <= 1e-8)
    fp_count = int(reached[0]) + 1 if reached.size else None
    newton_ok = newton_rep.converged and newton_rep.iterations <= 5
    fp_ok = fp_count is None or fp_count > 10
    _line(3, newton_ok and fp_ok,
          f"Newton {newton_rep.iterations} iterations to "
          f"{newton_rep.final_residual:.1e}; fixed point "
          + (f"reached tol at iteration {fp_count}" if fp_count
             else f"never reached 1e-8 in {fp_rep.iterations} iterations "
                  f"(best {fp_rep.residual_history.min():.1e})"))
    assert newton_ok
    assert fp_ok


# --------------------------------------------------------------------------
# criterion 4: high-Re contrast at Re = 5000
# --------------------------------------------------------------------------

def test_criterion_4_re5000_contrast():
    prob = body_force_cavity(32, re=5000)
    _, fp_rep = solve(
        prob, SolverConfig(strategy="fixed_point", tol=1e-8, max_iter=25)
    )
    fp_ok = fp_rep.diverged and fp_rep.iterations <= 25
    _line("4 (fixed point)", fp_ok,
          f"diverged flag {fp_rep.diverged} after {fp_rep.iterations} iterations")

    cfg = SolverConfig(tol=1e-8, max_iter=8)
    _, cold = solve(prob, cfg)
    if cold.converged:
        newton_ok = True
        record = f"cold start converged in {cold.iterations} iterations"
    else:
        chain_cfg = SolverConfig(
            tol=1e-8, max_iter=8,
            continuation=ContinuationConfig(re_start=1000, re_target=5000, factor=5.0),
        )
        _, chain = solve(prob, chain_cfg)
        newton_ok = chain.converged
        rungs = ", ".join(
            f"Re={re:.0f}: {'ok' if rep.converged else 'failed'} "
            f"({rep.iterations} it)" for re, rep in chain.sub_reports
        )
        record = (f"cold start stalled (diverged={cold.diverged}); "
                  f"2-rung continuation [{rungs}]")
    _line("4 (newton)", newton_ok, record)
    assert fp_ok
    assert newton_ok


# --------------------------------------------------------------------------
# criterion 5: quadratic-convergence signature, lid cavity Re = 400
# --------------------------------------------------------------------------

def test_criterion_5_lid_quadratic_signature():
    prob = lid_cavity(64, re=400)
    _, rep = solve(prob, SolverConfig(tol=1e-10, max_iter=14))
    r = rep.residual_history
    converged_ok = rep.converged and rep.iterations <= 14 and r[-1] < 1e-10
    q = np.array([r[k + 1] / r[k] ** 2 for k in range(len(r) - 4, len(r) - 1)])
    tail_ok = q.size == 3 and q.max() / q.min() <= 100.0
    _line(5, converged_ok and tail_ok,
          f"{rep.iterations} iterations to {r[-1]:.2e}; "
          f"tail ratios r_k+1/r_k^2 = [" + ", ".join(f"{v:.1e}" for v in q) +
          f"], spread {q.max() / q.min():.1f}x")
    assert converged_ok
    assert tail_ok


# --------------------------------------------------------------------------
# criterion 6: continuation necessity on the backward-facing step
# --------------------------------------------------------------------------

def test_criterion_6_backward_step_continuation():
    prob15 = backward_step(re=15)
    cfg = SolverConfig(tol=1e-8, max_iter=25)
    _, newton_rep = solve(prob15, cfg)
    _, fp_rep = solve(
        prob15, SolverConfig(strategy="fixed_point", tol=1e-8, max_iter=25,
                             increment_tol=0.0)
    )
    reached = np.flatnonzero(fp_rep.residual_history <= 1e-8)
    fp_count = int(reached[0]) + 1 if reached.size else fp_rep.iterations
    count_ok = newton_rep.converged and newton_rep.iterations < fp_count

    prob150 = backward_step(re=150)
    chain_cfg = SolverConfig(
        tol=1e-8, max_iter=25,
        continuation=ContinuationConfig(re_start=15, re_target=150, factor=1.1),
    )
    _, chain = solve(prob150, chain_cfg)
    ladder_ok = chain.converged and all(rep.converged for _, rep in chain.sub_reports)
    _line(6, count_ok and ladder_ok,
          f"Re=15: Newton {newton_rep.iterations} it < fixed point "
          f"{fp_count}{'(+)' if not reached.size else ''} it; ladder to Re=150: "
          f"{len(chain.sub_reports)} rungs, all converged: {ladder_ok}")
    assert count_ok
    assert ladder_ok


# --------------------------------------------------------------------------
# criterion 7: oracle micro-checks
# --------------------------------------------------------------------------

def test_criterion_7_micro_oracles():
    # bubble volume on the reference triangle vs the factorial formula
    rule = triangle_quadrature(10)
    x1, x2 = rule.points[:, 0], rule.points[:, 1]
    bubble_integral = rule.weights @ (x1 * x2 * (1 - x1 - x2))
    bubble_ok = abs(bubble_integral - 1 / 120) <= 1e-13

    # monolithic 11x11 element solve vs condensation + recovery
    from vmsflow.newton import recover_fine_scale

    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(7)
    state = random_state(mesh, rng)
    res = element_residuals(mesh, 4, state, 0.7, cavity_body_force)
    tan = element_tangent(mesh, 4, state, 0.7)
    K = element_tangent_matrix(tan)
    mono = np.linalg.solve(K, -np.concatenate([res.Rc, res.Rp, res.Rf]))
    c = condense(res, tan)
    dvp = np.linalg.solve(c.K_hat, -c.R_hat)
    dbeta = recover_fine_scale(c, dvp[:6], dvp[6:])
    schur_err = np.linalg.norm(np.concatenate([dvp, dbeta]) - mono) / np.linalg.norm(mono)
    schur_ok = schur_err <= 1e-10

    # tau homogeneity in viscosity at zero iterate
    v0 = np.zeros((mesh.n_nodes, 2))
    c_nu = 13.7
    t1 = compute_tau(mesh, 2, v0, nu=1.0)
    t2 = compute_tau(mesh, 2, v0, nu=c_nu)
    # tau(x) = b(x) w_b Ainv, at the bubble's centroid value b = 1/27
    tau1, tau2 = (1 / 27 * t.w_b * t.Ainv for t in (t1, t2))
    tau_err = np.abs(tau2 - tau1 / c_nu).max() / np.abs(tau1).max()
    tau_ok = tau_err <= 1e-12

    # body-force transcription against the strong momentum balance
    exact = cavity_exact_solution()
    pts = np.random.default_rng(1).uniform(0.01, 0.99, (1000, 2))
    strong = (
        np.einsum("pij,pj->pi", cavity_velocity_gradient(pts), exact.velocity(pts))
        - cavity_velocity_laplacian(pts)
        + exact.pressure_gradient(pts)
    )
    force_err = np.abs(strong - cavity_body_force(pts)).max()
    force_ok = force_err <= 1e-8

    ok = bubble_ok and schur_ok and tau_ok and force_ok
    _line(7, ok,
          f"bubble integral err {abs(bubble_integral - 1 / 120):.1e}; "
          f"Schur vs monolithic {schur_err:.1e}; tau homogeneity {tau_err:.1e}; "
          f"body-force transcription {force_err:.1e}")
    assert bubble_ok and schur_ok and tau_ok and force_ok


# --------------------------------------------------------------------------
# criterion 8: transient sanity
# --------------------------------------------------------------------------

def test_criterion_8_transient_sanity():
    # part 1: marching from the converged steady lid state leaves it unchanged
    prob = lid_cavity(32, re=400)
    steady, steady_rep = solve(prob, SolverConfig(tol=1e-11, max_iter=20))
    assert steady_rep.converged
    states, reports = zip(*time_march(
        prob, SolverConfig(tol=1e-8, max_iter=5), 0.1, 10, state0=steady
    ))
    drift = max(np.abs(s.vbar - steady.vbar).max() for s in states)
    march_ok = (len(reports) == 10 and all(r.converged for r in reports)
                and all(r.iterations <= 2 for r in reports) and drift < 1e-8)
    _line("8 (march from steady)", march_ok,
          f"10 steps, iterations {[r.iterations for r in reports]}, "
          f"max drift {drift:.2e}")

    # part 2: one huge backward-Euler step from rest is the steady solve
    # plus the first-order term C/dt; its 1/dt scaling and the extrapolated
    # limit dt -> infinity are checked against the steady solve
    vbar, converged = {}, {}
    for dt in (1e6, 1e7):
        [(state, report)] = time_march(prob, SolverConfig(tol=1e-11, max_iter=20), dt, 1)
        vbar[dt], converged[dt] = state.vbar, report.converged
    dev6, dev7 = vbar[1e6] - steady.vbar, vbar[1e7] - steady.vbar
    scale = float(np.abs(dev6).max())
    ratio_err = float(np.abs(dev6 - 10.0 * dev7).max()) / scale
    limit_err = float(np.abs((10.0 * vbar[1e7] - vbar[1e6]) / 9.0 - steady.vbar).max())
    step_ok = all(converged.values()) and ratio_err <= 1e-3 and limit_err <= 1e-9
    _line("8 (dt=1e6, 1e7 steps)", step_ok,
          f"converged {list(converged.values())}; max|dev|*dt = {scale * 1e6:.4f} "
          f"at dt=1e6, {float(np.abs(dev7).max()) * 1e7:.4f} at dt=1e7; "
          f"max|d(1e6) - 10 d(1e7)|/max|d(1e6)| = {ratio_err:.1e} (bound 1e-3); "
          f"extrapolated deviation {limit_err:.1e} (bound 1e-9)")
    assert march_ok
    assert all(converged.values())
    assert ratio_err <= 1e-3
    assert limit_err <= 1e-9
