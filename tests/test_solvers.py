"""Linear-solve contract and the nonlinear solution strategies."""

import dataclasses
import gc
import math
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vmsflow.newton as newton_module
import vmsflow.solve as solve_module
from vmsflow.fixed_point import TauSingularError, fp_element_system
from vmsflow.mesh import BAND_LIMIT, build_dof_map, unit_square_mesh
from vmsflow.newton import FineScaleSingularError, State, element_residuals
from vmsflow.problems import backward_step, body_force_cavity, lid_cavity
from vmsflow.solve import (
    ContinuationConfig,
    IterationReport,
    LinearSolveError,
    SolverConfig,
    lifted_state,
    linear_solve,
    solve,
    time_march,
)


def _strategy_id(value):
    """Node id of a strategy parameter, ``<strategy>_solve``; the default id otherwise."""
    return f"{value}_solve" if value in ("newton", "fixed_point") else None


EACH_STRATEGY = pytest.mark.parametrize("strategy", ["newton", "fixed_point"], ids=_strategy_id)

# Where each side of ``linear_solve`` looks up its factorization.
FACTORS = {"band": (solve_module, "_band_lu"), "superlu": (solve_module.spla, "splu")}


class TestLinearSolve:
    """The linear-solve contract on narrow matrices, which the banded LU factors.

    ``solve`` hands a test matrix to ``linear_solve`` and returns the
    solution; calling the other side's factorization fails the test.
    """

    side, other = "band", "superlu"
    csc_problem = staticmethod(lambda: backward_step(re=50, h=0.5))

    @pytest.fixture(autouse=True)
    def this_side_only(self, monkeypatch):
        owner, name = FACTORS[self.other]
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: pytest.fail(
            f"{name} factored a matrix of the {self.side} side"))

    def solve(self, A, b):
        return linear_solve(A, b)

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(self.solve(sp.eye(3).tocsr(), b), b)

    def test_column_right_hand_side(self):
        # a (n, 1) right-hand side is solved as its vector is, and keeps its shape
        b = np.array([3.0, -1.0, 2.0])
        A = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
        x = self.solve(A, b[:, None])
        assert x.shape == (3, 1)
        np.testing.assert_array_equal(x[:, 0], self.solve(A, b))

    def test_saddle_2x2(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(self.solve(A, [2.0, 1.0]), [1.0, 1.0], atol=1e-14)

    def test_random_spd(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(50, 50))
        A = sp.csr_matrix(M.T @ M + np.eye(50))
        b = rng.normal(size=50)
        x = self.solve(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(LinearSolveError):
            self.solve(A, [1.0, 1.0])

    def test_exact_zero_pivot_rejected(self):
        # no empty column: the second pivot cancels to exactly zero
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(LinearSolveError):
            self.solve(A, [1.0, 1.0])

    @pytest.fixture
    def no_factor(self, monkeypatch):
        owner, name = FACTORS[self.side]
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: pytest.fail(
            f"{name} factored a matrix it should have rejected"))

    def test_nan_entry_rejected(self, no_factor):
        # used to reach the factor and come back as "likely singular"
        A = sp.csr_matrix(np.array([[2.0, 1.0], [np.nan, 1.0]]))
        with pytest.raises(LinearSolveError, match=r"entry \(1, 0\) is nan; .* non-finite"):
            self.solve(A, [1.0, 1.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_entry_rejected(self, no_factor, value):
        A = sp.csr_matrix(np.array([[2.0, value], [1.0, 1.0]]))
        with pytest.raises(LinearSolveError, match=rf"entry \(0, 1\) is {value}; .* non-finite"):
            self.solve(A, [1.0, 1.0])

    @pytest.mark.parametrize("A, line", [
        ([[2.0, 1.0], [0.0, 0.0]], "row 1"), ([[2.0, 0.0], [1.0, 0.0]], "column 1"),
    ], ids=["row", "column"])
    def test_empty_line_rejected(self, no_factor, A, line):
        # SuperLU wrote out of bounds on an empty row and could crash the process
        with pytest.raises(LinearSolveError, match=f"matrix {line} is empty; .* singular"):
            self.solve(np.array(A), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, monkeypatch, value):
        # used to reach the triangular solves and come back as "likely singular"
        monkeypatch.setattr(solve_module, "_refine", lambda *args: pytest.fail(
            "a non-finite right-hand side reached the triangular solves"))
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        with pytest.raises(LinearSolveError,
                           match=rf"right-hand side entry 1 is {value}; .* non-finite"):
            self.solve(A, np.array([1.0, value]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LinearSolveError):
            linear_solve(sp.eye(3).tocsr(), np.ones(2))

    def test_empty_system(self):
        assert linear_solve(sp.csr_matrix((0, 0)), np.zeros(0)).size == 0

    def test_csc_matrix_is_factored_as_it_is(self, monkeypatch):
        # a second csc_matrix wrapper would run scipy's format check again
        prob = self.csc_problem()
        dofmap = build_dof_map(prob.mesh, prob.bc)
        disc = newton_module.Discretization(prob.mesh, dofmap, prob.bc)
        system = newton_module.assemble_system(disc, lifted_state(prob.mesh, dofmap), prob.nu)
        matrix = system.matrix
        factored = []
        owner, name = FACTORS[self.side]
        factor = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda A, *args, **kw: factored.append(A) or factor(A, *args, **kw))
        x = linear_solve(matrix, system.rhs)
        assert len(factored) == 1
        if self.side == "band":
            assert factored[0] is matrix
        else:    # SuperLU factors the entries cast to float32, on the same pattern
            single = factored[0]
            np.testing.assert_array_equal(single.indptr, matrix.indptr)
            np.testing.assert_array_equal(single.indices, matrix.indices)
            assert single.data.dtype == np.float32
            np.testing.assert_array_equal(single.data, matrix.data.astype(np.float32))
        assert np.linalg.norm(matrix @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)

    def test_dense_input_still_solves(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(self.solve(A, b), np.linalg.solve(A, b), rtol=1e-13)


class TestLinearSolveWide(TestLinearSolve):
    """The same contract on wide matrices, which SuperLU factors.

    ``solve`` borders the test matrix ``A`` (k x k) with an identity and
    one entry ``BAND_LIMIT + k`` rows below the diagonal, in the input's
    format, and pads the right-hand side with zeros: the first k entries
    of the solution solve ``A``.
    """

    side, other = "superlu", "band"
    csc_problem = staticmethod(lambda: lid_cavity(24, re=100))
    # neither reaches a factorization, so the narrow side covers them
    test_shape_mismatch_rejected = test_empty_system = None

    def solve(self, A, b):
        k, m = len(b), BAND_LIMIT + 1
        wide = sp.block_diag([sp.csr_matrix(A), sp.eye(m)], format="lil")
        wide[k + m - 1, 0] = 1.0
        wide = wide.toarray() if isinstance(A, np.ndarray) else wide.tocsr()
        return linear_solve(wide, np.concatenate([b, np.zeros((m, *np.shape(b)[1:]))]))[:k]


def bordered(A):
    """``A`` bordered as ``TestLinearSolveWide.solve`` borders it, in CSC format."""
    k, m = A.shape[0], BAND_LIMIT + 1
    wide = sp.block_diag([sp.csr_matrix(A), sp.eye(m)], format="lil")
    wide[k + m - 1, 0] = 1.0
    return wide.tocsc()


@st.composite
def sparse_systems(draw):
    """A random sparse system for either side, and its right-hand side.

    Narrow matrices (n <= 65) go to the banded LU, bordered ones to SuperLU.
    Entries span 1e-40 to 1e40 and right-hand sides 1e-300 to 1e300; some
    matrices lose a row (singular), and some carry one 1e300, nan or inf.
    """
    wide = draw(st.booleans())
    n = draw(st.integers(1, 20 if wide else 65))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = sp.random(n, n, density=draw(st.floats(0.05, 1.0)), random_state=rng,
                  data_rvs=rng.standard_normal, format="lil")
    if draw(st.booleans()):
        A.setdiag(rng.standard_normal(n))
    A = (A * 10.0 ** draw(st.floats(-40, 40))).tolil()
    flaw = draw(st.sampled_from([None, None, None, "singular", 1e300, np.nan, np.inf, -np.inf]))
    if flaw == "singular":
        A[draw(st.integers(0, n - 1)), :] = 0.0
    elif flaw is not None:
        A[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = flaw
    A = bordered(A) if wide else A.tocsc()
    return A, rng.standard_normal(A.shape[0]) * 10.0 ** draw(st.floats(-300, 300))


@settings(max_examples=150, deadline=None)
@given(sparse_systems(), st.floats(-12, 0), st.integers(0, 2**32 - 1))
def test_any_sparse_system_meets_the_bound_or_names_the_failure(system, log_change, seed):
    # an overflow inside the refinement used to escape as a RuntimeWarning;
    # a factor's solve used on a perturbed matrix B returns None on a miss
    A, b = system
    B = A.copy()
    B.data *= 1.0 + 10.0**log_change * np.random.default_rng(seed).uniform(-1, 1, B.nnz)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            factor = solve_module.factorize(A)
        except LinearSolveError:
            return
        solved = [(B, solve_module._kept_solve(factor._lu_solve, B, b))]
        try:
            solved.append((A, factor.solve(b)))
        except LinearSolveError:
            pass
    for matrix, x in solved:
        if x is not None:
            residual = b - matrix @ x
            assert math.hypot(*residual) <= max(1e-12, solve_module.LINEAR_TOL * math.hypot(*b))


class TestOverflowingNorms:
    """Norms of vectors whose squares overflow: ``_norm`` rescales by the
    largest entry, and ``_norm_of``, an update's residual, is inf, which the
    loop reads as divergence.  ``np.dot`` warns on overflow, so each loop
    that calls ``_norm`` silences it once; no caller lets the warning out."""

    HUGE = np.array([1e200, -3e200, 2e200, 0.5])

    def test_norm_rescales_by_the_largest_entry(self):
        with np.errstate(over="ignore"):        # as every caller of _norm runs it
            norm = solve_module._norm(self.HUGE)
        assert norm == 3e200 * float(np.linalg.norm(self.HUGE / 3e200))
        assert 3e200 < norm < np.inf

    def test_norm_is_numpys_where_nothing_overflows(self):
        v = np.random.default_rng(0).normal(size=1000) * 1e100
        assert solve_module._norm(v) == float(np.linalg.norm(v))

    def test_norm_of_an_overflowing_residual_is_inf(self):
        prob = lid_cavity(8, re=100)
        disc = solve_module._setup(prob)
        Rvp = np.full((9, prob.mesh.n_triangles), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert newton_module._norm_of(disc, Rvp, np.zeros((2, prob.mesh.n_triangles))) \
                == np.inf

    def test_no_caller_lets_the_overflow_warning_out(self):
        A = sp.csc_matrix(np.diag([1.0, 2.0, 4.0, 8.0]))
        points = [(float(k), _as_state(np.full(13, (-1.0) ** k * 1e200))) for k in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = solve_module.factorize(A)
            np.testing.assert_array_equal(factor.solve(self.HUGE), self.HUGE / [1, 2, 4, 8])
            assert solve_module._kept_solve(factor._lu_solve, A, self.HUGE) is not None
            start = _as_vector(solve_module._predict(points, 3.0))
        # 1e200 plus the secant term, 2e200, always added; the second term,
        # 4e200 in each entry, is larger in its rescaled norm and is not
        np.testing.assert_array_equal(start, np.full(13, 3e200))


def conditioned(kappa, seed=0):
    """A bordered 40 x 40 matrix of condition number ``kappa``, and ``b = A @ x_true``."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    V, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    A = bordered(U @ np.diag(np.logspace(0, -np.log10(kappa), 40)) @ V.T)
    return A, A @ rng.normal(size=A.shape[0])


class TestSinglePrecisionFactor:
    """The SuperLU side factors in float32 and refines in float64, falling back
    to a float64 factor when refinement cannot meet the bound."""

    @pytest.fixture
    def factored_dtypes(self, monkeypatch):
        dtypes = []
        factor = solve_module.spla.splu
        monkeypatch.setattr(solve_module.spla, "splu",
                            lambda A, *args, **kw: dtypes.append(A.dtype) or factor(A, *args, **kw))
        return dtypes

    def test_overflow_of_the_scaled_solve_is_a_named_failure(self, factored_dtypes):
        # the float32 solution of b/max|b|, scaled back by max|b| = 1e300,
        # used to overflow with a RuntimeWarning; both factors now miss the bound
        A = bordered(np.array([[1e-37]]))
        b = np.zeros(A.shape[0])
        b[0] = 1e300
        with pytest.raises(LinearSolveError, match="did not reach the requested accuracy"):
            solve_module.factorize(A).solve(b)
        assert factored_dtypes == [np.float32, np.float64]

    @pytest.mark.parametrize("kappa, kinds, kind", [
        (1e6, [np.float32], "superlu32"),
        (1e9, [np.float32, np.float64], "superlu"),
    ])
    def test_conditioning_decides_the_precision(self, factored_dtypes, kappa, kinds, kind):
        A, b = conditioned(kappa)
        factor = solve_module.factorize(A)
        x = factor.solve(b)
        assert factored_dtypes == kinds and factor.kind == kind
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_entries_past_single_range_factor_in_double(self, factored_dtypes):
        A = bordered(1e39 * np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
        b = A @ np.arange(1.0, A.shape[0] + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = solve_module.factorize(A)
            x = factor.solve(b)
        assert factored_dtypes == [np.float64] and factor.kind == "superlu"
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_right_hand_side_past_single_range_is_scaled(self, factored_dtypes):
        A, b = conditioned(1e3)
        b = 1e39 * b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_module.factorize(A).solve(b)
        assert factored_dtypes == [np.float32]
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    @EACH_STRATEGY
    def test_lid_iterations_match_the_double_factor(self, monkeypatch, factored_dtypes, strategy):
        def run():
            _, report = solve(lid_cavity(32, re=400), SolverConfig(strategy=strategy, tol=1e-10))
            return report.iterations, report.stop_reason

        single = run()
        assert factored_dtypes and all(d == np.float32 for d in factored_dtypes)  # no fallback
        monkeypatch.setattr(solve_module, "_fits_single", lambda data: False)
        factored_dtypes.clear()
        assert run() == single
        assert factored_dtypes and all(d == np.float64 for d in factored_dtypes)


def _counted_factors(monkeypatch):
    """Log the kind of every factor ``factorize`` returns."""
    factorize, kinds = solve_module.factorize, []

    def counted(matrix, pattern=None):
        factor = factorize(matrix, pattern)
        kinds.append(factor.kind)
        return factor

    monkeypatch.setattr(solve_module, "factorize", counted)
    return kinds


class TestKeptFactor:
    """The fixed-point updates of one solve keep the last factor's solve and
    factor a new matrix only when it misses the bound against that matrix."""

    @pytest.mark.parametrize("prob, kind, factors, iterations", [
        (lid_cavity(32, re=400), "superlu32", 6, 10),
        (backward_step(re=50, h=0.25), "band", 3, 7),
    ], ids=["superlu", "band"])
    def test_kept_factor_saves_factors_not_iterations(self, monkeypatch, prob, kind,
                                                      factors, iterations):
        config = SolverConfig(strategy="fixed_point", tol=1e-10)
        kinds = _counted_factors(monkeypatch)
        state, report = solve(prob, config)
        assert kinds == [kind] * factors and report.iterations == iterations
        monkeypatch.setattr(solve_module, "_kept_solve", lambda *args: None)
        kinds.clear()
        reference, forced = solve(prob, config)     # every update misses and factors
        assert len(kinds) == forced.iterations == report.iterations
        assert forced.stop_reason == report.stop_reason
        assert np.abs(state.vbar - reference.vbar).max() <= 1e-9 * np.abs(reference.vbar).max()

    def test_newton_factors_every_matrix(self, monkeypatch):
        kinds = _counted_factors(monkeypatch)
        _, report = solve(lid_cavity(32, re=400), SolverConfig(tol=1e-10))
        assert report.converged
        assert kinds == ["superlu32"] * report.iterations

    def test_kept_factor_never_answers_a_non_finite_matrix(self, monkeypatch):
        kinds = _counted_factors(monkeypatch)
        A, b = conditioned(1e3)
        kept = []
        linear_solve(A, b, kept)
        assert kinds == ["superlu32"] and len(kept) == 1
        B = A.copy()
        B.data[0] = np.nan
        assert solve_module._kept_solve(kept[0], B, b) is None
        with pytest.raises(LinearSolveError, match=r"is nan; a matrix with a non-finite"):
            linear_solve(B, b, kept)
        assert kept == []


def test_band_and_superlu_solutions_agree():
    prob = backward_step(re=150, h=0.25)
    dofmap = build_dof_map(prob.mesh, prob.bc)
    disc = newton_module.Discretization(prob.mesh, dofmap, prob.bc)
    system = newton_module.assemble_system(disc, lifted_state(prob.mesh, dofmap), prob.nu)
    assert max(disc.pattern.kl, disc.pattern.ku) <= BAND_LIMIT
    superlu = solve_module.spla.splu(system.matrix, permc_spec="NATURAL", diag_pivot_thresh=0.1)
    reference = superlu.solve(system.rhs)
    band = linear_solve(system.matrix, system.rhs)
    assert np.linalg.norm(band - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("prob, kind", [
    (backward_step(re=150, h=0.25), "band"), (lid_cavity(32, re=400), "superlu32"),
], ids=["band", "superlu"])
def test_set_up_matrices_take_their_pattern_work_from_the_set_up(prob, kind, monkeypatch):
    # the empty-line check, the bandwidths and the band positions of every
    # assembled matrix come from Discretization.pattern, built once
    dofmap = build_dof_map(prob.mesh, prob.bc)
    disc = newton_module.Discretization(prob.mesh, dofmap, prob.bc)
    system = newton_module.assemble_system(disc, lifted_state(prob.mesh, dofmap), prob.nu)
    alone = solve_module.factorize(system.matrix)
    monkeypatch.setattr(solve_module, "CscPattern", lambda *args: pytest.fail("pattern work"))
    for strategy in ("newton", "fixed_point"):
        _, report = solve(prob, SolverConfig(strategy=strategy, max_iter=2))
        assert report.iterations == 2
    factor = solve_module.factorize(system.matrix, disc.pattern)
    assert factor.kind == alone.kind == kind
    assert factor.solve(system.rhs).tobytes() == alone.solve(system.rhs).tobytes()


def test_matrix_off_the_given_pattern_keeps_its_checks():
    # a copy, stored on its own index arrays, is checked as any other matrix
    prob = backward_step(re=150, h=0.25)
    dofmap = build_dof_map(prob.mesh, prob.bc)
    disc = newton_module.Discretization(prob.mesh, dofmap, prob.bc)
    matrix = newton_module.assemble_system(disc, lifted_state(prob.mesh, dofmap), prob.nu).matrix
    assert disc.pattern.holds(matrix) and not disc.pattern.holds(matrix.copy())
    emptied = matrix.tolil()
    emptied[7, :] = 0.0
    emptied = emptied.tocsc()
    emptied.eliminate_zeros()
    with pytest.raises(LinearSolveError, match="matrix row 7 is empty"):
        solve_module.factorize(emptied, disc.pattern)


class TestNewtonSolve:
    def test_trivial_problem_one_iteration(self):
        prob = dataclasses.replace(body_force_cavity(4, nu=1.0), body_force=None)
        state, report = solve(prob, SolverConfig(tol=1e-12, max_iter=5))
        assert report.converged
        assert report.iterations == 1
        assert np.abs(state.vbar).max() == 0.0
        assert report.final_residual == 0.0

    def test_manufactured_cavity_quadratic(self):
        prob = body_force_cavity(8, nu=1.0)
        state, report = solve(prob, SolverConfig(tol=1e-12, max_iter=10))
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

        r0 = assemble_system(Discretization(prob.mesh, dofmap, prob.bc, prob.body_force),
                             state0, prob.nu).residual
        _, report = solve(prob, SolverConfig(tol=1e-14, max_iter=12), state0=state0)
        r = [r0] + [v for v in report.residual_history if v > 1e-13]
        assert len(r) >= 3
        # convergence order from the final three usable residuals
        order = np.log(r[-1] / r[-2]) / np.log(r[-2] / r[-3])
        assert order >= 1.8

    def test_divergence_flagged_not_raised(self):
        prob = body_force_cavity(16, re=5000)
        state, report = solve(prob, SolverConfig(tol=1e-8, max_iter=25))
        assert report.diverged
        assert not report.converged
        assert report.stop_reason == "diverged"
        assert report.failure is None

    def test_stop_reasons_tol_and_max_iter(self):
        prob = lid_cavity(8, re=100)
        _, done = solve(prob, SolverConfig(tol=1e-12, max_iter=25))
        _, cut = solve(prob, SolverConfig(tol=1e-12, max_iter=2))
        assert (done.stop_reason, done.converged) == ("tol", True)
        assert (cut.stop_reason, cut.converged, cut.diverged) == ("max_iter", False, False)
        assert cut.iterations == 2

    def test_determinism(self):
        prob = body_force_cavity(8, re=50)
        cfg = SolverConfig(tol=1e-10, max_iter=15)
        _, r1 = solve(prob, cfg)
        _, r2 = solve(prob, cfg)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.residual_history, r2.residual_history)


class TestFixedPointSolve:
    def test_low_reynolds_converges(self):
        prob = body_force_cavity(8, re=1)
        state, report = solve(
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
        state, report = solve(prob, cfg)
        assert report.converged
        # one more sweep from the fixed point barely moves
        state2, report2 = solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-12, max_iter=1,
                               increment_tol=0.0),
            state0=state,
        )
        assert report2.increment_history[0] <= 1e-10

    def test_comparison_residual_floor(self):
        # the fixed-point iterate stagnates above the Newton residual scale:
        # the two discretizations differ at the stabilization level
        prob = body_force_cavity(8, nu=1.0)
        state, report = solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-12, max_iter=30)
        )
        assert report.converged          # by increment stagnation
        assert report.stop_reason == "increment"
        assert report.final_residual > 1e-6

    def test_residual_stop_told_apart_from_increment_stall(self):
        # the residual reaches tol while the velocity still moves
        prob = lid_cavity(8, re=100)
        _, report = solve(
            prob, SolverConfig(strategy="fixed_point", tol=0.05, increment_tol=1e-12)
        )
        assert report.converged
        assert report.stop_reason == "tol"
        assert report.final_residual <= 0.05 < report.increment_history[-1]

    def test_strategies_agree_within_discretization_error(self):
        # both converged velocity fields sit within a small multiple of the
        # discretization error of either against the closed-form solution
        from vmsflow.newton import ElementBatch
        from vmsflow.problems import error_norms

        prob = body_force_cavity(16, nu=1.0)
        newton_state, newton_rep = solve(prob, SolverConfig(tol=1e-11, max_iter=20))
        fp_state, fp_rep = solve(
            prob, SolverConfig(strategy="fixed_point", tol=1e-11, max_iter=50)
        )
        assert newton_rep.converged and fp_rep.converged
        batch = ElementBatch(prob.mesh)
        vn = np.einsum("qa,eai->eqi", batch.N, newton_state.vbar[batch.tris])
        vn += batch.bq[None, :, None] * newton_state.beta[:, None, :]
        vf = np.einsum("qa,eai->eqi", batch.N, fp_state.vbar[batch.tris])
        diff = np.sqrt(np.einsum("eq,eqi,eqi->", batch.wd, vn - vf, vn - vf))
        err_n = error_norms(newton_state, prob.exact, prob.mesh).l2_velocity
        err_f = error_norms(fp_state, prob.exact, prob.mesh).l2_velocity
        assert diff <= 10.0 * min(err_n, err_f)


def assert_ladder_matches_fresh_builds(monkeypatch, problem, config, build):
    """Run the ladder, then check that every rung's residual history, stop
    reason and state equal those of a Newton run on a set-up of ``build(re)``
    of its own, each started from the prediction in log Re through the up
    to ``PREDICTOR_POINTS`` rungs before, with the tangent of each that took
    more than one update; returns the ladder's report."""
    records = []
    iterate = solve_module._iterate

    def recording(*args):
        state, report = iterate(*args)
        records.append((report.residual_history.tobytes(), report.stop_reason, state.digest()))
        return state, report

    monkeypatch.setattr(solve_module, "_iterate", recording)
    _, report = solve(problem, config)
    assert report.converged
    rungs = records[:]
    records.clear()
    points, alone = [], dataclasses.replace(config, continuation=None)
    for re, _ in report.sub_reports:
        start = solve_module._predict(points[-solve_module.PREDICTOR_POINTS:],
                                      math.log(re)) if points else None
        rung, last = build(re), []
        disc = solve_module._setup(rung)
        state, rung_report = solve_module._iterate(disc, rung.nu, alone, start, last)
        tangent = solve_module._tangent(disc, rung.nu, state, last) \
            if rung_report.iterations > 1 else None
        points.append((math.log(re), state, tangent))
    assert records == rungs
    return report


class TestContinuation:
    def test_ladder_size_is_bounded_before_it_is_built(self):
        # this ladder has about 4.6e10 rungs, which ladder() used to build
        with pytest.raises(ValueError, match="ladder of 46051698053 rungs exceeds the limit "
                                             f"of {solve_module.MAX_RUNGS}"):
            ContinuationConfig(1, 100, 1.0000000001)

    @pytest.mark.parametrize("re_start, re_target, factor, rungs", [
        (15, 150, 1.1, 26), (40, 40, 1.1, 1), (0.5, 1.0, 2.0, 2), (10, 20, 1.5, 3),
        (1.0, 1.5 * 2.0 ** (solve_module.MAX_RUNGS - 2), 2.0, solve_module.MAX_RUNGS),
    ])
    def test_ladder_count(self, re_start, re_target, factor, rungs):
        # the count the bound is checked against is the length of the ladder
        assert len(ContinuationConfig(re_start, re_target, factor).ladder()) == rungs

    def test_one_rung_past_the_bound_is_rejected(self):
        with pytest.raises(ValueError, match=f"of {solve_module.MAX_RUNGS + 1} rungs"):
            ContinuationConfig(1.0, 1.5 * 2.0 ** (solve_module.MAX_RUNGS - 1), 2.0)

    def test_ladder_values(self):
        cfg = ContinuationConfig(re_start=15, re_target=150, factor=1.1)
        ladder = cfg.ladder()
        assert ladder[0] == 15
        assert ladder[-1] == 150
        np.testing.assert_allclose(ladder[:-1], 15 * 1.1 ** np.arange(len(ladder) - 1))
        assert ladder[-2] < 150

    @settings(max_examples=200, deadline=None)
    @given(re_start=st.floats(1e-3, 1e4), factor=st.floats(1.01, 2.0),
           k=st.integers(0, solve_module.MAX_RUNGS + 1),
           offset=st.sampled_from([0.0, 5e-13, -5e-13, 2e-12, -2e-12]) | st.floats(-0.5, 0.5))
    def test_ladder_climbs_by_factor_to_the_target(self, re_start, factor, k, offset):
        # the target is re_start * factor**k, moved by a relative offset
        re_target = re_start * factor**k * (1 + offset)
        assume(re_start <= re_target)
        try:
            rungs = ContinuationConfig(re_start, re_target, factor).ladder()
        except ValueError as err:
            assert "exceeds the limit" in str(err)
            # the rungs needed, less one: more than MAX_RUNGS - 1
            assert k + math.log1p(offset) / math.log(factor) > solve_module.MAX_RUNGS - 1 - 1e-6
            return
        assert len(rungs) <= solve_module.MAX_RUNGS
        assert rungs[0] == re_start
        if re_target - re_start <= 1e-12 * re_target:
            assert rungs == [re_start]
        else:
            assert rungs[-1] == re_target
        # each rung is more than 1e-12 (relative) above the last, and not more
        # than that above factor times it: the ratio lies in (1 + 1e-12, factor (1 + 1e-12)]
        for a, b in zip(rungs, rungs[1:]):
            assert b - a > 1e-12 * b
            assert b - a * factor <= 1e-12 * b
        if abs(offset) <= 5e-13:
            assert len(rungs) == k + 1

    def test_ladder_length_is_the_bound_count(self):
        # the first was rejected as 1001 rungs yet built 1000, and the second
        # built 42, solving Re ~ 7523 twice, 2.2e-16 apart
        assert len(ContinuationConfig(1, 1.1**999, 1.1).ladder()) == solve_module.MAX_RUNGS
        rungs = ContinuationConfig(1, 1.25**40, 1.25).ladder()
        assert len(rungs) == 41
        assert rungs[-1] == 1.25**40

    def test_fixed_point_ladder_joins_the_increment_histories(self):
        # the ladder's report used to drop them, and residuals.csv its increment column
        prob = body_force_cavity(8, re=20)
        cfg = SolverConfig(strategy="fixed_point", tol=1e-9, max_iter=30,
                           continuation=ContinuationConfig(10, 20, 1.5))
        _, report = solve(prob, cfg)
        rungs = [r for _, r in report.sub_reports]
        assert len(rungs) == 3
        np.testing.assert_array_equal(report.increment_history,
                                      np.concatenate([r.increment_history for r in rungs]))
        assert report.iterations == sum(r.iterations for r in rungs) == \
            report.increment_history.size
        assert (report.converged, report.stop_reason) == (rungs[-1].converged,
                                                          rungs[-1].stop_reason)

    def test_single_rung_identical_to_direct(self):
        prob = body_force_cavity(8, re=40)
        cfg = SolverConfig(tol=1e-10, max_iter=15,
                           continuation=ContinuationConfig(40, 40))
        state_c, report_c = solve(prob, cfg)
        state_d, report_d = solve(prob, SolverConfig(tol=1e-10, max_iter=15))
        assert len(report_c.sub_reports) == 1
        np.testing.assert_array_equal(
            report_c.sub_reports[0][1].residual_history, report_d.residual_history
        )
        np.testing.assert_array_equal(state_c.vbar, state_d.vbar)

    def test_warm_start_monotonicity(self):
        # iteration counts on continued rungs never exceed the cold count
        prob = backward_step(re=25, h=0.25)
        cfg = SolverConfig(tol=1e-8, max_iter=25,
                           continuation=ContinuationConfig(15, 25, factor=1.3))
        _, chain = solve(prob, cfg)
        assert chain.converged
        for re, sub in chain.sub_reports[1:]:
            _, cold = solve(prob.with_re(re), SolverConfig(tol=1e-8, max_iter=25))
            assert sub.iterations <= cold.iterations

    def test_step_direct_solve_struggles_against_warm_rungs(self):
        # the cold solve at the target Reynolds number takes more iterations
        # than any continued rung of the ladder that reaches it
        prob = backward_step(re=150)
        cfg = SolverConfig(tol=1e-8, max_iter=25,
                           continuation=ContinuationConfig(15, 150, factor=1.1))
        _, chain = solve(prob, cfg)
        assert chain.converged
        _, direct = solve(prob, SolverConfig(tol=1e-8, max_iter=25))
        rung_counts = [rep.iterations for _, rep in chain.sub_reports[1:]]
        assert (not direct.converged) or direct.iterations > max(rung_counts)

    @EACH_STRATEGY
    def test_strategy_entry_points_run_the_ladder(self, strategy):
        prob = body_force_cavity(8, re=20)
        cfg = SolverConfig(strategy=strategy, tol=1e-9, max_iter=30,
                           continuation=ContinuationConfig(10, 20, 1.5))
        _, report = solve(prob, cfg)
        assert [re for re, _ in report.sub_reports] == [10, 15, 20]
        # the configured strategy runs every rung
        tracks_increment = strategy == "fixed_point"
        assert all((r.increment_history is not None) == tracks_increment
                   for _, r in report.sub_reports)

    @pytest.mark.parametrize("problem, message", [
        (lid_cavity(8, re=100), r"ends at Re=50, but the problem's Re is 100\.0"),
        (dataclasses.replace(lid_cavity(8, re=50), re=None),
         r"ends at Re=50, but the problem's Re is None"),
    ], ids=["other_re", "re_none"])
    def test_ladder_must_end_at_the_problems_re(self, problem, message, monkeypatch):
        # the ladder used to stop at its own target and report the Re=50
        # solution as the problem's, converged
        monkeypatch.setattr(solve_module, "_setup", lambda problem: pytest.fail("set up"))
        cfg = SolverConfig(continuation=ContinuationConfig(10, 50, 1.5))
        with pytest.raises(ValueError, match=message):
            solve(problem, cfg)

    def test_continuation_rejects_state0(self):
        prob = body_force_cavity(8, re=20)
        start = lifted_state(prob.mesh, build_dof_map(prob.mesh, prob.bc))
        cfg = SolverConfig(continuation=ContinuationConfig(10, 20, 1.5))
        with pytest.raises(ValueError, match="state0"):
            solve(prob, cfg, state0=start)

    def test_failed_ladder_returns_the_last_converged_rungs_state(self):
        # the rung at Re=1000 fails (from the Hermite start it runs to
        # max_iter=4, and diverges after 6 updates with max_iter=25); the
        # ladder returns the Re=450 rung's state, bitwise that of the ladder
        # that ends there
        cfg = SolverConfig(max_iter=4, continuation=ContinuationConfig(50, 1000, 3))
        state, report = solve(lid_cavity(8, re=1000), cfg)
        assert [(re, r.stop_reason) for re, r in report.sub_reports] == [
            (50, "tol"), (150, "tol"), (450, "tol"), (1000, "max_iter")]
        reached, _ = solve(lid_cavity(8, re=450), dataclasses.replace(
            cfg, continuation=ContinuationConfig(50, 450, 3)))
        assert state.digest() == reached.digest()

    def test_ladder_whose_first_rung_fails_returns_that_rungs_iterate(self):
        # no rung converged, so the ladder returns what its first rung reached
        problem = lid_cavity(8, re=100)
        cfg = SolverConfig(max_iter=1, continuation=ContinuationConfig(50, 100, 1.5))
        state, report = solve(problem, cfg)
        assert [(re, r.stop_reason) for re, r in report.sub_reports] == [(50, "max_iter")]
        alone, alone_report = solve(problem.with_re(50), dataclasses.replace(
            cfg, continuation=None))
        assert state.digest() == alone.digest()
        np.testing.assert_array_equal(report.residual_history, alone_report.residual_history)

    @pytest.mark.parametrize("changed_at", [10, 15], ids=["replaced", "later_rung"])
    def test_rung_that_changes_the_body_force_is_named(self, changed_at, monkeypatch):
        # the shared set-up integrates problem.body_force once, so a rung
        # with another force would silently be solved with the first one
        base = body_force_cavity(8, re=20)

        def doubled(points):
            return 2.0 * base.body_force(points)

        cfg = SolverConfig(tol=1e-9, continuation=ContinuationConfig(10, 20, 1.5))
        if changed_at == 10:
            # a force given to the problem is kept by with_re on every rung
            assert_ladder_matches_fresh_builds(
                monkeypatch, dataclasses.replace(base, body_force=doubled), cfg,
                lambda re: dataclasses.replace(body_force_cavity(8, re=re), body_force=doubled))
            return

        built = []

        def with_re(re):
            built.append(re)
            rung = base.with_re(re)
            return dataclasses.replace(rung, body_force=doubled) if re >= changed_at else rung

        # a duck-typed problem whose rungs from Re=15 on carry another force:
        # every rung is built once and checked before the set-up, so the Re=10
        # rung is not solved first
        prob = SimpleNamespace(mesh=base.mesh, bc=base.bc, nu=base.nu, re=base.re,
                               body_force=base.body_force, with_re=with_re)
        monkeypatch.setattr(solve_module, "_setup", lambda problem: pytest.fail("set up"))
        with pytest.raises(ValueError, match=f"rung Re={changed_at} changes the body force"):
            solve(prob, cfg)
        assert built == [10, 15, 20]

    @pytest.mark.parametrize("build, ladder", [
        (lambda re: body_force_cavity(8, re=re), ContinuationConfig(5, 50, 1.5)),
        (lambda re: backward_step(re=re, h=0.25), ContinuationConfig(15, 150, 1.1)),
    ], ids=["body_force_cavity", "backward_step"])
    def test_ladder_matches_fresh_builds_bitwise(self, build, ladder, monkeypatch):
        # re-targeting the viscosity gives every rung exactly what a problem
        # built afresh at that Reynolds number gives
        cfg = SolverConfig(tol=1e-10, continuation=ladder)
        report = assert_ladder_matches_fresh_builds(monkeypatch, build(ladder.re_target), cfg,
                                                    build)
        assert [re for re, _ in report.sub_reports] == ladder.ladder()

    def test_dispatch_through_solve(self):
        prob = body_force_cavity(8, re=20)
        cfg = SolverConfig(tol=1e-9, max_iter=15, continuation=ContinuationConfig(10, 20, 1.5))
        state, report = solve(prob, cfg)
        assert report.converged
        assert len(report.sub_reports) >= 2


def warm_started(monkeypatch, run):
    """``run()`` with every rung and step started from the last converged
    state instead of the prediction: ``_path`` starts each point after the
    first from ``_extrapolate`` of its difference table."""
    with monkeypatch.context() as patched:
        patched.setattr(solve_module, "_extrapolate", lambda table, parameter: table.state)
        return run()


def assert_close_states(state, reference, bound=1e-9):
    scale = np.abs(reference.vbar).max()
    assert np.abs(state.vbar - reference.vbar).max() <= bound * scale


class TestSecantStart:
    """Each rung and step after the first starts from the extrapolation
    through up to the last ``PREDICTOR_POINTS`` converged states, a Newton
    rung's with the tangents of the rungs that took more than one update."""

    def test_step_ladder_saves_updates(self, monkeypatch):
        # the step-ladder benchmark's path: 64 updates warm-started, 54 from
        # the secant alone, 32 from the extrapolation through states alone;
        # the two tangents add no factor
        def run():
            return solve(backward_step(re=150, h=0.25), SolverConfig(
                tol=1e-10, continuation=ContinuationConfig(15, 150, 1.1)))
        kinds = _counted_factors(monkeypatch)
        tangents = _counted_calls(monkeypatch, "_tangent")
        state, report = run()
        assert kinds == ["band"] * report.iterations
        # after the two rungs that took more than one update, [4, 2, 1, ..., 1]
        assert len(tangents) == 2
        warm, warm_report = warm_started(monkeypatch, run)
        assert all(r.converged for _, r in report.sub_reports)
        assert (report.iterations, warm_report.iterations) == (30, 64)
        assert_close_states(state, warm)

    def test_coarse_newton_lid_ladder_saves_updates(self):
        # 28 updates from the extrapolation through states alone, 26 from the
        # secant alone
        _, report = solve(lid_cavity(16, re=1000), SolverConfig(
            tol=1e-11, continuation=ContinuationConfig(50, 1000, 2)))
        assert report.converged and report.iterations <= 26

    def test_body_force_ladder_reaches_its_target(self, monkeypatch):
        # warm-started, the rung at Re ~ 2653 runs to max_iter
        def run():
            return solve(body_force_cavity(32, re=3000), SolverConfig(
                tol=1e-8, max_iter=25, continuation=ContinuationConfig(1000, 3000, 1.05)))
        _, report = run()
        _, warm = warm_started(monkeypatch, run)
        assert report.converged and report.sub_reports[-1][0] == 3000
        assert warm.stop_reason == "max_iter" and warm.sub_reports[-1][0] < 2700

    def test_newton_march_saves_updates(self, monkeypatch):
        def run():
            return marched(lid_cavity(32, re=400), SolverConfig(tol=1e-10), 0.1, 10)
        states, reports = run()
        warm_states, warm_reports = warm_started(monkeypatch, run)
        assert all(r.converged for r in reports)
        # 27 from the secant alone
        assert [sum(r.iterations for r in rs) for rs in (reports, warm_reports)] == [25, 31]
        # the first two steps have no prediction
        for k in (0, 1):
            assert states[k].digest() == warm_states[k].digest()
            np.testing.assert_array_equal(reports[k].residual_history,
                                          warm_reports[k].residual_history)
        assert_close_states(states[-1], warm_states[-1])

    @pytest.mark.parametrize("build, start, factor, strategy", [
        *(pytest.param(lambda n=n: lid_cavity(n, re=1000), start, factor, strategy,
                       id=f"lid{n}-re{start}-x{factor}-{strategy}")
          for n in (16, 32) for start in (50, 100) for factor in (1.5, 2, 3)
          for strategy in ("newton", "fixed_point")),
        *(pytest.param(lambda: backward_step(re=150, h=0.25), 15, factor, "newton",
                       id=f"step-x{factor}-newton") for factor in (1.3, 1.6, 2)),
    ])
    def test_coarse_ladder_converges_where_the_warm_start_does(self, build, start, factor,
                                                             strategy, monkeypatch):
        # from Re=50 by factor 3 an unbounded weight of 3 diverged at Re=450;
        # tol=1e-11 keeps where Newton stops inside tol out of the comparison
        problem = build()

        def run():
            return solve(problem, SolverConfig(
                strategy=strategy, tol=1e-11,
                continuation=ContinuationConfig(start, problem.re, factor)))
        state, report = run()
        warm, warm_report = warm_started(monkeypatch, run)
        if warm_report.converged:
            assert report.converged
            assert_close_states(state, warm)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: lid_cavity(16, re=400), id="lid16"),
        pytest.param(lambda: body_force_cavity(16, re=100), id="body_force16"),
        pytest.param(lambda: backward_step(re=150, h=0.25), id="step"),
    ])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 5.0])
    @EACH_STRATEGY
    def test_march_converges_where_the_warm_start_does(self, build, dt, strategy,
                                                       monkeypatch):
        # steps far longer than the transient, as in pseudo-transient use
        def run():
            return marched(build(), SolverConfig(strategy=strategy, tol=1e-11), dt, 5)
        states, reports = run()
        warm_states, warm_reports = warm_started(monkeypatch, run)
        if all(r.converged for r in warm_reports):
            assert all(r.converged for r in reports)
            assert_close_states(states[-1], warm_states[-1])


def _as_state(x):
    """A State on 3 nodes and 2 elements from a vector of 13 entries."""
    return State(x[:6].reshape(3, 2), x[6:9], x[9:].reshape(2, 2))


def _as_vector(state):
    return np.concatenate([state.vbar.ravel(), state.p, state.beta.ravel()])


@st.composite
def path_points(draw, n_points, shortest=0.1):
    """Increasing parameters at gaps from ``shortest`` to 10, newest last, the
    parameter to predict at, and a random generator for the states."""
    gaps = draw(st.lists(st.floats(shortest, 10.0), min_size=n_points, max_size=n_points))
    t = np.cumsum([draw(st.floats(-10.0, 10.0)), *gaps])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return t[:-1], t[-1], rng


def newton_path(t, target, terms, rng):
    """States at ``t`` (newest last) on the polynomial ``x_0 + sum_k c_k
    (s - t_0) ... (s - t_{k-1})`` through the newest node ``t_0``, with each
    random ``c_k`` scaled so that term k at ``target`` has the norm
    ``terms[k - 1]``; returns the points and the polynomial at ``target``."""
    nodes = t[::-1]
    x0 = rng.normal(size=13)
    coefficients = []
    for k, size in enumerate(terms, start=1):
        c = rng.normal(size=13)
        coefficients.append(c * size / (np.linalg.norm(c) * abs(np.prod(target - nodes[:k]))))

    def at(s):
        return x0 + sum(c * np.prod(s - nodes[:k]) for k, c in enumerate(coefficients, start=1))

    return [(s, _as_state(at(s))) for s in t], at(target)


_FIELDS = [6, 9]    # where vbar ends and p ends in the 13 entries of ``_as_state``


def hermite_path(t, target, terms, rng):
    """Points ``(s, state, tangent)`` at ``t`` (newest last) on the polynomial
    ``x_0 + sum_k c_k (s - z_0) ... (s - z_{k-1})`` over the nodes ``z`` =
    ``t_0, t_0, t_1, t_1, ...`` from the newest, each field (vbar, p, beta)
    of each random ``c_k`` scaled so that its part of term k at ``target``
    has the norm ``terms[k - 1]``; returns the points and the polynomial at
    ``target``."""
    nodes = np.repeat(t[::-1], 2)
    x0 = rng.normal(size=13)
    coefficients = []
    for k, size in enumerate(terms, start=1):
        c = rng.normal(size=13)
        c = np.concatenate([part * size / np.linalg.norm(part) for part in np.split(c, _FIELDS)])
        coefficients.append(c / abs(np.prod(target - nodes[:k])))

    def at(s):
        return x0 + sum(c * np.prod(s - nodes[:k]) for k, c in enumerate(coefficients, start=1))

    def slope(s):
        return sum(c * sum(np.prod(np.delete(s - nodes[:k], m)) for m in range(k))
                   for k, c in enumerate(coefficients, start=1))

    return [(s, _as_state(at(s)), slope(s)) for s in t], at(target)


def state_only_predict(points, parameter):
    """The extrapolation through states alone, as it was before tangents: the
    reference a path without tangents must reproduce bitwise."""
    t = [s for s, *_ in reversed(points)]
    d = [np.concatenate([x.vbar.ravel(), x.p, x.beta.ravel()]) for _, x, *_ in reversed(points)]
    start, weight, last = d[0].copy(), 1.0, np.inf
    for k in range(1, len(d)):
        for i in range(len(d) - 1, k - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (t[i] - t[i - k])
        weight *= parameter - t[k - 1]
        term = weight * d[k]
        size = solve_module._norm(term)
        if k > 1 and not size < last:
            break
        start += term
        last = size
    x = points[-1][1]
    vbar, p, beta = np.split(start, [x.vbar.size, x.vbar.size + x.p.size])
    return State(vbar.reshape(x.vbar.shape), p, beta.reshape(x.beta.shape))


def rebuilt_predict(points, parameter):
    """The extrapolation with the whole divided-difference table rebuilt from
    ``points``, tangents as second nodes: the reference a path's table,
    kept across points, must reproduce bitwise."""
    x = points[-1][1]
    cuts = [x.vbar.size, x.vbar.size + x.p.size]
    t, d, slopes = [], [], {}
    for s, state, *tangent in reversed(points):
        vector = np.concatenate([state.vbar.ravel(), state.p, state.beta.ravel()])
        if tangent and tangent[0] is not None:
            slopes[len(d) + 1] = tangent[0]
            t.append(s)
            d.append(vector)
        t.append(s)
        d.append(vector)
    start, weight, last = d[0].copy(), 1.0, np.inf
    for k in range(1, len(d)):
        for i in range(len(d) - 1, k - 1, -1):      # d[k] becomes f[t_0, ..., t_k]
            d[i] = slopes[i] if k == 1 and i in slopes else (d[i] - d[i - 1]) / (t[i] - t[i - k])
        weight *= parameter - t[k - 1]
        term = weight * d[k]
        parts = np.split(term, cuts) if slopes else [term]
        size = np.array([np.linalg.norm(part) for part in parts])
        if k > 1 and not np.all(size < last):
            break
        start += term
        last = size
    vbar, p, beta = np.split(start, cuts)
    return State(vbar.reshape(x.vbar.shape), p, beta.reshape(x.beta.shape))


class TestPredictor:
    """``_predict``: the Newton-form extrapolation through the last converged
    states, each term past the secant added only while it shrinks."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, solve_module.PREDICTOR_POINTS).flatmap(path_points))
    def test_exact_on_a_linear_path(self, drawn):
        t, target, rng = drawn
        a, b = rng.normal(size=13), rng.normal(size=13)
        points = [(s, _as_state(a + b * s)) for s in t]
        got = _as_vector(solve_module._predict(points, target))
        expected = a + b * target
        assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, solve_module.PREDICTOR_POINTS).flatmap(path_points),
           st.floats(0.01, 0.5))
    def test_reproduces_a_cubic_whose_terms_shrink(self, drawn, ratio):
        t, target, rng = drawn
        points, expected = newton_path(t, target, [1.0, ratio, ratio**2], rng)
        got = _as_vector(solve_module._predict(points, target))
        assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, solve_module.PREDICTOR_POINTS).flatmap(path_points),
           st.floats(1.5, 100.0))
    def test_growing_second_difference_gives_the_secant_bitwise(self, drawn, ratio):
        t, target, rng = drawn
        points, _ = newton_path(t, target, [1.0, ratio], rng)
        (t1, older), (t0, newest) = points[-2:]
        x0, x1 = _as_vector(newest), _as_vector(older)
        secant = x0 + (target - t0) * ((x1 - x0) / (t1 - t0))
        got = solve_module._predict(points, target)
        assert _as_vector(got).tobytes() == secant.tobytes()
        assert got.digest() == solve_module._predict(points[-2:], target).digest()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, solve_module.PREDICTOR_POINTS).flatmap(
        lambda m: st.tuples(path_points(m, shortest=1.0), st.integers(1, 2 * m - 1))),
           st.floats(0.01, 0.5))
    def test_tangents_double_the_degree_it_reproduces(self, drawn, ratio):
        # a tangent at each of m points: exact on degree 2m - 1 whose terms
        # shrink.  The gaps are at most tenfold apart: a hundredfold apart,
        # rounding moved the extrapolation by up to 2.6e-7 in 3000 draws, and
        # the exact extrapolation of the rounded points (degree 6) by 7e-9
        (t, target, rng), degree = drawn
        points, expected = hermite_path(t, target, ratio ** np.arange(degree), rng)
        got = _as_vector(solve_module._predict(points, target))
        assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, solve_module.PREDICTOR_POINTS).flatmap(
        lambda n: st.tuples(path_points(n), st.lists(st.booleans(), min_size=n, max_size=n))))
    def test_exact_on_a_line_with_tangents_at_some_points(self, drawn):
        (t, target, rng), has_tangent = drawn
        assume(len(t) > 1 or has_tangent[0])
        a, b = rng.normal(size=13), rng.normal(size=13)
        points = [(s, _as_state(a + b * s), b if flag else None)
                  for s, flag in zip(t, has_tangent)]
        got = _as_vector(solve_module._predict(points, target))
        expected = a + b * target
        assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, solve_module.PREDICTOR_POINTS).flatmap(path_points),
           st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4), st.booleans())
    def test_without_tangents_is_bitwise_the_state_only_extrapolation(self, drawn, terms,
                                                                     as_triples):
        # fixed-point ladders, marches and Newton rungs after one-update rungs
        t, target, rng = drawn
        points, _ = newton_path(t, target, terms, rng)
        if as_triples:
            points = [(s, x, None) for s, x in points]
        got = solve_module._predict(points, target)
        assert got.digest() == state_only_predict(points, target).digest()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(path_points(n), st.lists(st.booleans(), min_size=n, max_size=n))))
    def test_table_kept_along_a_path_is_bitwise_the_rebuilt_one(self, drawn):
        # as _path enters them: each point's state once it converges, and its
        # tangent, when it has one, only before the next point's start
        (t, target, rng), has_tangent = drawn
        params = [*t, target]
        table, window = solve_module._Differences(), []
        for i, (s, flag) in enumerate(zip(t, has_tangent)):
            state = _as_state(rng.normal(size=13) * 10.0 ** rng.uniform(-3, 3))
            tangent = rng.normal(size=13) if flag else None
            table.add(s, state)
            table.add_tangent(tangent)
            window = [*window[1 - solve_module.PREDICTOR_POINTS:], (s, state, tangent)]
            got = solve_module._extrapolate(table, params[i + 1])
            assert len(table.t) == len(table.edge) == sum(1 + (w[2] is not None) for w in window)
            assert got.digest() == solve_module._predict(window, params[i + 1]).digest()
            assert got.digest() == rebuilt_predict(window, params[i + 1]).digest()
            if all(w[2] is None for w in window):
                assert got.digest() == state_only_predict(window, params[i + 1]).digest()


class TestTangent:
    """The tangent dx/dlog Re that a Newton rung leaves for the next rung's
    prediction, from one solve with its last update's factor."""

    @pytest.mark.parametrize("build, ladder, rung", [
        (lambda re: backward_step(re=re, h=0.25), ContinuationConfig(15, 150, 1.3), 6),
        (lambda re: lid_cavity(16, re=re), ContinuationConfig(50, 1000, 1.5), 5),
    ], ids=["step-re72", "lid16-re380"])
    def test_tangent_is_the_central_difference_in_log_re(self, monkeypatch, build, ladder,
                                                         rung):
        tangents, tangent = {}, solve_module._tangent

        def recorded(disc, nu, state, last):
            tangents[nu] = state, tangent(disc, nu, state, last)
            return tangents[nu][1]

        monkeypatch.setattr(solve_module, "_tangent", recorded)
        _, report = solve(build(ladder.re_target), SolverConfig(tol=1e-10, continuation=ladder))
        assert report.converged
        re = ladder.ladder()[rung]
        state, got = tangents[build(re).nu]
        h, sides = 1e-4, []
        for sign in (1, -1):
            side, side_report = solve(build(re * math.exp(sign * h)),
                                      SolverConfig(tol=1e-13), state0=state)
            assert side_report.stop_reason == "tol"
            sides.append(_as_vector(side))
        expected = (sides[0] - sides[1]) / (2 * h)
        assert np.abs(got - expected).max() <= 1e-5 * np.abs(expected).max()

    def test_factor_is_kept_only_past_the_last_update_of_a_rung(self, monkeypatch):
        # each linearization finds the list empty, and a rung ends with its
        # last update's factor and system in it; a single solve keeps none
        lists, builds = [], []
        iterate, tangent_blocks = solve_module._iterate, newton_module._tangent_batched

        def recorded(disc, nu, config, start, last=None):
            lists.append(last)
            state, report = iterate(disc, nu, config, start, last)
            assert len(last) == 2 and last[1].state_digest != state.digest()
            return state, report

        def linearized(*args):
            builds.append([] if lists[-1] is None else list(lists[-1]))
            return tangent_blocks(*args)

        monkeypatch.setattr(solve_module, "_iterate", recorded)
        monkeypatch.setattr(newton_module, "_tangent_batched", linearized)
        _, report = solve(backward_step(re=30, h=0.25), SolverConfig(
            tol=1e-10, continuation=ContinuationConfig(15, 30, 1.3)))
        assert report.converged and len(lists) == 4 and all(last == [] for last in builds)
        assert len(builds) == report.iterations
        kept = []

        def solved(matrix, rhs, keeper=None, pattern=None):
            kept.append(keeper)
            return linear_solve(matrix, rhs, keeper, pattern)

        monkeypatch.setattr(solve_module, "_iterate", iterate)
        monkeypatch.setattr(solve_module, "linear_solve", solved)
        _, single = solve(backward_step(re=30, h=0.25), SolverConfig(tol=1e-10))
        assert kept == [None] * single.iterations

    def test_tangent_that_misses_its_bound_is_left_out(self, monkeypatch):
        # the rungs then start from the states alone, as before tangents
        monkeypatch.setattr(solve_module, "_kept_solve", lambda *args: None)
        _, report = solve(backward_step(re=150, h=0.25), SolverConfig(
            tol=1e-10, continuation=ContinuationConfig(15, 150, 1.1)))
        assert report.converged and report.iterations == 32


@pytest.fixture(scope="module")
def fixed_point_ladder_report():
    _, report = solve(lid_cavity(8, re=100), SolverConfig(
        strategy="fixed_point", continuation=ContinuationConfig(50, 100, 1.5)))
    return report


@pytest.mark.parametrize("stop, converged, diverged", [
    ("tol", True, False), ("increment", True, False), ("max_iter", False, False),
    ("diverged", False, True), ("linear_failure", False, True),
    ("fine_scale_singular", False, True), ("tau_singular", False, True),
])
def test_flags_follow_the_stop_reason(fixed_point_ladder_report, stop, converged, diverged):
    # a report stores its stop reason and history; the flags and the count
    # derive from them, so no report can contradict itself
    report = dataclasses.replace(fixed_point_ladder_report, stop_reason=stop)
    assert (report.converged, report.diverged) == (converged, diverged)
    rungs = [r for _, r in report.sub_reports]
    assert len(rungs) == 3 and report.increment_history is not None
    assert report.iterations == len(report.residual_history) == sum(r.iterations for r in rungs)


def test_flags_given_at_construction_are_checked_not_stored():
    # a report built from flags alone (as perfbench's gate test builds one)
    # gets the stop reason they name; a flag the data contradicts is an error
    history = np.array([1.0, 1e-3, 1e-9])
    for flags, stop in (({"converged": True, "diverged": False, "iterations": 3}, "tol"),
                        ({"converged": False, "diverged": True}, "diverged"),
                        ({"converged": False}, "max_iter")):
        assert IterationReport(residual_history=history, **flags).stop_reason == stop
    for flags in ({"converged": True, "diverged": True}, {"converged": True, "iterations": 2},
                  {"stop_reason": "tol", "converged": False}):
        with pytest.raises(ValueError, match="contradicts stop_reason"):
            IterationReport(residual_history=history, **flags)
    with pytest.raises(TypeError, match="needs a stop_reason"):
        IterationReport(residual_history=history)


@pytest.mark.parametrize("entry, problem, config", [
    (solve, lid_cavity(8, re=100), SolverConfig(tol=1e-10)),
    (solve, body_force_cavity(8, re=20),
     SolverConfig(tol=1e-9, continuation=ContinuationConfig(10, 20, 1.5))),
    (lambda prob, config: list(time_march(prob, config, 0.5, 2)), lid_cavity(8, re=100),
     SolverConfig(tol=1e-10)),
], ids=["solve", "continuation", "time_march"])
def test_one_set_up_per_call_and_none_outlives_it(monkeypatch, entry, problem, config):
    # every rung and step shares the call's one set-up; neither the problem
    # nor anything returned (or yielded by a finished march) keeps it or its
    # element tables
    built = []
    setup = solve_module.Discretization

    def recorded(*args):
        disc = setup(*args)
        built.append((weakref.ref(disc), weakref.ref(disc.batch)))
        return disc

    monkeypatch.setattr(solve_module, "Discretization", recorded)
    result = entry(problem, config)
    gc.collect()
    assert len(built) == 1
    assert [ref() for ref in built[0]] == [None, None]     # while result is still held


def marched(*args):
    """``time_march(*args)`` run to its end: the yielded states and reports."""
    states, reports = [], []
    for state, report in time_march(*args):
        states.append(state)
        reports.append(report)
    return states, reports


class TestStartState:
    """Only the start state takes the prescribed values: a ``state0`` keeps its
    free values, and its constrained ones are replaced by the problem's."""

    @pytest.mark.parametrize("run", [
        lambda prob, start: [solve(prob, SolverConfig(), start)],
        lambda prob, start: [solve(prob, SolverConfig(strategy="fixed_point"), start)],
        lambda prob, start: zip(*marched(prob, SolverConfig(), 0.1, 2, start)),
    ], ids=["newton", "fixed_point", "time_march"])
    def test_zero_start_is_the_lifted_start(self, run):
        # from the zero state Newton used to stop on "tol" after one update
        # without the lid, and a march marched that zero flow
        prob = lid_cavity(8, re=100)
        runs = list(run(prob, State.zeros(prob.mesh)))
        lifted = list(run(prob, None))
        assert len(runs) == len(lifted)
        for (state, report), (reference, expected) in zip(runs, lifted):
            assert state.digest() == reference.digest()
            assert expected.converged and report.stop_reason == expected.stop_reason
            for name in ("residual_history", "increment_history"):
                np.testing.assert_array_equal(getattr(report, name), getattr(expected, name))
            assert np.abs(state.vbar).max() == 1.0

    @EACH_STRATEGY
    def test_wrong_boundary_values_are_replaced(self, strategy):
        prob = lid_cavity(8, re=100)
        start = lifted_state(prob.mesh, build_dof_map(prob.mesh, prob.bc))
        lid = start.vbar[:, 0] == 1.0
        start.vbar[lid, 0] = 0.5
        state, report = solve(prob, SolverConfig(strategy=strategy), start)
        assert report.converged
        assert np.all(state.vbar[lid, 0] == 1.0) and np.all(start.vbar[lid, 0] == 0.5)


class TestTimeMarch:
    def test_inputs_are_checked_before_any_step(self, monkeypatch):
        # the march is lazy, but a bad input fails at the call; at least one
        # step is needed, so a march never ends without a report
        monkeypatch.setattr(solve_module, "_iterate", lambda *args: pytest.fail("stepped"))
        prob = body_force_cavity(8, nu=1.0)
        with monkeypatch.context() as patched:      # the step is checked before any set-up
            patched.setattr(solve_module, "_setup", lambda problem: pytest.fail("set up"))
            with pytest.raises(ValueError, match="n_steps must be an integer of at least 1"):
                time_march(prob, SolverConfig(), 0.1, 0)
            with pytest.raises(ValueError, match="time step must be positive"):
                time_march(prob, SolverConfig(), 0.0, 2)
        with pytest.raises(ValueError, match="start state vbar"):
            time_march(prob, SolverConfig(), 0.1, 2, State.zeros(unit_square_mesh(4)))
        time_march(prob, SolverConfig(), 0.1, 2)

    def test_yields_a_copy_of_every_step(self):
        prob = body_force_cavity(8, nu=1.0)
        config = SolverConfig(tol=1e-6, max_iter=8)
        states, reports = marched(prob, config, 0.2, 4)
        assert len(states) == len(reports) == 4 and all(r.converged for r in reports)
        assert all(s.dt == 0.2 and s.vbar_prev is not None for s in states)
        # the consumer may write to what it is given without changing the march
        march, spoiled = time_march(prob, config, 0.2, 4), []
        for state, _ in march:
            spoiled.append(state.digest())
            state.vbar[:] = np.nan
        assert spoiled == [s.digest() for s in states]

    def test_steady_state_is_fixed_point_of_march(self):
        prob = body_force_cavity(8, nu=1.0)
        steady, rep = solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        assert rep.converged
        states, reports = marched(prob, SolverConfig(tol=1e-8, max_iter=5), 0.5, 3, steady)
        assert all(r.converged for r in reports)
        assert all(r.iterations <= 2 for r in reports)
        drift = max(np.abs(s.vbar - steady.vbar).max() for s in states)
        assert drift <= 1e-8

    def test_huge_step_matches_steady(self):
        prob = body_force_cavity(8, nu=1.0)
        steady, _ = solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        states, reports = marched(prob, SolverConfig(tol=1e-12, max_iter=10), 1e6, 1)
        assert reports[0].converged
        assert np.abs(states[-1].vbar - steady.vbar).max() <= 1e-6

    def test_requires_dt_and_steps(self):
        # the step size and count are arguments without defaults
        prob = body_force_cavity(8, nu=1.0)
        with pytest.raises(TypeError, match="n_steps"):
            time_march(prob, SolverConfig(), 0.1)

    def test_rejects_continuation(self):
        prob = body_force_cavity(8, nu=1.0)
        cfg = SolverConfig(continuation=ContinuationConfig(0.5, 1.0))
        with pytest.raises(ValueError, match="continuation"):
            time_march(prob, cfg, 0.1, 2)

    def test_failed_step_keeps_the_last_converged_state(self, monkeypatch):
        prob = body_force_cavity(8, nu=1.0)
        config = SolverConfig(tol=1e-6, max_iter=8)
        reference, _ = marched(prob, config, 0.2, 3)
        iterate, starts = solve_module._iterate, []

        def failing_at_step_4(disc, nu, config, start, last):
            starts.append(start)
            state, report = iterate(disc, nu, config, start, last)
            if len(starts) == 4:
                report = dataclasses.replace(report, stop_reason="max_iter")
            return state, report

        monkeypatch.setattr(solve_module, "_iterate", failing_at_step_4)
        states, reports = marched(prob, config, 0.2, 6)
        assert len(reports) == 4 and not reports[-1].converged
        # steps 1 to 3, then step 3 again, the last converged
        for got, want in zip(states, reference + reference[-1:], strict=True):
            np.testing.assert_array_equal(got.vbar, want.vbar)
            np.testing.assert_array_equal(got.p, want.p)

    def test_fixed_point_march_approaches_steady(self):
        # transient fixed-point path: a few large steps from rest settle
        # onto the same flow the steady solvers find
        prob = body_force_cavity(8, nu=1.0)
        steady, _ = solve(prob, SolverConfig(tol=1e-12, max_iter=10))
        states, reports = marched(
            prob, SolverConfig(strategy="fixed_point", tol=1e-10, max_iter=30), 5.0, 4)
        assert all(r.converged for r in reports)
        assert np.abs(states[-1].vbar - steady.vbar).max() <= 1e-3


def _counted_calls(monkeypatch, name, k=None, error=None, module=solve_module):
    """Log every call of ``module.<name>``, raising ``error`` on the k-th; return the log."""
    real = getattr(module, name)
    calls = []

    def logged(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return calls


class TestFailurePaths:
    """A failure inside an update ends the iteration with a flagged report."""

    @pytest.mark.parametrize("k", [1, 3])
    @EACH_STRATEGY
    def test_linear_failure_on_kth_solve(self, monkeypatch, strategy, k):
        _counted_calls(monkeypatch, "linear_solve", k, LinearSolveError("injected LU failure"))
        _, report = solve(lid_cavity(8, re=100), SolverConfig(
            strategy=strategy, tol=1e-14, increment_tol=0.0, max_iter=25))
        assert report.diverged
        assert not report.converged
        assert report.iterations == k - 1
        assert report.failure == "injected LU failure"

    def test_linear_failure_of_a_kept_factor(self, monkeypatch):
        def kept_fails(*args):
            raise LinearSolveError("injected kept-factor failure")

        monkeypatch.setattr(solve_module, "_kept_solve", kept_fails)
        _, report = solve(lid_cavity(32, re=400), SolverConfig(strategy="fixed_point"))
        # update 1 factors its matrix; update 2 solves with the kept factor
        assert report.stop_reason == "linear_failure"
        assert report.iterations == 1
        assert report.failure == "injected kept-factor failure"

    def test_fine_scale_singular_before_first_update(self, monkeypatch):
        _counted_calls(monkeypatch, "assemble_system", 1,
                      FineScaleSingularError("injected singular Kff"))
        _, report = solve(lid_cavity(8, re=100), SolverConfig())
        assert report.diverged and not report.converged
        assert report.iterations == 0
        assert report.failure == "injected singular Kff"
        assert report.increment_history is None

    def test_tau_singular_before_first_update(self, monkeypatch):
        _counted_calls(monkeypatch, "fp_assemble", 1, TauSingularError("injected singular A"))
        _, report = solve(lid_cavity(8, re=100), SolverConfig(strategy="fixed_point"))
        assert report.diverged and not report.converged
        assert report.iterations == 0
        assert report.failure == "injected singular A"
        assert isinstance(report.increment_history, np.ndarray)
        assert report.increment_history.size == 0

    @pytest.mark.parametrize("name, error, strategy, reason", [
        ("linear_solve", LinearSolveError("x"), "newton", "linear_failure"),
        ("linear_solve", LinearSolveError("x"), "fixed_point", "linear_failure"),
        ("assemble_system", FineScaleSingularError("x"), "newton", "fine_scale_singular"),
        ("fp_assemble", TauSingularError("x"), "fixed_point", "tau_singular"),
    ], ids=_strategy_id)
    def test_failure_stop_reason(self, monkeypatch, name, error, strategy, reason):
        _counted_calls(monkeypatch, name, 2, error)
        _, report = solve(lid_cavity(8, re=100),
                          SolverConfig(strategy=strategy, tol=1e-14, increment_tol=0.0))
        assert report.stop_reason == reason

    def test_continuation_takes_last_rung_reason(self, monkeypatch):
        prob = body_force_cavity(8, re=20)
        cfg = SolverConfig(tol=1e-9, max_iter=15, continuation=ContinuationConfig(10, 20, 1.5))
        _, chain = solve(prob, cfg)
        assert chain.stop_reason == "tol"
        _counted_calls(monkeypatch, "linear_solve", 6, LinearSolveError("late failure"))
        _, chain = solve(prob, cfg)
        assert chain.stop_reason == chain.sub_reports[-1][1].stop_reason == "linear_failure"
        assert chain.failure == "late failure"

    def test_overflowing_residual_is_divergence(self):
        # at Re=1e100 the first Newton step is about 1/nu; the squares of its
        # residual used to overflow with a RuntimeWarning
        _, report = solve(body_force_cavity(8, re=1e100), SolverConfig())
        assert report.stop_reason == "diverged"
        assert report.residual_history.tolist() == [np.inf]


class TestLinearizationOnDemand:
    """Newton builds the tangent of an iterate only when it updates from it."""

    @pytest.mark.parametrize("run, loops", [
        (lambda: solve(lid_cavity(8, re=100), SolverConfig(tol=1e-10)), 1),
        (lambda: solve(body_force_cavity(8, re=20), SolverConfig(
            tol=1e-9, continuation=ContinuationConfig(10, 20, 1.5))), 3),
        (lambda: marched(lid_cavity(8, re=100), SolverConfig(tol=1e-10), 0.5, 3), 3),
    ], ids=["solve", "continuation", "time_march"])
    def test_one_tangent_per_iteration(self, monkeypatch, run, loops):
        builds = _counted_calls(monkeypatch, "_tangent_batched", module=newton_module)
        per_loop = []
        iterate = solve_module._iterate

        def recorded(*args):
            start = len(builds)
            state, report = iterate(*args)
            per_loop.append((len(builds) - start, report.iterations))
            return state, report

        monkeypatch.setattr(solve_module, "_iterate", recorded)
        run()
        assert len(per_loop) == loops      # one per solve, rung or step
        for n_builds, iterations in per_loop:
            assert iterations >= 2
            assert n_builds == iterations

    def test_converged_system_never_builds_its_matrix(self, monkeypatch):
        builds = _counted_calls(monkeypatch, "_tangent_batched", module=newton_module)
        systems = []
        assemble = solve_module.assemble_system

        def kept(*args):
            systems.append(assemble(*args))
            return systems[-1]

        monkeypatch.setattr(solve_module, "assemble_system", kept)
        _, report = solve(lid_cavity(8, re=100), SolverConfig(tol=1e-10))
        assert report.stop_reason == "tol"
        assert len(systems) == report.iterations + 1 == len(builds) + 1
        assert systems[-1].residual == report.final_residual
        for system in systems[:-1]:
            system.matrix
        assert len(builds) == report.iterations
        systems[-1].matrix
        assert len(builds) == report.iterations + 1

    def test_fine_scale_check_only_where_a_tangent_is_built(self, monkeypatch):
        prob, config = lid_cavity(8, re=100), SolverConfig(tol=1e-10)
        _, reference = solve(prob, config)
        n, singular = reference.iterations, FineScaleSingularError("injected singular Kff")
        _counted_calls(monkeypatch, "_invert_fine_blocks", n + 1, singular, newton_module)
        _, report = solve(prob, config)
        assert report.stop_reason == "tol"
        np.testing.assert_array_equal(report.residual_history, reference.residual_history)

        monkeypatch.undo()
        _counted_calls(monkeypatch, "_invert_fine_blocks", n, singular, newton_module)
        _, report = solve(prob, config)
        assert report.stop_reason == "fine_scale_singular"
        np.testing.assert_array_equal(report.residual_history,
                                      reference.residual_history[:n - 1])


def _march_with(**settings):
    """A march on the lid cavity: ``dt`` and ``n_steps`` from ``settings`` (0.1
    and 2 by default) go to ``time_march``, the rest to its ``SolverConfig``."""
    step = {"dt": settings.pop("dt", 0.1), "n_steps": settings.pop("n_steps", 2)}
    return time_march(lid_cavity(8, re=100), SolverConfig(**settings), **step)


class TestConfigValidation:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            SolverConfig(strategy="secant")

    @pytest.mark.parametrize("settings", [
        dict(dt=0.0), dict(dt=-0.1), dict(n_steps=-3), dict(n_steps=0),
        dict(max_iter=float("nan")), dict(max_iter=2.5), dict(max_iter=0),
        dict(n_steps=float("nan")), dict(n_steps=1.5), dict(n_steps=True),
    ])
    def test_bad_march_settings(self, settings):
        with pytest.raises(ValueError):
            _march_with(**settings)

    @pytest.mark.parametrize("name", ["max_iter", "n_steps"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, True, -1])
    def test_count_fields_are_named_integers(self, name, value):
        # NaN and 2.5 used to pass, then escape a solve as a bare TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _march_with(**{name: value})

    @EACH_STRATEGY
    def test_zero_time_step_in_state_is_named(self, strategy):
        # a steady solve names time_march; the element kernels of both
        # strategies name the non-positive step instead of failing in the LU
        prob = body_force_cavity(8, nu=1.0)
        start = lifted_state(prob.mesh, build_dof_map(prob.mesh, prob.bc))
        start.dt, start.vbar_prev = 0.0, start.vbar.copy()
        with pytest.raises(ValueError, match="time_march"):
            solve(prob, SolverConfig(strategy=strategy), state0=start)
        with pytest.raises(ValueError, match="time step must be positive"):
            if strategy == "newton":
                element_residuals(prob.mesh, 0, start, prob.nu)
            else:
                fp_element_system(prob.mesh, 0, start.vbar, start.vbar_prev, prob.nu,
                                  dt=start.dt)

    @pytest.mark.parametrize("n", [4, 12], ids=["smaller_mesh", "larger_mesh"])
    @pytest.mark.parametrize("run", [
        lambda prob, start: solve(prob, SolverConfig(), start),
        lambda prob, start: solve(prob, SolverConfig(strategy="fixed_point"), start),
        lambda prob, start: time_march(prob, SolverConfig(), 0.1, 2, start),
    ], ids=["newton", "fixed_point", "time_march"])
    def test_start_state_must_fit_the_mesh(self, run, n, monkeypatch):
        # a start state from another mesh used to escape as an IndexError
        # or a broadcasting error from inside the first assembly; it is
        # checked once, before the set-up
        monkeypatch.setattr(solve_module, "_setup", lambda problem: pytest.fail("set up"))
        with pytest.raises(ValueError, match=rf"start state vbar has shape "
                           rf"\({(n + 1) ** 2}, 2\), but the mesh needs \(81, 2\)"):
            run(lid_cavity(8, re=100), State.zeros(unit_square_mesh(n)))

    @pytest.mark.parametrize("transient", ["dt", "vbar_prev"])
    def test_steady_solve_rejects_transient_start_state(self, transient):
        # either transient field would make the steady solve a backward-Euler step
        prob = lid_cavity(8, re=100)
        start = lifted_state(prob.mesh, build_dof_map(prob.mesh, prob.bc))
        if transient == "dt":
            start.dt = 0.1
        else:
            start.vbar_prev = start.vbar.copy()
        with pytest.raises(ValueError, match="time_march"):
            solve(prob, SolverConfig(tol=1e-10), state0=start)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize("field, message", [
        ("tol", "tol must be positive"), ("increment_tol", "increment_tol must be"),
        ("dt", "time step must be positive"),
    ])
    def test_nan_solver_setting_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            _march_with(**{field: float("nan")})

    def test_time_step_below_its_floor_rejected(self):
        # the mass term over dt=5e-324 used to overflow in the first assembly
        _march_with(dt=1e-100)
        for dt in (9e-101, 5e-324):
            with pytest.raises(ValueError, match="time step must be positive, finite and "
                                                 ">= 1e-100"):
                _march_with(dt=dt)

    @pytest.mark.parametrize("field", ["tol", "increment_tol", "dt"])
    def test_infinite_solver_setting_rejected(self, field):
        # tol=inf used to report converged=True after one iteration, and
        # dt=inf to march a steady problem
        with pytest.raises(ValueError, match="finite") as err:
            _march_with(**{field: float("inf")})
        assert field in str(err.value)

    @pytest.mark.parametrize("settings", [
        dict(factor=float("nan")), dict(re_start=float("nan")),
        dict(re_target=float("nan")), dict(re_target=float("inf")),
    ], ids=["factor", "re_start", "re_target", "re_target_inf"])
    def test_nan_continuation_setting_rejected(self, settings):
        # ContinuationConfig(15, nan).ladder() used to be the one rung [15]
        with pytest.raises(ValueError, match="continuation"):
            ContinuationConfig(**{"re_start": 15.0, "re_target": 150.0, **settings})

    def test_negative_increment_tolerance_rejected(self):
        SolverConfig(increment_tol=0.0)
        with pytest.raises(ValueError, match="increment_tol must be non-negative"):
            SolverConfig(increment_tol=-1e-8)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            ContinuationConfig(10, 100, factor=1.0)
