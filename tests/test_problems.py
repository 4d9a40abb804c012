"""Benchmark definitions, the manufactured solution, and error norms.

The long body-force polynomial is guarded by the strong-form oracle: the
closed-form velocity/pressure, with the velocity's analytic derivatives
coded in factored form in ``helpers``, substituted into the momentum
balance must reproduce the transcribed force pointwise.
"""

import re

import numpy as np
import pytest

import vmsflow.problems as problems_module
from vmsflow.mesh import build_dof_map
from vmsflow.newton import State
from vmsflow.problems import (
    ExactSolution,
    backward_step,
    body_force_cavity,
    cavity_body_force,
    cavity_exact_solution,
    convergence_study,
    error_norms,
    fit_rates,
    lid_cavity,
)
from vmsflow.solve import SolverConfig

from helpers import cavity_velocity_gradient, cavity_velocity_laplacian


def interior_points(rng, count):
    return rng.uniform(0.01, 0.99, (count, 2))


class TestManufacturedSolution:
    def setup_method(self):
        self.exact = cavity_exact_solution()
        self.rng = np.random.default_rng(100)

    def test_divergence_free(self):
        pts = interior_points(self.rng, 1000)
        g = cavity_velocity_gradient(pts)
        assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() <= 1e-12

    def test_velocity_vanishes_on_boundary(self):
        t = np.linspace(0.0, 1.0, 50)
        z = np.zeros_like(t)
        o = np.ones_like(t)
        for pts in (
            np.column_stack([t, z]), np.column_stack([t, o]),
            np.column_stack([z, t]), np.column_stack([o, t]),
        ):
            assert np.abs(self.exact.velocity(pts)).max() == 0.0

    def test_body_force_transcription(self):
        # momentum balance v.grad v - lap v + grad p at unit viscosity
        pts = interior_points(self.rng, 1000)
        v = self.exact.velocity(pts)
        gv = cavity_velocity_gradient(pts)
        strong = (
            np.einsum("pij,pj->pi", gv, v)
            - cavity_velocity_laplacian(pts)
            + self.exact.pressure_gradient(pts)
        )
        assert np.abs(strong - cavity_body_force(pts)).max() <= 1e-8

    def test_derivatives_match_finite_differences(self):
        pts = interior_points(self.rng, 50)
        h = 1e-6
        for k in range(2):
            dp, dm = pts.copy(), pts.copy()
            dp[:, k] += h
            dm[:, k] -= h
            fd = (self.exact.velocity(dp) - self.exact.velocity(dm)) / (2 * h)
            np.testing.assert_allclose(
                cavity_velocity_gradient(pts)[:, :, k], fd, atol=1e-8
            )
            fdp = (self.exact.pressure(dp) - self.exact.pressure(dm)) / (2 * h)
            np.testing.assert_allclose(
                self.exact.pressure_gradient(pts)[:, k], fdp, atol=1e-8
            )


class TestProblemBuilders:
    def test_body_force_cavity_pin(self):
        prob = body_force_cavity(8, nu=1.0)
        node, value = prob.bc.pressure_pin
        assert np.allclose(prob.mesh.node_coords[node], [0.0, 0.0])
        assert value == pytest.approx(0.0)
        assert prob.exact is not None

    @pytest.mark.parametrize("builder, pressure", [
        (body_force_cavity, cavity_exact_solution().pressure),
        (lid_cavity, lambda point: 0.0),
    ], ids=["body_force_cavity", "lid_cavity"])
    @pytest.mark.parametrize("n", [8, 13])
    def test_pressure_pin_is_at_the_origin(self, builder, pressure, n):
        # both cavities pin the pressure at the corner node (0, 0)
        prob = builder(n, nu=1.0)
        origin = np.flatnonzero(np.all(prob.mesh.node_coords == 0.0, axis=1))
        assert origin.size == 1
        node, value = prob.bc.pressure_pin
        assert (node, value) == (int(origin[0]), float(pressure(np.zeros(2))))
        assert type(node) is int and type(value) is float

    def test_exact_only_at_unit_viscosity(self):
        assert body_force_cavity(8, re=400).exact is None
        assert body_force_cavity(8, nu=1.0).exact is not None

    def test_re_nu_exclusive(self):
        with pytest.raises(ValueError):
            body_force_cavity(8)
        with pytest.raises(ValueError):
            body_force_cavity(8, re=10, nu=0.1)

    @pytest.mark.parametrize("builder", [
        lambda **kw: body_force_cavity(8, **kw), lambda **kw: lid_cavity(8, **kw),
        lambda **kw: backward_step(h=0.5, **kw),
    ], ids=["body_force_cavity", "lid_cavity", "backward_step"])
    @pytest.mark.parametrize("name, value", [
        ("re", 0), ("nu", 0.0), ("re", -5.0), ("nu", -1.0), ("re", float("nan")),
        ("nu", float("nan")), ("re", float("inf")), ("nu", float("inf")),
    ])
    def test_viscosity_checked_before_inversion(self, builder, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            builder(**{name: value})

    @pytest.mark.parametrize("builder", [
        lambda **kw: body_force_cavity(8, **kw), lambda **kw: lid_cavity(8, **kw),
        lambda **kw: backward_step(h=0.5, **kw),
    ], ids=["body_force_cavity", "lid_cavity", "backward_step"])
    @pytest.mark.parametrize("name, value, reynolds", [
        ("re", 1e-101, "1e-101"), ("nu", 1e101, "1e-101"), ("re", 1e101, "1e+101"),
        ("nu", 5e-324, "inf"), ("re", 5e-324, "4.94066e-324"),
    ], ids=["re_low", "nu_high", "re_high", "nu_subnormal", "re_subnormal"])
    def test_reynolds_number_outside_its_range_is_named(self, builder, name, value, reynolds):
        # nu=1e300 used to overflow in the solve, and re=5e-324 to give nu=inf
        with pytest.raises(ValueError, match=re.escape(
                f"{name}={value:g} gives Reynolds number {reynolds}, outside [1e-100, 1e100]")):
            builder(**{name: value})
        builder(**{name: 1e100 if name == "re" else 1e-100})
        builder(**{name: 1e-100 if name == "re" else 1e100})

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            body_force_cavity(3, nu=1.0)
        with pytest.raises(ValueError):
            lid_cavity(7, re=100)

    def test_lid_corners_take_wall_value(self):
        prob = lid_cavity(8, re=100)
        dofmap = build_dof_map(prob.mesh, prob.bc)
        for corner in ([0.0, 1.0], [1.0, 1.0]):
            node = int(np.argmin(np.abs(prob.mesh.node_coords - corner).sum(axis=1)))
            dofs = [dofmap.node_dofs(node)[0], dofmap.node_dofs(node)[1]]
            assert not np.isin(dofs, dofmap.free).any()
            assert dofmap.prescribed[dofs].tolist() == [0.0, 0.0]

    def test_lid_prescribed_flux_is_zero(self):
        # closed cavity: the prescribed boundary velocity carries no net flux
        prob = lid_cavity(8, re=100)
        dofmap = build_dof_map(prob.mesh, prob.bc)
        flux = 0.0
        normals = {"bottom": (0, -1), "top": (0, 1), "left": (-1, 0), "right": (1, 0)}
        for a, b, tag in prob.mesh.boundary_edges:
            pa, pb = prob.mesh.node_coords[a], prob.mesh.node_coords[b]
            length = np.hypot(*(pb - pa))
            n = np.array(normals[tag])
            for node in (a, b):
                dofs = [dofmap.node_dofs(node)[0], dofmap.node_dofs(node)[1]]
                assert not np.isin(dofs, dofmap.free).any()
                flux += 0.5 * length * (dofmap.prescribed[dofs] @ n)
        assert flux == pytest.approx(0.0, abs=1e-14)

    def test_backward_step_inflow_profile(self):
        prob = backward_step(re=15)
        dofmap = build_dof_map(prob.mesh, prob.bc)
        mid = int(np.argmin(np.abs(prob.mesh.node_coords - [0.0, 0.75]).sum(axis=1)))
        dofs = [dofmap.node_dofs(mid)[0], dofmap.node_dofs(mid)[1]]
        assert not np.isin(dofs, dofmap.free).any()
        assert dofmap.prescribed[dofs[0]] == pytest.approx(1.0)
        assert dofmap.prescribed[dofs[1]] == 0.0
        # no pressure pin: the outflow is a natural boundary
        assert prob.bc.pressure_pin is None

    def test_with_re(self):
        # re-targeting keeps the mesh, boundary data and force objects and
        # sets re, nu and exact as a fresh build at that Reynolds number does
        pts = interior_points(np.random.default_rng(3), 20)
        fields = ("velocity", "pressure", "pressure_gradient")
        for build in (lambda re: body_force_cavity(8, re=re),
                      lambda re: lid_cavity(8, re=re),
                      lambda re: backward_step(re=re, h=0.5)):
            for re_from, re_to in ((1.0, 100.0), (100.0, 1.0)):
                prob, fresh = build(re_from), build(re_to)
                rung = prob.with_re(re_to)
                assert rung.name == fresh.name
                assert rung.mesh is prob.mesh and rung.bc is prob.bc
                assert rung.body_force is prob.body_force
                assert (rung.re, rung.nu) == (fresh.re, fresh.nu) == (re_to, 1 / re_to)
                assert (rung.exact is None) == (fresh.exact is None)
                if fresh.exact is not None:
                    for name in fields:
                        np.testing.assert_array_equal(getattr(rung.exact, name)(pts),
                                                      getattr(fresh.exact, name)(pts))
        with pytest.raises(ValueError, match="re must be positive"):
            lid_cavity(8, re=10).with_re(0.0)

    def test_comparison_returns_bool(self):
        # specs compare through their meshes, which compare by identity
        prob = lid_cavity(8, re=10)
        assert (prob == lid_cavity(8, re=10)) is False
        assert (prob == prob) is True


class TestErrorNorms:
    def test_requires_exact(self):
        prob = lid_cavity(8, re=100)
        with pytest.raises(ValueError):
            error_norms(State.zeros(prob.mesh), prob.exact, prob.mesh)

    def test_linear_field_reproduced_exactly(self):
        # the interpolant of a linear exact field carries zero error
        mesh = body_force_cavity(8, nu=1.0).mesh

        def velocity(points):
            x, y = points[..., 0], points[..., 1]
            return np.stack([0.2 * x - 0.7 * y, 1.1 * x + 0.5 * y], axis=-1)

        def pressure(points):
            return 0.3 * points[..., 0] - 0.9 * points[..., 1]

        exact = ExactSolution(
            velocity=velocity,
            pressure=pressure,
            pressure_gradient=lambda pts: np.broadcast_to(
                np.array([0.3, -0.9]), np.shape(pts)
            ),
        )
        state = State.zeros(mesh)
        state.vbar = np.asarray(velocity(mesh.node_coords))
        state.p = np.asarray(pressure(mesh.node_coords))
        norms = error_norms(state, exact, mesh)
        assert norms.l2_velocity <= 1e-14
        assert norms.h1_semi_pressure <= 1e-13
        assert norms.l2_pressure <= 1e-14

    def test_interpolation_error_second_order(self):
        exact = cavity_exact_solution()
        errs = {}
        for n in (8, 16):
            prob = body_force_cavity(n, nu=1.0)
            state = State.zeros(prob.mesh)
            state.vbar = np.asarray(exact.velocity(prob.mesh.node_coords))
            state.p = np.asarray(exact.pressure(prob.mesh.node_coords))
            errs[n] = error_norms(state, exact, prob.mesh).l2_velocity
        ratio = errs[8] / errs[16]
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_zero_state_gives_field_norm(self):
        # the error of the zero state is the L2 norm of the exact velocity,
        # a mesh-independent constant
        exact = cavity_exact_solution()
        values = []
        for n in (8, 16):
            prob = body_force_cavity(n, nu=1.0)
            values.append(error_norms(State.zeros(prob.mesh), exact, prob.mesh).l2_velocity)
        assert values[0] == pytest.approx(values[1], rel=1e-6)
        # cross-check against a dense tensor-grid quadrature of the closed form
        from vmsflow.fem import triangle_quadrature  # noqa: F401  (documented oracle below)
        xs = (np.arange(400) + 0.5) / 400
        X, Y = np.meshgrid(xs, xs)
        v = exact.velocity(np.stack([X, Y], axis=-1))
        ref = np.sqrt((v**2).sum() / 400**2)
        assert values[1] == pytest.approx(ref, rel=1e-4)


class TestLidProfile:
    def test_centerline_profile_shape(self):
        # classic steady-cavity signature: lid value at the top, no-slip at
        # the bottom, and a distinct backflow minimum in the lower half
        from vmsflow.output import sample_field
        from vmsflow.solve import solve

        prob = lid_cavity(32, re=400)
        state, report = solve(prob, SolverConfig(tol=1e-9, max_iter=15))
        assert report.converged
        ys = np.linspace(0.0, 1.0, 101)
        pts = np.column_stack([np.full_like(ys, 0.5), ys])
        vel, _, inside = sample_field(prob.mesh, state, pts)
        assert inside.all()
        assert vel[-1, 0] == pytest.approx(1.0, abs=1e-12)
        assert vel[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert vel[: 50, 0].min() < -0.2


class TestConvergenceStudy:
    def test_smoke_study(self):
        table = convergence_study(
            lambda n: body_force_cavity(n, nu=1.0),
            [8, 12, 16],
            config=SolverConfig(tol=1e-10, max_iter=20),
        )
        assert table.complete
        assert len(table.rows) == 3
        hs = [h for h, _ in table.rows]
        assert hs == sorted(hs, reverse=True)
        assert table.rates["l2_velocity"] == pytest.approx(2.0, abs=0.3)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study(lambda n: body_force_cavity(n, nu=1.0), [8, 16])

    @pytest.mark.parametrize("levels", [[8, 4, 12], [8, 8, 12], [8, 12, 10]])
    def test_levels_must_increase_before_any_solve(self, levels):
        built = []

        def factory(n):
            built.append(n)
            return body_force_cavity(n, nu=1.0)

        with pytest.raises(ValueError, match="mesh levels must increase strictly"):
            convergence_study(factory, levels)
        assert built == []

    def test_level_without_exact_solution_is_named_before_its_solve(self, monkeypatch):
        monkeypatch.setattr(problems_module, "solve", lambda *a: pytest.fail("solved"))
        with pytest.raises(ValueError, match="body_force_cavity at nu=0.0025 has no exact"):
            convergence_study(lambda n: body_force_cavity(n, re=400), [8, 12, 16])

    def test_failed_level_returns_partial_table(self):
        # an unreachable tolerance stops the study at the first level but
        # still returns what was gathered
        table = convergence_study(
            lambda n: body_force_cavity(n, nu=1.0),
            [8, 12, 16],
            config=SolverConfig(tol=1e-17, max_iter=3),
        )
        assert not table.complete
        assert len(table.rows) < 3

    def test_rates_stable_under_dropping_coarsest(self):
        table = convergence_study(
            lambda n: body_force_cavity(n, nu=1.0),
            [8, 16, 32],
            config=SolverConfig(tol=1e-10, max_iter=30),
        )
        dropped = fit_rates(table.rows[1:])
        for name, rate in table.rates.items():
            assert abs(rate - dropped[name]) < 0.1

    def test_rate_fit(self):
        rows = [
            (0.5, _norms(1.0e-2, 2.0e-1, 1e-2)),
            (0.25, _norms(2.5e-3, 1.0e-1, 1e-2)),
            (0.125, _norms(6.25e-4, 5.0e-2, 1e-2)),
        ]
        rates = fit_rates(rows)
        assert rates["l2_velocity"] == pytest.approx(2.0, abs=1e-12)
        assert rates["h1_semi_pressure"] == pytest.approx(1.0, abs=1e-12)
        assert rates["l2_pressure"] == pytest.approx(0.0, abs=1e-12)


def _norms(a, b, c):
    from vmsflow.problems import ErrorNorms

    return ErrorNorms(l2_velocity=a, h1_semi_pressure=b, l2_pressure=c)
