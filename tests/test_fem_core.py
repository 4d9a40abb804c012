"""Reference-element checks: shape functions, bubble, geometry and quadrature.

The point evaluators checked here are the test suite's own
(``helpers.t3_shape``, ``t3_bubble``, ``element_geometry``); they are
the per-point oracle that ``ElementBatch``'s tables are compared with.

Quadrature exactness is judged against the closed-form monomial integral
over the reference triangle, int xi1^a xi2^b xi3^c dA = a! b! c! /
(a + b + c + 2)!, which is the independent oracle for every rule and
for the bubble integrals.
"""

import math

import numpy as np
import pytest

from vmsflow.fem import DegenerateElementError, triangle_quadrature
from vmsflow.newton import ElementBatch

from helpers import element_geometry, perturbed_square_mesh, t3_bubble, t3_shape

# Physical coordinates that make the element coincide with the reference
# triangle (node a sits at the reference vertex carrying N_a).
REF_COORDS = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def monomial_integral(a: int, b: int, c: int = 0) -> float:
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 2)
    )


def random_reference_points(rng, count):
    pts = rng.uniform(0.0, 1.0, (count, 2))
    flip = pts.sum(axis=1) > 1.0
    pts[flip] = 1.0 - pts[flip][:, ::-1]
    return pts


class TestShapeFunctions:
    def test_vertex_interpolation(self):
        np.testing.assert_allclose(t3_shape((1.0, 0.0)).N, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(t3_shape((0.0, 1.0)).N, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(t3_shape((0.0, 0.0)).N, [0.0, 0.0, 1.0])

    def test_centroid_symmetry(self):
        np.testing.assert_allclose(t3_shape((1 / 3, 1 / 3)).N, np.full(3, 1 / 3))

    def test_reference_gradients(self):
        DN = t3_shape((0.2, 0.3)).DN
        np.testing.assert_array_equal(DN, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(11)
        for xi in random_reference_points(rng, 1000):
            ev = t3_shape(xi)
            assert abs(ev.N.sum() - 1.0) <= 1e-14
            np.testing.assert_allclose(ev.DN.sum(axis=0), 0.0, atol=1e-14)

    def test_physical_gradients(self):
        geom = element_geometry([[2.0, 0.3], [0.5, 1.7], [-1.0, 0.1]])
        ev = t3_shape((0.25, 0.25), geom)
        np.testing.assert_allclose(ev.grad_phys, ev.DN @ geom.Jinv)
        np.testing.assert_allclose(ev.grad_phys.sum(axis=0), 0.0, atol=1e-14)


class TestBubble:
    def test_centroid_maximum(self):
        ev = t3_bubble((1 / 3, 1 / 3))
        assert ev.b == pytest.approx(1 / 27, rel=1e-15)
        np.testing.assert_allclose(ev.grad_ref, 0.0, atol=1e-16)

    def test_vanishes_on_edges(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 1.0, 100)
        edges = [
            np.column_stack([t, np.zeros_like(t)]),        # xi2 = 0
            np.column_stack([np.zeros_like(t), t]),        # xi1 = 0
            np.column_stack([t, 1.0 - t]),                 # xi1 + xi2 = 1
        ]
        for pts in edges:
            for xi in pts:
                assert abs(t3_bubble(xi).b) <= 1e-15

    def test_positive_inside(self):
        rng = np.random.default_rng(6)
        pts = 1e-3 + (1 - 3e-3) * random_reference_points(rng, 200)
        # shrink toward the centroid so points are strictly interior
        pts = 0.999 * pts + 0.001 / 3
        assert all(t3_bubble(xi).b > 0 for xi in pts)

    def test_reference_integral(self):
        # int b dA = 1!1!1!/5! = 1/120 by the monomial oracle
        rule = triangle_quadrature(8)
        b = np.array([t3_bubble(xi).b for xi in rule.points])
        assert rule.weights @ b == pytest.approx(monomial_integral(1, 1, 1), abs=1e-16)
        assert monomial_integral(1, 1, 1) == pytest.approx(1 / 120)

    def test_gradient_matches_fd(self):
        xi = np.array([0.31, 0.22])
        ev = t3_bubble(xi)
        h = 1e-7
        for k in range(2):
            dp, dm = xi.copy(), xi.copy()
            dp[k] += h
            dm[k] -= h
            fd = (t3_bubble(dp).b - t3_bubble(dm).b) / (2 * h)
            assert ev.grad_ref[k] == pytest.approx(fd, abs=1e-9)


class TestElementGeometry:
    def test_reference_coincidence(self):
        geom = element_geometry(REF_COORDS)
        np.testing.assert_allclose(geom.J, np.eye(2), atol=1e-15)
        assert geom.detJ == pytest.approx(1.0)

    def test_scaling(self):
        h = 0.37
        geom = element_geometry(h * REF_COORDS)
        assert geom.detJ == pytest.approx(h**2, rel=1e-14)

    def test_inverse(self):
        geom = element_geometry([[2.0, 0.3], [0.5, 1.7], [-1.0, 0.1]])
        np.testing.assert_allclose(geom.J @ geom.Jinv, np.eye(2), atol=1e-12)
        assert geom.detJ == pytest.approx(
            2.0 * _triangle_area([[2.0, 0.3], [0.5, 1.7], [-1.0, 0.1]]), rel=1e-14
        )

    def test_clockwise_rejected(self):
        with pytest.raises(DegenerateElementError):
            element_geometry(REF_COORDS[::-1])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateElementError, match="element 17"):
            element_geometry([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], index=17)


def _triangle_area(coords):
    (x1, y1), (x2, y2), (x3, y3) = coords
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


class TestQuadrature:
    @pytest.mark.parametrize("degree", range(11))
    def test_weights_sum_to_area(self, degree):
        rule = triangle_quadrature(degree)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("degree", range(11))
    def test_positive_interior(self, degree):
        rule = triangle_quadrature(degree)
        assert np.all(rule.weights > 0)
        assert np.all(rule.points > 0)
        assert np.all(rule.points.sum(axis=1) < 1)

    @pytest.mark.parametrize("degree", range(11))
    def test_exactness_against_monomial_oracle(self, degree):
        rule = triangle_quadrature(degree)
        assert rule.degree >= degree
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                approx = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = monomial_integral(a, b)
                assert approx == pytest.approx(exact, rel=1e-13), (degree, a, b)

    def test_degree2_bilinear(self):
        rule = triangle_quadrature(2)
        val = rule.weights @ (rule.points[:, 0] * rule.points[:, 1])
        assert val == pytest.approx(1 / 24, rel=1e-15)

    def test_degree8_bubble_squared(self):
        # b^2 has degree 6; oracle value 2!2!2!/8! = 1/5040
        rule = triangle_quadrature(8)
        x1, x2 = rule.points[:, 0], rule.points[:, 1]
        val = rule.weights @ (x1 * x2 * (1 - x1 - x2)) ** 2
        assert val == pytest.approx(1 / 5040, rel=1e-14)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            triangle_quadrature(11)
        with pytest.raises(ValueError):
            triangle_quadrature(-1)


def test_element_batch_tables_match_the_point_oracle():
    # Every ElementBatch table, summed point by point over the degree-8
    # rule from the scalar evaluators, element by element.
    mesh = perturbed_square_mesh(4, np.random.default_rng(11))
    batch = ElementBatch(mesh)
    rule = triangle_quadrature(8)
    ref = {name: np.zeros_like(getattr(batch, name))
           for name in ("G", "mass", "bmass", "stiff", "mass_gb", "gbgb", "div")}
    for e, tri in enumerate(mesh.triangles):
        geo = element_geometry(mesh.node_coords[tri], e)
        ref["G"][..., e] = t3_shape((0.0, 0.0), geo).grad_phys
        for xi, w in zip(rule.points, rule.weights):
            sh, bub = t3_shape(xi, geo), t3_bubble(xi, geo)
            wd = w * geo.detJ
            Nb = np.append(sh.N, bub.b)                          # (4,)
            dNb = np.vstack([sh.grad_phys, bub.grad_phys])       # (4, 2)
            ref["mass"][..., e] += wd * np.outer(Nb, Nb)
            ref["bmass"][..., e] += wd * bub.b * np.outer(sh.N, sh.N)
            ref["stiff"][..., e] += wd * dNb @ dNb.T
            ref["mass_gb"][..., e] += wd * np.outer(Nb, Nb)[..., None] * bub.grad_phys
            ref["gbgb"][..., e] += wd * np.outer(bub.grad_phys, bub.grad_phys)
            ref["div"][..., e] -= wd * np.outer(dNb.reshape(8), sh.N)
    for name, expected in ref.items():
        # Relative to the largest entry of each row, so the small bubble rows count too.
        scale = np.abs(expected).max(axis=tuple(range(1, expected.ndim)), keepdims=True)
        assert np.all(np.abs(getattr(batch, name) - expected) <= 1e-13 * scale), name
