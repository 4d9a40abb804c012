"""Reference-element checks: shape functions, bubble, geometry, quadrature,
and the Kronecker/vectorization conventions.

Quadrature exactness is judged against the closed-form monomial integral
over the reference triangle, int xi1^a xi2^b xi3^c dA = a! b! c! /
(a + b + c + 2)!, which is the independent oracle for every rule and
for the bubble integrals.
"""

import math

import numpy as np
import pytest

from vmsflow.fem import (
    DegenerateElementError,
    element_geometry,
    kron,
    t3_bubble,
    t3_shape,
    triangle_quadrature,
    vec,
)

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


class TestKronVec:
    def test_kron_identity_blocks(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.block([[B, np.zeros((2, 2))], [np.zeros((2, 2)), B]])
        np.testing.assert_array_equal(kron(np.eye(2), B), expected)

    def test_kron_scalar(self):
        B = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(kron([[2.5]], B), 2.5 * B)

    def test_kron_row_with_identity(self):
        n = np.array([[0.2, 0.3, 0.5]])
        K = kron(n, np.eye(2))
        assert K.shape == (2, 6)
        for a in range(3):
            np.testing.assert_array_equal(K[:, 2 * a:2 * a + 2], n[0, a] * np.eye(2))

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A, C = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
            B, D = rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
            np.testing.assert_allclose(
                kron(A, B) @ kron(C, D), kron(A @ C, B @ D), atol=1e-12
            )

    def test_vec_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_vec_stacks_columns(self):
        A = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(vec(A), np.concatenate([A[:, 0], A[:, 1], A[:, 2]]))

    def test_vec_kron_compatibility(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.normal(size=(2, 2))
            X = rng.normal(size=(2, 3))
            B = rng.normal(size=(3, 2))
            np.testing.assert_allclose(
                vec(A @ X @ B), kron(B.T, A) @ vec(X), atol=1e-12
            )

    def test_interpolation_identity(self):
        # kron(N, I) applied to vec of the transposed nodal array reproduces
        # the interpolated vector field.
        rng = np.random.default_rng(9)
        vhat = rng.normal(size=(3, 2))
        for xi in random_reference_points(rng, 20):
            N = t3_shape(xi).N
            lhs = kron(N[None, :], np.eye(2)) @ vec(vhat.T)
            np.testing.assert_allclose(lhs, vhat.T @ N, atol=1e-14)
