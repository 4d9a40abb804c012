"""Reference-element machinery for linear triangles with a cubic bubble.

Conventions used by the whole package:

* Local node ``a`` of a triangle carries the barycentric shape function
  ``N_a`` with ``N = [xi1, xi2, 1 - xi1 - xi2]``, so the reference
  positions of local nodes 0, 1, 2 are (1,0), (0,1), (0,0).
* Gradients of vector fields are stored as ``(grad v)[i, j] = dv_i/dx_j``
  (rows are components, columns are derivative directions).
* ``vec`` stacks matrix COLUMNS.  With column stacking,
  ``kron(N, I2) @ vec(vhat.T)`` reproduces the interpolated velocity
  ``vhat.T @ N.T`` at a point, and ``vec`` of the transposed 3x2 nodal
  array yields the node-major interleaved ordering
  (v1x, v1y, v2x, v2y, v3x, v3y) used for element degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateElementError(RuntimeError):
    """Raised when a triangle has (nearly) zero or negative area."""


# Reference gradients of the three shape functions; constant on the element.
DN_REF = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
DN_REF.setflags(write=False)

# Reference positions of the local nodes (node a is where N_a = 1).
REF_NODES = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
REF_NODES.setflags(write=False)


@dataclass(frozen=True)
class ShapeEval:
    """Linear shape functions at one reference point.

    ``grad_phys`` is ``DN @ Jinv`` and is only present when the
    evaluation was given an element geometry.
    """

    N: np.ndarray            # (3,)
    DN: np.ndarray           # (3, 2) reference gradients
    grad_phys: np.ndarray | None = None  # (3, 2) physical gradients


@dataclass(frozen=True)
class BubbleEval:
    """Cubic bubble xi1*xi2*(1 - xi1 - xi2) at one reference point."""

    b: float
    grad_ref: np.ndarray     # (2,)
    grad_phys: np.ndarray | None = None  # (2,)


@dataclass(frozen=True)
class ElementGeometry:
    """Affine reference-to-physical map of one triangle."""

    J: np.ndarray            # (2, 2)
    detJ: float
    Jinv: np.ndarray         # (2, 2)


@dataclass(frozen=True)
class QuadratureRule:
    """Interior positive-weight rule on the reference triangle."""

    points: np.ndarray       # (n, 2)
    weights: np.ndarray      # (n,), sums to 1/2
    degree: int


def t3_shape(xi, geometry: ElementGeometry | None = None) -> ShapeEval:
    """Evaluate the linear shape functions at reference point ``xi``.

    Evaluation outside the reference triangle is permitted (used by
    finite-difference checks); the partition-of-unity identities hold
    everywhere since the functions are linear.
    """
    x1, x2 = float(xi[0]), float(xi[1])
    N = np.array([x1, x2, 1.0 - x1 - x2])
    grad = None if geometry is None else DN_REF @ geometry.Jinv
    return ShapeEval(N=N, DN=DN_REF, grad_phys=grad)


def t3_bubble(xi, geometry: ElementGeometry | None = None) -> BubbleEval:
    """Evaluate the cubic bubble and its gradient at reference point ``xi``."""
    x1, x2 = float(xi[0]), float(xi[1])
    x3 = 1.0 - x1 - x2
    b = x1 * x2 * x3
    grad_ref = np.array([x2 * (x3 - x1), x1 * (x3 - x2)])
    grad = None if geometry is None else geometry.Jinv.T @ grad_ref
    return BubbleEval(b=b, grad_ref=grad_ref, grad_phys=grad)


def element_geometry(coords, index: int | None = None) -> ElementGeometry:
    """Geometry of the affine map for a triangle given its node coordinates.

    ``coords`` is a (3, 2) array ordered so that local node ``a`` matches
    the reference position ``REF_NODES[a]``; counterclockwise triangles
    then have ``detJ = 2 * area > 0``.
    """
    coords = np.asarray(coords, dtype=float)
    J = coords.T @ DN_REF
    Jinv, detJ = inv2(J)
    if detJ <= 1e-14:
        where = "" if index is None else f" (element {index})"
        raise DegenerateElementError(
            f"triangle{where} is degenerate or negatively oriented: detJ = {detJ:.3e}"
        )
    return ElementGeometry(J=J, detJ=detJ, Jinv=Jinv)


def inv2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and determinants of a stack of 2x2 matrices ``(..., 2, 2)``.

    Singular entries come out as inf/nan without a warning; callers check
    the returned determinants against their own threshold.
    """
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    inv = np.empty_like(M)
    inv[..., 0, 0] = M[..., 1, 1]
    inv[..., 0, 1] = -M[..., 0, 1]
    inv[..., 1, 0] = -M[..., 1, 0]
    inv[..., 1, 1] = M[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv /= det[..., None, None]
    return inv, det


def _orbit3(a: float) -> list[tuple[float, float]]:
    """Symmetric orbit of the point with barycentric coordinates (a, a, 1-2a)."""
    return [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]


def _rule_deg1():
    return np.array([[1 / 3, 1 / 3]]), np.array([0.5])


def _rule_deg2():
    pts = np.array([[2 / 3, 1 / 6], [1 / 6, 2 / 3], [1 / 6, 1 / 6]])
    return pts, np.full(3, 1 / 6)


def _rule_deg4():
    # Six-point symmetric rule; orbit parameters and weights in closed form.
    s10 = math.sqrt(10.0)
    t = math.sqrt(38.0 - 44.0 * math.sqrt(2.0 / 5.0))
    a1 = (8.0 - s10 + t) / 18.0
    a2 = (8.0 - s10 - t) / 18.0
    u = math.sqrt(213125.0 - 53320.0 * s10)
    w1 = (620.0 + u) / 7440.0
    w2 = (620.0 - u) / 7440.0
    pts = np.array(_orbit3(a1) + _orbit3(a2))
    return pts, np.array([w1] * 3 + [w2] * 3)


def _rule_deg5():
    # Seven-point symmetric rule: centroid plus two orbits, closed form.
    s15 = math.sqrt(15.0)
    a1 = (6.0 + s15) / 21.0
    a2 = (6.0 - s15) / 21.0
    w1 = (155.0 + s15) / 2400.0
    w2 = (155.0 - s15) / 2400.0
    pts = np.array([[1 / 3, 1 / 3]] + _orbit3(a1) + _orbit3(a2))
    return pts, np.array([9 / 80] + [w1] * 3 + [w2] * 3)


def _rule_collapsed_gauss(npts_1d: int):
    """Product Gauss-Legendre rule mapped to the triangle.

    The square-to-triangle collapse (xi1, xi2) = (u, v*(1-u)) turns a
    polynomial of total degree d into a polynomial of degree <= d+1 in u
    (after the area factor 1-u) and <= d in v, so m one-dimensional
    points integrate total degree 2m-2 exactly.  All points are interior
    and all weights positive.
    """
    x, w = np.polynomial.legendre.leggauss(npts_1d)
    u = (x + 1.0) / 2.0
    wu = w / 2.0
    uu, vv = np.meshgrid(u, u, indexing="ij")
    wuu, wvv = np.meshgrid(wu, wu, indexing="ij")
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    wts = (wuu * wvv * (1.0 - uu)).ravel()
    return pts, wts


def _build_rules() -> dict[int, QuadratureRule]:
    table = {
        1: _rule_deg1(),
        2: _rule_deg2(),
        4: _rule_deg4(),
        5: _rule_deg5(),
        6: _rule_collapsed_gauss(4),
        8: _rule_collapsed_gauss(5),
        10: _rule_collapsed_gauss(6),
    }
    rules = {}
    for deg, (pts, wts) in table.items():
        pts = np.ascontiguousarray(pts, dtype=float)
        wts = np.ascontiguousarray(wts, dtype=float)
        pts.setflags(write=False)
        wts.setflags(write=False)
        rules[deg] = QuadratureRule(points=pts, weights=wts, degree=deg)
    return rules


_RULES = _build_rules()
MAX_QUADRATURE_DEGREE = max(_RULES)


def triangle_quadrature(min_degree: int) -> QuadratureRule:
    """Smallest tabulated rule exact for polynomials of ``min_degree``."""
    if not 0 <= min_degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(
            f"no tabulated triangle rule of degree {min_degree}; "
            f"available degrees reach {MAX_QUADRATURE_DEGREE}"
        )
    for deg in sorted(_RULES):
        if deg >= min_degree:
            return _RULES[deg]
    raise AssertionError("unreachable")


def kron(A, B) -> np.ndarray:
    """Kronecker product with blocks a_ij * B."""
    return np.kron(np.asarray(A), np.asarray(B))


def vec(A) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(A).reshape(-1, order="F").copy()
