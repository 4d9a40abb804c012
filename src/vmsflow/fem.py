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

import functools
from dataclasses import dataclass

import numpy as np


class DegenerateElementError(RuntimeError):
    """Raised when a triangle has (nearly) zero or negative area."""


# Reference gradients of the three shape functions; constant on the element.
DN_REF = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
DN_REF.setflags(write=False)


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
    degree: int              # exact for every polynomial of this total degree


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

    ``coords`` is a (3, 2) array whose local nodes map to the reference
    vertices (1, 0), (0, 1) and (0, 0), in that order (node a is where
    N_a = 1); counterclockwise triangles then have ``detJ = 2 * area > 0``.
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
    """Inverses and determinants of 2x2 matrices held in the two leading
    axes, ``M`` of shape ``(2, 2, ...)`` (the element index last).

    Singular entries come out as inf/nan without a warning; callers check
    the returned determinants against their own threshold.
    """
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det, det


MAX_QUADRATURE_DEGREE = 10


@functools.cache
def _collapsed_gauss(npts_1d: int) -> QuadratureRule:
    """Product Gauss-Legendre rule mapped to the triangle (Stroud; Duffy).

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
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts, degree=2 * npts_1d - 2)


def triangle_quadrature(min_degree: int) -> QuadratureRule:
    """Collapsed-Gauss rule exact for polynomials of total degree ``min_degree``.

    It has ``ceil(min_degree / 2) + 1`` points per axis; its arrays are
    read-only and shared by every caller.
    """
    if not 0 <= min_degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(
            f"no triangle rule of degree {min_degree}; "
            f"available degrees reach {MAX_QUADRATURE_DEGREE}"
        )
    return _collapsed_gauss(-(-min_degree // 2) + 1)


def kron(A, B) -> np.ndarray:
    """Kronecker product with blocks a_ij * B."""
    return np.kron(np.asarray(A), np.asarray(B))


def vec(A) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(A).reshape(-1, order="F").copy()
