"""Reference-element machinery for linear triangles with a cubic bubble.

Conventions used by the whole package:

* Local node ``a`` of a triangle carries the barycentric shape function
  ``N_a`` with ``N = [xi1, xi2, 1 - xi1 - xi2]``, so the reference
  positions of local nodes 0, 1, 2 are (1,0), (0,1), (0,0).
* Gradients of vector fields are stored as ``(grad v)[i, j] = dv_i/dx_j``
  (rows are components, columns are derivative directions).
* Element velocity unknowns are node-major and interleaved:
  (v1x, v1y, v2x, v2y, v3x, v3y).

``vmsflow.newton.ElementBatch`` evaluates the basis on every element.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


# Reference gradients of the three shape functions; constant on the element.
DN_REF = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
DN_REF.setflags(write=False)


@dataclass(frozen=True)
class QuadratureRule:
    """Interior positive-weight rule on the reference triangle."""

    points: np.ndarray       # (n, 2)
    weights: np.ndarray      # (n,), sums to 1/2
    degree: int              # exact for every polynomial of this total degree


def inv2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and determinants of 2x2 matrices held in the two leading
    axes, ``M`` of shape ``(2, 2, ...)`` (the element index last).

    Singular entries come out as inf/nan without a warning; callers rule
    them out (``Mesh`` rejects every triangle of area <= 1e-12).
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

