"""Fixed-point strategy: tensor stabilization parameter and linearized assembly.

The convective term is linearized about the current iterate ``v_c`` into
``(w, v_c . grad v) + (w, v . grad v_c)``; the known cross term
``(w, v_c . grad v_c)`` is carried on the right-hand side so that the
converged iterate solves the original problem.  The fine-scale problem
is solved analytically with the bubble ansatz, which turns its effect on
the coarse equations into a stabilization integral

    (v_c . grad w + grad q - (grad v_c)^T w ,  tau(x) * r(v, p))

where the residual slot ``r`` collects the pressure gradient, the
backward-Euler acceleration, the linearized convection (with the same
cross-term bookkeeping) and the body force.  Second-derivative terms of
the weighting and trial fields vanish identically on affine linear
triangles and are omitted.  ``tau(x) = b(x) * w_b * A^-1`` keeps the
bubble factor inside the stabilization quadrature; no element-mean
lumping is applied.  The tensor ``A`` intentionally retains its derived
form, including the rank-one viscous coupling ``nu * grad b (x) grad b``.
Global systems lift prescribed values element by element (``F_e -= K_e
g_e``) and share the Newton path's ``Discretization`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vmsflow.fem import inv2, triangle_quadrature
from vmsflow.mesh import Mesh
# traction_vector is unused here but stays importable: the benchmark tracer
# (perfbench/spans.py) wraps vmsflow.fixed_point.traction_vector.
from vmsflow.newton import (  # noqa: F401
    DEFAULT_QUADRATURE_DEGREE,
    Discretization,
    ElementBatch,
    _check_nu,
    _eval_body_force,
    traction_vector,
)

_I2 = np.eye(2)


class TauSingularError(RuntimeError):
    """Raised when the fine-scale system matrix A of an element is singular."""


@dataclass(frozen=True)
class TauTensor:
    """Position-dependent stabilization tensor of one element.

    The tensor is ``tau(x) = b(x) * w_b * Ainv`` with the bubble factor
    kept symbolic; ``w_b`` is the bubble volume integral.
    """

    w_b: float
    Ainv: np.ndarray   # (2, 2)
    A: np.ndarray      # (2, 2)

    def at(self, bubble_value: float) -> np.ndarray:
        return bubble_value * self.w_b * self.Ainv


@dataclass(frozen=True)
class FpElementSystem:
    """Stabilized linearized element system over (6 velocity, 3 pressure) DOFs."""

    K: np.ndarray   # (9, 9)
    F: np.ndarray   # (9,)


def _tau_batched(batch: ElementBatch, v_c: np.ndarray, nu: float):
    """Fine-scale matrices A, their inverses, and bubble weights per element."""
    wd, bq, gb, N = batch.wd, batch.bq, batch.gb, batch.N
    vel = v_c[batch.tris]
    vcq = np.einsum("qa,eai->eqi", N, vel)
    gvc = np.einsum("eai,eaj->eij", vel, batch.G)

    conv_b = bq[None, :] * np.einsum("eqk,eqk->eq", vcq, gb)
    gb2 = np.einsum("eqk,eqk->eq", gb, gb)
    iso = np.einsum("eq,eq->e", wd, conv_b + nu * gb2)
    A = np.einsum("e,ij->eij", iso, _I2)
    A += np.einsum("eq,q->e", wd, bq**2)[:, None, None] * gvc
    A += nu * np.einsum("eq,eqk,eql->ekl", wd, gb, gb)

    Ainv, det = inv2(A)
    scale = np.einsum("eij,eij->e", A, A)
    bad = np.abs(det) <= 1e-14 * scale
    if np.any(bad):
        e = int(np.argmax(bad))
        elem = int(batch.elements[e])
        h_e = float(np.sqrt(2.0 * abs(batch.detJ[e])))
        speed = float(np.linalg.norm(vcq[e], axis=1).max())
        raise TauSingularError(
            f"stabilization matrix of element {elem} is singular "
            f"(|det A| = {abs(det[e]):.3e}, local Reynolds ~ {speed * h_e / nu:.3g})"
        )
    w_b = np.einsum("eq,q->e", wd, bq)
    return w_b, Ainv, A, vcq, gvc


def compute_tau(mesh: Mesh, element_index: int, v_c: np.ndarray, nu: float,
                degree: int = DEFAULT_QUADRATURE_DEGREE) -> TauTensor:
    """Stabilization tensor of one element for the iterate velocity ``v_c``."""
    _check_nu(nu)
    batch = ElementBatch(mesh, triangle_quadrature(degree), np.array([element_index]))
    w_b, Ainv, A, _, _ = _tau_batched(batch, v_c, nu)
    return TauTensor(w_b=float(w_b[0]), Ainv=Ainv[0], A=A[0])


def _fp_batched(batch: ElementBatch, v_c: np.ndarray, nu: float, dt, vbar_prev,
                body_force, stabilize: bool):
    """Element matrices (E, 9, 9) and loads (E, 9) of the linearized form."""
    if dt is not None and vbar_prev is None:
        raise ValueError("transient fixed-point systems need the previous velocity")
    E = len(batch.elements)
    wd, N, NN, G, bq = batch.wd, batch.N, batch.NN, batch.G, batch.bq

    w_b, Ainv, _, vcq, gvc = _tau_batched(batch, v_c, nu)

    advN = np.einsum("eqk,ebk->eqb", vcq, G)            # v_c . grad N_b
    intNN = np.einsum("eq,qab->eab", wd, NN)

    # Known right-hand-side slot: body force, linearization cross term,
    # and the previous-step velocity for transient runs.
    known = _eval_body_force(body_force, batch.xq)
    known = known + np.einsum("eij,eqj->eqi", gvc, vcq)
    if dt is not None:
        vprevq = np.einsum("qa,eai->eqi", N, vbar_prev[batch.tris])
        known = known + vprevq / dt

    # Galerkin blocks of the linearized form.
    scal = np.einsum("eq,qa,eqb->eab", wd, N, advN)
    scal += nu * np.einsum("eq,eak,ebk->eab", wd, G, G)
    if dt is not None:
        scal += intNN / dt
    Kvv = np.einsum("eab,ij->eaibj", scal, _I2)
    Kvv += np.einsum("eab,eij->eaibj", intNN, gvc)
    Kvp = -np.einsum("eq,eai,qb->eaib", wd, G, N)
    Kpv = np.einsum("eq,qa,ebj->eabj", wd, N, G)
    Kpp = np.zeros((E, 3, 3))
    Fv = np.einsum("eq,qa,eqi->eai", wd, N, known)
    Fp = np.zeros((E, 3))

    if stabilize:
        tau = np.einsum("q,e,ekl->eqkl", bq, w_b, Ainv)
        # Weighting operator on velocity tests and slot operator on trials.
        W = np.einsum("eqa,ik->eqaik", advN, _I2)
        W -= np.einsum("qa,eik->eqaik", N, gvc)
        S = np.einsum("eqb,jk->eqbjk", advN, _I2)
        if dt is not None:
            S += np.einsum("qb,jk->qbjk", N, _I2)[None] / dt
        S += np.einsum("qb,ekj->eqbjk", N, gvc)

        tauS = np.einsum("eqkl,eqbjl->eqbjk", tau, S)
        Kvv += np.einsum("eq,eqaik,eqbjk->eaibj", wd, W, tauS)
        tauG = np.einsum("eqkl,ebl->eqbk", tau, G)
        Kvp += np.einsum("eq,eqaik,eqbk->eaib", wd, W, tauG)
        Kpv += np.einsum("eq,eak,eqbjk->eabj", wd, G, tauS)
        Kpp += np.einsum("eq,eak,eqbk->eab", wd, G, tauG)
        tauknown = np.einsum("eqkl,eql->eqk", tau, known)
        Fv += np.einsum("eq,eqaik,eqk->eai", wd, W, tauknown)
        Fp += np.einsum("eq,eak,eqk->ea", wd, G, tauknown)

    K = np.zeros((E, 9, 9))
    K[:, :6, :6] = Kvv.reshape(E, 6, 6)
    K[:, :6, 6:] = Kvp.reshape(E, 6, 3)
    K[:, 6:, :6] = Kpv.reshape(E, 3, 6)
    K[:, 6:, 6:] = Kpp
    F = np.zeros((E, 9))
    F[:, :6] = Fv.reshape(E, 6)
    F[:, 6:] = Fp
    return K, F


def fp_element_system(mesh: Mesh, element_index: int, v_c: np.ndarray,
                      vbar_prev: np.ndarray | None, nu: float,
                      dt: float | None = None, body_force=None,
                      stabilize: bool = True,
                      degree: int = DEFAULT_QUADRATURE_DEGREE) -> FpElementSystem:
    """Stabilized linearized system of one element at iterate ``v_c``.

    ``stabilize=False`` drops the stabilization integral and leaves the
    plain Galerkin blocks of the linearized form (used to demonstrate
    the equal-order instability).
    """
    _check_nu(nu)
    batch = ElementBatch(mesh, triangle_quadrature(degree), np.array([element_index]))
    K, F = _fp_batched(batch, v_c, nu, dt, vbar_prev, body_force, stabilize)
    return FpElementSystem(K=K[0], F=F[0])


def fp_assemble(disc: Discretization, v_c: np.ndarray, nu: float,
                body_force=None, dt: float | None = None,
                vbar_prev: np.ndarray | None = None, stabilize: bool = True):
    """Global linearized system on the free DOFs, Dirichlet values lifted.

    Unlike the Newton path this solves for the solution values directly,
    so each element moves its prescribed values to the right-hand side
    (``F_e -= K_e g_e``) before the shared scatter.
    """
    _check_nu(nu)
    K, F = _fp_batched(disc.batch, v_c, nu, dt, vbar_prev, body_force, stabilize)
    F -= np.einsum("eab,eb->ea", K, disc.prescribed[disc.edofs])
    load = disc.global_vector(F) + disc.traction
    return disc.free_matrix(K), load[disc.free]
