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
lumping is applied.  The tensor

    A = int (b v_c . grad b + nu |grad b|^2) I + int b^2 grad v_c
        + nu int grad b (x) grad b

intentionally retains its derived form, including the rank-one viscous
coupling.  Weighting and slot operators are linear in the coarse shape
functions with element-constant coefficients, so the stabilization
integral is ``W (int b N_c N_d (x) w_b A^-1) S^T``: integrals precomputed
in ``ElementBatch`` times element-constant 2x2 products of ``A^-1`` and
``grad v_c`` through closed forms of ``W`` and ``S``; neither they nor a
per-quadrature-point tensor is formed.  As in ``vmsflow.newton`` the element
index is last: ``A`` (2, 2, E), element matrices (9, 9, E), loads (9, E).
The global system is solved, as Newton's is, for an increment on the
free DOFs: its right-hand side is its own residual at the iterate, summed
by the Newton path's ``Discretization.free_residual``.

Both strategies read one description of the iterate, Newton's
``_Fields``, checked once where it is built.  Fixed point reads only its
coarse part, so ``state.beta`` never enters these numbers, and ``A`` is
guarded by the same 2x2 singularity rule as Newton's fine-scale block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vmsflow.mesh import Mesh
# traction_vector is unused here but stays importable: the benchmark tracer
# (perfbench/spans.py) wraps vmsflow.fixed_point.traction_vector.
from vmsflow.newton import (  # noqa: F401
    Discretization,
    ElementBatch,
    State,
    _I2,
    _Fields,
    _body_force_load,
    _fields,
    _invert_fine_blocks,
    traction_vector,
)


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


@dataclass(frozen=True)
class FpElementSystem:
    """Stabilized linearized element system over (6 velocity, 3 pressure) DOFs."""

    K: np.ndarray   # (9, 9)
    F: np.ndarray   # (9,)


def _tau_batched(batch: ElementBatch, f: _Fields):
    """Fine-scale matrices A (2, 2, E), their inverses, and bubble weights (E,)
    per element, from the iterate's nodal velocities ``f.U[:3]`` and
    gradient ``f.gvbar``."""
    vel, nu = f.U[:3], f.nu
    # int b v_c . grad b + nu int |grad b|^2, then int b^2 grad v_c + nu int grad b (x) grad b
    iso = np.einsum("ake,ake->e", vel, batch.mass_gb[3, :3]) + nu * batch.stiff[3, 3]
    A = iso * _I2[..., None] + batch.mass[3, 3] * f.gvbar + nu * batch.gbgb
    Ainv, det, e = _invert_fine_blocks(A)
    if e is not None:
        h_e = float(np.sqrt(2.0 * abs(batch.detJ[e])))
        speed = float(np.linalg.norm(batch.N @ vel[..., e], axis=1).max())
        raise TauSingularError(
            f"stabilization matrix of element {int(batch.elements[e])} is singular "
            f"(|det A| = {abs(det[e]):.3e}, local Reynolds ~ {speed * h_e / nu:.3g})"
        )
    w_b = batch.mass[3, :3].sum(axis=0)
    return w_b, Ainv, A


def compute_tau(mesh: Mesh, element_index: int, v_c: np.ndarray, nu: float) -> TauTensor:
    """Stabilization tensor of one element for the iterate velocity ``v_c``."""
    batch = ElementBatch(mesh, elements=[element_index])
    state = State(v_c, np.zeros(mesh.n_nodes), np.zeros((mesh.n_triangles, 2)))
    w_b, Ainv, A = _tau_batched(batch, _fields(batch, state, nu))
    return TauTensor(w_b=float(w_b[0]), Ainv=Ainv[..., 0], A=A[..., 0])


def _weighted(adv, gvc, G, Z):
    """``sum_{c,k} W[r, c, k] Z[..., c, k]`` (9, ..., E) for Z (..., 3, 2, E), where the
    weighting operator of DOF r is ``sum_c N_c W[r, c, :]``: ``(adv_a I - N_a
    (grad v_c)^T) e_i`` for velocity DOF (a, i), ``grad N_a`` for pressure DOF a."""
    out = np.empty((9, *Z.shape[:-3], Z.shape[-1]))
    vel = out[:6].reshape(3, 2, *Z.shape[:-3], Z.shape[-1])
    np.einsum("cae,...cie->ai...e", adv, Z, out=vel)
    vel -= np.einsum("ike,...ake->ai...e", gvc, Z)
    np.einsum("cke,...ke->c...e", G, Z.sum(axis=-3), out=out[6:])
    return out


def _fp_batched(batch: ElementBatch, f: _Fields, load, stabilize: bool):
    """Element matrices (9, 9, E) and loads (9, E) of the linearized form.

    ``load`` is the body-force integral table of ``_body_force_load``.
    """
    E = len(batch.elements)
    G, M, Mb = batch.G, batch.mass[:3, :3], batch.bmass
    vel, gvc, nu, dt = f.U[:3], f.gvbar, f.nu, f.dt

    # v_c . grad N_b = sum_c N_c adv[c, b]; the known slot values (cross
    # term, previous step; the body force comes integrated) are sum_c N_c known[c].
    adv = np.einsum("cke,bke->cbe", vel, G)                   # (3, 3, E)
    known = np.einsum("cje,ije->cie", vel, gvc)               # (3, 2, E)
    if dt is not None:
        known += f.prev / dt

    if stabilize:
        # With tau(x) = b(x) T0, T0 = w_b Ainv, and Mb = int b N_c N_d the
        # integral is W (Mb (x) T0) S^T.  The slot operator of velocity DOF
        # (b, j) is (adv_b I + N_b Phi) e_j, Phi = grad v_c (+ I / dt), that of
        # pressure DOF c' grad N_c', so Y[s] = (Mb (x) T0) S[s]^T over (c, k) is
        # (Mb adv)[c, b] T0[k, j] + Mb[c, b] (T0 Phi)[k, j], or m_c (T0 grad N_c')_k
        # with m_c = sum_d Mb[c, d].
        w_b, Ainv, _ = _tau_batched(batch, f)
        T0 = w_b * Ainv
        Phi = gvc + _I2[..., None] / dt if dt is not None else gvc
        Y = np.empty((9, 3, 2, E))
        np.einsum("scbe,skje->bjcke", np.stack([np.einsum("cde,dbe->cbe", Mb, adv), Mb]),
                  np.stack([T0, np.einsum("kle,lje->kje", T0, Phi)]),
                  out=Y[:6].reshape(3, 2, 3, 2, E))
        np.multiply(Mb.sum(axis=1)[None, :, None], np.einsum("kle,cle->cke", T0, G)[:, None],
                    out=Y[6:])
        K = _weighted(adv, gvc, G, Y)
        kb = np.einsum("cde,die->cie", Mb, known)             # int b N_c (known slot)
        if load is not None:
            kb += load[4:]
        F = _weighted(adv, gvc, G, np.einsum("cle,kle->cke", kb, T0))
    else:
        K, F = np.zeros((9, 9, E)), np.zeros((9, E))

    # Galerkin blocks: K[(a, i), (b, j)] = delta_ij scal_ab + M_ab grad v_c_ij.
    scal = np.einsum("ace,cbe->abe", M, adv) + nu * batch.stiff[:3, :3]
    if dt is not None:
        scal += M / dt
    Kvv = K[:6, :6].reshape(3, 2, 3, 2, E)
    Kvv += M[:, None, :, None] * gvc[None, :, None]
    Kvv[:, 0, :, 0] += scal
    Kvv[:, 1, :, 1] += scal
    K[:6, 6:] += batch.div[:6]
    K[6:, :6] -= batch.div[:6].transpose(1, 0, 2)
    F[:6] += np.einsum("ace,cie->aie", M, known).reshape(6, E)
    if load is not None:
        F[:6] += load[:3].reshape(6, E)
    return K, F


def fp_element_system(mesh: Mesh, element_index: int, v_c: np.ndarray,
                      vbar_prev: np.ndarray | None, nu: float,
                      dt: float | None = None, body_force=None,
                      stabilize: bool = True) -> FpElementSystem:
    """Stabilized linearized system of one element at iterate ``v_c``.

    ``stabilize=False`` drops the stabilization integral and leaves the
    plain Galerkin blocks of the linearized form (used to demonstrate
    the equal-order instability).
    """
    batch = ElementBatch(mesh, elements=[element_index])
    state = State(v_c, np.zeros(mesh.n_nodes), np.zeros((mesh.n_triangles, 2)), vbar_prev, dt)
    K, F = _fp_batched(batch, _fields(batch, state, nu), _body_force_load(batch, body_force),
                       stabilize)
    return FpElementSystem(K=K[..., 0], F=F[:, 0])


def fp_assemble(disc: Discretization, state: State, nu: float):
    """Global stabilized linearized system at ``state`` on the free DOFs, for an increment.

    The iterate is the coarse part of ``state`` (``vbar``, and ``dt`` with
    ``vbar_prev``, read as Newton's ``assemble_system`` reads them) and the
    body force ``disc.load``.  The right-hand side is the system's own
    residual at the iterate, ``-(sum_e (K_e v_e - F_e) - traction)`` on the
    free DOFs, with ``v_e`` the element values of ``state`` (prescribed
    ones included), so it vanishes at the scheme's fixed point.
    """
    f = _fields(disc.batch, state, nu)
    K, F = _fp_batched(disc.batch, f, disc.load, True)
    R = np.einsum("rse,se->re", K, np.concatenate([f.U[:3].reshape(6, -1), f.p])) - F
    return disc.free_matrix(K), -disc.free_residual(R)
