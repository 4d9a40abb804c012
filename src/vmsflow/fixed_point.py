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
``grad v_c``; no per-quadrature-point tensor is formed.
Global systems lift prescribed values element by element (``F_e -= K_e
g_e``) and share the Newton path's ``Discretization`` scatter.

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
    _kron,
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

    def at(self, bubble_value: float) -> np.ndarray:
        return bubble_value * self.w_b * self.Ainv


@dataclass(frozen=True)
class FpElementSystem:
    """Stabilized linearized element system over (6 velocity, 3 pressure) DOFs."""

    K: np.ndarray   # (9, 9)
    F: np.ndarray   # (9,)


def _tau_batched(batch: ElementBatch, f: _Fields):
    """Fine-scale matrices A, their inverses, and bubble weights per element,
    from the iterate's nodal velocities ``f.U[:, :3]`` and gradient ``f.gvbar``."""
    vel, nu = f.U[:, :3], f.nu
    # int b v_c . grad b + nu int |grad b|^2, then int b^2 grad v_c + nu int grad b (x) grad b
    iso = (vel * batch.mass_gb[:, 3, :3]).sum(axis=(1, 2)) + nu * batch.stiff[:, 3, 3]
    A = iso[:, None, None] * _I2 + batch.mass[:, 3, 3, None, None] * f.gvbar + nu * batch.gbgb
    Ainv, det, e = _invert_fine_blocks(A)
    if e is not None:
        h_e = float(np.sqrt(2.0 * abs(batch.detJ[e])))
        speed = float(np.linalg.norm(batch.N @ vel[e], axis=1).max())
        raise TauSingularError(
            f"stabilization matrix of element {int(batch.elements[e])} is singular "
            f"(|det A| = {abs(det[e]):.3e}, local Reynolds ~ {speed * h_e / nu:.3g})"
        )
    w_b = batch.mass[:, 3, :3].sum(axis=1)
    return w_b, Ainv, A


def compute_tau(mesh: Mesh, element_index: int, v_c: np.ndarray, nu: float) -> TauTensor:
    """Stabilization tensor of one element for the iterate velocity ``v_c``."""
    batch = ElementBatch(mesh, elements=[element_index])
    state = State(v_c, np.zeros(mesh.n_nodes), np.zeros((mesh.n_triangles, 2)))
    w_b, Ainv, A = _tau_batched(batch, _fields(batch, state, nu))
    return TauTensor(w_b=float(w_b[0]), Ainv=Ainv[0], A=A[0])


def _fp_batched(batch: ElementBatch, f: _Fields, load, stabilize: bool):
    """Element matrices (E, 9, 9) and loads (E, 9) of the linearized form.

    ``load`` is the body-force integral table of ``_body_force_load``.
    """
    E = len(batch.elements)
    G, M = batch.G, batch.mass[:, :3, :3]
    I2 = np.broadcast_to(_I2, (E, 2, 2))
    vel, gvc, nu, dt = f.U[:, :3], f.gvbar, f.nu, f.dt
    w_b, Ainv, _ = _tau_batched(batch, f)

    # v_c . grad N_b = sum_c N_c adv[c, b]; the known slot values (cross
    # term, previous step; the body force comes integrated) are sum_c N_c known[c].
    adv = np.matmul(vel, G.transpose(0, 2, 1))                # (E, 3, 3)
    known = np.matmul(vel, gvc.transpose(0, 2, 1))            # (E, 3, 2)
    if dt is not None:
        known += f.prev / dt

    # Galerkin blocks of the linearized form.
    scal = np.matmul(M, adv) + nu * batch.stiff[:, :3, :3]
    if dt is not None:
        scal += M / dt
    K = np.zeros((E, 9, 9))
    K[:, :6, :6] = _kron(np.stack([scal, M], axis=1), np.stack([I2, gvc], axis=1))
    K[:, :6, 6:] = batch.div[:, :6]
    K[:, 6:, :6] = -batch.div[:, :6].transpose(0, 2, 1)
    F = np.zeros((E, 9))
    F[:, :6] = np.matmul(M, known).reshape(E, 6)
    if load is not None:
        F[:, :6] += load[:, :3].reshape(E, 6)

    if stabilize:
        # Row r of W (S) holds the nodal coefficients of the weighting
        # (slot) operator of DOF r: operator(x) = sum_c N_c(x) row[c, :].
        # Velocity tests give (adv_a I - N_a (grad v_c)^T) e_i, velocity
        # trials (adv_b I + N_b Phi) e_j with Phi = grad v_c (+ I / dt),
        # pressure DOFs grad N_a.  With tau(x) = b(x) w_b Ainv every
        # stabilization sum is int b N_c N_d times T0 = w_b Ainv.
        T0 = w_b[:, None, None] * Ainv
        Phi = gvc + _I2 / dt if dt is not None else gvc
        pair = np.stack([adv.transpose(0, 2, 1), np.broadcast_to(np.eye(3), adv.shape)],
                        axis=1)
        grad = np.broadcast_to(G[:, :, None, :], (E, 3, 3, 2)).reshape(E, 3, 6)
        W = np.concatenate([_kron(pair, np.stack([I2, -gvc], axis=1)), grad], axis=1)
        S = np.concatenate([_kron(pair, np.stack([I2, Phi.transpose(0, 2, 1)], axis=1)),
                            grad], axis=1)                     # (E, 9, 6)
        Mb = batch.bmass
        K += W @ _kron(Mb[:, None], T0[:, None]) @ S.transpose(0, 2, 1)
        kb = np.matmul(Mb, known)                              # int b N_c (known slot)
        if load is not None:
            kb += load[:, 4:]
        F += np.matmul(W, np.matmul(kb, T0.transpose(0, 2, 1)).reshape(E, 6, 1))[..., 0]
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
    return FpElementSystem(K=K[0], F=F[0])


def fp_assemble(disc: Discretization, state: State, nu: float, stabilize: bool = True):
    """Global linearized system at ``state`` on the free DOFs, Dirichlet values lifted.

    The iterate is the coarse part of ``state`` (``vbar``, and ``dt`` with
    ``vbar_prev``, read as Newton's ``assemble_system`` reads them) and the
    body force ``disc.load``.  Unlike the Newton path this solves for the
    solution values directly, so each element moves its prescribed values
    to the right-hand side (``F_e -= K_e g_e``) before the shared scatter.
    """
    K, F = _fp_batched(disc.batch, _fields(disc.batch, state, nu), disc.load, stabilize)
    F -= np.matmul(K, disc.dofmap.prescribed[disc.edofs][..., None])[..., 0]
    load = disc.global_vector(F) + disc.traction
    return disc.free_matrix(K), load[disc.free]
