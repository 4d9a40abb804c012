"""Element residuals, consistent tangent blocks, and static condensation.

The discrete unknowns are nodal velocities, nodal pressures, and two
fine-scale coefficients per element carried by the cubic bubble.  The
momentum weak form uses the convective term in advective form, the
viscous term ``nu * (grad w, grad v)``, and the pressure term
``-(div w, p)``; the continuity residual is ``-(q, div v)``.  Transient
runs add backward-Euler acceleration of the coarse velocity to both the
coarse and fine momentum residuals.

All tangent blocks are the exact derivatives of the residuals as
implemented (central finite differences are the arbiter in the test
suite), which fixes every sign unambiguously.  ``Kpp`` is identically
zero.  The production path eliminates the fine-scale pair on each
element by a Schur complement before global assembly; the full 11x11
element system exists only as a verification oracle in the tests.
Both strategies assemble through the one set-up of a solve,
``Discretization``; ``residual_norm`` evaluates the residual alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from vmsflow.fem import (
    DN_REF,
    DegenerateElementError,
    QuadratureRule,
    inv2,
    triangle_quadrature,
)
from vmsflow.mesh import BoundaryConditions, DofMap, Mesh

DEFAULT_QUADRATURE_DEGREE = 8

_I2 = np.eye(2)


class FineScaleSingularError(RuntimeError):
    """Raised when an element's fine-scale block cannot be inverted."""


@dataclass
class State:
    """Nodal and element-local unknowns of one solve.

    ``vbar`` is (n_nodes, 2), ``p`` is (n_nodes,), ``beta`` is
    (n_elements, 2).  ``vbar_prev`` and ``dt`` are present together for
    transient runs and absent for steady ones.
    """

    vbar: np.ndarray
    p: np.ndarray
    beta: np.ndarray
    vbar_prev: np.ndarray | None = None
    dt: float | None = None

    @classmethod
    def zeros(cls, mesh: Mesh, dt: float | None = None,
              vbar_prev: np.ndarray | None = None) -> "State":
        s = cls(
            vbar=np.zeros((mesh.n_nodes, 2)),
            p=np.zeros(mesh.n_nodes),
            beta=np.zeros((mesh.n_triangles, 2)),
            dt=dt,
        )
        if dt is not None:
            s.vbar_prev = np.zeros((mesh.n_nodes, 2)) if vbar_prev is None else vbar_prev.copy()
        return s

    def copy(self) -> "State":
        return State(
            vbar=self.vbar.copy(),
            p=self.p.copy(),
            beta=self.beta.copy(),
            vbar_prev=None if self.vbar_prev is None else self.vbar_prev.copy(),
            dt=self.dt,
        )

    def digest(self) -> bytes:
        h = hashlib.sha1()
        h.update(self.vbar.tobytes())
        h.update(self.p.tobytes())
        h.update(self.beta.tobytes())
        if self.vbar_prev is not None:
            h.update(self.vbar_prev.tobytes())
        h.update(repr(self.dt).encode())
        return h.digest()


@dataclass(frozen=True)
class ElementResiduals:
    Rc: np.ndarray   # (6,) node-major interleaved
    Rp: np.ndarray   # (3,)
    Rf: np.ndarray   # (2,)


@dataclass(frozen=True)
class ElementTangent:
    Kcc: np.ndarray  # (6, 6)
    Kcp: np.ndarray  # (6, 3)
    Kcf: np.ndarray  # (6, 2)
    Kpc: np.ndarray  # (3, 6)
    Kpf: np.ndarray  # (3, 2)
    Kfc: np.ndarray  # (2, 6)
    Kfp: np.ndarray  # (2, 3)
    Kff: np.ndarray  # (2, 2)


@dataclass(frozen=True)
class CondensedElement:
    """Schur complement of one element over its (velocity, pressure) DOFs.

    ``K_hat = [Kcc Kcp; Kpc 0] - [Kcf; Kpf] Kff^-1 [Kfc Kfp]`` and
    ``R_hat`` likewise; the stored blocks allow the fine-scale update to
    be recovered after the condensed solve.
    """

    K_hat: np.ndarray   # (9, 9)
    R_hat: np.ndarray   # (9,)
    Kff_inv: np.ndarray  # (2, 2)
    Kfc: np.ndarray     # (2, 6)
    Kfp: np.ndarray     # (2, 3)
    Rf: np.ndarray      # (2,)


class ElementBatch:
    """Geometry and basis tables for a set of elements at the quadrature points.

    Everything held here is state-independent; residual and tangent
    evaluation reuses one batch across nonlinear iterations.
    """

    def __init__(self, mesh: Mesh, rule: QuadratureRule | None = None,
                 elements: np.ndarray | None = None):
        if rule is None:
            rule = triangle_quadrature(DEFAULT_QUADRATURE_DEGREE)
        self.elements = (
            np.arange(mesh.n_triangles) if elements is None
            else np.atleast_1d(np.asarray(elements, dtype=np.int64))
        )
        tris = mesh.triangles[self.elements]
        self.tris = tris
        coords = mesh.node_coords[tris]                      # (E, 3, 2)
        J = np.einsum("eai,aj->eij", coords, DN_REF)
        Jinv, detJ = inv2(J)
        if np.any(detJ <= 1e-14):
            bad = int(self.elements[np.argmin(detJ)])
            raise DegenerateElementError(
                f"triangle (element {bad}) is degenerate or negatively "
                f"oriented: detJ = {detJ.min():.3e}"
            )

        pts = rule.points
        x1, x2 = pts[:, 0], pts[:, 1]
        x3 = 1.0 - x1 - x2
        self.N = np.column_stack([x1, x2, x3])               # (Q, 3)
        self.bq = x1 * x2 * x3                               # (Q,)
        dbref = np.column_stack([x2 * (x3 - x1), x1 * (x3 - x2)])

        self.detJ = detJ
        self.G = np.einsum("ak,ekj->eaj", DN_REF, Jinv)      # (E, 3, 2)
        self.gb = np.einsum("qk,ekj->eqj", dbref, Jinv)      # (E, Q, 2)
        self.wd = detJ[:, None] * rule.weights[None, :]      # (E, Q)
        self.xq = np.einsum("qa,eai->eqi", self.N, coords)   # (E, Q, 2)
        self.NN = self.N[:, :, None] * self.N[:, None, :]    # (Q, 3, 3)


def _eval_body_force(body_force, xq: np.ndarray) -> np.ndarray:
    if body_force is None:
        return np.zeros_like(xq)
    out = np.asarray(body_force(xq), dtype=float)
    if out.shape != xq.shape:
        raise ValueError(
            f"body force returned shape {out.shape} for points of shape {xq.shape}"
        )
    if not np.all(np.isfinite(out)):
        name = getattr(body_force, "__name__", repr(body_force))
        raise ValueError(f"body force {name} is not finite at every quadrature point")
    return out


def _check_nu(nu: float) -> None:
    if nu <= 0:
        raise ValueError(f"kinematic viscosity must be positive, got {nu}")


def _check_transient(state: State) -> None:
    if state.dt is not None:
        if state.dt <= 0:
            raise ValueError(f"time step must be positive, got {state.dt}")
        if state.vbar_prev is None:
            raise ValueError("transient state needs vbar_prev alongside dt")


@dataclass
class _Fields:
    """State-dependent quantities at the quadrature points of a batch."""

    u: np.ndarray        # (E, Q, 2) total velocity
    gu: np.ndarray       # (E, Q, 2, 2) its gradient
    div: np.ndarray      # (E, Q) its divergence
    conv: np.ndarray     # (E, Q, 2) (u . grad) u
    pq: np.ndarray       # (E, Q) pressure
    acc: np.ndarray | None  # (E, Q, 2) backward-Euler coarse acceleration


def _fields(batch: ElementBatch, state: State) -> _Fields:
    _check_transient(state)
    vel = state.vbar[batch.tris]                             # (E, 3, 2)
    beta = state.beta[batch.elements]                        # (E, 2)
    vq = np.einsum("qa,eai->eqi", batch.N, vel)
    gvbar = np.einsum("eai,eaj->eij", vel, batch.G)
    u = vq + batch.bq[None, :, None] * beta[:, None, :]
    gu = gvbar[:, None, :, :] + np.einsum("ei,eqj->eqij", beta, batch.gb)
    div = np.trace(gvbar, axis1=1, axis2=2)[:, None] + np.einsum(
        "ei,eqi->eq", beta, batch.gb
    )
    conv = np.einsum("eqij,eqj->eqi", gu, u)
    pq = np.einsum("qa,ea->eq", batch.N, state.p[batch.tris])
    acc = None
    if state.dt is not None:
        vprevq = np.einsum("qa,eai->eqi", batch.N, state.vbar_prev[batch.tris])
        acc = (vq - vprevq) / state.dt
    return _Fields(u=u, gu=gu, div=div, conv=conv, pq=pq, acc=acc)


def _residuals_batched(batch: ElementBatch, state: State, nu: float, body_force):
    """Residual blocks for every element in the batch.

    Returns ``Rc`` (E, 6), ``Rp`` (E, 3), ``Rf`` (E, 2).  Boundary
    traction is not an element-interior term; the global assembly adds
    it on the tagged edges.
    """
    f = _fields(batch, state)
    bf = _eval_body_force(body_force, batch.xq)
    core = f.conv - bf
    if f.acc is not None:
        core = core + f.acc
    wd, N, G, gb, bq = batch.wd, batch.N, batch.G, batch.gb, batch.bq

    Rc = np.einsum("eq,qa,eqi->eai", wd, N, core)
    Rc += nu * np.einsum("eq,eaj,eqij->eai", wd, G, f.gu)
    Rc -= np.einsum("eq,eai,eq->eai", wd, G, f.pq)
    Rp = -np.einsum("eq,qa,eq->ea", wd, N, f.div)
    Rf = np.einsum("eq,q,eqi->ei", wd, bq, core)
    Rf += nu * np.einsum("eq,eqj,eqij->ei", wd, gb, f.gu)
    Rf -= np.einsum("eq,eqi,eq->ei", wd, gb, f.pq)
    return Rc.reshape(len(batch.elements), 6), Rp, Rf


def _tangent_batched(batch: ElementBatch, state: State, nu: float):
    """All eight nonzero tangent blocks for every element in the batch."""
    f = _fields(batch, state)
    E = len(batch.elements)
    wd, N, NN, G, gb, bq = batch.wd, batch.N, batch.NN, batch.G, batch.gb, batch.bq

    adv = np.einsum("eqk,ebk->eqb", f.u, G)        # u . grad N_b
    gbG = np.einsum("eqk,ebk->eqb", gb, G)         # grad b . grad N_b
    gbu = np.einsum("eqk,eqk->eq", gb, f.u)        # grad b . u
    gb2 = np.einsum("eqk,eqk->eq", gb, gb)         # |grad b|^2

    scal = np.einsum("eq,qa,eqb->eab", wd, N, adv)
    scal += nu * np.einsum("eq,eak,ebk->eab", wd, G, G)
    if state.dt is not None:
        scal += np.einsum("eq,qab->eab", wd, NN) / state.dt
    Kcc = np.einsum("eab,ij->eaibj", scal, _I2)
    Kcc += np.einsum("eq,qab,eqij->eaibj", wd, NN, f.gu)
    Kcc = Kcc.reshape(E, 6, 6)

    Kcp = -np.einsum("eq,eai,qb->eaib", wd, G, N).reshape(E, 6, 3)
    Kpc = -np.einsum("eq,qa,ebj->eabj", wd, N, G).reshape(E, 3, 6)

    kcf_scal = np.einsum("eq,qa,eq->ea", wd, N, gbu)
    kcf_scal += nu * np.einsum("eq,eak,eqk->ea", wd, G, gb)
    Kcf = np.einsum("ea,im->eaim", kcf_scal, _I2)
    Kcf += np.einsum("eq,qa,q,eqim->eaim", wd, N, bq, f.gu)
    Kcf = Kcf.reshape(E, 6, 2)

    Kpf = -np.einsum("eq,qa,eqm->eam", wd, N, gb)

    kfc_scal = np.einsum("eq,q,eqb->eb", wd, bq, adv)
    kfc_scal += nu * np.einsum("eq,eqb->eb", wd, gbG)
    if state.dt is not None:
        kfc_scal += np.einsum("eq,q,qb->eb", wd, bq, N) / state.dt
    Kfc = np.einsum("eb,ij->eibj", kfc_scal, _I2)
    Kfc += np.einsum("eq,q,qb,eqij->eibj", wd, bq, N, f.gu)
    Kfc = Kfc.reshape(E, 2, 6)

    Kfp = -np.einsum("eq,eqi,qb->eib", wd, gb, N)

    kff_scal = np.einsum("eq,q,eq->e", wd, bq, gbu)
    kff_scal += nu * np.einsum("eq,eq->e", wd, gb2)
    Kff = np.einsum("e,im->eim", kff_scal, _I2)
    Kff += np.einsum("eq,q,q,eqim->eim", wd, bq, bq, f.gu)

    return {
        "Kcc": Kcc, "Kcp": Kcp, "Kcf": Kcf, "Kpc": Kpc,
        "Kpf": Kpf, "Kfc": Kfc, "Kfp": Kfp, "Kff": Kff,
    }


def _invert_fine_blocks(Kff: np.ndarray, elements: np.ndarray) -> np.ndarray:
    inv, det = inv2(Kff)
    scale = np.einsum("eij,eij->e", Kff, Kff)  # squared Frobenius norm
    bad = np.abs(det) <= 1e-14 * scale
    if np.any(bad):
        which = int(elements[np.argmax(bad)])
        raise FineScaleSingularError(
            f"fine-scale block of element {which} is numerically singular "
            f"(|det| = {abs(det[np.argmax(bad)]):.3e})"
        )
    return inv


def _condense_batched(Rc, Rp, Rf, blocks, elements):
    E = Rc.shape[0]
    Kff_inv = _invert_fine_blocks(blocks["Kff"], elements)
    B = np.concatenate([blocks["Kcf"], blocks["Kpf"]], axis=1)        # (E, 9, 2)
    C = np.concatenate([blocks["Kfc"], blocks["Kfp"]], axis=2)        # (E, 2, 9)
    K = np.zeros((E, 9, 9))
    K[:, :6, :6] = blocks["Kcc"]
    K[:, :6, 6:] = blocks["Kcp"]
    K[:, 6:, :6] = blocks["Kpc"]
    K -= np.einsum("eam,emn,enb->eab", B, Kff_inv, C)
    R = np.concatenate([Rc, Rp], axis=1)
    R -= np.einsum("eam,emn,en->ea", B, Kff_inv, Rf)
    return K, R, Kff_inv


def element_residuals(mesh: Mesh, element_index: int, state: State, nu: float,
                      body_force=None, degree: int = DEFAULT_QUADRATURE_DEGREE
                      ) -> ElementResiduals:
    """Residual blocks of one element (volume terms; traction handled globally)."""
    _check_nu(nu)
    batch = ElementBatch(mesh, triangle_quadrature(degree), np.array([element_index]))
    Rc, Rp, Rf = _residuals_batched(batch, state, nu, body_force)
    return ElementResiduals(Rc=Rc[0], Rp=Rp[0], Rf=Rf[0])


def element_tangent(mesh: Mesh, element_index: int, state: State, nu: float,
                    degree: int = DEFAULT_QUADRATURE_DEGREE) -> ElementTangent:
    """The eight nonzero consistent tangent blocks of one element."""
    _check_nu(nu)
    batch = ElementBatch(mesh, triangle_quadrature(degree), np.array([element_index]))
    blocks = _tangent_batched(batch, state, nu)
    return ElementTangent(**{k: v[0] for k, v in blocks.items()})


def condense(res: ElementResiduals, tan: ElementTangent,
             element_index: int = 0) -> CondensedElement:
    """Eliminate the fine-scale pair of one element by a Schur complement."""
    blocks = {k: getattr(tan, k)[None] for k in
              ("Kcc", "Kcp", "Kcf", "Kpc", "Kpf", "Kfc", "Kfp", "Kff")}
    K, R, Kff_inv = _condense_batched(
        res.Rc[None], res.Rp[None], res.Rf[None], blocks,
        np.array([element_index]),
    )
    return CondensedElement(
        K_hat=K[0], R_hat=R[0], Kff_inv=Kff_inv[0],
        Kfc=tan.Kfc.copy(), Kfp=tan.Kfp.copy(), Rf=res.Rf.copy(),
    )


def recover_fine_scale(condensed: CondensedElement, delta_v: np.ndarray,
                       delta_p: np.ndarray) -> np.ndarray:
    """Fine-scale increment of one element after the condensed solve."""
    rhs = condensed.Rf + condensed.Kfc @ delta_v + condensed.Kfp @ delta_p
    return -condensed.Kff_inv @ rhs


def element_dofs(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Global (velocity, pressure) DOF indices per element, shape (E, 9)."""
    tris = mesh.triangles
    vd = (2 * tris[:, :, None] + np.array([0, 1])).reshape(-1, 6)
    pd = 2 * dofmap.n_nodes + tris
    return np.concatenate([vd, pd], axis=1)


def traction_vector(mesh: Mesh, dofmap: DofMap, bc: BoundaryConditions) -> np.ndarray:
    """Assembled boundary-traction load, two-point Gauss per tagged edge.

    Entry (node a, comp i) receives the integral of N_a * h_i over the
    Neumann edges touching node a; zero-traction tags contribute nothing.
    """
    load = np.zeros(dofmap.total)
    g = 1.0 / (2.0 * np.sqrt(3.0))
    t_pts = np.array([0.5 - g, 0.5 + g])
    t_wts = np.array([0.5, 0.5])
    for tag, func in bc.neumann.items():
        if func is None:
            continue
        for a, b in mesh.edges_with_tag(tag):
            pa, pb = mesh.node_coords[a], mesh.node_coords[b]
            length = float(np.hypot(*(pb - pa)))
            pts = pa[None, :] + t_pts[:, None] * (pb - pa)[None, :]
            hvals = np.asarray(func(pts), dtype=float)
            wa = t_wts * (1.0 - t_pts) * length
            wb = t_wts * t_pts * length
            for comp in range(2):
                load[2 * a + comp] += float(wa @ hvals[:, comp])
                load[2 * b + comp] += float(wb @ hvals[:, comp])
    return load


class Discretization:
    """State-independent set-up shared by every iteration, rung and time step.

    Element tables and DOFs, the traction load, the prescribed value of
    every global DOF (zero where free), and the free-DOF CSR pattern with
    the slot of every element-matrix entry, filled by ``np.bincount``.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, bc: BoundaryConditions):
        self.mesh = mesh
        self.dofmap = dofmap
        self.batch = ElementBatch(mesh)
        self.edofs = element_dofs(mesh, dofmap)
        self.traction = traction_vector(mesh, dofmap, bc)
        idx, vals = dofmap.constrained_values()
        self.prescribed = np.zeros(dofmap.total)
        self.prescribed[idx] = vals
        self.free = dofmap.free

        # Row-major keys of the free-by-free element entries: their sorted
        # unique values are the CSR order, and the inverse is each entry's slot.
        n_free = self.free.size
        position = np.full(dofmap.total, -1, dtype=np.int64)
        position[self.free] = np.arange(n_free)
        local = position[self.edofs]                                  # (E, 9)
        rows = np.repeat(local, 9, axis=1).ravel()
        cols = np.tile(local, (1, 9)).ravel()
        self._kept = (rows >= 0) & (cols >= 0)
        keys, self._slot = np.unique(
            rows[self._kept] * n_free + cols[self._kept], return_inverse=True
        )
        self._indices = keys % n_free
        self._indptr = np.searchsorted(keys, np.arange(n_free + 1) * n_free)

    def free_matrix(self, K: np.ndarray) -> sp.csr_matrix:
        """Sum element matrices (E, 9, 9) into the free-DOF CSR matrix."""
        data = np.bincount(self._slot, weights=K.reshape(-1)[self._kept],
                           minlength=self._indices.size)
        n_free = self.free.size
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(n_free, n_free))

    def global_vector(self, F: np.ndarray) -> np.ndarray:
        """Sum element vectors (E, 9) over all global (v, p) DOFs."""
        return np.bincount(self.edofs.ravel(), weights=F.ravel(),
                           minlength=self.dofmap.total)


@dataclass
class NewtonSystem:
    """One assembled linearization: condensed matrix, residuals, recovery data."""

    matrix: sp.csr_matrix          # condensed tangent on free (v, p) DOFs
    rhs: np.ndarray                # -R_hat on free DOFs
    residual_norm: float           # 2-norm of [assembled Rc; Rp; all Rf]
    Rf: np.ndarray                 # (E, 2)
    edofs: np.ndarray              # (E, 9)
    Kff_inv: np.ndarray            # (E, 2, 2)
    coupling: np.ndarray           # (E, 2, 9) = [Kfc Kfp]
    state_digest: bytes = b""

    def recover_beta(self, state: State, delta_full: np.ndarray) -> np.ndarray:
        """Fine-scale increments for a global (v, p) increment vector.

        Raises if the state was modified after assembly: the stored
        condensation data would then belong to a different linearization.
        """
        if state.digest() != self.state_digest:
            raise RuntimeError(
                "stale condensation data: state changed since assembly"
            )
        d9 = delta_full[self.edofs]                           # (E, 9)
        rhs = self.Rf + np.einsum("emb,eb->em", self.coupling, d9)
        return -np.einsum("emn,en->em", self.Kff_inv, rhs)


def _norm_of(disc: Discretization, Rc, Rp, Rf) -> float:
    residual_vp = disc.global_vector(np.concatenate([Rc, Rp], axis=1)) - disc.traction
    return float(np.sqrt(np.sum(residual_vp[disc.free] ** 2) + np.sum(Rf**2)))


def residual_norm(disc: Discretization, state: State, nu: float,
                  body_force=None) -> float:
    """2-norm of the monolithic nonlinear residual at ``state``.

    Assembled coarse momentum and continuity over the free DOFs (traction
    included) plus every element's fine-scale residual; no tangent is built.
    """
    _check_nu(nu)
    return _norm_of(disc, *_residuals_batched(disc.batch, state, nu, body_force))


def assemble_system(disc: Discretization, state: State, nu: float,
                    body_force=None) -> NewtonSystem:
    """Assemble the condensed Newton system over the unconstrained DOFs.

    Dirichlet increments are eliminated (the state itself carries the
    boundary values), so the right-hand side is ``-R_hat`` on free DOFs.
    """
    _check_nu(nu)
    batch = disc.batch
    Rc, Rp, Rf = _residuals_batched(batch, state, nu, body_force)
    blocks = _tangent_batched(batch, state, nu)
    K_hat, R_hat, Kff_inv = _condense_batched(Rc, Rp, Rf, blocks, batch.elements)
    residual_hat = disc.global_vector(R_hat) - disc.traction
    return NewtonSystem(
        matrix=disc.free_matrix(K_hat),
        rhs=-residual_hat[disc.free],
        residual_norm=_norm_of(disc, Rc, Rp, Rf),
        Rf=Rf,
        edofs=disc.edofs,
        Kff_inv=Kff_inv,
        coupling=np.concatenate([blocks["Kfc"], blocks["Kfp"]], axis=2),
        state_digest=state.digest(),
    )
