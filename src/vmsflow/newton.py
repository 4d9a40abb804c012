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
``Discretization``; ``assemble_system`` evaluates the residual at once
and the condensed linearization only when it is first read.

Every state-independent integral is computed once, in ``ElementBatch``:
mass and stiffness over the three coarse functions and the bubble
(``Nb_A``), ``int Nb_A Nb_B grad b``, ``int b N_a N_b``, ``int grad b
(x) grad b`` and the pressure coupling; ``Discretization`` integrates the
body force once per set-up.  The total velocity is ``sum_A Nb_A U_A``
with an element-constant coarse gradient, so residual and tangent are
``np.einsum`` contractions and broadcasts of those tables with the
element unknowns, which ``nu`` and ``1/dt`` only scale; no kernel
revisits the quadrature points.  Every per-element array (tables, load,
``_Fields``, kernel outputs such as ``Rvp`` (9, E) or ``Kcc`` (6, 6, E))
is C-contiguous with the element index last, so each numpy call runs over
the small leading axes with rows of E elements inside, and the per-element
views read ``[..., 0]`` of a one-element batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from vmsflow.fem import DN_REF, inv2, triangle_quadrature
from vmsflow.mesh import (
    BAND_LIMIT,
    BoundaryConditions,
    DofMap,
    Mesh,
    checked_values,
    elimination_order,
)

QUADRATURE_DEGREE = 8     # exact for b * b * grad b, the highest-degree table product

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
    def zeros(cls, mesh: Mesh) -> "State":
        return cls(
            vbar=np.zeros((mesh.n_nodes, 2)),
            p=np.zeros(mesh.n_nodes),
            beta=np.zeros((mesh.n_triangles, 2)),
        )

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
    ``R_hat`` likewise; ``Kff_inv``, ``Kff_inv_coupling`` and ``Rf`` are
    what ``recover_fine_scale`` reads after the condensed solve.
    """

    K_hat: np.ndarray             # (9, 9)
    R_hat: np.ndarray             # (9,)
    Kff_inv: np.ndarray           # (2, 2)
    Kff_inv_coupling: np.ndarray  # (2, 9) = Kff^-1 [Kfc Kfp]
    Rf: np.ndarray                # (2,)


class ElementBatch:
    """Geometry, basis and integral tables for a set of elements.

    Everything held here is state-independent, built once per set-up and
    read-only.  The element integrals of products of the coarse functions
    ``N_a``, the bubble ``b`` and their gradients are reference-element
    quadrature sums scaled by ``detJ`` and mapped by ``Jinv``, each table
    C-contiguous with the element index last; the kernels combine them
    with the element unknowns and never revisit the quadrature points.
    Index ``A`` runs over the three coarse functions and then the bubble.
    Only the body-force load and the error norms read the physical
    quadrature points ``xq`` and weights ``wd`` (element-first), so those
    are built on each use rather than held through a solve.
    """

    def __init__(self, mesh: Mesh, elements: np.ndarray | None = None):
        self.elements = (
            np.arange(mesh.n_triangles) if elements is None
            else np.array(elements, dtype=np.int64, ndmin=1)
        )
        tris = mesh.triangles[self.elements]
        self.tris = tris
        self.tris_t = np.ascontiguousarray(tris.T)           # (3, E): gathers come out (3, ..., E)
        coords = mesh.node_coords.take(tris, axis=0)         # (E, 3, 2)
        J = np.einsum("eai,ak->ike", coords, DN_REF)         # (2, 2, E)
        Jinv, detJ = inv2(J)       # detJ = 2 * area > 2e-12: Mesh rejects smaller areas

        rule = triangle_quadrature(QUADRATURE_DEGREE)
        pts, w = rule.points, rule.weights
        x1, x2 = pts[:, 0], pts[:, 1]
        x3 = 1.0 - x1 - x2
        self.N = np.column_stack([x1, x2, x3])               # (Q, 3)
        self.bq = x1 * x2 * x3                               # (Q,)
        dbref = np.column_stack([x2 * (x3 - x1), x1 * (x3 - x2)])

        self.detJ = detJ
        self.G = np.einsum("am,mke->ake", DN_REF, Jinv)      # (3, 2, E)
        self._coords, self._w = coords, w

        # Reference integrals of the four functions (values Nb, reference
        # gradients dNb) against the rule's weights.
        Nb = np.column_stack([self.N, self.bq])              # (Q, 4)
        dNb = np.concatenate(
            [np.broadcast_to(DN_REF, (w.size, 3, 2)), dbref[:, None, :]], axis=1
        )                                                    # (Q, 4, 2)
        wNb = w[:, None] * Nb
        mass = wNb.T @ Nb                                    # int Nb_A Nb_B
        bmass = (wNb[:, :3] * self.bq[:, None]).T @ self.N   # int b N_a N_b
        mass_db = np.einsum("qA,qB,qk->ABk", wNb, Nb, dbref)  # int Nb_A Nb_B dbref
        stiff = np.einsum("q,qAk,qBl->ABkl", w, dNb, dNb)    # int dNb_A (x) dNb_B
        grad_N = np.einsum("q,qAk,qc->Akc", w, dNb, self.N)   # int dNb_A N_c

        JJt = np.einsum("kme,lme->kle", Jinv, Jinv)
        self.mass = mass[..., None] * detJ                   # (4, 4, E)
        self.bmass = bmass[..., None] * detJ                 # (3, 3, E)
        self.mass_gb = detJ * np.einsum("ABm,mke->ABke", mass_db, Jinv)  # (4, 4, 2, E)
        self.stiff = detJ * np.einsum("ABkl,kle->ABe", stiff, JJt)       # (4, 4, E)
        self.gbgb = detJ * np.einsum("kie,kl,lje->ije", Jinv, stiff[3, 3], Jinv)  # (2, 2, E)
        # Pressure coupling: entry ((A, i), c) is -int d_i(Nb_A) N_c.  It is
        # [Kcp; Kfp], its transpose is [Kpc Kpf], and the continuity
        # residual is its transpose applied to the velocity coefficients.
        self.div = -detJ * np.einsum("kie,Akc->Aice", Jinv, grad_N).reshape(8, 3, -1)  # (8, 3, E)
        for array in vars(self).values():
            array.flags.writeable = False

    @property
    def wd(self) -> np.ndarray:
        """(E, Q) rule weights times ``detJ``, built on every use."""
        return self.detJ[:, None] * self._w[None, :]

    @property
    def xq(self) -> np.ndarray:
        """(E, Q, 2) physical quadrature points, built on every use."""
        return np.matmul(self.N, self._coords)


def _body_force_load(batch: ElementBatch, body_force) -> np.ndarray | None:
    """Element integrals of the body force, shape (7, 2, E), or None.

    Rows 0-2 hold ``int N_a f``, row 3 ``int b f`` and rows 4-6
    ``int b N_a f``; the force is checked at every quadrature point first.
    """
    if body_force is None:
        return None
    name = getattr(body_force, "__name__", repr(body_force))
    f = checked_values(body_force, batch.xq, f"body force {name}", "quadrature point")
    tests = np.column_stack([batch.N, batch.bq, batch.bq[:, None] * batch.N])  # (Q, 7)
    return np.einsum("qt,eqi->tie", tests, batch.wd[..., None] * f, order="C")


@dataclass
class _Fields:
    """The iterate on each element, as every kernel of both strategies reads it.

    Built only by ``_fields``, which checks ``nu``, ``dt`` and
    ``vbar_prev`` once; every array has the element index last.  The
    total velocity is ``u = sum_A Nb_A U_A`` and its gradient is
    ``grad vbar + beta (x) grad b``.  Fixed point reads only the coarse
    part (``U[:3]``, ``gvbar``, ``nu``, ``dt``, ``prev``), so its numbers
    never depend on ``beta``; Newton's ``mu`` and ``gbu`` are computed on
    first read.
    """

    batch: ElementBatch
    U: np.ndarray        # (4, 2, E) coarse nodal velocities, then beta
    p: np.ndarray        # (3, E) nodal pressures
    gvbar: np.ndarray    # (2, 2, E) coarse velocity gradient
    nu: float
    dt: float | None
    prev: np.ndarray | None  # (3, 2, E) vbar_prev at the nodes, with dt

    @cached_property
    def mu(self) -> np.ndarray:
        """(4, 2, E) int Nb_A u"""
        return np.einsum("ABe,Bie->Aie", self.batch.mass, self.U)

    @cached_property
    def gbu(self) -> np.ndarray:
        """(4, E) int Nb_A (grad b . u)"""
        E = self.U.shape[-1]
        return np.einsum("Axe,xe->Ae", self.batch.mass_gb.reshape(4, 8, E), self.U.reshape(8, E))


def _fields(batch: ElementBatch, state: State, nu: float) -> _Fields:
    if not nu > 0:
        raise ValueError(f"kinematic viscosity must be positive, got {nu}")
    tris = batch.tris_t
    E = len(batch.elements)
    prev = None
    if state.dt is not None:
        if not state.dt > 0:
            raise ValueError(f"time step must be positive, got {state.dt}")
        if state.vbar_prev is None:
            raise ValueError("transient systems need the previous velocity (vbar_prev) with dt")
        prev = np.ascontiguousarray(state.vbar_prev[tris].transpose(0, 2, 1))
    U = np.empty((4, 2, E))                 # C-contiguous, as every einsum below needs
    U[:3] = state.vbar[tris].transpose(0, 2, 1)
    U[3] = state.beta[batch.elements].T
    return _Fields(
        batch=batch,
        U=U,
        p=state.p[tris],
        gvbar=np.einsum("aie,aje->ije", U[:3], batch.G),
        nu=nu,
        dt=state.dt,
        prev=prev,
    )


def _residuals_batched(batch: ElementBatch, f: _Fields, load):
    """Residual blocks for every element in the batch.

    ``load`` is the body-force integral table of ``_body_force_load``.
    Returns ``Rvp`` (9, E), the (velocity, pressure) block in
    ``element_dofs`` order, and ``Rf`` (2, E).  Boundary traction is not
    an element-interior term; the global assembly adds it on the tagged
    edges.
    """
    E = len(batch.elements)
    # int Nb_A (u . grad) u_i = (int Nb_A u) . grad vbar_i + beta_i int Nb_A grad b . u
    R = np.einsum("Aje,ije->Aie", f.mu, f.gvbar) + f.gbu[:, None] * f.U[3]
    R += f.nu * np.einsum("ABe,Bie->Aie", batch.stiff, f.U)
    R += np.einsum("xce,ce->xe", batch.div, f.p).reshape(4, 2, E)
    if f.dt is not None:
        R += np.einsum("Abe,bie->Aie", batch.mass[:, :3], (f.U[:3] - f.prev) / f.dt)
    if load is not None:
        R -= load[:4]
    Rp = np.einsum("xe,xce->ce", f.U.reshape(8, E), batch.div)
    return np.concatenate([R[:3].reshape(6, E), Rp]), R[3]


def _tangent_batched(batch: ElementBatch, f: _Fields):
    """All eight nonzero tangent blocks for every element in the batch.

    The velocity and fine-scale blocks form one (8, 8, E) matrix over
    (A, i) with entries ``delta_ij scal_AB + int Nb_A Nb_B grad u_ij``.
    """
    E = len(batch.elements)
    # scal_AB = int Nb_A u . grad Nb_B + nu int grad Nb_A . grad Nb_B (+ mass / dt)
    scal = f.nu * batch.stiff
    scal[:, :3] += np.einsum("Ake,Bke->ABe", f.mu, batch.G)
    scal[:, 3] += f.gbu
    if f.dt is not None:
        scal[:, :3] += batch.mass[:, :3] / f.dt
    # int Nb_A Nb_B grad u_ij = mass_AB grad vbar_ij + beta_i int Nb_A Nb_B d_j b
    T = batch.mass[:, None, :, None] * f.gvbar[None, :, None]          # (4, 2, 4, 2, E)
    T += f.U[3][None, :, None, None] * batch.mass_gb[:, None]
    T[:, 0, :, 0] += scal
    T[:, 1, :, 1] += scal
    T = T.reshape(8, 8, E)
    div = batch.div
    return {
        "Kcc": T[:6, :6], "Kcp": div[:6], "Kcf": T[:6, 6:],
        "Kpc": div[:6].transpose(1, 0, 2), "Kpf": div[6:].transpose(1, 0, 2),
        "Kfc": T[6:, :6], "Kfp": div[6:], "Kff": T[6:, 6:],
    }


def _invert_fine_blocks(M: np.ndarray):
    """Inverses and determinants of the fine-scale 2x2 blocks ``M`` (2, 2, E),
    and the first block with ``|det| <= 1e-14 ||M||_F^2`` (None if none is)."""
    inv, det = inv2(M)
    bad = np.abs(det) <= 1e-14 * np.einsum("ije,ije->e", M, M)
    return inv, det, int(np.argmax(bad)) if np.any(bad) else None


def _condense_batched(Rvp, Rf, blocks, elements):
    """Schur complements (9, 9, E), (9, E), with ``Kff^-1`` and ``X = Kff^-1 [Kfc Kfp]``:
    ``[Kcc Kcp; Kpc 0] - [Kcf; Kpf] X``, each block product written into its rows."""
    Kff_inv, det, bad = _invert_fine_blocks(blocks["Kff"])
    if bad is not None:
        raise FineScaleSingularError(f"fine-scale block of element {int(elements[bad])} "
                                     f"is numerically singular (|det| = {abs(det[bad]):.3e})")
    E = Rvp.shape[-1]
    X, K, R = np.empty((2, 9, E)), np.empty((9, 9, E)), np.empty((9, E))
    y = np.einsum("fge,ge->fe", Kff_inv, Rf)
    for rows, C, B in ((slice(6), "Kfc", "Kcf"), (slice(6, 9), "Kfp", "Kpf")):
        np.einsum("fge,gxe->fxe", Kff_inv, blocks[C], out=X[:, rows])
        np.einsum("xfe,fe->xe", blocks[B], y, out=R[rows])
    for rows, B in ((slice(6), "Kcf"), (slice(6, 9), "Kpf")):
        np.einsum("xfe,fye->xye", blocks[B], X, out=K[rows])
    np.subtract(blocks["Kcc"], K[:6, :6], out=K[:6, :6])
    np.subtract(blocks["Kcp"], K[:6, 6:], out=K[:6, 6:])
    np.subtract(blocks["Kpc"], K[6:, :6], out=K[6:, :6])
    np.negative(K[6:, 6:], out=K[6:, 6:])
    return K, np.subtract(Rvp, R, out=R), Kff_inv, X


def _recover_batched(Kff_inv, X, Rf, d9):
    """Fine-scale increments ``-(Kff^-1 Rf + X d9)`` (2, E) for element increments ``d9``."""
    dbeta = np.einsum("fge,ge->fe", Kff_inv, Rf)
    dbeta += np.einsum("fxe,xe->fe", X, d9)
    return np.negative(dbeta, out=dbeta)


def element_residuals(mesh: Mesh, element_index: int, state: State, nu: float,
                      body_force=None) -> ElementResiduals:
    """Residual blocks of one element (volume terms; traction handled globally)."""
    batch = ElementBatch(mesh, elements=[element_index])
    Rvp, Rf = _residuals_batched(batch, _fields(batch, state, nu),
                                 _body_force_load(batch, body_force))
    return ElementResiduals(Rc=Rvp[:6, 0], Rp=Rvp[6:, 0], Rf=Rf[:, 0])


def element_tangent(mesh: Mesh, element_index: int, state: State, nu: float
                    ) -> ElementTangent:
    """The eight nonzero consistent tangent blocks of one element."""
    batch = ElementBatch(mesh, elements=[element_index])
    blocks = _tangent_batched(batch, _fields(batch, state, nu))
    return ElementTangent(**{k: v[..., 0] for k, v in blocks.items()})


def condense(res: ElementResiduals, tan: ElementTangent,
             element_index: int = 0) -> CondensedElement:
    """Eliminate the fine-scale pair of one element by a Schur complement."""
    blocks = {k: v[..., None] for k, v in vars(tan).items()}
    K, R, Kff_inv, X = _condense_batched(np.concatenate([res.Rc, res.Rp])[:, None],
                                         res.Rf[:, None], blocks, np.array([element_index]))
    return CondensedElement(K_hat=K[..., 0], R_hat=R[:, 0], Kff_inv=Kff_inv[..., 0],
                            Kff_inv_coupling=X[..., 0], Rf=res.Rf.copy())


def recover_fine_scale(condensed: CondensedElement, delta_v: np.ndarray,
                       delta_p: np.ndarray) -> np.ndarray:
    """Fine-scale increment of one element after the condensed solve."""
    d9 = np.concatenate([delta_v, delta_p])
    return _recover_batched(condensed.Kff_inv[..., None], condensed.Kff_inv_coupling[..., None],
                            condensed.Rf[:, None], d9[:, None])[:, 0]


def element_dofs(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Global DOFs per element, shape (E, 9): (u, v) of each node, then the pressures."""
    dofs = dofmap.node_dofs(mesh.triangles)                   # (E, 3, 3)
    return np.concatenate([dofs[..., :2].reshape(-1, 6), dofs[..., 2]], axis=1)


def traction_vector(mesh: Mesh, dofmap: DofMap, bc: BoundaryConditions) -> np.ndarray:
    """Assembled boundary-traction load, two-point Gauss per tagged edge.

    Entry (node a, comp i) receives the integral of N_a * h_i over the
    Neumann edges touching node a; zero-traction tags contribute nothing.
    Every other traction function is called once per tag, on the Gauss
    points of all its edges as one (2 m, 2) array, and checked to give a
    finite 2-vector per point.
    """
    load = np.zeros(dofmap.total)
    t = 0.5 + np.array([-1.0, 1.0]) / (2.0 * np.sqrt(3.0))  # Gauss points on [0, 1]
    ends = 0.5 * np.stack([1.0 - t, t])                       # (end, point) weights of N_a
    for tag, func in bc.neumann.items():
        edges = np.array(mesh.edges_with_tag(tag), dtype=np.int64).reshape(-1, 2)
        if func is None or edges.size == 0:
            continue
        pa, pb = mesh.node_coords[edges.T]                    # (m, 2) each
        length = np.hypot(*(pb - pa).T)
        pts = pa[:, None, :] + t[:, None] * (pb - pa)[:, None, :]   # (m, point, 2)
        h = checked_values(func, pts.reshape(-1, 2), f"traction function for tag '{tag}'",
                           "quadrature point").reshape(pts.shape)
        integrals = np.matmul(ends * length[:, None, None], h)      # (m, end, component)
        load += np.bincount(dofmap.node_dofs(edges)[..., :2].ravel(),
                            weights=integrals.ravel(), minlength=dofmap.total)
    return load


_NODE_OF_DOF = [0, 0, 1, 1, 2, 2, 0, 1, 2]   # element node of each of the 9 element DOFs


def _csc_pattern(tris: np.ndarray, nodes: np.ndarray, node_of: np.ndarray, local: np.ndarray):
    """CSC pattern of the free-by-free element entries, and the slot of each entry.

    ``nodes`` is the elimination order, ``node_of`` the node of each free
    DOF (the free DOFs go node by node in that order), and ``local`` (9, E)
    the position among them of each element DOF (-1 where constrained).
    A node's free DOFs are adjacent, so every DOF column of a node holds
    the same rows: the free DOFs of the nodes it shares an element with,
    in order.  The pattern is built from the node pairs (column node, row
    node), 9 per element, sorted column-major in elimination order and
    expanded into DOF entries.
    Entry ``K[i, j, e]`` goes to the start of column j, plus the rows of the
    pairs above its pair in that column, plus row i's offset among its
    node's DOFs; an entry with a constrained row or column goes to the
    discard slot ``nnz``.  Returns ``indices``, ``indptr`` and the
    flattened (81*E,) slots in the (i, j, e) order of the element matrices.
    """
    n = nodes.size
    n_dofs = np.bincount(node_of, minlength=n)            # free DOFs per node
    rank = np.empty(n, dtype=np.int64)
    rank[nodes] = np.arange(n)
    start = np.cumsum(n_dofs[nodes])[rank] - n_dofs       # position of a node's first one
    ranked = rank[tris.T]
    pairs, pair_of = np.unique(ranked[None] * n + ranked[:, None],  # [row, col, e]
                               return_inverse=True)
    col_node, row_node = nodes[pairs // n], nodes[pairs % n]
    rows_of_pair = n_dofs[row_node]
    before = np.cumsum(rows_of_pair) - rows_of_pair       # rows of all earlier pairs
    firsts = np.flatnonzero(np.diff(col_node, prepend=-1))
    col_first = np.empty(n, dtype=np.int64)               # ``before`` at a node's first pair
    col_first[col_node[firsts]] = before[firsts]
    n_rows = np.bincount(col_node, weights=rows_of_pair, minlength=n).astype(np.int64)

    indptr = np.concatenate([[0], np.cumsum(n_rows[node_of])])
    nnz = int(indptr[-1])
    pair_rows = (np.repeat(start[row_node] - before, rows_of_pair)   # row DOFs, pair by pair
                 + np.arange(rows_of_pair.sum()))
    indices = pair_rows[np.repeat(col_first[node_of] - indptr[:-1], n_rows[node_of])
                        + np.arange(nnz)]

    rows_above = (before - col_first[col_node])[pair_of.reshape(3, 3, -1)]
    offset = local - start[tris.T[_NODE_OF_DOF]]
    slot = (offset[:, None] + indptr[local][None]
            + rows_above[_NODE_OF_DOF][:, _NODE_OF_DOF])
    constrained = local < 0
    slot[constrained[:, None] | constrained[None]] = nnz   # constrained row or column
    return indices, indptr, slot.ravel()


class CscPattern:
    """A square CSC pattern, canonical (rows sorted and unique in each column),
    and everything a factor reads of the pattern alone.

    ``empty`` is None, or names the first empty line, ``("row", i)`` before
    ``("column", j)``.  Without one, ``kl`` and ``ku`` are the lower and
    upper half-bandwidths, read from the first and last row of each
    column, and when neither exceeds ``BAND_LIMIT``, ``band_index`` places
    each stored entry in the flat Fortran-ordered (2 kl + ku + 1, n) band
    array of LAPACK's ``dgbtrf``: entry (i, j) at row ``kl + ku + i - j``,
    the top ``kl`` rows left for the fill of the row interchanges; else it
    is None.  A ``Discretization`` builds its one pattern at set-up.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray):
        self.indices, self.indptr = indices, indptr
        n = indptr.size - 1
        self.empty = self.kl = self.ku = self.band_index = None
        for line, counts in (("row", np.bincount(indices, minlength=n)),
                             ("column", np.diff(indptr))):
            if not counts.all():
                self.empty = (line, int(np.argmin(counts)))
                return
        columns = np.arange(n)
        self.kl = int((indices[indptr[1:] - 1] - columns).max(initial=0))
        self.ku = int((columns - indices[indptr[:-1]]).max(initial=0))
        if max(self.kl, self.ku) <= BAND_LIMIT:
            self.band_index = (indices + np.repeat(columns, np.diff(indptr))
                               * (2 * self.kl + self.ku) + self.kl + self.ku)
            self.band_index.flags.writeable = False

    def holds(self, A) -> bool:
        """Whether the CSC matrix ``A`` is stored on this pattern's own index arrays."""
        return A.indptr is self.indptr and A.indices.size == self.indices.size and (
            A.indices is self.indices or A.indices.base is self.indices)


class Discretization:
    """State-independent set-up shared by every iteration, rung and time step.

    Element tables and DOFs, the traction load, the body-force integrals
    ``load`` (None without a force), and the free-DOF CSC ``pattern`` (the
    format ``linear_solve`` factors; a ``CscPattern`` on read-only
    ``np.intc`` index arrays that every matrix shares, so a factor does its
    pattern work once per set-up) with the ``np.intc`` slot of every
    element-matrix entry, filled by ``np.add.at``.  The pattern is built
    from the 9 node pairs of each element rather than its 81 DOF pairs (``_csc_pattern``),
    and entries with a constrained row or column share one discard slot
    past the last.  ``edofs`` (9, E) and the slots follow the element-last kernel
    outputs, which are scattered without a copy.  Every array is read-only.
    ``free`` lists the free global DOFs node by node ((u, v, p) per node)
    in ``mesh.elimination_order``, so every assembled matrix and
    right-hand side arrives in the order it is factored in: banded along
    a narrow mesh, fill-reducing otherwise; ``delta[free] = x`` scatters an
    increment.  ``free_residual`` is the one global residual assembly of
    both strategies; the prescribed values enter only the start state.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, bc: BoundaryConditions, body_force=None):
        self.mesh = mesh
        self.dofmap = dofmap
        self.batch = ElementBatch(mesh)
        self.edofs = np.ascontiguousarray(element_dofs(mesh, dofmap).T)
        self.traction = traction_vector(mesh, dofmap, bc)
        self.load = _body_force_load(self.batch, body_force)
        nodes = elimination_order(mesh)
        dofs = dofmap.node_dofs(nodes).ravel()
        kept = np.isin(dofs, dofmap.free)
        self.free = dofs[kept]

        position = np.full(dofmap.total, -1, dtype=np.int64)
        position[self.free] = np.arange(self.free.size)
        indices, indptr, slot = _csc_pattern(
            mesh.triangles, nodes, np.repeat(nodes, 3)[kept], position[self.edofs])
        # scipy's index type, so no matrix scans or copies them; the slots,
        # the set-up's largest array, at half the size of int64.
        indices, indptr = indices.astype(np.intc), indptr.astype(np.intc)
        self._slot = slot.astype(np.intc)
        for array in (self.edofs, self.free, self.traction, self.load,
                      indices, indptr, self._slot):
            if array is not None:
                array.flags.writeable = False
        self.pattern = CscPattern(indices, indptr)

    def free_matrix(self, K: np.ndarray) -> sp.csc_matrix:
        """Sum element matrices (9, 9, E) into the free-DOF CSC matrix.

        Its rows are sorted and unique in each column by construction, so it
        is marked canonical and nothing scans it again before the factor.
        Constrained entries land in the discard slot, which is dropped."""
        pattern, n_free = self.pattern, self.free.size
        nnz = pattern.indices.size
        data = np.zeros(nnz + 1)
        np.add.at(data, self._slot, K.reshape(-1))  # np.bincount copies int32 slots to intp
        data = data[:nnz]
        matrix = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n_free, n_free))
        matrix.has_canonical_format = True
        return matrix

    def free_residual(self, R: np.ndarray) -> np.ndarray:
        """``(sum_e R_e - traction)[free]`` for element residuals ``R`` (9, E)."""
        summed = np.bincount(self.edofs.ravel(), weights=R.ravel(), minlength=self.dofmap.total)
        return (summed - self.traction)[self.free]


def _norm_of(disc: Discretization, Rvp, Rf) -> float:
    with np.errstate(over="ignore"):        # inf, which the loop reads as divergence
        return float(np.sqrt(np.sum(disc.free_residual(Rvp) ** 2) + np.sum(Rf**2)))


def _linearization_part(index: int, doc: str) -> property:
    return property(lambda self: self._linearization[index], doc=doc)


class NewtonSystem:
    """The residual of one Newton iterate, and its linearization on demand.

    The tangent and its condensation (``matrix``, ``rhs``, ``Kff_inv``,
    ``Kff_inv_coupling``) are built together on first access, which releases the
    fields and residuals kept for it and raises ``FineScaleSingularError``
    on a singular fine-scale block.
    """

    def __init__(self, disc: Discretization, fields: _Fields,
                 Rvp: np.ndarray, Rf: np.ndarray, state_digest: bytes):
        self.residual = _norm_of(disc, Rvp, Rf)          # 2-norm of [assembled Rvp; all Rf]
        self.Rf = Rf                                      # (2, E)
        self.edofs = disc.edofs                           # (9, E)
        self.state_digest = state_digest
        self._pending = (disc, fields, Rvp)

    @cached_property
    def _linearization(self):
        disc, fields, Rvp = self._pending
        blocks = _tangent_batched(disc.batch, fields)
        K_hat, R_hat, Kff_inv, X = _condense_batched(Rvp, self.Rf, blocks, disc.batch.elements)
        self._pending = None
        return disc.free_matrix(K_hat), -disc.free_residual(R_hat), Kff_inv, X

    matrix = _linearization_part(0, "condensed tangent on the free (v, p) DOFs, CSC")
    rhs = _linearization_part(1, "-R_hat on the free DOFs")
    Kff_inv = _linearization_part(2, "(2, 2, E) inverse fine-scale blocks")
    Kff_inv_coupling = _linearization_part(3, "(2, 9, E) = Kff^-1 [Kfc Kfp]")

    def recover_beta(self, state: State, delta_full: np.ndarray) -> np.ndarray:
        """Fine-scale increments (E, 2) for a global (v, p) increment vector:
        ``_recover_batched``, the recovery ``recover_fine_scale`` runs too.

        Raises if the state was modified after assembly: the stored
        condensation data would then belong to a different linearization.
        """
        if state.digest() != self.state_digest:
            raise RuntimeError(
                "stale condensation data: state changed since assembly"
            )
        return _recover_batched(self.Kff_inv, self.Kff_inv_coupling, self.Rf,
                                delta_full[self.edofs]).T


def assemble_system(disc: Discretization, state: State, nu: float) -> NewtonSystem:
    """The Newton system at ``state``: its residual now, its linearization on demand.

    The body force is ``disc.load``.  The linearization is the condensed
    system over the unconstrained DOFs.  Dirichlet increments are eliminated
    (the state carries the boundary values): its right-hand side is
    ``-R_hat`` on free DOFs.
    """
    fields = _fields(disc.batch, state, nu)
    return NewtonSystem(disc, fields, *_residuals_batched(disc.batch, fields, disc.load),
                        state.digest())
