"""Shared oracles for the test suite.

``t3_shape``, ``t3_bubble`` and ``element_geometry`` evaluate the basis,
the bubble and the affine map of one triangle at one reference point;
they are the per-point reference for the batched tables of
``vmsflow.newton.ElementBatch``.

``cavity_velocity_gradient`` and ``cavity_velocity_laplacian`` are the
derivatives of the manufactured cavity velocity, the oracle its body
force is checked against.

The monolithic global system built here is assembled from the public
per-element operations, keeping the fine-scale coefficients as explicit
unknowns appended after the (velocity, pressure) block.  It exists only
for verification: the production path condenses the fine scale away.
``dense_fixed_point`` sums the lifted fixed-point system the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from vmsflow.fem import DN_REF, inv2, triangle_quadrature
from vmsflow.mesh import (
    ND_LEAF,
    BoundaryConditions,
    Mesh,
    build_dof_map,
    elimination_order,
    unit_square_mesh,
)
from vmsflow.fixed_point import fp_element_system
from vmsflow.newton import (
    State,
    element_dofs,
    element_residuals,
    element_tangent,
    traction_vector,
)

BLOCK_NAMES = ("Kcc", "Kcp", "Kcf", "Kpc", "Kpf", "Kfc", "Kfp", "Kff")


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
        raise ValueError(
            f"triangle{where} is degenerate or negatively oriented: detJ = {detJ:.3e}"
        )
    return ElementGeometry(J=J, detJ=detJ, Jinv=Jinv)


def all_neumann_bc(mesh) -> BoundaryConditions:
    """Zero-traction condition on every tag: no constrained DOFs at all."""
    return BoundaryConditions(dirichlet={}, neumann={tag: None for tag in mesh.tags})


def perturbed_square_mesh(n, rng, amplitude=0.15) -> Mesh:
    """``unit_square_mesh(n)`` with every node moved by up to ``amplitude * h``.

    An amplitude below 0.25 keeps every triangle positively oriented.
    """
    mesh = unit_square_mesh(n)
    shift = rng.uniform(-amplitude / n, amplitude / n, mesh.node_coords.shape)
    return Mesh(mesh.node_coords + shift, mesh.triangles, mesh.boundary_edges, mesh.tags)


def renumbering(mesh, bc, rng):
    """The same mesh and conditions, numbered at random.

    The nodes and the triangles are permuted, and each triangle's nodes
    are rotated cyclically (which keeps them counterclockwise); boundary
    edges and the pressure pin are relabelled.  Returns the mesh, the
    conditions, the new number of every old node and the old number of
    every new triangle.
    """
    new_id = rng.permutation(mesh.n_nodes)
    order = rng.permutation(mesh.n_triangles)
    coords = np.empty_like(mesh.node_coords)
    coords[new_id] = mesh.node_coords
    local = (np.arange(3) + rng.integers(0, 3, (mesh.n_triangles, 1))) % 3
    triangles = np.take_along_axis(new_id[mesh.triangles[order]], local, axis=1)
    edges = tuple((int(new_id[a]), int(new_id[b]), tag) for a, b, tag in mesh.boundary_edges)
    pin = bc.pressure_pin
    if pin is not None:
        pin = (int(new_id[pin[0]]), pin[1])
    return (Mesh(coords, triangles, edges, mesh.tags),
            BoundaryConditions(bc.dirichlet, bc.neumann, pin), new_id, order)


def renumbered(mesh, bc, rng):
    """``renumbering``'s mesh and conditions, without the maps."""
    return renumbering(mesh, bc, rng)[:2]


def median_nested_dissection(mesh) -> np.ndarray:
    """``mesh.nested_dissection`` as first written, with ``np.ptp``,
    ``np.argmax`` and ``np.median`` at every split: its bitwise oracle."""
    n = mesh.n_nodes
    pairs = np.concatenate([mesh.edges, mesh.edges[:, ::-1]])
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    degree = np.bincount(pairs[:, 0], minlength=n)
    neighbours = np.full((n, degree.max(initial=0)), n)
    slot = np.arange(len(pairs)) - np.repeat(np.cumsum(degree) - degree, degree)
    neighbours[pairs[:, 0], slot] = pairs[:, 1]
    on_right = np.zeros(n + 1, dtype=bool)
    order = []

    def dissect(nodes):
        if nodes.size == 0:
            return
        coords = mesh.node_coords[nodes]
        extent = np.ptp(coords, axis=0)
        axis = int(np.argmax(extent))
        if nodes.size <= ND_LEAF or extent[axis] == 0.0:
            order.append(nodes)
            return
        x = coords[:, axis]
        median = np.median(x)
        left = x <= median
        if left.all():
            left = x < median
        right = nodes[~left]
        left = nodes[left]
        on_right[right] = True
        separator = on_right[neighbours[left]].any(axis=1)
        on_right[right] = False
        dissect(left[~separator])
        dissect(right)
        order.append(left[separator])

    dissect(np.arange(n))
    return np.concatenate(order)


def dof_pair_pattern(mesh, dofmap, edofs):
    """The free-DOF CSC pattern from the 81 DOF pairs of every element.

    Reference for ``Discretization``: ``free`` is (u, v, p) node by node in
    ``elimination_order``; the sorted unique column-major keys of
    the free-by-free entries give ``indices`` and ``indptr``, and the
    inverse is the slot of every kept entry.  ``edofs`` is (9, E) and the
    entries run in the (i, j, e) order of (9, 9, E) element matrices.
    Returns (free, indices, indptr, kept, slot).
    """
    nodes = elimination_order(mesh)
    n = mesh.n_nodes
    dofs = np.column_stack([2 * nodes, 2 * nodes + 1, 2 * n + nodes]).ravel()
    free = dofs[np.isin(dofs, dofmap.free)]
    n_free = free.size
    position = np.full(dofmap.total, -1, dtype=np.int64)
    position[free] = np.arange(n_free)
    local = position[edofs]
    rows = np.broadcast_to(local[:, None], (9,) + local.shape).ravel()
    cols = np.broadcast_to(local[None], (9,) + local.shape).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(cols[kept] * n_free + rows[kept], return_inverse=True)
    indices = (keys % n_free).astype(np.intc)
    indptr = np.searchsorted(keys, np.arange(n_free + 1) * n_free).astype(np.intc)
    return free, indices, indptr, kept, slot


def traction_reference(mesh, dofmap, bc) -> np.ndarray:
    """``traction_vector`` edge by edge and component by component, with the
    numbering written out: two-point Gauss on each edge, N_a h_i to DOF 2 a + i."""
    load = np.zeros(dofmap.total)
    g = 1.0 / (2.0 * np.sqrt(3.0))
    t = np.array([0.5 - g, 0.5 + g])
    for tag, func in bc.neumann.items():
        for a, b in mesh.edges_with_tag(tag) if func is not None else ():
            pa, pb = mesh.node_coords[a], mesh.node_coords[b]
            length = float(np.hypot(*(pb - pa)))
            h = func(pa[None, :] + t[:, None] * (pb - pa)[None, :])
            for node, weights in ((a, 0.5 * (1.0 - t) * length), (b, 0.5 * t * length)):
                for comp in range(2):
                    load[2 * node + comp] += float(weights @ h[:, comp])
    return load


def dof_pair_matrix(pattern, K) -> sp.csc_matrix:
    """Free-DOF CSC matrix of element matrices K (9, 9, E) on a ``dof_pair_pattern``."""
    free, indices, indptr, kept, slot = pattern
    data = np.bincount(slot, weights=K.reshape(-1)[kept], minlength=indices.size)
    return sp.csc_matrix((data, indices, indptr), shape=(free.size, free.size))


def square_side(mid) -> str:
    """Tag of a unit-square boundary point, one point at a time."""
    mx, my = mid
    if abs(mx) < 1e-12:
        return "left"
    if abs(mx - 1.0) < 1e-12:
        return "right"
    if abs(my) < 1e-12:
        return "bottom"
    if abs(my - 1.0) < 1e-12:
        return "top"
    raise AssertionError("boundary edge not on the unit-square boundary")


def step_side(mid) -> str:
    """Tag of a backward-step boundary point, one point at a time."""
    if abs(mid[0]) < 1e-12:
        return "inflow"
    if abs(mid[0] - 8.0) < 1e-12:
        return "outflow"
    return "walls"


def reference_boundary_edges(mesh, side):
    """(a, b, side(midpoint)) of every one-triangle edge, edge by edge.

    Edges are undirected (min, max) and listed in order of first
    appearance over the triangles' (0, 1), (1, 2), (2, 0) edges.
    """
    counts = {}
    for tri in mesh.triangles.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return tuple((a, b, side(0.5 * (mesh.node_coords[a] + mesh.node_coords[b])))
                 for (a, b), c in counts.items() if c == 1)


def random_state(mesh, rng, dt=None) -> State:
    state = State(
        vbar=rng.uniform(-1.0, 1.0, (mesh.n_nodes, 2)),
        p=rng.uniform(-1.0, 1.0, mesh.n_nodes),
        beta=rng.uniform(-1.0, 1.0, (mesh.n_triangles, 2)),
    )
    if dt is not None:
        state.dt = dt
        state.vbar_prev = rng.uniform(-1.0, 1.0, (mesh.n_nodes, 2))
    return state


def _f(x):
    return x**2 * (1 - x) ** 2


def _df(x):
    return 2 * x - 6 * x**2 + 4 * x**3


def _ddf(x):
    return 2 - 12 * x + 12 * x**2


def cavity_velocity_gradient(points) -> np.ndarray:
    """``(grad v)[..., i, j] = dv_i/dx_j`` of ``cavity_exact_solution().velocity``,
    whose stream function is x^2 (1-x)^2 y^2 (1-y)^2."""
    x, y = points[..., 0], points[..., 1]
    g = np.empty(np.shape(x) + (2, 2))
    g[..., 0, 0] = _df(x) * _df(y)
    g[..., 0, 1] = _f(x) * _ddf(y)
    g[..., 1, 0] = -_f(y) * _ddf(x)
    g[..., 1, 1] = -_df(y) * _df(x)
    return g


def cavity_velocity_laplacian(points) -> np.ndarray:
    """Laplacian of ``cavity_exact_solution().velocity``, per component."""
    x, y = points[..., 0], points[..., 1]
    lx = _ddf(x) * _df(y) + _f(x) * (-12 + 24 * y)
    ly = -(_f(y) * (-12 + 24 * x) + _ddf(y) * _df(x))
    return np.stack([lx, ly], axis=-1)


def dense_fixed_point(mesh, dofmap, bc, free, v_c, vbar_prev, nu, dt, body_force,
                      stabilize=True):
    """Lifted linearized system summed element by element, on the DOFs ``free``;
    ``stabilize=False`` sums the plain Galerkin element systems."""
    total = dofmap.total
    K = np.zeros((total, total))
    F = traction_vector(mesh, dofmap, bc)
    for e, dofs in enumerate(element_dofs(mesh, dofmap)):
        sys_e = fp_element_system(mesh, e, v_c, vbar_prev, nu, dt, body_force, stabilize)
        K[np.ix_(dofs, dofs)] += sys_e.K
        F[dofs] += sys_e.F
    return K[np.ix_(free, free)], F[free] - K[free] @ dofmap.prescribed


def element_tangent_matrix(tan) -> np.ndarray:
    """Dense 11x11 element tangent over (6 velocity, 3 pressure, 2 fine) DOFs."""
    K = np.zeros((11, 11))
    K[:6, :6] = tan.Kcc
    K[:6, 6:9] = tan.Kcp
    K[:6, 9:] = tan.Kcf
    K[6:9, :6] = tan.Kpc
    K[6:9, 9:] = tan.Kpf
    K[9:, :6] = tan.Kfc
    K[9:, 6:9] = tan.Kfp
    K[9:, 9:] = tan.Kff
    return K


def monolithic_coordinates(mesh, dofmap):
    """Global unknown layout [free (v, p) DOFs; all fine-scale pairs]."""
    n_free = dofmap.free.size
    total = n_free + 2 * mesh.n_triangles
    pos_of_global = -np.ones(dofmap.total, dtype=np.int64)
    pos_of_global[dofmap.free] = np.arange(n_free)
    return total, pos_of_global


def set_monolithic(mesh, dofmap, template: State, x: np.ndarray) -> State:
    """State whose free unknowns are replaced by the coordinate vector x."""
    total, pos = monolithic_coordinates(mesh, dofmap)
    assert x.size == total
    state = template.copy()
    n = mesh.n_nodes
    flat_v = state.vbar.reshape(-1)
    for g in range(2 * n):
        if pos[g] >= 0:
            flat_v[g] = x[pos[g]]
    for node in range(n):
        g = 2 * n + node
        if pos[g] >= 0:
            state.p[node] = x[pos[g]]
    n_free = dofmap.free.size
    state.beta = x[n_free:].reshape(mesh.n_triangles, 2).copy()
    return state


def get_monolithic(mesh, dofmap, state: State) -> np.ndarray:
    total, pos = monolithic_coordinates(mesh, dofmap)
    x = np.empty(total)
    full = np.concatenate([state.vbar.reshape(-1), state.p])
    x[: dofmap.free.size] = full[dofmap.free]
    x[dofmap.free.size:] = state.beta.reshape(-1)
    return x


def monolithic_residual(mesh, dofmap, state: State, nu, body_force=None) -> np.ndarray:
    """Global [Rc; Rp] on free DOFs followed by every element's Rf."""
    edofs = element_dofs(mesh, dofmap)
    res_vp = np.zeros(dofmap.total)
    rf = np.zeros((mesh.n_triangles, 2))
    for e in range(mesh.n_triangles):
        r = element_residuals(mesh, e, state, nu, body_force)
        np.add.at(res_vp, edofs[e], np.concatenate([r.Rc, r.Rp]))
        rf[e] = r.Rf
    return np.concatenate([res_vp[dofmap.free], rf.reshape(-1)])


def monolithic_tangent(mesh, dofmap, state: State, nu) -> np.ndarray:
    """Dense global tangent over [free (v, p); all fine] coordinates."""
    total, pos = monolithic_coordinates(mesh, dofmap)
    edofs = element_dofs(mesh, dofmap)
    n_free = dofmap.free.size
    K = np.zeros((total, total))
    for e in range(mesh.n_triangles):
        Ke = element_tangent_matrix(element_tangent(mesh, e, state, nu))
        gdofs = np.concatenate([pos[edofs[e]], n_free + 2 * e + np.arange(2)])
        for i, gi in enumerate(gdofs):
            if gi < 0:
                continue
            for j, gj in enumerate(gdofs):
                if gj >= 0:
                    K[gi, gj] += Ke[i, j]
    return K


def fp_element_reference(mesh, e, v_c, vbar_prev, nu, dt=None, body_force=None,
                         stabilize=True):
    """Stabilized linearized element system, one quadrature point at a time.

    Literal transcription of the ``vmsflow.fixed_point`` docstring: at each
    point of the degree-8 rule the Galerkin integrands, the weighting
    operator ``W = v_c . grad w + grad q - (grad v_c)^T w``, the slot
    operator ``S`` (pressure gradient, acceleration, linearized convection)
    and ``tau(x) = b(x) w_b A^-1`` are formed as dense arrays.  Returns
    ``K`` (9, 9) and ``F`` (9,) over (6 velocity, 3 pressure) DOFs.
    """
    rule = triangle_quadrature(8)
    tri = mesh.triangles[e]
    coords = mesh.node_coords[tri]
    geo = element_geometry(coords, e)
    vel = v_c[tri]
    I2 = np.eye(2)

    def at(xi):
        sh, bub = t3_shape(xi, geo), t3_bubble(xi, geo)
        return sh.N, sh.grad_phys, bub.b, bub.grad_phys

    gvc = vel.T @ at(rule.points[0])[1]            # grad v_c, constant
    A = np.zeros((2, 2))
    w_b = 0.0
    for xi, w in zip(rule.points, rule.weights):
        N, dN, b, db = at(xi)
        wd = w * geo.detJ
        A += wd * ((b * (N @ vel) @ db + nu * db @ db) * I2
                   + b * b * gvc + nu * np.outer(db, db))
        w_b += wd * b
    Ainv = np.linalg.inv(A)

    K = np.zeros((9, 9))
    F = np.zeros(9)
    for xi, w in zip(rule.points, rule.weights):
        N, dN, b, db = at(xi)
        wd = w * geo.detJ
        vq = N @ vel
        known = vq @ gvc.T
        if body_force is not None:
            known = known + np.asarray(body_force((coords.T @ N)[None, :]))[0]
        if dt is not None:
            known = known + N @ vbar_prev[tri] / dt
        # Test and trial operators as (9, 2) arrays: row = DOF, column = component.
        W = np.zeros((9, 2))           # weighting operator applied to each test DOF
        S = np.zeros((9, 2))           # slot operator applied to each trial DOF
        for a in range(3):
            for i in range(2):
                r = 2 * a + i
                W[r] = (vq @ dN[a]) * I2[i] - N[a] * gvc[i]
                S[r] = (vq @ dN[a]) * I2[i] + N[a] * gvc[:, i]
                if dt is not None:
                    S[r] += N[a] * I2[i] / dt
                # Galerkin: convection (both parts), viscosity, acceleration, pressure.
                for b_ in range(3):
                    for j in range(2):
                        c = 2 * b_ + j
                        K[r, c] += wd * (N[a] * (vq @ dN[b_]) * (i == j)
                                         + N[a] * N[b_] * gvc[i, j]
                                         + nu * (dN[a] @ dN[b_]) * (i == j))
                        if dt is not None:
                            K[r, c] += wd * N[a] * N[b_] * (i == j) / dt
                    K[r, 6 + b_] -= wd * dN[a, i] * N[b_]
                    K[6 + b_, r] += wd * N[b_] * dN[a, i]
                F[r] += wd * N[a] * known[i]
            W[6 + a] = dN[a]
            S[6 + a] = dN[a]
        if stabilize:
            tau = b * w_b * Ainv
            K += wd * W @ tau @ S.T
            F += wd * W @ tau @ known
    return K, F


def sample_field_point_by_point(mesh: Mesh, state: State, points):
    """``output.sample_field`` one point at a time: the candidates are the
    triangles whose padded bounding box holds the point, and the lowest
    index among those that pass the barycentric test wins."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = mesh.node_coords.take(mesh.triangles, axis=0)  # (E, 3, 2)
    origin = coords[:, 2]
    Tinv, _ = inv2(np.stack([(coords[:, 0] - origin).T, (coords[:, 1] - origin).T], axis=1))
    lo, hi = coords.min(axis=1), coords.max(axis=1)
    pad = 1e-6 * (hi - lo)
    (x_lo, y_lo), (x_hi, y_hi) = (lo - pad).T.copy(), (hi + pad).T.copy()

    vel = np.full((len(pts), 2), np.nan)
    prs = np.full(len(pts), np.nan)
    inside = np.zeros(len(pts), dtype=bool)
    tol = 1e-10
    for k, x in enumerate(pts):
        cand = np.flatnonzero((x_lo <= x[0]) & (x[0] <= x_hi) & (y_lo <= x[1]) & (x[1] <= y_hi))
        lam = np.einsum("ije,ej->ei", Tinv[:, :, cand], x[None, :] - origin[cand])
        lam3 = 1.0 - lam.sum(axis=1)
        ok = (lam[:, 0] >= -tol) & (lam[:, 1] >= -tol) & (lam3 >= -tol)
        if not np.any(ok):
            continue
        c = int(np.argmax(ok))
        e = int(cand[c])
        N = np.array([lam[c, 0], lam[c, 1], lam3[c]])
        tri = mesh.triangles[e]
        bubble = N[0] * N[1] * N[2]
        vel[k] = N @ state.vbar[tri] + bubble * state.beta[e]
        prs[k] = N @ state.p[tri]
        inside[k] = True
    return vel, prs, inside


def write_table_by_rows(path, blocks) -> None:
    """``output.write_table`` row by row, with ``str.format`` fields: the
    writer the one-``%``-operation table writer replaced, as an oracle.

    Each block is ``(header, fmt, rows)``, ``fmt`` written with ``{}``
    fields (``braced_format`` turns a ``%``-format into one)."""
    with open(path, "w", encoding="ascii") as f:
        for header, fmt, rows in blocks:
            if header is not None:
                f.write(header + "\n")
            f.writelines(fmt.format(*row) + "\n" for row in rows)


def braced_format(fmt: str) -> str:
    """A ``%``-format of ``%d``, ``%s`` and ``%.Ng``/``%.Nf`` conversions as
    the ``str.format`` string that writes the same text: ``%d`` and ``%s``
    become ``{}``, ``%.17g`` becomes ``{:.17g}``."""
    return re.sub(r"%(\.\d+[fg]|[ds])",
                  lambda m: "{}" if m[1] in "ds" else "{:" + m[1] + "}", fmt)
