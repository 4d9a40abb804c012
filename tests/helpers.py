"""Shared oracles for the test suite.

The monolithic global system built here is assembled from the public
per-element operations, keeping the fine-scale coefficients as explicit
unknowns appended after the (velocity, pressure) block.  It exists only
for verification: the production path condenses the fine scale away.
"""

from __future__ import annotations

import numpy as np

from vmsflow.fem import element_geometry, t3_bubble, t3_shape, triangle_quadrature
from vmsflow.mesh import BoundaryConditions, Mesh, build_dof_map, unit_square_mesh
from vmsflow.newton import State, element_dofs, element_residuals, element_tangent

BLOCK_NAMES = ("Kcc", "Kcp", "Kcf", "Kpc", "Kpf", "Kfc", "Kfp", "Kff")


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
