"""Structured triangulations of the benchmark geometries and DOF bookkeeping.

Meshes are immutable after construction.  Velocity unknowns are numbered
node-major and component-interleaved (v1x, v1y, v2x, v2y, ...), pressure
unknowns follow all velocity unknowns; the per-element fine-scale
coefficients stay element-local and never receive global numbers on the
production (condensed) path.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

_GEOM_TOL = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with tagged boundary edges.

    ``boundary_edges`` holds (node_a, node_b, tag) triples; every listed
    edge belongs to exactly one triangle.
    """

    node_coords: np.ndarray                 # (n_nodes, 2)
    triangles: np.ndarray                   # (n_tri, 3), counterclockwise
    boundary_edges: tuple[tuple[int, int, str], ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        coords = np.ascontiguousarray(self.node_coords, dtype=float)
        tris = np.ascontiguousarray(self.triangles, dtype=np.int64)
        coords.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "node_coords", coords)
        object.__setattr__(self, "triangles", tris)
        _validate_mesh(self)

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        p = self.node_coords[self.triangles]
        d1 = p[:, 0] - p[:, 2]
        d2 = p[:, 1] - p[:, 2]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edges_with_tag(self, tag: str) -> list[tuple[int, int]]:
        return [(a, b) for a, b, t in self.boundary_edges if t == tag]

    def boundary_nodes(self, tag: str | None = None) -> np.ndarray:
        nodes = set()
        for a, b, t in self.boundary_edges:
            if tag is None or t == tag:
                nodes.update((a, b))
        return np.array(sorted(nodes), dtype=np.int64)


def _edge_counts(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected (min, max) edges in order of first appearance, with triangle counts."""
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    base = int(triangles.max()) + 1 if triangles.size else 1
    _, first, counts = np.unique(pairs[:, 0] * base + pairs[:, 1],
                                 return_index=True, return_counts=True)
    order = np.argsort(first)
    return pairs[first[order]], counts[order]


def _validate_mesh(mesh: Mesh) -> None:
    n = mesh.n_nodes
    if mesh.triangles.size and (mesh.triangles.min() < 0 or mesh.triangles.max() >= n):
        raise ValueError("triangle connectivity references nodes out of range")
    areas = mesh.triangle_areas()
    if np.any(areas <= _GEOM_TOL):
        bad = int(np.argmin(areas))
        raise ValueError(
            f"triangle {bad} has non-positive area {areas[bad]:.3e}; "
            "connectivity must be counterclockwise"
        )
    edges, counts = _edge_counts(mesh.triangles)
    if np.any(counts > 2):
        raise ValueError("mesh is not edge-manifold: an edge is shared by > 2 triangles")
    boundary = set(map(tuple, edges[counts == 1].tolist()))
    listed = set()
    for a, b, tag in mesh.boundary_edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError("boundary edge references nodes out of range")
        key = (min(a, b), max(a, b))
        if key not in boundary:
            raise ValueError(f"edge {key} is tagged '{tag}' but is not a boundary edge")
        listed.add(key)
    if listed != boundary:
        raise ValueError("boundary edges are not completely tagged")


def _boundary_edges_from_triangles(triangles: np.ndarray) -> list[tuple[int, int]]:
    edges, counts = _edge_counts(triangles)
    return list(map(tuple, edges[counts == 1].tolist()))


def _structured_triangles(node_id, nx: int, ny: int, keep=None) -> list[tuple[int, int, int]]:
    """Two CCW triangles per kept cell, split along the lower-left/upper-right diagonal."""
    tris = []
    for ix in range(nx):
        for iy in range(ny):
            if keep is not None and not keep(ix, iy):
                continue
            ll = node_id(ix, iy)
            lr = node_id(ix + 1, iy)
            ul = node_id(ix, iy + 1)
            ur = node_id(ix + 1, iy + 1)
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    return tris


def unit_square_mesh(n: int) -> Mesh:
    """Uniform n-by-n cell triangulation of the unit square.

    Boundary tags: ``left`` (x=0), ``right`` (x=1), ``bottom`` (y=0),
    ``top`` (y=1).
    """
    if n < 2:
        raise ValueError(f"unit_square_mesh needs n >= 2, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    coords = np.column_stack([xx.ravel(), yy.ravel()])

    def node_id(ix, iy):
        return iy * (n + 1) + ix

    tris = np.array(_structured_triangles(node_id, n, n), dtype=np.int64)

    def classify(pa, pb):
        mx, my = 0.5 * (pa + pb)
        if abs(mx) < _GEOM_TOL:
            return "left"
        if abs(mx - 1.0) < _GEOM_TOL:
            return "right"
        if abs(my) < _GEOM_TOL:
            return "bottom"
        if abs(my - 1.0) < _GEOM_TOL:
            return "top"
        raise AssertionError("boundary edge not on the unit-square boundary")

    edges = tuple(
        (a, b, classify(coords[a], coords[b]))
        for a, b in _boundary_edges_from_triangles(tris)
    )
    return Mesh(coords, tris, edges, ("left", "right", "bottom", "top"))


def backward_step_mesh(
    upstream_len: float = 1.0,
    downstream_len: float = 7.0,
    step_height: float = 0.5,
    channel_height: float = 1.0,
    h: float = 0.25,
) -> Mesh:
    """Structured triangulation of the L-shaped backward-facing step channel.

    The inflow section spans x in [0, upstream_len] above the step
    (y in [step_height, channel_height]); downstream of the step edge the
    channel occupies the full height.  Tags: ``inflow`` (x=0),
    ``outflow`` (x=upstream_len+downstream_len), ``walls`` (the rest).
    ``h`` must divide all geometric dimensions.
    """
    if not 0.0 < step_height < channel_height:
        raise ValueError("step_height must lie strictly between 0 and channel_height")
    dims = (upstream_len, downstream_len, step_height, channel_height - step_height)
    counts = []
    for d in dims:
        c = d / h
        if abs(c - round(c)) > 1e-9 or round(c) < 1:
            raise ValueError(f"edge length h={h} does not divide geometric dimension {d}")
        counts.append(int(round(c)))
    n_up, n_down, n_step, _ = counts
    nx = n_up + n_down
    ny = int(round(channel_height / h))
    total_len = upstream_len + downstream_len

    xs = np.linspace(0.0, total_len, nx + 1)
    ys = np.linspace(0.0, channel_height, ny + 1)

    def in_solid(ix, iy):
        # Cell centers below the step height and upstream of the step edge.
        return ix < n_up and iy < n_step

    used = np.full((nx + 1, ny + 1), -1, dtype=np.int64)
    coords_list = []
    for ix in range(nx + 1):
        for iy in range(ny + 1):
            # A node is kept when it touches at least one fluid cell.
            touches = False
            for cx in (ix - 1, ix):
                for cy in (iy - 1, iy):
                    if 0 <= cx < nx and 0 <= cy < ny and not in_solid(cx, cy):
                        touches = True
            if touches:
                used[ix, iy] = len(coords_list)
                coords_list.append((xs[ix], ys[iy]))
    coords = np.array(coords_list)

    def node_id(ix, iy):
        return int(used[ix, iy])

    tris = np.array(
        _structured_triangles(node_id, nx, ny, keep=lambda ix, iy: not in_solid(ix, iy)),
        dtype=np.int64,
    )

    def classify(pa, pb):
        mx = 0.5 * (pa[0] + pb[0])
        if abs(mx) < _GEOM_TOL:
            return "inflow"
        if abs(mx - total_len) < _GEOM_TOL:
            return "outflow"
        return "walls"

    edges = tuple(
        (a, b, classify(coords[a], coords[b]))
        for a, b in _boundary_edges_from_triangles(tris)
    )
    return Mesh(coords, tris, edges, ("inflow", "outflow", "walls"))


@dataclass(frozen=True)
class BoundaryConditions:
    """Dirichlet/Neumann assignment by boundary tag, plus optional pressure pin.

    ``dirichlet`` maps tag -> velocity function of position (an (..., 2)
    array-valued callable of (..., 2) points).  When a node lies on edges
    carrying different Dirichlet tags, the tag listed LAST in the mapping
    takes the node; problem builders order wall tags after lid/inflow
    tags so that corners inherit the wall value.  ``neumann`` maps tag ->
    traction function (default zero traction when a tag is listed with
    ``None``).  ``pressure_pin`` is (node index, value).
    """

    dirichlet: Mapping[str, Callable]
    neumann: Mapping[str, Callable | None] = field(default_factory=dict)
    pressure_pin: tuple[int, float] | None = None

    def __post_init__(self):
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise ValueError(f"tags {sorted(overlap)} are both Dirichlet and Neumann")


@dataclass(frozen=True)
class DofMap:
    """Global equation numbering and the set of constrained unknowns.

    Velocity DOF of (node, component) is ``2*node + component``; pressure
    DOF of a node is ``2*n_nodes + node``.  ``constrained`` maps each
    fixed global index to its prescribed value.  Fine-scale coefficients
    are element-local (two per element) and are not part of the global
    numbering on the condensed path.
    """

    n_nodes: int
    n_elements: int
    constrained: dict[int, float]
    free: np.ndarray                    # sorted unconstrained global indices

    @property
    def n_velocity(self) -> int:
        return 2 * self.n_nodes

    @property
    def n_pressure(self) -> int:
        return self.n_nodes

    @property
    def total(self) -> int:
        return 3 * self.n_nodes

    def velocity_dof(self, node: int, component: int) -> int:
        return 2 * node + component

    def pressure_dof(self, node: int) -> int:
        return 2 * self.n_nodes + node

    def fine_dof(self, element: int) -> np.ndarray:
        if not 0 <= element < self.n_elements:
            raise ValueError(f"element index {element} out of range")
        return np.array([0, 1], dtype=np.int64)

    def constrained_values(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.fromiter(self.constrained.keys(), dtype=np.int64, count=len(self.constrained))
        order = np.argsort(idx)
        vals = np.fromiter(self.constrained.values(), dtype=float, count=len(self.constrained))
        return idx[order], vals[order]


def build_dof_map(mesh: Mesh, bc: BoundaryConditions) -> DofMap:
    """Number the global unknowns and resolve the constrained set.

    Each node on a Dirichlet-tagged edge contributes two constrained
    velocity DOFs; nodes shared by several Dirichlet tags take the value
    of the tag listed last in ``bc.dirichlet``.  The pressure pin, when
    present, constrains one pressure DOF.  Without any Neumann tag a pin
    is mandatory (the pressure would otherwise float).
    """
    mesh_tags = set(mesh.tags)
    for tag in list(bc.dirichlet) + list(bc.neumann):
        if tag not in mesh_tags:
            raise ValueError(f"boundary tag '{tag}' is not defined on the mesh")
    if not bc.neumann and bc.pressure_pin is None:
        raise ValueError(
            "pressure is determined only up to a constant: with no Neumann "
            "boundary a pressure_pin is required"
        )

    constrained: dict[int, float] = {}
    for tag, func in bc.dirichlet.items():  # later tags override at shared nodes
        nodes = mesh.boundary_nodes(tag)
        if nodes.size == 0:
            continue
        values = np.asarray(func(mesh.node_coords[nodes]), dtype=float)
        if values.shape != (nodes.size, 2):
            raise ValueError(
                f"Dirichlet function for tag '{tag}' returned shape {values.shape}, "
                f"expected {(nodes.size, 2)}"
            )
        for node, val in zip(nodes, values):
            constrained[2 * int(node)] = float(val[0])
            constrained[2 * int(node) + 1] = float(val[1])

    if bc.pressure_pin is not None:
        node, value = bc.pressure_pin
        if not 0 <= node < mesh.n_nodes:
            raise ValueError(f"pressure pin node {node} out of range")
        constrained[2 * mesh.n_nodes + int(node)] = float(value)

    total = 3 * mesh.n_nodes
    mask = np.ones(total, dtype=bool)
    mask[list(constrained)] = False
    free = np.flatnonzero(mask)
    return DofMap(
        n_nodes=mesh.n_nodes,
        n_elements=mesh.n_triangles,
        constrained=constrained,
        free=free,
    )


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain-text exchange format.

    Node count, then "x y" lines; triangle count, then "i j k" lines;
    boundary-edge count, then "a b tag" lines.  Whitespace-delimited
    ASCII, coordinates at full double precision.
    """
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{mesh.n_nodes}\n")
        for x, y in mesh.node_coords:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"{mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")
        f.write(f"{len(mesh.boundary_edges)}\n")
        for a, b, tag in mesh.boundary_edges:
            f.write(f"{a} {b} {tag}\n")


def read_mesh(path) -> Mesh:
    """Read a mesh written by :func:`write_mesh`."""
    with open(path, encoding="ascii") as f:
        tokens = f.read().split()
    pos = 0

    def take(n):
        nonlocal pos
        out = tokens[pos:pos + n]
        if len(out) != n:
            raise ValueError(f"truncated mesh file {path}")
        pos += n
        return out

    n_nodes = int(take(1)[0])
    coords = np.array(take(2 * n_nodes), dtype=float).reshape(n_nodes, 2)
    n_tris = int(take(1)[0])
    tris = np.array(take(3 * n_tris), dtype=np.int64).reshape(n_tris, 3)
    n_edges = int(take(1)[0])
    edges = []
    for _ in range(n_edges):
        a, b, tag = take(3)
        edges.append((int(a), int(b), tag))
    tags = tuple(dict.fromkeys(tag for _, _, tag in edges))
    return Mesh(coords, tris, tuple(edges), tags)
