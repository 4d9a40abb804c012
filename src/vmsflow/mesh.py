"""Structured triangulations of the benchmark geometries and DOF bookkeeping.

Meshes are immutable after construction and carry their edge table,
built in one whole-array pass.  ``DofMap`` owns the global numbering:
velocity unknowns node-major and component-interleaved (v1x, v1y, v2x,
v2y, ...), then all pressure unknowns; the per-element fine-scale
coefficients stay element-local and never receive global numbers on the
production (condensed) path.  ``elimination_order`` gives the node
order in which a solve numbers its free unknowns: a coordinate sweep that
keeps the matrix inside a narrow band where the mesh allows it, else the
fill-reducing ``nested_dissection``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import InitVar, dataclass, field
from decimal import Decimal

import numpy as np

_GEOM_TOL = 1e-12
ND_LEAF = 16           # nested dissection numbers node sets this small as they are
BAND_LIMIT = 64        # widest half-bandwidth, in unknowns, factored as a band matrix
MAX_NODES = 1_000_000  # most nodes a mesh builder makes


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh with tagged boundary edges.

    ``boundary_edges`` holds (node_a, node_b, tag) triples; every listed
    edge belongs to exactly one triangle.  ``edges`` is the read-only
    (n_edges, 2) ``np.intc`` table of undirected (min, max) triangle edges
    in order of first appearance, computed once while the mesh is built;
    validation, ``elimination_order`` and ``nested_dissection`` read it.
    ``unit_square_mesh`` and ``backward_step_mesh`` compute it before
    tagging and pass it on as ``edge_table`` (which must be
    ``_edge_counts(triangles)``).
    Meshes compare by identity.
    """

    node_coords: np.ndarray                 # (n_nodes, 2)
    triangles: np.ndarray                   # (n_tri, 3), counterclockwise
    boundary_edges: tuple[tuple[int, int, str], ...]
    tags: tuple[str, ...]
    edge_table: InitVar[tuple[np.ndarray, np.ndarray] | None] = None
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, edge_table):
        coords = np.array(self.node_coords, dtype=float, order="C")
        tris = np.array(self.triangles, dtype=np.int64, order="C")
        coords.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "node_coords", coords)
        object.__setattr__(self, "triangles", tris)
        _check_triangles(self)
        edges, counts = _edge_counts(tris) if edge_table is None else edge_table
        _check_boundary(self, edges, counts)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        p = self.node_coords.take(self.triangles.T, axis=0)   # (3, E, 2), one corner per row
        d1 = p[0] - p[2]
        d2 = p[1] - p[2]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edges_with_tag(self, tag: str | None = None) -> list[tuple[int, int]]:
        return [(a, b) for a, b, t in self.boundary_edges if tag is None or t == tag]

    def boundary_nodes(self, tag: str | None = None) -> np.ndarray:
        return np.unique(np.array(self.edges_with_tag(tag), dtype=np.int64))


def _edge_counts(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected (min, max) edges in order of first appearance, with triangle counts."""
    a = triangles.reshape(-1)                  # edges (t0, t1), (t1, t2), (t2, t0)
    b = triangles[:, [1, 2, 0]].reshape(-1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = lo * (int(triangles.max()) + 1 if triangles.size else 1) + hi
    perm = np.argsort(keys, kind="stable")     # stable: each run starts at its first appearance
    starts = np.flatnonzero(np.diff(keys[perm], prepend=-1))
    first = perm[starts]
    counts = np.zeros(keys.size, dtype=np.int64)
    counts[first] = np.diff(starts, append=keys.size)
    first.sort()
    # Node numbers fit np.intc (MAX_NODES); the table lives as long as the mesh.
    return np.column_stack([lo[first], hi[first]]).astype(np.intc), counts[first]


def _check_triangles(mesh: Mesh) -> None:
    n = mesh.n_nodes
    if mesh.triangles.size and (mesh.triangles.min() < 0 or mesh.triangles.max() >= n):
        raise ValueError("triangle connectivity references nodes out of range")
    finite = np.isfinite(mesh.node_coords)
    if not finite.all():
        bad = int(np.argmin(finite)) // 2
        raise ValueError(f"node {bad} has a non-finite coordinate: {mesh.node_coords[bad]}")
    # The text format holds a tag as one ASCII word.  Each tag is carried, as
    # build_dof_map reads a non-empty node set for every tag, and listed once.
    carried = {t for _, _, t in mesh.boundary_edges}
    for i, tag in enumerate(mesh.tags):
        if not isinstance(tag, str) or not tag.isascii() or tag.split() != [tag]:
            raise ValueError(f"tag {tag!r} is not one word of non-space ASCII characters")
        if tag not in carried or tag in mesh.tags[:i]:
            why = "listed twice" if tag in carried else "carried by no boundary edge"
            raise ValueError(f"mesh tag {tag!r} is {why}")
    known = set(mesh.tags)
    unknown = [t for _, _, t in mesh.boundary_edges if t not in known]
    if unknown:
        raise ValueError(f"boundary edge tag {unknown[0]!r} is not in the mesh tags {mesh.tags}")
    areas = mesh.triangle_areas()
    if np.any(areas <= _GEOM_TOL):
        bad = int(np.argmin(areas))
        raise ValueError(
            f"triangle {bad} has non-positive area {areas[bad]:.3e}; "
            "connectivity must be counterclockwise"
        )


def _check_boundary(mesh: Mesh, edges: np.ndarray, counts: np.ndarray) -> None:
    """Every listed edge is a boundary edge (one triangle), and every boundary edge is listed."""
    if np.any(counts > 2):
        raise ValueError("mesh is not edge-manifold: an edge is shared by > 2 triangles")
    n = mesh.n_nodes
    listed = np.array([(a, b) for a, b, _ in mesh.boundary_edges], dtype=np.int64).reshape(-1, 2)
    # The first listed edge that is out of range or not on the boundary names the error.
    in_range = np.all((listed >= 0) & (listed < n), axis=1)
    listed = np.sort(np.where(in_range[:, None], listed, 0), axis=1)
    boundary = edges[counts == 1].astype(np.int64)
    keys = listed[:, 0] * n + listed[:, 1]
    on_boundary = np.isin(keys, boundary[:, 0] * n + boundary[:, 1])
    bad = np.flatnonzero(~in_range | ~on_boundary)
    if bad.size:
        i = bad[0]
        if not in_range[i]:
            raise ValueError("boundary edge references nodes out of range")
        key = tuple(listed[i].tolist())
        raise ValueError(
            f"edge {key} is tagged '{mesh.boundary_edges[i][2]}' but is not a boundary edge")
    if np.unique(keys).size != boundary.shape[0]:
        raise ValueError("boundary edges are not completely tagged")


def _tagged_mesh(coords: np.ndarray, tris: np.ndarray, sides, tags) -> Mesh:
    """Mesh whose boundary edges are tagged by their midpoints.

    ``sides(midpoints)`` returns one boolean mask per tag, in the order of ``tags``,
    together covering the boundary; an edge takes the first tag whose mask holds there.
    """
    edge_table = _edge_counts(tris)
    edges, counts = edge_table
    boundary = edges[counts == 1]
    masks = sides(0.5 * (coords[boundary[:, 0]] + coords[boundary[:, 1]]))
    which = np.select(masks, list(range(len(tags))))
    a, b = boundary.T.tolist()
    tagged = tuple(zip(a, b, (tags[i] for i in which.tolist())))
    return Mesh(coords, tris, tagged, tags, edge_table)


def _grid_triangles(ids: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Two CCW triangles per kept cell, split along the lower-left/upper-right diagonal.

    ``ids[ix, iy]`` is the node at grid point (ix, iy) and ``cells[ix, iy]``
    keeps the cell above and right of it; cells go in ix-major order.
    """
    nx, ny = cells.shape
    ll, lr, ul, ur = (ids[i:i + nx, j:j + ny][cells]
                      for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
    return np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)


def _check_node_count(what: str, count: int) -> None:
    """``ValueError`` naming ``count`` when it exceeds ``MAX_NODES``."""
    if count > MAX_NODES:
        shown = count if count < 10**15 else f"{Decimal(count):.3e}"
        raise ValueError(f"{what} would have {shown} nodes, more than MAX_NODES = {MAX_NODES}")


def unit_square_mesh(n: int) -> Mesh:
    """Uniform n-by-n cell triangulation of the unit square.

    Boundary tags: ``left`` (x=0), ``right`` (x=1), ``bottom`` (y=0),
    ``top`` (y=1).  More than ``MAX_NODES`` nodes raises ``ValueError``.
    """
    if n < 2:
        raise ValueError(f"unit_square_mesh needs n >= 2, got {n}")
    _check_node_count(f"unit_square_mesh({n})", (n + 1) ** 2)
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1).T     # iy*(n+1) + ix
    tris = _grid_triangles(ids, np.ones((n, n), dtype=bool))

    def sides(mid):
        mx, my = mid.T
        return [abs(mx) < _GEOM_TOL, abs(mx - 1.0) < _GEOM_TOL,
                abs(my) < _GEOM_TOL, abs(my - 1.0) < _GEOM_TOL]

    return _tagged_mesh(coords, tris, sides, ("left", "right", "bottom", "top"))


def backward_step_mesh(h: float = 0.25) -> Mesh:
    """Structured triangulation of the L-shaped backward-facing step channel.

    The channel is 1 high.  Its inflow section spans x in [0, 1] above the
    step (y in [0.5, 1]); downstream of the step edge, over x in [1, 8],
    it occupies the full height.  Tags: ``inflow`` (x=0), ``outflow``
    (x=8), ``walls`` (the rest).  ``h`` must be positive and divide 0.5;
    more than ``MAX_NODES`` nodes raises ``ValueError``.
    """
    if not h > 0:    # NaN fails it too
        raise ValueError(f"edge length h must be positive, got {h}")
    # Every length of the channel is a multiple of the step height 0.5.
    c = 0.5 / h
    if not c < np.inf:
        raise ValueError(f"edge length h={h} is too small: 0.5/h overflows")
    k = round(c)
    if abs(c - k) > 1e-9 or k < 1:
        raise ValueError(f"edge length h={h} does not divide the step height 0.5")
    n_up, n_step = 2 * k, k                    # cells upstream of and under the step
    nx, ny = n_up + 14 * k, 2 * k              # 14k cells downstream, 2k across
    # The grid's nodes less those that touch only the solid corner.
    _check_node_count(f"backward_step_mesh(h={h})", (nx + 1) * (ny + 1) - n_up * n_step)

    xs = np.linspace(0.0, 8.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)

    fluid = np.ones((nx, ny), dtype=bool)
    fluid[:n_up, :n_step] = False              # the solid corner below and before the step
    # A node is kept when it touches at least one fluid cell; kept nodes are numbered ix-major.
    padded = np.pad(fluid, 1)
    touches = padded[:-1, :-1] | padded[1:, :-1] | padded[:-1, 1:] | padded[1:, 1:]
    ids = np.full(touches.shape, -1, dtype=np.int64)
    ids[touches] = np.arange(np.count_nonzero(touches))
    ix, iy = np.nonzero(touches)
    coords = np.column_stack([xs[ix], ys[iy]])
    tris = _grid_triangles(ids, fluid)

    def sides(mid):
        mx = mid[:, 0]
        return [abs(mx) < _GEOM_TOL, abs(mx - 8.0) < _GEOM_TOL,
                np.ones(mx.shape, dtype=bool)]

    return _tagged_mesh(coords, tris, sides, ("inflow", "outflow", "walls"))


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


def checked_values(func: Callable, points: np.ndarray, what: str, where: str) -> np.ndarray:
    """``func(points)`` as floats: one finite 2-vector per point of ``points``
    (..., 2), else a ``ValueError`` naming ``what`` (and ``where`` it is not finite)."""
    values = np.asarray(func(points), dtype=float)
    if values.shape != points.shape:
        raise ValueError(f"{what} returned shape {values.shape} for points of shape "
                         f"{points.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite at every {where}")
    return values


def _split(vector: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(vbar (n, 2), p (n,)) views of a (3n,) vector: the global numbering."""
    return vector[:2 * n_nodes].reshape(n_nodes, 2), vector[2 * n_nodes:]


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global equation numbering and the values of the constrained unknowns.

    ``split`` and ``node_dofs`` hold the numbering: velocities node-major
    and component-interleaved, then pressures.  ``free`` lists the
    unconstrained global indices sorted; ``prescribed`` holds, for every
    global DOF, its Dirichlet or pin value where constrained and zero
    where free.  Both arrays are read-only.  Fine-scale coefficients are
    element-local (two per element) and are not part of the global
    numbering on the condensed path.  DOF maps compare by identity.
    """

    n_nodes: int
    free: np.ndarray                    # sorted unconstrained global indices
    prescribed: np.ndarray              # (3*n_nodes,) constrained values, zero where free

    @property
    def total(self) -> int:
        return 3 * self.n_nodes

    def split(self, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(vbar (n, 2), p (n,)) views of a global vector."""
        return _split(vector, self.n_nodes)

    def node_dofs(self, nodes) -> np.ndarray:
        """The (u, v, p) global DOFs of ``nodes``, shape ``np.shape(nodes) + (3,)``."""
        vbar, p = self.split(np.arange(self.total))
        return np.concatenate([vbar[nodes], p[nodes, None]], axis=-1)


def build_dof_map(mesh: Mesh, bc: BoundaryConditions) -> DofMap:
    """Number the global unknowns and resolve the constrained set.

    Each node on a Dirichlet-tagged edge contributes two constrained
    velocity DOFs; nodes shared by several Dirichlet tags take the value
    of the tag listed last in ``bc.dirichlet``; each Dirichlet function must
    give a finite 2-vector per node (``checked_values``).  The pressure pin, when
    present, constrains one pressure DOF; its node must be an integer in
    range and its value finite.  Without any Neumann tag a pin is
    mandatory (the pressure would otherwise float).
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

    n = mesh.n_nodes
    prescribed = np.zeros(3 * n)
    fixed = np.zeros(3 * n, dtype=bool)
    vbar_values, p_values = _split(prescribed, n)
    vbar_fixed, p_fixed = _split(fixed, n)
    for tag, func in bc.dirichlet.items():  # later tags override at shared nodes
        nodes = mesh.boundary_nodes(tag)    # never empty: every mesh tag is carried
        vbar_values[nodes] = checked_values(func, mesh.node_coords[nodes],
                                            f"Dirichlet function for tag '{tag}'", "boundary node")
        vbar_fixed[nodes] = True

    if bc.pressure_pin is not None:
        node, value = bc.pressure_pin
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)) or not 0 <= node < n:
            raise ValueError(f"pressure pin node must be an integer in [0, {n}), got {node!r}")
        if not np.isfinite(value):
            raise ValueError(f"pressure pin value must be finite, got {value!r}")
        p_values[node] = float(value)
        p_fixed[node] = True

    free = np.flatnonzero(~fixed)
    free.setflags(write=False)
    prescribed.setflags(write=False)
    return DofMap(n_nodes=n, free=free, prescribed=prescribed)


def nested_dissection(mesh: Mesh) -> np.ndarray:
    """Fill-reducing node order by coordinate nested dissection.

    A node set of more than ``ND_LEAF`` nodes is split at the median
    coordinate of its longer extent (nodes at the median go left).  The
    left nodes with a triangle-edge neighbour on the right form the
    separator, and the set is numbered [left, right, separator] with
    both halves ordered the same way (George, SIAM J. Numer. Anal. 10,
    1973; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16, 1979).  The
    neighbours come from the mesh's edge table, ``mesh.edges``.
    Returns a permutation of ``range(n_nodes)``.
    """
    n = mesh.n_nodes
    pairs = np.concatenate([mesh.edges, mesh.edges[:, ::-1]])
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    degree = np.bincount(pairs[:, 0], minlength=n)
    # Row i lists the edge neighbours of node i, padded with n, which is never on the right.
    neighbours = np.full((n, degree.max(initial=0)), n)
    slot = np.arange(len(pairs)) - np.repeat(np.cumsum(degree) - degree, degree)
    neighbours[pairs[:, 0], slot] = pairs[:, 1]
    on_right = np.zeros(n + 1, dtype=bool)
    order = []

    def dissect(nodes):
        if nodes.size == 0:    # a half that was all separator
            return
        coords = mesh.node_coords[nodes]
        extent = coords.max(axis=0) - coords.min(axis=0)
        axis = int(extent[1] > extent[0])
        if nodes.size <= ND_LEAF or extent[axis] == 0.0:
            order.append(nodes)
            return
        x = coords[:, axis]
        middle = ((x.size - 1) // 2, x.size // 2)     # one index twice for an odd count
        low, high = np.partition(x, middle)[list(middle)]
        median = (low + high) / 2
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


def elimination_order(mesh: Mesh) -> np.ndarray:
    """The node order in which a solve numbers its free unknowns.

    The nodes sorted along the longer coordinate extent (x on a tie),
    ties broken by the other coordinate, when that keeps every matrix
    banded: with (u, v, p) numbered node by node, an edge between nodes
    ``g`` ranks apart couples unknowns at most ``3 g + 2`` apart, so the
    sweep is taken when ``3 g + 2 <= BAND_LIMIT`` for the largest such gap
    over ``mesh.edges`` (George & Liu, *Computer Solution of Large Sparse
    Positive Definite Systems*, 1981).  A long narrow mesh, such as a
    coarse channel, qualifies; a square one only when it is small.
    Otherwise ``nested_dissection(mesh)``.  Both orders depend on the
    coordinates alone, not on the node numbering.  Returns a permutation
    of ``range(n_nodes)``.
    """
    coords = mesh.node_coords
    axis = int(np.argmax(np.ptp(coords, axis=0)))
    order = np.lexsort((coords[:, 1 - axis], coords[:, axis]))
    rank = np.empty(mesh.n_nodes, dtype=np.int64)
    rank[order] = np.arange(mesh.n_nodes)
    gap = np.abs(np.diff(rank[mesh.edges], axis=1)).max(initial=0)
    return order if 3 * gap + 2 <= BAND_LIMIT else nested_dissection(mesh)


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain-text exchange format.

    Node count, then "x y" lines; triangle count, then "i j k" lines;
    boundary-edge count, then "a b tag" lines; tag count, then the tags
    in ``mesh.tags`` order, one a line.  Whitespace-delimited ASCII,
    coordinates at full double precision.
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
        f.write(f"{len(mesh.tags)}\n")
        for tag in mesh.tags:
            f.write(f"{tag}\n")


def read_mesh(path) -> Mesh:
    """Read a mesh written by :func:`write_mesh`; a file that ends early, or
    goes on past the tag list, raises ``ValueError``."""
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
    tags = tuple(take(int(take(1)[0])))
    if pos < len(tokens):
        raise ValueError(f"mesh file {path} goes on past its tag list, "
                         f"with '{tokens[pos]}'")
    return Mesh(coords, tris, tuple(edges), tags)
