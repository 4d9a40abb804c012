"""Mesh generation, boundary tagging, DOF numbering, and text-format I/O."""

import dataclasses
import hashlib
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vmsflow.mesh as mesh_module
from vmsflow.mesh import (
    BoundaryConditions,
    Mesh,
    backward_step_mesh,
    build_dof_map,
    nested_dissection,
    read_mesh,
    unit_square_mesh,
    write_mesh,
)
from vmsflow.newton import Discretization
from vmsflow.problems import lid_cavity
from vmsflow.solve import SolverConfig, solve

from helpers import perturbed_square_mesh, reference_boundary_edges, square_side, step_side


def zero_velocity(points):
    return np.zeros(np.shape(np.asarray(points))[:-1] + (2,))


def loop_triangles(node_id, nx, ny, solid=lambda ix, iy: False):
    """Reference triangulation, cell by cell: two CCW triangles per fluid cell, ix-major."""
    tris = []
    for ix in range(nx):
        for iy in range(ny):
            if not solid(ix, iy):
                ll, lr = node_id(ix, iy), node_id(ix + 1, iy)
                ul, ur = node_id(ix, iy + 1), node_id(ix + 1, iy + 1)
                tris += [(ll, lr, ur), (ll, ur, ul)]
    return np.array(tris)


class TestUnitSquare:
    def test_counts_n2(self):
        mesh = unit_square_mesh(2)
        assert mesh.n_nodes == 9
        assert mesh.n_triangles == 8
        assert len(mesh.boundary_edges) == 8

    def test_connectivity_n2(self):
        # node iy*(n+1) + ix, two triangles per cell, cells ix-major
        np.testing.assert_array_equal(unit_square_mesh(2).triangles, [
            [0, 1, 4], [0, 4, 3], [3, 4, 7], [3, 7, 6],
            [1, 2, 5], [1, 5, 4], [4, 5, 8], [4, 8, 7],
        ])

    @pytest.mark.parametrize("n", [3, 7])
    def test_matches_loop_reference(self, n):
        mesh = unit_square_mesh(n)
        np.testing.assert_array_equal(
            mesh.triangles, loop_triangles(lambda ix, iy: iy * (n + 1) + ix, n, n))

    def test_total_area_exact(self):
        assert unit_square_mesh(2).triangle_areas().sum() == pytest.approx(1.0, abs=1e-15)

    def test_uniform_areas_n4(self):
        areas = unit_square_mesh(4).triangle_areas()
        np.testing.assert_allclose(areas, 1 / 32, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_area_sums(self, n):
        assert unit_square_mesh(n).triangle_areas().sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            unit_square_mesh(1)

    def test_tags_cover_sides(self):
        mesh = unit_square_mesh(3)
        for tag, coord, value in [
            ("left", 0, 0.0), ("right", 0, 1.0), ("bottom", 1, 0.0), ("top", 1, 1.0),
        ]:
            edges = mesh.edges_with_tag(tag)
            assert len(edges) == 3
            for a, b in edges:
                assert mesh.node_coords[a][coord] == pytest.approx(value, abs=1e-15)
                assert mesh.node_coords[b][coord] == pytest.approx(value, abs=1e-15)

    def test_edge_manifold(self):
        # every triangle edge appears at most twice; boundary edges exactly once
        mesh = unit_square_mesh(4)
        counts = {}
        for tri in mesh.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
        assert set(counts.values()) <= {1, 2}
        boundary = {k for k, c in counts.items() if c == 1}
        tagged = {(min(a, b), max(a, b)) for a, b, _ in mesh.boundary_edges}
        assert tagged == boundary


class TestBackwardStep:
    def test_default_area(self):
        mesh = backward_step_mesh()
        assert mesh.triangle_areas().sum() == pytest.approx(1 * 0.5 + 7 * 1.0, rel=1e-12)

    def test_numbering_h05(self):
        # nodes ix-major, skipping the two grid points that touch only the solid
        mesh = backward_step_mesh(h=0.5)
        expected = [(0.0, 0.5), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0)]
        expected += [(x, y) for x in np.arange(1.0, 8.25, 0.5) for y in (0.0, 0.5, 1.0)]
        np.testing.assert_array_equal(mesh.node_coords, expected)
        assert mesh.n_triangles == 60
        np.testing.assert_array_equal(mesh.triangles[:2], [[0, 2, 3], [0, 3, 1]])
        np.testing.assert_array_equal(mesh.triangles[-2:], [[44, 47, 48], [44, 48, 45]])

    @pytest.mark.parametrize("dims", [dict(h=0.25)])
    def test_matches_loop_reference(self, dims):
        mesh = backward_step_mesh(**dims)
        h = dims["h"]
        nx, ny = round(8.0 / h), round(1.0 / h)

        def solid(ix, iy):
            return ix < round(1.0 / h) and iy < round(0.5 / h)

        ids, coords = {}, []
        for ix in range(nx + 1):
            for iy in range(ny + 1):
                if any(0 <= cx < nx and 0 <= cy < ny and not solid(cx, cy)
                       for cx in (ix - 1, ix) for cy in (iy - 1, iy)):
                    ids[ix, iy] = len(coords)
                    coords.append((ix * h, iy * h))
        np.testing.assert_allclose(mesh.node_coords, coords, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            mesh.triangles, loop_triangles(lambda ix, iy: ids[ix, iy], nx, ny, solid))

    def test_nonconforming_h(self):
        with pytest.raises(ValueError):
            backward_step_mesh(h=0.3)

    @pytest.mark.parametrize("h", [0.0, float("nan"), -0.25])
    def test_non_positive_h_is_named(self, h):
        # checked before any division: 0 used to raise ZeroDivisionError
        with pytest.raises(ValueError, match="edge length h must be positive"):
            backward_step_mesh(h=h)

    def test_inflow_edges_on_opening(self):
        mesh = backward_step_mesh()
        inflow = mesh.edges_with_tag("inflow")
        assert inflow
        for a, b in inflow:
            for node in (a, b):
                x, y = mesh.node_coords[node]
                assert x == pytest.approx(0.0, abs=1e-15)
                assert 0.5 - 1e-12 <= y <= 1.0 + 1e-12

    def test_tags(self):
        mesh = backward_step_mesh()
        assert set(mesh.tags) == {"inflow", "outflow", "walls"}
        outflow = mesh.edges_with_tag("outflow")
        for a, b in outflow:
            assert mesh.node_coords[a][0] == pytest.approx(8.0)


class TestNodeBound:
    """A mesh past ``MAX_NODES`` is refused, by its node count, before any array exists."""

    @pytest.mark.parametrize("build, nodes", [
        (lambda: unit_square_mesh(8), 81), (lambda: backward_step_mesh(h=0.25), 157),
    ], ids=["square", "step"])
    def test_count_is_checked_before_building(self, monkeypatch, build, nodes):
        assert build().n_nodes == nodes
        monkeypatch.setattr(mesh_module, "MAX_NODES", nodes - 1)
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("allocated"))
        with pytest.raises(ValueError, match=f"would have {nodes} nodes, more than "
                                             f"MAX_NODES = {nodes - 1}"):
            build()

    def test_tiny_edge_length_is_named_by_its_node_count(self):
        # used to end in numpy's "Maximum allowed size exceeded"
        with pytest.raises(ValueError, match=r"h=1e-300\) would have 7\.500e\+600 nodes"):
            backward_step_mesh(h=1e-300)
        with pytest.raises(ValueError, match="h=5e-324 is too small"):
            backward_step_mesh(h=5e-324)

    def test_largest_benchmark_mesh_is_within_the_bound(self, monkeypatch):
        assert 257**2 <= mesh_module.MAX_NODES      # lid n=256
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("allocated"))
        with pytest.raises(ValueError, match=f"would have {1001**2} nodes"):
            unit_square_mesh(1000)


class TestDofMap:
    def test_counts_all_dirichlet(self):
        mesh = unit_square_mesh(2)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags},
            pressure_pin=(0, 0.0),
        )
        dofmap = build_dof_map(mesh, bc)
        assert dofmap.total == 27
        # 8 boundary nodes x 2 components + the pin
        constrained = np.setdiff1d(np.arange(dofmap.total), dofmap.free)
        assert constrained.size == 17
        assert dofmap.free.size == 10
        np.testing.assert_array_equal(dofmap.free, [8, 9, 19, 20, 21, 22, 23, 24, 25, 26])
        assert not dofmap.prescribed.any()

    def test_pin_required_without_neumann(self):
        mesh = unit_square_mesh(2)
        bc = BoundaryConditions(dirichlet={t: zero_velocity for t in mesh.tags})
        with pytest.raises(ValueError, match="pressure_pin"):
            build_dof_map(mesh, bc)

    def test_unknown_tag_rejected(self):
        mesh = unit_square_mesh(2)
        bc = BoundaryConditions(dirichlet={"lid": zero_velocity}, pressure_pin=(0, 0.0))
        with pytest.raises(ValueError, match="lid"):
            build_dof_map(mesh, bc)

    def test_numbering_is_bijection(self):
        mesh = unit_square_mesh(3)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(mesh, bc)
        seen = set()
        for node in range(mesh.n_nodes):
            for comp in range(2):
                seen.add(dofmap.node_dofs(node)[comp])
            seen.add(dofmap.node_dofs(node)[2])
        assert seen == set(range(dofmap.total))

    def test_node_dofs_index_what_split_views(self):
        mesh = unit_square_mesh(3)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(mesh, bc)
        vector = np.random.default_rng(0).normal(size=dofmap.total)
        vbar, p = dofmap.split(vector)
        assert vbar.shape == (mesh.n_nodes, 2) and p.shape == (mesh.n_nodes,)
        assert np.shares_memory(vbar, vector) and np.shares_memory(p, vector)
        nodes = np.array([[3, 0, 7], [15, 2, 2]])
        dofs = dofmap.node_dofs(nodes)
        assert dofs.shape == (2, 3, 3) and dofmap.node_dofs(5).shape == (3,)
        np.testing.assert_array_equal(vector[dofs[..., :2]], vbar[nodes])
        np.testing.assert_array_equal(vector[dofs[..., 2]], p[nodes])

    def test_later_tag_wins_at_corners(self):
        mesh = unit_square_mesh(4)

        def lid(points):
            out = np.zeros(np.shape(np.asarray(points))[:-1] + (2,))
            out[..., 0] = 1.0
            return out

        bc = BoundaryConditions(
            dirichlet={"top": lid, "left": zero_velocity, "right": zero_velocity,
                       "bottom": zero_velocity},
            pressure_pin=(0, 0.0),
        )
        dofmap = build_dof_map(mesh, bc)
        corners = [
            int(np.argmin(np.abs(mesh.node_coords - c).sum(axis=1)))
            for c in ([0.0, 1.0], [1.0, 1.0])
        ]
        for node in corners:
            assert dofmap.node_dofs(node)[0] not in dofmap.free
            assert dofmap.prescribed[dofmap.node_dofs(node)[0]] == 0.0
        # interior lid nodes keep the lid value
        mid_top = int(np.argmin(np.abs(mesh.node_coords - [0.5, 1.0]).sum(axis=1)))
        assert dofmap.prescribed[dofmap.node_dofs(mid_top)[0]] == 1.0

    def test_arrays_are_read_only(self):
        mesh = unit_square_mesh(2)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(mesh, bc)
        with pytest.raises(ValueError):
            dofmap.prescribed[0] = 1.0
        with pytest.raises(ValueError):
            dofmap.free[0] = 0

    def test_comparison_returns_bool(self):
        # array fields have no single truth value, so equality is identity
        mesh = unit_square_mesh(2)
        bc = BoundaryConditions(
            dirichlet={t: zero_velocity for t in mesh.tags}, pressure_pin=(0, 0.0)
        )
        dofmap = build_dof_map(mesh, bc)
        assert (dofmap == build_dof_map(mesh, bc)) is False
        assert (dofmap == dofmap) is True
        assert (mesh == unit_square_mesh(2)) is False
        assert (mesh == mesh) is True

    def test_dirichlet_neumann_overlap_rejected(self):
        with pytest.raises(ValueError):
            BoundaryConditions(
                dirichlet={"top": zero_velocity}, neumann={"top": None}
            )


class TestMeshValidation:
    def test_clockwise_triangle_rejected(self):
        from vmsflow.mesh import Mesh

        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="counterclockwise"):
            Mesh(coords, np.array([[0, 2, 1]]),
                 ((0, 1, "e"), (1, 2, "e"), (2, 0, "e")), ("e",))

    def test_untagged_boundary_rejected(self):
        from vmsflow.mesh import Mesh

        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not completely tagged"):
            Mesh(coords, np.array([[0, 1, 2]]), ((0, 1, "e"), (1, 2, "e")), ("e",))

    def test_interior_edge_tag_rejected(self):
        from vmsflow.mesh import Mesh

        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        edges = ((0, 1, "e"), (1, 2, "e"), (2, 3, "e"), (3, 0, "e"), (0, 2, "e"))
        with pytest.raises(ValueError, match="not a boundary edge"):
            Mesh(coords, tris, edges, ("e",))

    def test_out_of_range_boundary_edge_rejected(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="boundary edge references nodes out of range"):
            Mesh(coords, np.array([[0, 1, 2]]),
                 ((0, 1, "e"), (1, 2, "e"), (2, 0, "e"), (2, 3, "e")), ("e",))

    def test_first_bad_listed_edge_names_the_error(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        with pytest.raises(ValueError, match=r"edge \(0, 2\) is tagged 'd'"):
            Mesh(coords, tris, ((1, 0, "e"), (2, 0, "d"), (5, 0, "e")), ("e", "d"))
        with pytest.raises(ValueError, match="out of range"):
            Mesh(coords, tris, ((1, 0, "e"), (5, 0, "e"), (2, 0, "d")), ("e", "d"))

    def test_repeated_boundary_edge_accepted(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        edges = ((0, 1, "e"), (1, 2, "e"), (2, 0, "e"), (1, 0, "e"))
        assert Mesh(coords, np.array([[0, 1, 2]]), edges, ("e",)).boundary_edges == edges
        with pytest.raises(ValueError, match="not completely tagged"):   # (2, 0) is missing
            Mesh(coords, np.array([[0, 1, 2]]), edges[:2] + edges[3:], ("e",))

    def test_mesh_keeps_its_own_arrays(self):
        # it used to freeze the caller's arrays; a caller who made them
        # writeable again could turn two triangles to area -1
        reference = unit_square_mesh(2)
        coords, tris = reference.node_coords.copy(), reference.triangles.copy()
        mesh = Mesh(coords, tris, reference.boundary_edges, reference.tags)
        assert coords.flags.writeable and tris.flags.writeable
        assert not (mesh.node_coords.flags.writeable or mesh.triangles.flags.writeable)
        areas = mesh.triangle_areas()
        coords[4] = [5.0, 5.0]
        tris[0] = tris[0, ::-1]
        np.testing.assert_array_equal(mesh.node_coords, reference.node_coords)
        np.testing.assert_array_equal(mesh.triangles, reference.triangles)
        np.testing.assert_array_equal(mesh.triangle_areas(), areas)

    def test_out_of_range_connectivity_rejected(self):
        from vmsflow.mesh import Mesh

        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="out of range"):
            Mesh(coords, np.array([[0, 1, 3]]),
                 ((0, 1, "e"), (1, 3, "e"), (3, 0, "e")), ("e",))

    def test_nan_coordinate_rejected_by_node(self, tmp_path):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]])
        edges = ((0, 1, "e"), (1, 2, "e"), (2, 0, "e"))
        with pytest.raises(ValueError, match="node 2 has a non-finite coordinate"):
            Mesh(coords, np.array([[0, 1, 2]]), edges, ("e",))
        path = tmp_path / "mesh.txt"
        path.write_text("3\n0 0\n1 0\n0 nan\n1\n0 1 2\n3\n0 1 e\n1 2 e\n2 0 e\n1\ne\n")
        with pytest.raises(ValueError, match="node 2 has a non-finite coordinate"):
            read_mesh(path)

    def test_inf_coordinate_rejected_by_node(self):
        coords = np.array([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="node 1 has a non-finite coordinate"):
            Mesh(coords, np.array([[0, 1, 2]]),
                 ((0, 1, "e"), (1, 2, "e"), (2, 0, "e")), ("e",))

    def test_edge_tag_missing_from_tags_rejected(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="boundary edge tag 'wall' is not in the mesh tags"):
            Mesh(coords, np.array([[0, 1, 2]]),
                 ((0, 1, "e"), (1, 2, "wall"), (2, 0, "e")), ("e",))

    @pytest.mark.parametrize("tags, message", [
        (("e", "unused"), "mesh tag 'unused' is carried by no boundary edge"),
        (("e", "e"), "mesh tag 'e' is listed twice"),
    ])
    def test_tag_list_must_match_the_edges(self, tags, message):
        # Dirichlet data on a tag that no edge carries would reach no node
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(message)):
            Mesh(coords, np.array([[0, 1, 2]]), ((0, 1, "e"), (1, 2, "e"), (2, 0, "e")), tags)

    @pytest.mark.parametrize("tag", ["no slip", "", "lid\t"])
    def test_tag_with_whitespace_rejected(self, tag):
        # write_mesh/read_mesh could not round-trip it
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(f"tag {tag!r} is not one word")):
            Mesh(coords, np.array([[0, 1, 2]]),
                 ((0, 1, "e"), (1, 2, tag), (2, 0, "e")), ("e", tag))

    def test_non_ascii_tag_rejected_before_any_write(self, tmp_path):
        # write_mesh used to fail part-way with a UnicodeEncodeError, and
        # read_mesh then called the partial file truncated
        square = unit_square_mesh(2)
        edges = tuple((a, b, "é" if t == "top" else t) for a, b, t in square.boundary_edges)
        tags = tuple("é" if t == "top" else t for t in square.tags)
        path = tmp_path / "mesh.txt"
        with pytest.raises(ValueError, match="tag 'é' is not one word of non-space ASCII"):
            write_mesh(Mesh(square.node_coords, square.triangles, edges, tags), path)
        assert not path.exists()


class TestEdgeTable:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_square_tags_match_edge_by_edge_reference(self, n):
        mesh = unit_square_mesh(n)
        assert_same_edges(mesh.boundary_edges, reference_boundary_edges(mesh, square_side))

    @pytest.mark.parametrize("dims", [dict(h=0.5), dict(h=0.25), dict(h=0.125), dict(h=0.05)])
    def test_step_tags_match_edge_by_edge_reference(self, dims):
        mesh = backward_step_mesh(**dims)
        assert_same_edges(mesh.boundary_edges, reference_boundary_edges(mesh, step_side))

    def test_table_lists_every_edge_once_and_is_read_only(self):
        mesh = unit_square_mesh(5)
        expected = {tuple(sorted(pair)) for tri in mesh.triangles.tolist()
                    for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
        assert {tuple(e) for e in mesh.edges.tolist()} == expected
        assert len(mesh.edges) == len(expected)
        assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
        with pytest.raises(ValueError, match="read-only"):
            mesh.edges[0, 0] = 1

    def test_edge_keys_past_the_table_type_are_formed_in_int64(self):
        # the table is np.intc; node_a * n + node_b overflows it past n = 46341
        n = 50_000
        coords = np.zeros((n, 2))
        coords[-3:] = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        tris = [[n - 3, n - 2, n - 1]]
        edges = ((n - 3, n - 2, "b"), (n - 2, n - 1, "b"), (n - 1, n - 3, "b"))
        mesh = Mesh(coords, tris, edges, ("b",))
        assert mesh.edges.dtype == np.intc and mesh.edges.max() == n - 1

    def test_one_edge_pass_per_mesh(self, monkeypatch):
        calls = []
        edge_counts = mesh_module._edge_counts
        monkeypatch.setattr(mesh_module, "_edge_counts",
                            lambda tris: calls.append(len(tris)) or edge_counts(tris))
        square, step = unit_square_mesh(6), backward_step_mesh(h=0.25)
        copied = Mesh(square.node_coords, square.triangles, square.boundary_edges, square.tags)
        assert calls == [square.n_triangles, step.n_triangles, copied.n_triangles]
        problem = lid_cavity(8, re=10)
        assert len(calls) == 4
        nested_dissection(square)
        Discretization(problem.mesh, build_dof_map(problem.mesh, problem.bc), problem.bc)
        assert len(calls) == 4


def assert_same_edges(edges, reference):
    assert edges == reference
    assert all(type(a) is int and type(b) is int and type(tag) is str for a, b, tag in edges)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = backward_step_mesh(h=0.5)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        np.testing.assert_array_equal(back.node_coords, mesh.node_coords)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)
        assert back.boundary_edges == mesh.boundary_edges

    @pytest.mark.parametrize("build, tags", [
        (lambda: unit_square_mesh(4), ("left", "right", "bottom", "top")),
        (backward_step_mesh, ("inflow", "outflow", "walls")),
    ])
    def test_round_trip_keeps_the_tag_order(self, tmp_path, build, tags):
        mesh = build()
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        assert mesh.tags == read_mesh(path).tags == tags

    def test_file_without_a_tag_list_is_truncated(self, tmp_path):
        # such a file used to list its tags by first edge
        path = tmp_path / "mesh.txt"
        path.write_text("3\n0 0\n1 0\n0 1\n1\n0 1 2\n3\n0 1 b\n1 2 a\n2 0 b\n")
        with pytest.raises(ValueError, match="truncated mesh file"):
            read_mesh(path)

    def test_file_that_goes_on_past_its_tag_list_is_rejected(self, tmp_path):
        # such a file used to read back as the mesh before the extra tokens
        path = tmp_path / "mesh.txt"
        write_mesh(unit_square_mesh(2), path)
        with open(path, "a", encoding="ascii") as f:
            f.write("junk 7 8\n")
        with pytest.raises(ValueError, match="goes on past its tag list, with 'junk'"):
            read_mesh(path)

    def test_round_trip_irrational_coords(self, tmp_path):
        mesh = unit_square_mesh(3)  # coordinates with 1/3 are not exact decimals
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.abs(back.node_coords - mesh.node_coords).max() <= 1e-15

    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(4, 8), seed=st.integers(0, 2**32 - 1))
    def test_re_read_mesh_solves_bitwise_the_same(self, n, seed):
        mesh = perturbed_square_mesh(n, np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.txt")
            write_mesh(mesh, path)
            back = read_mesh(path)
        lid = lid_cavity(8, re=100)       # tag-wise conditions, pin at node 0

        def digest(m, strategy):
            state, report = solve(dataclasses.replace(lid, mesh=m),
                                  SolverConfig(strategy=strategy))
            h = hashlib.sha1(state.digest())
            for history in (report.residual_history, report.increment_history):
                h.update(b"-" if history is None else history.tobytes())
            h.update(report.stop_reason.encode())
            return h.digest()

        for strategy in ("newton", "fixed_point"):
            assert digest(back, strategy) == digest(mesh, strategy)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 4), data=st.data())
    def test_every_accepted_mesh_keeps_its_tags(self, n, data):
        square = unit_square_mesh(n)
        words = st.sampled_from(["a", "b", "lid", "wall"])
        labels = data.draw(st.lists(words, min_size=len(square.boundary_edges),
                                    max_size=len(square.boundary_edges)))
        edges = tuple((a, b, tag) for (a, b, _), tag in zip(square.boundary_edges, labels))
        extra = data.draw(st.lists(words, max_size=2))
        tags = tuple(data.draw(st.permutations(sorted(set(labels))))) + tuple(extra)
        try:
            mesh = Mesh(square.node_coords, square.triangles, edges, tags)
        except ValueError:
            assert extra   # an idle or repeated tag, and nothing else, is rejected
            return
        assert not extra
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.txt")
            write_mesh(mesh, path)
            back = read_mesh(path)
        assert back.tags == mesh.tags
        assert back.boundary_edges == mesh.boundary_edges

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("5\n0 0\n")
        with pytest.raises(ValueError):
            read_mesh(path)
