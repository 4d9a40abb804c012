"""The numbering of the free DOFs: the band it keeps, and the fill it buys.

``mesh.elimination_order`` orders the nodes, by a coordinate sweep when
that keeps the matrix within ``BAND_LIMIT`` of the diagonal and by
``mesh.nested_dissection`` otherwise; ``Discretization.free`` numbers the
free (u, v, p) DOFs node by node in that order, and ``linear_solve``
factors the assembled matrix without reordering it (banded LU on the
narrow side, SuperLU on the wide one).
"""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import vmsflow.solve as solve_module
from vmsflow.mesh import (
    BAND_LIMIT,
    BoundaryConditions,
    Mesh,
    build_dof_map,
    elimination_order,
    nested_dissection,
)
from vmsflow.newton import Discretization, assemble_system
from vmsflow.problems import backward_step, lid_cavity
from vmsflow.solve import SolverConfig, lifted_state, linear_solve, solve

from helpers import (
    dof_pair_matrix,
    dof_pair_pattern,
    median_nested_dissection,
    perturbed_square_mesh,
    renumbered,
    renumbering,
)


def zero_velocity(points):
    return np.zeros(np.shape(np.asarray(points))[:-1] + (2,))


def perturbed_square(n, seed):
    mesh = perturbed_square_mesh(n, np.random.default_rng(seed))
    bc = BoundaryConditions(dirichlet={t: zero_velocity for t in mesh.tags},
                            pressure_pin=(0, 0.0))
    return mesh, bc


def strip(rows, width):
    """Two columns of ``rows`` nodes, at x = 0 and x = ``width``, joined by triangles.

    Every node is on the boundary, so every node of the left column has a
    neighbour on the right.
    """
    y = np.arange(rows, dtype=float)
    coords = np.concatenate([np.column_stack([np.zeros(rows), y]),
                             np.column_stack([np.full(rows, width), y])])
    j = np.arange(rows - 1)
    tris = np.concatenate([np.column_stack([j, rows + j, rows + j + 1]),
                           np.column_stack([j, rows + j + 1, j + 1])])
    edges = [(a, a + 1) for a in [*j, *(rows + j)]] + [(0, rows), (rows - 1, 2 * rows - 1)]
    mesh = Mesh(coords, tris, tuple((a, b, "wall") for a, b in edges), ("wall",))
    return mesh, BoundaryConditions(dirichlet={"wall": zero_velocity}, pressure_pin=(0, 0.0))


def problem_case(kind, size, seed):
    if kind == "square":
        return perturbed_square(size, seed)
    if kind == "strip":    # seed 1 makes it wide: split across, with all left nodes separator
        return strip(size, 2.0 * size if seed else 1.0)
    prob = lid_cavity(size, re=100) if kind == "lid" else backward_step(re=50, h=1 / size)
    return prob.mesh, prob.bc


cases = st.one_of(
    st.tuples(st.just("square"), st.integers(2, 12), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("lid"), st.sampled_from([8, 12, 16]), st.just(0)),
    st.tuples(st.just("step"), st.sampled_from([2, 4, 8]), st.just(0)),  # h = 1/size
    st.tuples(st.just("strip"), st.integers(2, 40), st.integers(0, 1)),  # rows, wide
)


@settings(max_examples=25, deadline=None)
@given(case=cases)
def test_orders_are_permutations(case):
    mesh, bc = problem_case(*case)
    np.testing.assert_array_equal(np.sort(nested_dissection(mesh)), np.arange(mesh.n_nodes))
    order = elimination_order(mesh)
    np.testing.assert_array_equal(np.sort(order), np.arange(mesh.n_nodes))

    dofmap = build_dof_map(mesh, bc)
    free = Discretization(mesh, dofmap, bc).free
    np.testing.assert_array_equal(np.sort(free), dofmap.free)
    # node by node in the elimination order: (u, v, p) of one node are adjacent
    n = mesh.n_nodes
    node = np.where(free < 2 * n, free // 2, free - 2 * n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    assert np.all(np.diff(rank[node]) >= 0)


@settings(max_examples=25, deadline=None)
@given(case=cases, seed=st.integers(0, 2**32 - 1))
def test_dissection_matches_the_median_reference(case, seed):
    # min/max extents and a partitioned median split exactly where
    # np.ptp, np.argmax and np.median do, under any node numbering
    mesh, _ = renumbered(*problem_case(*case), np.random.default_rng(seed))
    got, want = nested_dissection(mesh), median_nested_dissection(mesh)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(case=cases, seed=st.integers(0, 2**32 - 1))
def test_node_pair_pattern_matches_the_dof_pair_construction(case, seed):
    # any global node numbering: free, the CSC pattern and every assembled
    # matrix are bitwise those of the 81-DOF-pair construction
    rng = np.random.default_rng(seed)
    mesh, bc = renumbered(*problem_case(*case), rng)
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc)
    reference = dof_pair_pattern(mesh, disc.dofmap, disc.edofs)
    free, indices, indptr, kept, slot = reference
    np.testing.assert_array_equal(disc.free, free)
    for got, want in ((disc.pattern.indices, indices), (disc.pattern.indptr, indptr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the same slot for every kept entry, and one discard slot for the rest
    np.testing.assert_array_equal(disc._slot[kept], slot)
    assert np.all(disc._slot[~kept] == indices.size)
    K = rng.normal(size=(9, 9, mesh.n_triangles))
    matrix, expected = disc.free_matrix(K), dof_pair_matrix(reference, K)
    assert matrix.data.tobytes() == expected.data.tobytes()


def test_strip_whose_left_half_is_all_separator():
    # 18 nodes split at x = 5: the nine left nodes all touch the right
    # column, so the left half left to dissect is empty
    mesh, bc = strip(9, 10.0)
    order = nested_dissection(mesh)
    np.testing.assert_array_equal(order, np.r_[9:18, 0:9])
    dofmap = build_dof_map(mesh, bc)
    np.testing.assert_array_equal(np.sort(Discretization(mesh, dofmap, bc).free), dofmap.free)


@pytest.mark.parametrize("case", [
    lambda: perturbed_square(9, 3),
    lambda: problem_case("lid", 16, 0),
    lambda: problem_case("step", 4, 0),
], ids=["perturbed-square", "lid", "step"])
def test_top_separator_splits_the_edge_graph(case):
    mesh, _ = case()
    order = nested_dissection(mesh)
    xy = mesh.node_coords
    axis = int(np.argmax(np.ptp(xy, axis=0)))
    on_left = xy[:, axis] <= np.median(xy[:, axis])
    edges = np.unique(np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
                      axis=0)
    crossing = on_left[edges[:, 0]] != on_left[edges[:, 1]]
    separator = np.unique(edges[crossing][on_left[edges[crossing]]])
    n_left = np.count_nonzero(on_left) - separator.size
    n_right = np.count_nonzero(~on_left)

    left, right, tail = np.split(order, [n_left, n_left + n_right])
    np.testing.assert_array_equal(np.sort(tail), separator)
    assert not np.any(on_left[right])
    part = np.full(mesh.n_nodes, -1)
    part[left], part[right] = 0, 1
    joined = {tuple(sorted(pair)) for pair in part[edges].tolist()}
    assert (0, 1) not in joined


@pytest.mark.parametrize("problem, band", [
    (lambda: backward_step(re=50, h=0.25), True),
    (lambda: backward_step(re=50, h=0.125), True),
    (lambda: lid_cavity(8, re=100), True),
    (lambda: lid_cavity(16, re=100), True),
    (lambda: lid_cavity(24, re=100), False),
    (lambda: lid_cavity(32, re=100), False),
    (lambda: backward_step(re=50, h=0.05), False),
], ids=["step0.25", "step0.125", "lid8", "lid16", "lid24", "lid32", "step0.05"])
def test_elimination_order_keeps_narrow_meshes_banded(problem, band):
    # the coordinate sweep where it keeps the matrix within BAND_LIMIT of
    # the diagonal, and nested dissection where it would not
    prob = problem()
    xy = prob.mesh.node_coords
    axis = int(np.argmax(np.ptp(xy, axis=0)))
    sweep = np.lexsort((xy[:, 1 - axis], xy[:, axis]))
    expected = sweep if band else nested_dissection(prob.mesh)
    np.testing.assert_array_equal(elimination_order(prob.mesh), expected)

    disc = Discretization(prob.mesh, build_dof_map(prob.mesh, prob.bc), prob.bc)
    K = np.random.default_rng(1).normal(size=(9, 9, prob.mesh.n_triangles))
    coo = disc.free_matrix(K).tocoo()
    assert (np.abs(coo.row - coo.col).max() <= BAND_LIMIT) == band


def factored_fill(matrix, monkeypatch):
    """L+U nonzeros of the factor ``linear_solve`` computes for ``matrix``."""
    factors = []
    splu = spla.splu

    def recording(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solve_module.spla, "splu", recording)
    linear_solve(matrix, np.ones(matrix.shape[0]))
    return factors[0].L.nnz + factors[0].U.nnz


@pytest.mark.parametrize("problem", [
    lambda: lid_cavity(32, re=400),
    lambda: lid_cavity(64, re=400),
    lambda: lid_cavity(128, re=400),
    lambda: backward_step(re=150, h=0.05),
], ids=["lid32", "lid64", "lid128", "step0.05"])
def test_dissection_fill_not_above_colamd(problem, monkeypatch):
    """The factor in dissection order fills no more than COLAMD's.

    The matrix is the Newton matrix at the lifted start, the same
    system factored both ways (COLAMD with SuperLU's default pivot
    threshold).  Each of these meshes is too wide for the banded LU.
    The coarse step mesh ``h=0.25`` (333 unknowns), where the dissection
    fill was 14.2k against COLAMD's 10.0k, is now numbered by the
    coordinate sweep and factored as a band.
    """
    prob = problem()
    dofmap = build_dof_map(prob.mesh, prob.bc)
    disc = Discretization(prob.mesh, dofmap, prob.bc, prob.body_force)
    matrix = assemble_system(disc, lifted_state(prob.mesh, dofmap), prob.nu).matrix
    colamd = spla.splu(sp.csc_matrix(matrix))
    assert factored_fill(matrix, monkeypatch) <= colamd.L.nnz + colamd.U.nnz


@functools.cache
def lid_solution(strategy):
    prob = lid_cavity(16, re=400)
    return prob, solve(prob, SolverConfig(strategy=strategy, tol=1e-10))


@pytest.mark.parametrize("strategy", ["newton", "fixed_point"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_is_invariant_under_renumbering(strategy, seed):
    # nodes, triangles and each triangle's local nodes numbered at random:
    # the same iterations, and the same state node by node and element by element
    prob, (state, report) = lid_solution(strategy)
    mesh, bc, new_id, order = renumbering(prob.mesh, prob.bc, np.random.default_rng(seed))
    got, got_report = solve(dataclasses.replace(prob, mesh=mesh, bc=bc),
                            SolverConfig(strategy=strategy, tol=1e-10))
    assert got_report.iterations == report.iterations
    assert got_report.stop_reason == report.stop_reason
    np.testing.assert_allclose(got.vbar[new_id], state.vbar, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.p[new_id], state.p, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.beta, state.beta[order], rtol=0, atol=1e-10)
