"""The shared set-up and scatter path of both nonlinear strategies.

Oracles: the condensed Newton system and the lifted fixed-point system
must equal a dense sum of the public per-element operations, and both
must be invariant under a cyclic rotation of each triangle's local nodes.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsflow.fixed_point import compute_tau, fp_assemble, fp_element_system
from vmsflow.mesh import BoundaryConditions, Mesh, build_dof_map, unit_square_mesh
from vmsflow.newton import (
    Discretization,
    State,
    assemble_system,
    condense,
    element_dofs,
    element_residuals,
    element_tangent,
    traction_vector,
)
from vmsflow.newton import _fields
from vmsflow.problems import backward_step, body_force_cavity, lid_cavity
import vmsflow.solve as solve_module
from vmsflow.solve import ContinuationConfig, SolverConfig, solve, time_march

from helpers import dense_fixed_point, random_state


def linear_force(points):
    x, y = points[..., 0], points[..., 1]
    return np.stack([1.0 + 2.0 * x - y, 0.5 - x + 3.0 * y], axis=-1)


def outflow_traction(points):
    y = points[..., 1]
    return np.stack([1.0 + y, -0.5 * y**2], axis=-1)


def lid(points):
    out = np.zeros(np.shape(points)[:-1] + (2,))
    out[..., 0] = 1.0
    return out


def zero(points):
    return np.zeros(np.shape(points)[:-1] + (2,))


def cavity_case():
    prob = lid_cavity(8, re=50)
    return prob.mesh, prob.bc, prob.nu


def step_case():
    prob = backward_step(re=20, h=0.5)
    bc = BoundaryConditions(dirichlet=prob.bc.dirichlet,
                            neumann={"outflow": outflow_traction})
    return prob.mesh, bc, prob.nu


def dense_newton(mesh, dofmap, bc, free, state, nu, body_force):
    """Condensed matrix, rhs and residual norm summed element by element.

    Rows and columns are the global DOFs ``free``, in that order.
    """
    total = dofmap.total
    K = np.zeros((total, total))
    R_hat = np.zeros(total)
    R_vp = np.zeros(total)
    rf2 = 0.0
    for e, dofs in enumerate(element_dofs(mesh, dofmap)):
        res = element_residuals(mesh, e, state, nu, body_force)
        cond = condense(res, element_tangent(mesh, e, state, nu), e)
        K[np.ix_(dofs, dofs)] += cond.K_hat
        R_hat[dofs] += cond.R_hat
        R_vp[dofs] += np.concatenate([res.Rc, res.Rp])
        rf2 += res.Rf @ res.Rf
    load = traction_vector(mesh, dofmap, bc)
    norm = np.sqrt(np.sum((R_vp - load)[free] ** 2) + rf2)
    return K[np.ix_(free, free)], -(R_hat - load)[free], norm


def assert_close(actual, expected, rel):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= rel * scale


@pytest.mark.parametrize("case", [cavity_case, step_case], ids=["cavity", "step"])
@pytest.mark.parametrize("dt", [None, 0.1], ids=["steady", "transient"])
def test_scatter_matches_dense_element_sum(case, dt):
    mesh, bc, nu = case()
    dofmap = build_dof_map(mesh, bc)
    disc = Discretization(mesh, dofmap, bc, linear_force)
    state = random_state(mesh, np.random.default_rng(11), dt=dt)

    K, rhs, norm = dense_newton(mesh, dofmap, bc, disc.free, state, nu, linear_force)
    system = assemble_system(disc, state, nu)
    assert_close(system.matrix.toarray(), K, 1e-13)
    assert_close(system.rhs, rhs, 1e-13)
    assert system.residual == pytest.approx(norm, rel=1e-13)

    K, rhs = dense_fixed_point(mesh, dofmap, bc, disc.free, state.vbar, state.vbar_prev,
                               nu, dt, linear_force)
    matrix, load = fp_assemble(disc, state, nu)
    assert_close(matrix.toarray(), K, 1e-13)
    assert_close(load, rhs, 1e-13)


@pytest.mark.parametrize("case", [cavity_case, step_case], ids=["cavity", "step"])
def test_free_matrix_is_sorted_csc_of_the_coo_sum(case):
    mesh, bc, _ = case()
    dofmap = build_dof_map(mesh, bc)
    disc = Discretization(mesh, dofmap, bc)
    K = np.random.default_rng(5).normal(size=(9, 9, mesh.n_triangles))
    matrix = disc.free_matrix(K)
    assert isinstance(matrix, sp.csc_matrix)
    n_free = disc.free.size
    column = np.repeat(np.arange(n_free), np.diff(matrix.indptr))
    assert np.all(np.diff(column * n_free + matrix.indices) > 0)   # sorted, unique rows
    # so it is marked canonical (the flag is set, not found by a scan of
    # the matrix), and scipy's own scan and sum agree
    assert vars(matrix).get("_has_canonical_format") is True
    scanned = sp.csc_matrix((matrix.data.copy(), matrix.indices, matrix.indptr),
                            shape=matrix.shape)
    assert scanned.has_canonical_format
    data = matrix.data.copy()
    matrix.sum_duplicates()
    scanned.sum_duplicates()
    assert matrix.data.tobytes() == scanned.data.tobytes() == data.tobytes()

    position = np.full(dofmap.total, -1)
    position[disc.free] = np.arange(n_free)
    local = position[element_dofs(mesh, dofmap).T]                # (9, E)
    rows, cols = (a.ravel() for a in np.broadcast_arrays(local[:, None], local[None]))
    kept = (rows >= 0) & (cols >= 0)
    reference = sp.coo_matrix((K.ravel()[kept], (rows[kept], cols[kept])),
                              shape=(n_free, n_free))
    np.testing.assert_array_equal(matrix.toarray(), reference.toarray())


@pytest.mark.parametrize("case", [cavity_case, step_case], ids=["cavity", "step"])
def test_free_matrix_shares_the_read_only_intc_pattern(case):
    # scipy keeps intc index arrays as they are: no scan and no copy per matrix
    mesh, bc, _ = case()
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc)
    K = np.random.default_rng(6).normal(size=(9, 9, mesh.n_triangles))
    matrix = disc.free_matrix(K)
    assert matrix.indices.dtype == matrix.indptr.dtype == np.intc
    assert np.shares_memory(matrix.indices, disc.free_matrix(K).indices)
    assert np.shares_memory(matrix.indptr, disc.free_matrix(K).indptr)
    with pytest.raises(ValueError, match="read-only"):
        matrix.indices[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        matrix.indptr[-1] = 0
    wide = sp.csc_matrix((matrix.data, matrix.indices.astype(np.int64),
                          matrix.indptr.astype(np.int64)), shape=matrix.shape)
    np.testing.assert_array_equal(matrix.toarray(), wide.toarray())


# Every entry point that builds the iterate's fields, called as (disc, state, nu).
ASSEMBLIES = [assemble_system, fp_assemble]
VIEWS = [
    pytest.param(lambda disc, s, nu: element_residuals(disc.mesh, 0, s, nu),
                 id="element_residuals"),
    pytest.param(lambda disc, s, nu: element_tangent(disc.mesh, 0, s, nu),
                 id="element_tangent"),
    pytest.param(lambda disc, s, nu: fp_element_system(disc.mesh, 0, s.vbar, s.vbar_prev, nu,
                                                       dt=s.dt), id="fp_element_system"),
]
TAU = pytest.param(lambda disc, s, nu: compute_tau(disc.mesh, 0, s.vbar, nu), id="compute_tau")


@pytest.mark.parametrize("nu", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("assemble", ASSEMBLIES + VIEWS + [TAU])
def test_non_positive_viscosity_is_a_named_error(assemble, nu):
    mesh, bc, _ = cavity_case()
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc)
    with pytest.raises(ValueError, match="kinematic viscosity must be positive"):
        assemble(disc, State.zeros(mesh), nu)


@pytest.mark.parametrize("dt, has_prev, message", [
    (0.0, True, "time step must be positive"),
    (float("nan"), True, "time step must be positive"),
    (0.1, False, "previous velocity"),
], ids=["zero_dt", "nan_dt", "dt_without_vbar_prev"])
@pytest.mark.parametrize("assemble", ASSEMBLIES + VIEWS)
def test_bad_transient_data_is_a_named_error(assemble, dt, has_prev, message):
    mesh, bc, nu = cavity_case()
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc)
    state = State.zeros(mesh)
    state.dt, state.vbar_prev = dt, state.vbar.copy() if has_prev else None
    with pytest.raises(ValueError, match=message):
        assemble(disc, state, nu)


def _attributes(obj):
    return {k: (id(v), v.tobytes() if isinstance(v, np.ndarray) else None)
            for k, v in vars(obj).items()}


def test_set_up_is_not_written_during_solves(monkeypatch):
    # every rung and time step shares one Discretization; none may change it
    built = []
    setup = solve_module._setup

    def recorded(problem):
        disc = setup(problem)
        built.append((disc, _attributes(disc), _attributes(disc.batch)))
        return disc

    monkeypatch.setattr(solve_module, "_setup", recorded)
    for strategy in ("newton", "fixed_point"):
        solve(body_force_cavity(8, re=20), SolverConfig(
            strategy=strategy, tol=1e-9, max_iter=30,
            continuation=ContinuationConfig(10, 20, 1.5)))
        list(time_march(body_force_cavity(8, re=20), SolverConfig(
            strategy=strategy, tol=1e-9, max_iter=30), 0.5, 2))
    assert len(built) == 4
    for disc, attributes, tables in built:
        assert _attributes(disc) == attributes
        assert _attributes(disc.batch) == tables
        assert disc.load is not None
        # and none can be: every array of the set-up is read-only
        for obj in (disc, disc.batch):
            for name, array in vars(obj).items():
                if isinstance(array, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = array


def test_element_tables_are_c_contiguous_with_the_element_index_last():
    mesh, bc, _ = step_case()
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc, linear_force)
    E = mesh.n_triangles
    shapes = {"G": (3, 2), "mass": (4, 4), "bmass": (3, 3), "stiff": (4, 4),
              "mass_gb": (4, 4, 2), "gbgb": (2, 2), "div": (8, 3)}
    for name, shape in shapes.items():
        table = getattr(disc.batch, name)
        assert table.shape == (*shape, E) and table.flags.c_contiguous, name
    for array, shape in ((disc.load, (7, 2)), (disc.edofs, (9,))):
        assert array.shape == (*shape, E) and array.flags.c_contiguous
    # and so is the iterate every kernel reads (a strided one slows the
    # einsum contractions several times over)
    state = random_state(mesh, np.random.default_rng(2), dt=0.1)
    fields = _fields(disc.batch, state, 0.5)
    shapes = {"U": (4, 2), "p": (3,), "gvbar": (2, 2), "mu": (4, 2), "gbu": (4,), "prev": (3, 2)}
    for name, shape in shapes.items():
        array = getattr(fields, name)
        assert array.shape == (*shape, E) and array.flags.c_contiguous, name


def rotation_bc():
    return BoundaryConditions(
        dirichlet={"top": lid, "left": zero, "bottom": zero},
        neumann={"right": outflow_traction},
    )


def assembled(mesh, state, nu):
    bc = rotation_bc()
    disc = Discretization(mesh, build_dof_map(mesh, bc), bc, linear_force)
    system = assemble_system(disc, state, nu)
    K, F = fp_assemble(disc, state, nu)
    return system.matrix.toarray(), system.rhs, system.residual, K.toarray(), F


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), transient=st.booleans(),
       nu=st.floats(0.01, 2.0))
def test_assembly_invariant_under_local_node_rotation(seed, transient, nu):
    # The degree-8 rule is exact for every integrand here (the body force is
    # linear), so only round-off may separate the two numberings.
    rng = np.random.default_rng(seed)
    mesh = unit_square_mesh(3)
    shifts = rng.integers(0, 3, mesh.n_triangles)
    local = (np.arange(3)[None, :] + shifts[:, None]) % 3
    rotated = Mesh(mesh.node_coords, np.take_along_axis(mesh.triangles, local, axis=1),
                   mesh.boundary_edges, mesh.tags)
    state = random_state(mesh, rng, dt=0.1 if transient else None)
    for a, b in zip(assembled(mesh, state, nu), assembled(rotated, state, nu)):
        assert_close(np.asarray(b), np.asarray(a), 1e-12)


def nan_force(points):
    return np.full(np.shape(points), np.nan)


@pytest.mark.parametrize("strategy", ["newton", "fixed_point"])
def test_non_finite_body_force_is_a_named_error(strategy):
    prob = dataclasses.replace(body_force_cavity(4, re=10), body_force=nan_force)
    with pytest.raises(ValueError, match="body force nan_force is not finite"):
        solve(prob, SolverConfig(strategy=strategy))


def nan_velocity(points):
    return np.full(np.shape(points), np.nan)


def three_components(points):
    return np.ones(np.shape(points)[:-1] + (3,))


def lid_with(kind, tag, func):
    """Lid-cavity conditions with side ``tag`` given ``func`` as a Dirichlet
    or traction function."""
    bc = lid_cavity(8, re=100).bc
    if kind == "dirichlet":
        return BoundaryConditions({**bc.dirichlet, tag: func}, {}, bc.pressure_pin)
    return BoundaryConditions({t: f for t, f in bc.dirichlet.items() if t != tag}, {tag: func})


@pytest.mark.parametrize("kind, tag, func, message", [
    ("dirichlet", "top", nan_velocity, "Dirichlet function for tag 'top' is not finite"),
    ("traction", "right", nan_velocity, "traction function for tag 'right' is not finite"),
    ("traction", "right", three_components,
     r"traction function for tag 'right' returned shape \(16, 3\) for points of shape \(16, 2\)"),
], ids=["nan_dirichlet", "nan_traction", "traction_shape"])
def test_bad_boundary_function_is_named_before_any_solve(monkeypatch, kind, tag, func, message):
    # these used to end in a singular or inaccurate LU, or (the shape) to
    # be accepted with the first two columns used
    def no_solve(*args):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(solve_module, "linear_solve", no_solve)
    prob = dataclasses.replace(lid_cavity(8, re=100), bc=lid_with(kind, tag, func))
    for strategy in ("newton", "fixed_point"):
        with pytest.raises(ValueError, match=message):
            solve(prob, SolverConfig(strategy=strategy))


@pytest.mark.parametrize("pin, message", [
    ((0, float("nan")), "value must be finite"),
    ((0, float("inf")), "value must be finite"),
    ((1.5, 0.0), "node must be an integer"),
    ((True, 0.0), "node must be an integer"),
    ((81, 0.0), "node must be an integer"),       # lid n=8 has nodes 0..80
], ids=["nan_value", "inf_value", "float_node", "bool_node", "node_out_of_range"])
def test_bad_pressure_pin_is_named_before_any_solve(monkeypatch, pin, message):
    # a NaN value used to end in a linear failure, an infinite one was
    # accepted, and 1.5 or True silently pinned node 1
    def no_solve(*args):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(solve_module, "linear_solve", no_solve)
    prob = lid_cavity(8, re=100)
    prob = dataclasses.replace(prob, bc=dataclasses.replace(prob.bc, pressure_pin=pin))
    for strategy in ("newton", "fixed_point"):
        with pytest.raises(ValueError, match="pressure pin " + message):
            solve(prob, SolverConfig(strategy=strategy))


def test_traction_evaluated_once_per_tag_per_set_up():
    # one call per set-up on the Gauss points of every outflow edge,
    # however many rungs, steps and iterations follow
    prob = backward_step(re=20, h=0.5)
    calls = []

    def counted(points):
        calls.append(points.shape)
        return outflow_traction(points)

    bc = BoundaryConditions(dirichlet=prob.bc.dirichlet, neumann={"outflow": counted})
    prob = dataclasses.replace(prob, bc=bc)
    one_call = [(2 * len(prob.mesh.edges_with_tag("outflow")), 2)]
    for config in (SolverConfig(), SolverConfig(strategy="fixed_point"),
                   SolverConfig(continuation=ContinuationConfig(5, 20, 2.0))):
        calls.clear()
        _, report = solve(prob, config)
        assert report.iterations > 2 and calls == one_call
    calls.clear()
    march = list(time_march(prob, SolverConfig(), 0.1, 3))
    assert len(march) == 3 and calls == one_call


def test_body_force_evaluated_once_per_force():
    prob = body_force_cavity(4, re=10)
    dofmap = build_dof_map(prob.mesh, prob.bc)
    state = State.zeros(prob.mesh)
    calls = []

    def counted(points):
        calls.append(points.shape)
        return linear_force(points)

    disc = Discretization(prob.mesh, dofmap, prob.bc, counted)
    assert len(calls) == 1
    for _ in range(2):
        assemble_system(disc, state, prob.nu)
        fp_assemble(disc, state, prob.nu)
    assert len(calls) == 1
    reference = Discretization(prob.mesh, dofmap, prob.bc, linear_force)
    np.testing.assert_array_equal(assemble_system(disc, state, prob.nu).rhs,
                                  assemble_system(reference, state, prob.nu).rhs)
    assert len(calls) == 1
