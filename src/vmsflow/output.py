"""Field, profile, and report writers for external plotting tools.

Fields go out as legacy-ASCII unstructured-grid files (point data:
velocity vector, pressure scalar); centerline profiles, residual
histories, convergence studies and time-march logs as CSV with a header
row, and the run summary as ``key: value`` lines; every file goes
through the one table writer ``write_table``.
"""

from __future__ import annotations

import os
from itertools import chain
from pathlib import Path

import numpy as np

from vmsflow.fem import inv2
from vmsflow.mesh import Mesh
from vmsflow.newton import State
from vmsflow.problems import ConvergenceTable
from vmsflow.solve import IterationReport

PROFILE_SAMPLES = 101


def sample_field(mesh: Mesh, state: State, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-local interpolation of velocity and pressure at given points.

    Returns (velocity (m, 2), pressure (m,), inside (m,) bool); entries
    of points outside the mesh are flagged and left as NaN.  The
    velocity includes the bubble fine scale of the containing element.
    A point on a shared edge or node takes the lowest-index triangle
    that contains it.  All points are located at once: the points sorted
    by x give each triangle the points in its x range, and only those
    (triangle, point) pairs are tested.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = mesh.node_coords.take(mesh.triangles, axis=0)  # (E, 3, 2)
    c0, c1, origin = coords.transpose(1, 0, 2)         # origin: local node 3
    # Bounding boxes, widened far past the barycentric tolerance below, so
    # every triangle that passes that test is among a point's candidates.
    lo = np.minimum(np.minimum(c0, c1), origin)
    hi = np.maximum(np.maximum(c0, c1), origin)
    pad = 1e-6 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    # The pairs run triangle by triangle, so a point's first hit is its
    # lowest-index triangle.
    order = np.argsort(pts[:, 0])
    start = np.searchsorted(pts[order, 0], lo[:, 0])
    count = np.searchsorted(pts[order, 0], hi[:, 0], side="right") - start
    e = np.repeat(np.arange(len(coords)), count)
    point = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(e.size)]
    boxed = (lo[e, 1] <= pts[point, 1]) & (pts[point, 1] <= hi[e, 1])
    point, e = point[boxed], e[boxed]
    Tinv, _ = inv2(np.stack([(c0[e] - origin[e]).T, (c1[e] - origin[e]).T], axis=1))
    lam = np.einsum("ije,ej->ei", Tinv, pts[point] - origin[e])
    lam3 = 1.0 - lam.sum(axis=1)
    tol = 1e-10
    ok = np.flatnonzero((lam[:, 0] >= -tol) & (lam[:, 1] >= -tol) & (lam3 >= -tol))
    found, first = np.unique(point[ok], return_index=True)
    pair = ok[first]
    e = e[pair]
    N = np.column_stack([lam[pair], lam3[pair]])
    tris = mesh.triangles[e]
    bubble = N[:, 0] * N[:, 1] * N[:, 2]

    vel = np.full((len(pts), 2), np.nan)
    prs = np.full(len(pts), np.nan)
    inside = np.zeros(len(pts), dtype=bool)
    vel[found] = np.matmul(N[:, None], state.vbar[tris])[:, 0] + bubble[:, None] * state.beta[e]
    prs[found] = np.matmul(N[:, None], state.p[tris][..., None])[:, 0, 0]
    inside[found] = True
    return vel, prs, inside


def write_table(path, blocks) -> None:
    """The one table writer of every result file.

    Each block is ``(header, fmt, rows)``: the header line (skipped when
    None), then one line per row, the ``%``-format ``fmt`` filled from the
    row's values.  A block is written by one ``%`` operation over the
    values of all its rows.
    """
    with open(path, "w", encoding="ascii") as f:
        for header, fmt, rows in blocks:
            if header is not None:
                f.write(header + "\n")
            rows = list(rows)
            f.write(((fmt + "\n") * len(rows)) % tuple(chain.from_iterable(rows)))


def write_vtk(mesh: Mesh, state: State, path) -> None:
    """Legacy-ASCII unstructured-grid file with velocity and pressure."""
    nn, ne = mesh.n_nodes, mesh.n_triangles
    write_table(path, [
        ("# vtk DataFile Version 3.0\nvmsflow field output\nASCII\n"
         f"DATASET UNSTRUCTURED_GRID\nPOINTS {nn} double",
         "%.17g %.17g 0", mesh.node_coords.tolist()),
        (f"CELLS {ne} {4 * ne}", "3 %d %d %d", mesh.triangles.tolist()),
        (f"CELL_TYPES {ne}", "5", [()] * ne),
        (f"POINT_DATA {nn}\nVECTORS velocity double", "%.17g %.17g 0", state.vbar.tolist()),
        ("SCALARS pressure double\nLOOKUP_TABLE default", "%.17g", state.p[:, None].tolist()),
    ])


def write_profiles(mesh: Mesh, state: State, outdir: Path) -> list[Path]:
    """Centerline profiles: u along x = 0.5 and pressure along y = 0.5."""
    lo, hi = mesh.node_coords.min(axis=0), mesh.node_coords.max(axis=0)
    written = []
    for name, axis, column in (("profile_u_x05.csv", 1, "u"), ("profile_p_y05.csv", 0, "p")):
        pts = np.full((PROFILE_SAMPLES, 2), 0.5)
        pts[:, axis] = np.linspace(lo[axis], hi[axis], PROFILE_SAMPLES)
        vel, prs, inside = sample_field(mesh, state, pts)
        values = vel[:, 0] if column == "u" else prs
        written.append(outdir / name)
        write_table(written[-1], [(f"{'xy'[axis]},{column}", "%.17g,%.17g",
                                   zip(pts[inside, axis], values[inside]))])
    return written


def write_residuals(report: IterationReport, path) -> None:
    columns = {"residual": report.residual_history, "increment": report.increment_history}
    columns = {name: col for name, col in columns.items() if col is not None}
    write_table(path, [(",".join(["iteration", *columns]), "%d" + ",%.17g" * len(columns),
                        zip(range(1, report.iterations + 1), *columns.values()))])


def write_study(table: ConvergenceTable, path) -> None:
    """Error norms per mesh size, then the fitted rates as comment lines."""
    write_table(path, [
        ("h,l2_velocity,h1_semi_pressure,l2_pressure", ",".join(["%.17g"] * 4),
         [(h, n.l2_velocity, n.h1_semi_pressure, n.l2_pressure) for h, n in table.rows]),
        (None, "# rate_%s = %.4f", table.rates.items()),
    ])


def write_march(reports: list[IterationReport], path) -> None:
    """One row per time step: iterations, final residual, convergence flag."""
    write_table(path, [("step,iterations,final_residual,converged", "%d,%d,%.17g,%s",
                        [(k, r.iterations, r.final_residual, r.converged)
                         for k, r in enumerate(reports, start=1)])])


def write_summary(report: IterationReport, path, extra: dict | None = None) -> None:
    """``key: value`` lines, ``extra`` first, then the rungs of a continuation."""
    lines = [*(extra or {}).items(), ("iterations", report.iterations),
             ("converged", report.converged), ("diverged", report.diverged)]
    if report.stop_reason:
        lines.append(("stop_reason", report.stop_reason))
    if report.iterations:
        lines.append(("final_residual", f"{report.final_residual:.17g}"))
    if report.failure:
        lines.append(("failure", report.failure))
    rungs = [(re, r.iterations, r.converged, r.final_residual) for re, r in report.sub_reports]
    write_table(path, [(None, "%s: %s", lines),
                       ("continuation:" if rungs else None,
                        "  re %.6g: iterations %d, converged %s, final_residual %.6g", rungs)])


def write_outputs(state: State, mesh: Mesh, report: IterationReport, outdir,
                  extra: dict | None = None) -> list[Path]:
    """Write field, profiles, residual history, and summary into ``outdir``."""
    outdir = Path(outdir)
    try:
        os.makedirs(outdir, exist_ok=True)
        written = [outdir / "field.vtk"]
        write_vtk(mesh, state, written[0])
        written += write_profiles(mesh, state, outdir)
        path = outdir / "residuals.csv"
        write_residuals(report, path)
        written.append(path)
        path = outdir / "summary.txt"
        write_summary(report, path, extra)
        written.append(path)
    except OSError as err:
        raise OSError(f"failed to write outputs under {outdir}: {err}") from err
    return written
