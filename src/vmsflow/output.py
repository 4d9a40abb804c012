"""Field, profile, and report writers for external plotting tools.

Fields go out as legacy-ASCII unstructured-grid files (point data:
velocity vector, pressure scalar); centerline profiles and residual
histories as CSV with a header row; the run summary as structured text.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from vmsflow.fem import inv2
from vmsflow.mesh import Mesh
from vmsflow.newton import State
from vmsflow.solve import IterationReport

PROFILE_SAMPLES = 101


def sample_field(mesh: Mesh, state: State, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-local interpolation of velocity and pressure at given points.

    Returns (velocity (m, 2), pressure (m,), inside (m,) bool); entries
    of points outside the mesh are flagged and left as NaN.  The
    velocity includes the bubble fine scale of the containing element.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = mesh.node_coords[mesh.triangles]          # (E, 3, 2)
    origin = coords[:, 2]                              # local node 3
    T = np.stack([coords[:, 0] - origin, coords[:, 1] - origin], axis=-1)  # (E, 2, 2)
    Tinv, _ = inv2(T)

    vel = np.full((len(pts), 2), np.nan)
    prs = np.full(len(pts), np.nan)
    inside = np.zeros(len(pts), dtype=bool)
    tol = 1e-10
    for k, x in enumerate(pts):
        lam = np.einsum("eij,ej->ei", Tinv, x[None, :] - origin)
        lam3 = 1.0 - lam.sum(axis=1)
        ok = (lam[:, 0] >= -tol) & (lam[:, 1] >= -tol) & (lam3 >= -tol)
        if not np.any(ok):
            continue
        e = int(np.argmax(ok))
        N = np.array([lam[e, 0], lam[e, 1], lam3[e]])
        tri = mesh.triangles[e]
        bubble = N[0] * N[1] * N[2]
        vel[k] = N @ state.vbar[tri] + bubble * state.beta[e]
        prs[k] = N @ state.p[tri]
        inside[k] = True
    return vel, prs, inside


def write_vtk(mesh: Mesh, state: State, path) -> None:
    """Legacy-ASCII unstructured-grid file with velocity and pressure."""
    with open(path, "w", encoding="ascii") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("vmsflow field output\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y in mesh.node_coords:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        f.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            f.write(f"3 {i} {j} {k}\n")
        f.write(f"CELL_TYPES {mesh.n_triangles}\n")
        f.write("\n".join(["5"] * mesh.n_triangles) + "\n")
        f.write(f"POINT_DATA {mesh.n_nodes}\n")
        f.write("VECTORS velocity double\n")
        for u, v in state.vbar:
            f.write(f"{u:.17g} {v:.17g} 0\n")
        f.write("SCALARS pressure double\nLOOKUP_TABLE default\n")
        for p in state.p:
            f.write(f"{p:.17g}\n")


def write_profiles(mesh: Mesh, state: State, outdir: Path) -> list[Path]:
    """Centerline profiles: u along x = 0.5 and pressure along y = 0.5."""
    xmin, ymin = mesh.node_coords.min(axis=0)
    xmax, ymax = mesh.node_coords.max(axis=0)
    written = []

    ys = np.linspace(ymin, ymax, PROFILE_SAMPLES)
    pts = np.column_stack([np.full_like(ys, 0.5), ys])
    vel, _, inside = sample_field(mesh, state, pts)
    path = outdir / "profile_u_x05.csv"
    with open(path, "w", encoding="ascii") as f:
        f.write("y,u\n")
        for y, u, ok in zip(ys, vel[:, 0], inside):
            if ok:
                f.write(f"{y:.17g},{u:.17g}\n")
    written.append(path)

    xs = np.linspace(xmin, xmax, PROFILE_SAMPLES)
    pts = np.column_stack([xs, np.full_like(xs, 0.5)])
    _, prs, inside = sample_field(mesh, state, pts)
    path = outdir / "profile_p_y05.csv"
    with open(path, "w", encoding="ascii") as f:
        f.write("x,p\n")
        for x, p, ok in zip(xs, prs, inside):
            if ok:
                f.write(f"{x:.17g},{p:.17g}\n")
    written.append(path)
    return written


def write_residuals(report: IterationReport, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        if report.increment_history is not None:
            f.write("iteration,residual,increment\n")
            for i, (r, d) in enumerate(
                zip(report.residual_history, report.increment_history), start=1
            ):
                f.write(f"{i},{r:.17g},{d:.17g}\n")
        else:
            f.write("iteration,residual\n")
            for i, r in enumerate(report.residual_history, start=1):
                f.write(f"{i},{r:.17g}\n")


def write_summary(report: IterationReport, path, extra: dict | None = None) -> None:
    with open(path, "w", encoding="ascii") as f:
        for key, value in (extra or {}).items():
            f.write(f"{key}: {value}\n")
        f.write(f"iterations: {report.iterations}\n")
        f.write(f"converged: {report.converged}\n")
        f.write(f"diverged: {report.diverged}\n")
        if report.stop_reason:
            f.write(f"stop_reason: {report.stop_reason}\n")
        if report.iterations:
            f.write(f"final_residual: {report.final_residual:.17g}\n")
        if report.failure:
            f.write(f"failure: {report.failure}\n")
        if report.sub_reports:
            f.write("continuation:\n")
            for re, sub in report.sub_reports:
                f.write(
                    f"  re {re:.6g}: iterations {sub.iterations}, "
                    f"converged {sub.converged}, "
                    f"final_residual {sub.final_residual:.6g}\n"
                )


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
