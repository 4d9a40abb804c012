"""Field/profile/report writers and the command-line driver."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vmsflow.output as output_module
import vmsflow.problems as problems_module
import vmsflow.solve as solve_module
from vmsflow.fem import inv2
from vmsflow.output import sample_field, write_outputs
from vmsflow.problems import ConvergenceTable, ErrorNorms, backward_step, lid_cavity
from vmsflow.cli import run_cli
from vmsflow.solve import ContinuationConfig, IterationReport, SolverConfig, solve

from helpers import (
    braced_format,
    perturbed_square_mesh,
    random_state,
    sample_field_point_by_point,
    write_table_by_rows,
)


@pytest.fixture(scope="module")
def solved_lid():
    prob = lid_cavity(8, re=100)
    state, report = solve(prob, SolverConfig(tol=1e-10, max_iter=20))
    assert report.converged
    return prob, state, report


def test_every_table_matches_the_row_writer(tmp_path, monkeypatch):
    # each writer's file, byte for byte, against the row-by-row str.format
    # writer, with NaN, infinities, -0.0, integers and booleans in the rows
    written = []
    write_table = output_module.write_table

    def both(path, blocks):
        blocks = [(header, fmt, list(rows)) for header, fmt, rows in blocks]
        write_table(path, blocks)
        write_table_by_rows(f"{path}.rows",
                            [(header, braced_format(fmt), rows) for header, fmt, rows in blocks])
        written.append(Path(path))

    monkeypatch.setattr(output_module, "write_table", both)
    prob = lid_cavity(8, re=100)
    state = random_state(prob.mesh, np.random.default_rng(8))
    state.vbar[:4] = [[np.nan, -0.0], [np.inf, 1e-300], [-np.inf, 1e300], [0.1, -1 / 3]]
    state.p[:3] = [-0.0, np.nan, 12345678901234567.0]
    report = IterationReport(residual_history=np.array([1.0, np.nan, -0.0, 2.5e-17]),
                             stop_reason="diverged",
                             increment_history=np.array([np.inf, 0.1, -0.0, np.nan]))
    steps = [report, IterationReport(np.array([]), "max_iter"),
             IterationReport(np.array([3e-11]), "tol")]
    # rates log2(250) = 7.9658, NaN (a NaN error) and a negative one that rounds to -0.0000
    study = ConvergenceTable(rows=((0.5, ErrorNorms(0.25, np.nan, 7.0)),
                                   (0.25, ErrorNorms(1e-3, 2.0, 7.000000001))))
    output_module.write_vtk(prob.mesh, state, tmp_path / "field.vtk")
    output_module.write_profiles(prob.mesh, state, tmp_path)
    output_module.write_residuals(report, tmp_path / "residuals.csv")
    output_module.write_study(study, tmp_path / "study.csv")
    output_module.write_march(steps, tmp_path / "march.csv")
    ladder = IterationReport(np.array([1.0, 0.5]), "linear_failure", sub_reports=(
        (15.0, steps[2]), (16.5, IterationReport(np.array([0.5]), "linear_failure"))),
        failure="LU of 100% fill: x")
    output_module.write_summary(ladder, tmp_path / "summary.txt",
                                {"problem": "step", "re": 16.5, "dt": None, "steps": 3})
    assert len(written) == 7
    for path in written:
        assert path.read_bytes() == Path(f"{path}.rows").read_bytes(), path.name
    assert (tmp_path / "study.csv").read_text().endswith(
        "# rate_l2_velocity = 7.9658\n# rate_h1_semi_pressure = nan\n"
        "# rate_l2_pressure = -0.0000\n")
    text = (tmp_path / "march.csv").read_text()
    assert text.endswith("1,4,2.4999999999999999e-17,False\n2,0,nan,False\n3,1,3e-11,True\n")
    # the text of the line writer that summary.txt had before it went through write_table
    assert (tmp_path / "summary.txt").read_text() == (
        "problem: step\nre: 16.5\ndt: None\nsteps: 3\niterations: 2\nconverged: False\n"
        "diverged: True\nstop_reason: linear_failure\nfinal_residual: 0.5\n"
        "failure: LU of 100% fill: x\ncontinuation:\n"
        "  re 15: iterations 1, converged True, final_residual 3e-11\n"
        "  re 16.5: iterations 1, converged False, final_residual 0.5\n")


class TestSampling:
    def test_nodal_values_reproduced(self, solved_lid):
        prob, state, _ = solved_lid
        vel, prs, inside = sample_field(prob.mesh, state, prob.mesh.node_coords[:10])
        assert inside.all()
        np.testing.assert_allclose(vel, state.vbar[:10], atol=1e-12)
        np.testing.assert_allclose(prs, state.p[:10], atol=1e-12)

    def test_centroids_carry_the_bubble(self, solved_lid):
        # at a centroid each N_a is 1/3 and the bubble N_1 N_2 N_3 is 1/27
        prob, state, _ = solved_lid
        tris = prob.mesh.triangles
        centroids = prob.mesh.node_coords[tris].mean(axis=1)
        rng = np.random.default_rng(3)
        state = state.copy()
        state.beta = rng.normal(size=state.beta.shape)
        vel, prs, inside = sample_field(prob.mesh, state, centroids)
        assert inside.all()
        np.testing.assert_allclose(vel, state.vbar[tris].mean(axis=1) + state.beta / 27,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(prs, state.p[tris].mean(axis=1), rtol=0, atol=1e-13)

    def test_outside_points_flagged(self, solved_lid):
        prob, state, _ = solved_lid
        vel, prs, inside = sample_field(prob.mesh, state, [[2.0, 2.0]])
        assert not inside[0]
        assert np.isnan(vel[0]).all()

    def test_matches_search_over_every_triangle(self):
        # the whole-array search against the point-by-point loop it replaced
        # and against a search without bounding boxes, on a perturbed square
        # and on the long, non-convex step
        rng = np.random.default_rng(11)
        for mesh in (perturbed_square_mesh(7, rng), backward_step(re=10, h=0.25).mesh):
            state = random_state(mesh, rng)
            lo, hi = mesh.node_coords.min(axis=0), mesh.node_coords.max(axis=0)
            tris = mesh.triangles
            edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
            keys, counts = np.unique(edges, axis=0, return_counts=True)
            a, b = mesh.node_coords[keys[counts == 2]].transpose(1, 0, 2)   # shared edges
            t = np.array([0.25, 0.5, 0.8])[:, None, None]
            points = np.concatenate([
                mesh.node_coords,
                (a + t * (b - a)).reshape(-1, 2),
                rng.uniform(lo - 0.2, hi + 0.2, (200, 2)),          # some outside the mesh
                [[-1.0, 0.5], [0.5, 1.5], [2.0, 2.0], [np.nan, 0.5], [0.5, 1e300]],
            ])
            got = sample_field(mesh, state, points)
            for want in (sample_field_point_by_point(mesh, state, points),
                         _sample_over_every_triangle(mesh, state, points)):
                assert 0 < np.count_nonzero(~want[2]) < len(points)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)


def _sample_over_every_triangle(mesh, state, points):
    """``sample_field`` by testing each point against all triangles; the lowest index wins."""
    coords = mesh.node_coords[mesh.triangles]
    origin = coords[:, 2]
    Tinv, _ = inv2(np.stack([(coords[:, 0] - origin).T, (coords[:, 1] - origin).T], axis=1))
    vel = np.full((len(points), 2), np.nan)
    prs = np.full(len(points), np.nan)
    inside = np.zeros(len(points), dtype=bool)
    for k, x in enumerate(points):
        lam = np.einsum("ije,ej->ei", Tinv, x[None, :] - origin)
        lam3 = 1.0 - lam.sum(axis=1)
        ok = (lam[:, 0] >= -1e-10) & (lam[:, 1] >= -1e-10) & (lam3 >= -1e-10)
        if np.any(ok):
            e = int(np.argmax(ok))
            N = np.array([lam[e, 0], lam[e, 1], lam3[e]])
            tri = mesh.triangles[e]
            vel[k] = N @ state.vbar[tri] + N[0] * N[1] * N[2] * state.beta[e]
            prs[k] = N @ state.p[tri]
            inside[k] = True
    return vel, prs, inside


class TestOutputs:
    def test_files_and_counts(self, solved_lid, tmp_path):
        prob, state, report = solved_lid
        written = write_outputs(state, prob.mesh, report, tmp_path,
                                {"strategy": "newton"})
        names = {p.name for p in written}
        assert names == {"field.vtk", "profile_u_x05.csv", "profile_p_y05.csv",
                         "residuals.csv", "summary.txt"}
        vtk = (tmp_path / "field.vtk").read_text().splitlines()
        assert f"POINTS {prob.mesh.n_nodes} double" in vtk
        assert f"CELLS {prob.mesh.n_triangles} {4 * prob.mesh.n_triangles}" in vtk
        assert "VECTORS velocity double" in vtk
        assert "SCALARS pressure double" in vtk

    def test_vtk_values_round_trip(self, solved_lid, tmp_path):
        # every value is written with 17 significant digits, so it reads back bitwise
        prob, state, report = solved_lid
        write_outputs(state, prob.mesh, report, tmp_path)
        lines = (tmp_path / "field.vtk").read_text().splitlines()

        def block(header, rows, cols):
            start = lines.index(header) + 1
            return np.array([[float(t) for t in line.split()[:cols]]
                             for line in lines[start:start + rows]])

        n = prob.mesh.n_nodes
        np.testing.assert_array_equal(block(f"POINTS {n} double", n, 2), prob.mesh.node_coords)
        np.testing.assert_array_equal(block("VECTORS velocity double", n, 2), state.vbar)
        np.testing.assert_array_equal(block("LOOKUP_TABLE default", n, 1)[:, 0], state.p)

    def test_residual_rows_match_iterations(self, solved_lid, tmp_path):
        prob, state, report = solved_lid
        write_outputs(state, prob.mesh, report, tmp_path)
        rows = (tmp_path / "residuals.csv").read_text().strip().splitlines()
        assert rows[0] == "iteration,residual"
        assert len(rows) - 1 == report.iterations

    def test_profile_endpoints_carry_boundary_values(self, solved_lid, tmp_path):
        prob, state, report = solved_lid
        write_outputs(state, prob.mesh, report, tmp_path)
        rows = (tmp_path / "profile_u_x05.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(t) for t in row.split(",")] for row in rows])
        assert data[0, 0] == pytest.approx(0.0)
        assert data[0, 1] == pytest.approx(0.0, abs=1e-12)   # no-slip bottom
        assert data[-1, 0] == pytest.approx(1.0)
        assert data[-1, 1] == pytest.approx(1.0, abs=1e-12)  # lid value

    def test_summary_content(self, solved_lid, tmp_path):
        prob, state, report = solved_lid
        write_outputs(state, prob.mesh, report, tmp_path, {"strategy": "newton"})
        text = (tmp_path / "summary.txt").read_text()
        assert "strategy: newton" in text
        assert f"iterations: {report.iterations}" in text
        assert "converged: True" in text


class TestCli:
    def test_solve_roundtrip(self, tmp_path):
        code = run_cli([
            "solve", "--problem", "lid_cavity", "--re", "100", "--n", "8",
            "--strategy", "newton", "--tol", "1e-9", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "field.vtk").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_march_subcommand(self, tmp_path):
        code = run_cli([
            "march", "--problem", "body_force_cavity", "--nu", "1.0", "--n", "8",
            "--dt", "0.5", "--steps", "2", "--tol", "1e-8", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "march.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_failed_march_reports_the_step_its_field_holds(self, tmp_path, monkeypatch):
        # the summary used to count the failed step next to the last converged field
        argv = ["march", "--problem", "lid_cavity", "--re", "100", "--n", "8", "--dt", "0.1"]
        assert run_cli(argv + ["--steps", "3", "--out", str(tmp_path / "three")]) == 0
        iterate, steps = solve_module._iterate, []

        def failing_at_step_4(*args):
            steps.append(None)
            state, report = iterate(*args)
            if len(steps) == 4:
                report = dataclasses.replace(report, stop_reason="max_iter")
            return state, report

        monkeypatch.setattr(solve_module, "_iterate", failing_at_step_4)
        assert run_cli(argv + ["--steps", "6", "--out", str(tmp_path / "six")]) == 2
        rows = (tmp_path / "six" / "march.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4
        assert "steps_completed: 3" in (tmp_path / "six" / "summary.txt").read_text().splitlines()
        assert ((tmp_path / "six" / "field.vtk").read_bytes()
                == (tmp_path / "three" / "field.vtk").read_bytes())

    def test_study_subcommand(self, tmp_path):
        code = run_cli([
            "study", "--problem", "body_force_cavity", "--nu", "1.0",
            "--levels", "8,12,16", "--strategy", "newton", "--tol", "1e-10",
            "--out", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "study_newton.csv").read_text()
        assert text.startswith("h,l2_velocity")
        assert "# rate_l2_velocity" in text

    def test_both_strategies_only_for_study(self, tmp_path, capsys):
        for command in ("solve", "march"):
            argv = [command, "--problem", "body_force_cavity", "--nu", "1.0", "--n", "4",
                    "--strategy", "both", "--out", str(tmp_path / command)]
            if command == "march":
                argv += ["--dt", "0.5", "--steps", "1"]
            assert run_cli(argv) == 1
            err = capsys.readouterr().err
            assert "usage:" in err and "invalid choice: 'both'" in err
            assert not (tmp_path / command).exists()
        code = run_cli([
            "study", "--problem", "body_force_cavity", "--nu", "1.0",
            "--levels", "4,6,8", "--strategy", "both", "--tol", "1e-10",
            "--out", str(tmp_path / "study"),
        ])
        assert code == 0
        for strategy in ("newton", "fixed_point"):
            assert (tmp_path / "study" / f"study_{strategy}.csv").exists()

    def test_continuation_flags_only_for_steady_commands(self, tmp_path, capsys):
        march = ["march", "--problem", "lid_cavity", "--n", "8", "--re", "100",
                 "--dt", "0.1", "--steps", "2", "--out", str(tmp_path / "march")]
        for flag, value in (("--continuation-from", "10"), ("--continuation-factor", "1.5")):
            assert run_cli(march + [flag, value]) == 1
            err = capsys.readouterr().err
            assert "usage:" in err and f"unrecognized arguments: {flag} {value}" in err
            assert not (tmp_path / "march").exists()
        for command, argv in (
            ("solve", ["--problem", "lid_cavity", "--n", "8", "--re", "20"]),
            ("study", ["--problem", "body_force_cavity", "--nu", "1.0", "--levels", "4,6,8",
                       "--tol", "1e-10"]),
        ):
            out = tmp_path / command
            assert run_cli([command, *argv, "--continuation-from", "0.5",
                            "--continuation-factor", "2", "--out", str(out)]) == 0
            assert any(out.iterdir())

    def test_study_takes_its_meshes_from_levels_alone(self, tmp_path, capsys):
        # --n and --h used to be parsed and ignored
        out = tmp_path / "d"
        for flag, value in (("--n", "8"), ("--h", "0.5")):
            assert run_cli(["study", "--problem", "body_force_cavity", "--nu", "1.0",
                            "--levels", "4,6,8", flag, value, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "usage:" in err and f"unrecognized arguments: {flag} {value}" in err
            assert not out.exists()

    def test_study_climbs_the_continuation_ladder(self, tmp_path, monkeypatch, capsys):
        # the ladder flags used to be parsed and dropped
        configs = []

        def recording(problem, config):
            configs.append(config)
            return solve(problem, config)

        monkeypatch.setattr(problems_module, "solve", recording)
        study = ["study", "--problem", "body_force_cavity", "--continuation-from", "0.5",
                 "--continuation-factor", "2"]
        assert run_cli(study + ["--nu", "1", "--levels", "4,6,8", "--strategy", "both",
                                "--out", str(tmp_path / "study")]) == 0
        assert [c.strategy for c in configs] == ["newton"] * 3 + ["fixed_point"] * 3
        assert all(c.continuation == ContinuationConfig(0.5, 1.0, 2.0) for c in configs)

        out = tmp_path / "d"
        assert run_cli(study + ["--nu", "0", "--out", str(out)]) == 1
        assert "error: nu must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
        assert len(configs) == 6

    def test_study_builds_each_level_once(self, tmp_path, monkeypatch):
        # --strategy both used to build every level once per strategy
        solved = []

        def recording(problem, config):
            solved.append((problem, config.strategy))
            return solve(problem, config)

        monkeypatch.setattr(problems_module, "solve", recording)
        assert run_cli(["study", "--problem", "body_force_cavity", "--nu", "1",
                        "--levels", "4,6,8", "--strategy", "both",
                        "--out", str(tmp_path)]) == 0
        newton, fixed_point = solved[:3], solved[3:]
        assert [s for _, s in newton] == ["newton"] * 3
        assert [s for _, s in fixed_point] == ["fixed_point"] * 3
        assert all(a is b for (a, _), (b, _) in zip(newton, fixed_point))
        assert [p.mesh.n_nodes for p, _ in newton] == [25, 49, 81]

    def test_study_takes_max_iter_as_given(self, tmp_path, monkeypatch):
        # --max-iter 1 used to be raised to 50, so this study converged
        configs = []

        def recording(problem, config):
            configs.append(config)
            return solve(problem, config)

        monkeypatch.setattr(problems_module, "solve", recording)
        study = ["study", "--problem", "body_force_cavity", "--nu", "1", "--levels", "4,8,12"]
        assert run_cli(study + ["--max-iter", "1", "--out", str(tmp_path / "one")]) == 2
        rows = (tmp_path / "one" / "study_newton.csv").read_text().splitlines()
        assert [row for row in rows if not row.startswith("#")] == [
            "h,l2_velocity,h1_semi_pressure,l2_pressure"]
        assert [c.max_iter for c in configs] == [1]
        assert run_cli(study + ["--out", str(tmp_path / "default")]) == 0
        assert [c.max_iter for c in configs] == [1, 50, 50, 50]

    def test_study_without_exact_solution_leaves_no_directory(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["study", "--problem", "lid_cavity", "--re", "100",
                        "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--re", "0"), ("--nu", "0"), ("--re", "nan"),
                                             ("--nu", "inf")])
    def test_bad_viscosity_is_a_named_error(self, tmp_path, capsys, flag, value):
        # zero used to escape as ZeroDivisionError, nan/inf to run a NaN solve
        out = tmp_path / "d"
        assert run_cli(["solve", "--problem", "lid_cavity", flag, value, "--n", "8",
                        "--out", str(out)]) == 1
        assert f"error: {flag[2:]} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h", ["0", "nan", "-0.25"])
    def test_bad_step_edge_length_is_a_named_error(self, tmp_path, capsys, h):
        # zero used to escape as ZeroDivisionError, nan and -0.25 to fail elsewhere
        out = tmp_path / "d"
        assert run_cli(["solve", "--problem", "backward_step", "--re", "100", "--h", h,
                        "--out", str(out)]) == 1
        assert "error: edge length h must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["8,4,12", "8,16"])
    def test_bad_study_levels_solve_nothing_and_leave_no_directory(
            self, tmp_path, monkeypatch, levels):
        solves = []
        monkeypatch.setattr(problems_module, "solve", lambda *a: solves.append(a))
        out = tmp_path / "d"
        assert run_cli(["study", "--problem", "body_force_cavity", "--nu", "1.0",
                        "--levels", levels, "--out", str(out)]) == 1
        assert solves == []
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        code = run_cli([
            "solve", "--problem", "body_force_cavity", "--re", "5000", "--n", "16",
            "--strategy", "fixed_point", "--max-iter", "25", "--out", str(tmp_path),
        ])
        assert code == 2
        assert (tmp_path / "summary.txt").exists()

    def test_bad_flags(self):
        assert run_cli(["solve", "--problem", "no_such_problem"]) == 1
        assert run_cli(["solve", "--problem", "lid_cavity", "--n", "8"]) == 1

    def test_re_and_nu_together_rejected(self, tmp_path):
        assert run_cli([
            "solve", "--problem", "lid_cavity", "--re", "100", "--nu", "0.5", "--n", "8",
            "--out", str(tmp_path),
        ]) == 1
        assert not (tmp_path / "summary.txt").exists()

    def test_nu_forwarded_exactly(self, tmp_path):
        # 1 / (1 / 0.013) is 0.013000000000000001
        code = run_cli([
            "solve", "--problem", "lid_cavity", "--nu", "0.013", "--n", "8",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert "nu: 0.013" in lines
        assert "stop_reason: tol" in lines

    # a march takes at least one step, and has no snapshot stride
    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--steps", "-3"], ["--dt", "0"],
                                       ["--stride", "2"]])
    def test_bad_march_flags(self, tmp_path, flags):
        argv = ["march", "--problem", "body_force_cavity", "--nu", "1.0", "--n", "4",
                "--dt", "0.5", "--steps", "2", "--out", str(tmp_path)]
        assert run_cli(argv + flags) == 1

    def test_march_rejects_continuation(self, tmp_path):
        # the steady-state continuation ladder has no meaning in a march
        out = tmp_path / "d"
        assert run_cli(["march", "--problem", "lid_cavity", "--re", "20", "--n", "8",
                        "--continuation-from", "10", "--dt", "0.5", "--steps", "2",
                        "--out", str(out)]) == 1
        assert not out.exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = lid_cavity\nre = 100\nn = 8\ntol = 1e-9\n")
        out = tmp_path / "out"
        code = run_cli(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("content", [None, "problem = lid_cavity\nre = 1\u00e9\n".encode()],
                             ids=["directory", "not_ascii"])
    def test_unreadable_config_is_a_named_error(self, tmp_path, capsys, content):
        # both used to escape run_cli as a traceback
        cfg = tmp_path / "run.cfg"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", str(cfg), "--problem", "lid_cavity", "--n", "8",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_config_line_is_a_named_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem lid_cavity\n")
        assert run_cli(["solve", "--config", str(cfg)]) == 1
        assert "error: bad config line (want key = value): 'problem lid_cavity'" in \
            capsys.readouterr().err

    def test_config_is_read_in_both_forms_and_never_abbreviated(self, tmp_path, capsys):
        # --config=F used to be accepted and the file never read, and --conf F
        # taken for --config
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\n")
        solve_argv = ["solve", "--problem", "lid_cavity", "--re", "100"]
        for i, config in enumerate(([f"--config={cfg}"], ["--config", str(cfg)])):
            out = tmp_path / str(i)
            assert run_cli(config + solve_argv + ["--out", str(out)]) == 0
            assert "POINTS 81 double" in (out / "field.vtk").read_text()
        capsys.readouterr()
        for argv in (["--conf", str(cfg)] + solve_argv, solve_argv + ["--conf", str(cfg)],
                     solve_argv + ["--prob", "lid_cavity"]):
            out = tmp_path / "abbreviated"
            assert run_cli(argv + ["--out", str(out)]) == 1
            assert "usage:" in capsys.readouterr().err
            assert not out.exists()

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VMSFLOW_OUTDIR", str(tmp_path / "envout"))
        code = run_cli([
            "solve", "--problem", "lid_cavity", "--re", "100", "--n", "8",
        ])
        assert code == 0
        assert (tmp_path / "envout" / "summary.txt").exists()


# Valid and invalid values of every flag, for the run_cli property.  The
# valid ones keep each run small: n <= 16, h = 0.5, at most 2 steps, two
# level sets and short ladders; both lists hold the edges of the ranges.
CLI_VALUES = {
    "--problem": (["lid_cavity", "body_force_cavity", "backward_step"], ["step", ""]),
    "--re": (["100", "20", "1", "1e100", "1e-100"],
             ["1e101", "1e-101", "5e-324", "0", "-5", "nan", "inf", "x"]),
    "--nu": (["1", "0.05", "1e100", "1e-100"], ["1e300", "1e-300", "5e-324", "0", "nan", "x"]),
    "--strategy": (["newton", "fixed_point"], ["both", "picard"]),
    "--tol": (["1e-8", "1e-3", "1e308"], ["0", "-1", "nan", "inf", "x"]),
    "--max-iter": (["1", "3", "25"], ["0", "-2", "1.5", "x"]),
    "--out": (["{dir}/out"], ["{cfg}"]),
    "--continuation-from": (["50", "20"], ["1e-300", "0", "-1", "nan", "x"]),
    "--continuation-factor": (["2", "1.5", "inf"], ["1", "0.5", "nan", "x"]),
    "--n": (["8", "16"], ["4", "0", "1", "-8", "x"]),
    "--h": (["0.5"], ["0.3", "0", "-0.5", "nan", "1e-300", "x"]),
    "--dt": (["0.1", "1e6", "1e-100"], ["1e-300", "5e-324", "0", "-1", "nan", "inf", "x"]),
    "--steps": (["1", "2"], ["0", "-1", "x"]),
    "--levels": (["4,6,8", "4,8,12"], ["8,4,12", "4,8", "4,,8", "", "x"]),
}
COMMON = ["--re", "--nu", "--strategy", "--tol", "--max-iter", "--out"]
LADDER = ["--continuation-from", "--continuation-factor"]
CLI_FLAGS = {"solve": COMMON + LADDER + ["--n", "--h"],
             "study": COMMON + LADDER + ["--levels"],
             "march": COMMON + ["--n", "--h", "--dt", "--steps"]}
CLI_JUNK = st.sampled_from(["", "-", "--", "-x", "--bogus", "=", "--n=", "--re=x", "solve",
                            "\u00e9", "\x00", "-h"]) | st.text("abcdefinxy", max_size=4)


@st.composite
def cli_runs(draw):
    """(argv, config file bytes) of one run_cli call; argv holds ``{cfg}`` and
    ``{dir}`` where the config file's and a directory's paths go.

    A tame run gives its command only its own flags, with valid values,
    and perhaps a config file of more of them; a hostile one adds invalid
    values, flags of other commands, bad config flags, files and paths,
    and junk tokens.
    """
    hostile = draw(st.booleans())

    def value(flag):
        valid, invalid = CLI_VALUES[flag]
        return st.sampled_from(valid + invalid if hostile else valid)

    command = draw(st.sampled_from(["solve", "study", "march"] + ["stud"] * hostile))
    flags = CLI_FLAGS.get(command, CLI_FLAGS["solve"])
    # every size is given, so that no default builds a larger mesh
    required = ["--problem", draw(st.sampled_from(["--re", "--nu"]))]
    required += {"study": ["--levels"], "march": ["--n", "--h", "--dt", "--steps"]}.get(
        command, ["--n", "--h"])
    optional = [f for f in (sorted(CLI_VALUES) if hostile else flags) if f not in ("--re", "--nu")]
    tokens = [command]
    for flag in required + draw(st.lists(st.sampled_from(optional), max_size=3)):
        tokens += [flag, draw(value(flag))]
    if draw(st.booleans()):
        if hostile:
            path = draw(st.sampled_from(["{cfg}", "{dir}", "{dir}/missing"]))
            forms = [["--config", path], [f"--config={path}"], ["--conf", path], ["--config"]]
        else:
            forms = [["--config", "{cfg}"], ["--config={cfg}"]]
        tokens[0:0] = draw(st.sampled_from(forms))
        if hostile:      # anywhere
            tokens.insert(draw(st.integers(0, len(tokens))), tokens.pop(0))
    for junk in draw(st.lists(CLI_JUNK, max_size=2 * hostile)):
        tokens.insert(draw(st.integers(0, len(tokens))), junk)
    lines = st.sampled_from(optional).flatmap(
        lambda flag: value(flag).map(lambda v: f"{flag[2:]} = {v}"))
    content = st.lists(lines, max_size=3).map(lambda ls: "\n".join(ls).encode())
    return tokens, draw(content | st.binary(max_size=64) if hostile else content)


@settings(max_examples=100, deadline=None)
@given(run=cli_runs())
def test_run_cli_only_returns_an_exit_code(run):
    # every run ends in 0, 1 or 2, and no exception (a RuntimeWarning is one) escapes
    argv, content = run
    # the working directory is temporary too: a path in the config file stays
    # as drawn, so its "{dir}" is a relative directory
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("VMSFLOW_OUTDIR", f"{tmp}/env")
        mp.chdir(tmp)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(content)
        assert run_cli([tok.format(cfg=cfg, dir=tmp) for tok in argv]) in (0, 1, 2)
