"""Command-line driver: single solves, convergence studies, time marching.

Exit codes: 0 on convergence, 2 when a solve finished with the
non-convergence or divergence flag set (outputs are still written),
1 on usage or runtime errors.  The output directory defaults to the
``VMSFLOW_OUTDIR`` environment variable, then to ``./vmsflow_out``.
A ``key = value`` config file can supply any long flag; explicit
command-line flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from vmsflow.problems import (
    PROBLEM_BUILDERS,
    backward_step,
    body_force_cavity,
    convergence_study,
    error_norms,
    lid_cavity,
)
from vmsflow.output import write_march, write_outputs, write_study
from vmsflow.solve import (
    ContinuationConfig,
    IterationReport,
    SolverConfig,
    solve,
    time_march,
)


def _build_problem(args):
    if args.problem == "backward_step":
        return backward_step(re=args.re, nu=args.nu, h=args.h)
    builder = body_force_cavity if args.problem == "body_force_cavity" else lid_cavity
    return builder(args.n, re=args.re, nu=args.nu)


def _solver_config(args, problem, **overrides) -> SolverConfig:
    continuation = None
    if getattr(args, "continuation_from", None) is not None:
        continuation = ContinuationConfig(
            re_start=args.continuation_from,
            re_target=problem.re,
            factor=args.continuation_factor,
        )
    settings = dict(
        strategy=args.strategy,
        tol=args.tol,
        max_iter=args.max_iter,
        continuation=continuation,
    )
    settings.update(overrides)
    return SolverConfig(**settings)


def _outdir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("VMSFLOW_OUTDIR", "vmsflow_out"))


def _cmd_solve(args) -> int:
    problem = _build_problem(args)
    config = _solver_config(args, problem)
    state, report = solve(problem, config)
    outdir = _outdir(args)
    extra = {
        "problem": problem.name,
        "strategy": args.strategy,
        "re": problem.re,
        "nu": problem.nu,
    }
    if problem.exact is not None:
        norms = error_norms(state, problem.exact, problem.mesh)
        extra["l2_velocity_error"] = f"{norms.l2_velocity:.6e}"
        extra["h1_semi_pressure_error"] = f"{norms.h1_semi_pressure:.6e}"
    write_outputs(state, problem.mesh, report, outdir, extra)
    print(f"{problem.name}: strategy={args.strategy} iterations={report.iterations} "
          f"converged={report.converged} diverged={report.diverged} "
          f"final_residual={report.final_residual:.3e}")
    print(f"outputs written to {outdir}")
    return 0 if report.converged else 2


def _cmd_study(args) -> int:
    levels = [int(tok) for tok in args.levels.split(",")]
    strategies = ["newton", "fixed_point"] if args.strategy == "both" else [args.strategy]
    if args.problem != "body_force_cavity":
        print("study requires a problem with an exact solution", file=sys.stderr)
        return 1
    outdir = _outdir(args)
    exit_code = 0
    for strategy in strategies:
        table = convergence_study(
            lambda n: body_force_cavity(n, re=args.re, nu=args.nu),
            levels,
            strategy=strategy,
            config=SolverConfig(
                strategy=strategy, tol=args.tol, max_iter=max(args.max_iter, 50),
            ),
        )
        path = outdir / f"study_{strategy}.csv"
        os.makedirs(outdir, exist_ok=True)
        write_study(table, path)
        print(f"{strategy}: rates l2_velocity={table.rates['l2_velocity']:.3f} "
              f"h1_semi_pressure={table.rates['h1_semi_pressure']:.3f} "
              f"-> {path}")
        if not table.complete:
            exit_code = 2
    return exit_code


def _cmd_march(args) -> int:
    problem = _build_problem(args)
    config = _solver_config(args, problem, dt=args.dt, n_steps=args.steps,
                            snapshot_stride=args.stride)
    states, reports = time_march(problem, config)
    outdir = _outdir(args)
    os.makedirs(outdir, exist_ok=True)
    write_march(reports, outdir / "march.csv")
    ok = all(r.converged for r in reports) and len(reports) == args.steps
    last_report = reports[-1] if reports else IterationReport(
        residual_history=np.zeros(0), converged=True, diverged=False, iterations=0,
    )
    write_outputs(states[-1], problem.mesh, last_report, outdir, {
        "problem": problem.name,
        "strategy": args.strategy,
        "dt": args.dt,
        "steps_completed": len(reports),
    })
    print(f"{problem.name}: marched {len(reports)}/{args.steps} steps, "
          f"all converged: {ok}")
    return 0 if ok else 2


def _add_common(sub, strategies=("newton", "fixed_point")):
    sub.add_argument("--problem", required=True, choices=sorted(PROBLEM_BUILDERS))
    sub.add_argument("--re", type=float, default=None, help="Reynolds number")
    sub.add_argument("--nu", type=float, default=None, help="kinematic viscosity")
    sub.add_argument("--n", type=int, default=32, help="subdivisions per side (cavities)")
    sub.add_argument("--h", type=float, default=0.25, help="edge length (backward step)")
    sub.add_argument("--strategy", default="newton", choices=strategies)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", type=int, default=25, dest="max_iter")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--continuation-from", type=float, default=None,
                     dest="continuation_from",
                     help="start Reynolds number of a continuation ladder up to --re")
    sub.add_argument("--continuation-factor", type=float, default=1.1,
                     dest="continuation_factor")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmsflow",
        description="Stabilized multiscale finite elements for 2D incompressible flow",
    )
    parser.add_argument("--config", default=None,
                        help="key = value file supplying default flags")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run one steady solve")
    _add_common(p_solve)

    p_study = subs.add_parser("study", help="mesh-refinement convergence study")
    _add_common(p_study, strategies=("newton", "fixed_point", "both"))
    p_study.add_argument("--levels", default="8,16,32,64",
                         help="comma-separated subdivision counts")

    p_march = subs.add_parser("march", help="backward-Euler time marching")
    _add_common(p_march)
    p_march.add_argument("--dt", type=float, required=True)
    p_march.add_argument("--steps", type=int, required=True)
    p_march.add_argument("--stride", type=int, default=1)
    return parser


def _config_file_args(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flag tokens placed before the CLI flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SystemExit("--config needs a file argument")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    tokens: list[str] = []
    with open(path, encoding="ascii") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"bad config line (want key = value): {line!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            tokens += [f"--{key.replace('_', '-')}", value]
    # Config tokens go right after the subcommand so explicit flags win.
    if rest and not rest[0].startswith("-"):
        return rest[:1] + tokens + rest[1:]
    return tokens + rest


def run_cli(argv: list[str]) -> int:
    try:
        argv = _config_file_args(list(argv))
        args = _parser().parse_args(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
        return 0 if code == 0 else 1
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "study":
            return _cmd_study(args)
        return _cmd_march(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
