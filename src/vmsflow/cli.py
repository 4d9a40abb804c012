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
from functools import cache, partial
from pathlib import Path

from vmsflow.problems import PROBLEM_BUILDERS, body_force_cavity, convergence_study, error_norms
from vmsflow.output import write_march, write_outputs, write_study
from vmsflow.solve import ContinuationConfig, SolverConfig, solve, time_march


def _build_problem(args):
    size = {"h": args.h} if args.problem == "backward_step" else {"n": args.n}
    return PROBLEM_BUILDERS[args.problem](re=args.re, nu=args.nu, **size)


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


def _written_rung(problem, report):
    """The problem at the Reynolds number of the state ``solve`` returns: on a
    failed ladder, the last converged rung's, or the first rung's if it failed."""
    subs = report.sub_reports
    re = problem.re if report.converged or not subs else subs[max(len(subs) - 2, 0)][0]
    return problem if re == problem.re else problem.with_re(re)


def _cmd_solve(args) -> int:
    problem = _build_problem(args)
    config = _solver_config(args, problem)
    state, report = solve(problem, config)
    outdir = _outdir(args)
    rung = _written_rung(problem, report)
    extra = {"problem": problem.name, "strategy": args.strategy, "re": rung.re, "nu": rung.nu}
    if rung is problem and problem.exact is not None:
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
    # Each level is built once, at nu = 1 where its exact solution holds, for every strategy.
    build = cache(partial(body_force_cavity, nu=1.0))
    # Every level climbs the same continuation ladder, up to the study's Re.
    target = build(levels[0])
    outdir = _outdir(args)
    exit_code = 0
    for strategy in strategies:
        config = _solver_config(args, target, strategy=strategy)
        table = convergence_study(build, levels, config)
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
    config = _solver_config(args, problem)
    reports = []
    for state, report in time_march(problem, config, args.dt, args.steps):
        reports.append(report)
    completed = sum(r.converged for r in reports)      # the step field.vtk holds
    outdir = _outdir(args)
    os.makedirs(outdir, exist_ok=True)
    write_march(reports, outdir / "march.csv")
    write_outputs(state, problem.mesh, reports[-1], outdir, {
        "problem": problem.name,
        "strategy": args.strategy,
        "dt": args.dt,
        "steps_completed": completed,
    })
    print(f"{problem.name}: marched {completed}/{args.steps} steps, "
          f"all converged: {completed == args.steps}")
    return 0 if completed == args.steps else 2


def _add_common(sub, strategies=("newton", "fixed_point"), steady=True, max_iter=25):
    sub.add_argument("--strategy", default="newton", choices=strategies)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", type=int, default=max_iter, dest="max_iter")
    sub.add_argument("--out", default=None, help="output directory")
    if steady:
        sub.add_argument("--continuation-from", type=float, default=None,
                         dest="continuation_from",
                         help="start Re of a continuation ladder up to the problem's Re")
        sub.add_argument("--continuation-factor", type=float, default=1.1,
                         dest="continuation_factor")


def _config_parser() -> argparse.ArgumentParser:
    """The one reader of ``--config FILE`` and ``--config=FILE``, anywhere in argv."""
    parser = argparse.ArgumentParser(prog="vmsflow", add_help=False, allow_abbrev=False)
    parser.add_argument("--config", help="key = value file supplying default flags")
    return parser


def _parser() -> argparse.ArgumentParser:
    # No parser takes abbreviations, so --n is not read as --nu, nor --conf as --config.
    parser = argparse.ArgumentParser(
        prog="vmsflow", parents=[_config_parser()], allow_abbrev=False,
        description="Stabilized multiscale finite elements for 2D incompressible flow")
    add = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                  allow_abbrev=False)

    p_solve = add("solve", help="run one steady solve")
    _add_common(p_solve)

    p_study = add("study", help="mesh-refinement convergence study")
    _add_common(p_study, strategies=("newton", "fixed_point", "both"), max_iter=50)
    p_study.add_argument("--levels", default="8,16,32,64",
                         help="comma-separated subdivision counts")

    p_march = add("march", help="backward-Euler time marching")
    _add_common(p_march, steady=False)
    p_march.add_argument("--dt", type=float, required=True)
    p_march.add_argument("--steps", type=int, required=True)
    # A study solves the body-force cavity at nu = 1, on meshes from --levels alone.
    for sub in (p_solve, p_march):
        sub.add_argument("--problem", required=True, choices=sorted(PROBLEM_BUILDERS))
        sub.add_argument("--re", type=float, default=None, help="Reynolds number")
        sub.add_argument("--nu", type=float, default=None, help="kinematic viscosity")
        sub.add_argument("--n", type=int, default=32, help="subdivisions per side (cavities)")
        sub.add_argument("--h", type=float, default=0.25, help="edge length (backward step)")
    return parser


def _config_file_args(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flag tokens placed before the CLI flags."""
    known, rest = _config_parser().parse_known_args(argv)
    if known.config is None:
        return rest
    try:
        with open(known.config, encoding="ascii") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read config file {known.config}: {err}") from err
    tokens: list[str] = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key = value): {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        tokens += [f"--{key.replace('_', '-')}", value]
    # Config tokens go right after the subcommand so explicit flags win.
    if rest and not rest[0].startswith("-"):
        return rest[:1] + tokens + rest[1:]
    return tokens + rest


def run_cli(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(_config_file_args(list(argv)))
        command = {"solve": _cmd_solve, "study": _cmd_study, "march": _cmd_march}
        return command[args.command](args)
    except SystemExit as err:
        return 0 if err.code == 0 else 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
