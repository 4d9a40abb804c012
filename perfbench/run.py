"""vmsflow benchmark: closed loop, one client, solves from ``src/`` of this checkout.

    python3 perfbench/run.py --workload lid-newton --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One run repeats the workload's operation (set-up, solve, write outputs),
each started after the previous one passed the correctness gate, until the
next would end past ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics.  The last line of standard output is one
JSON object; ``--workload all`` runs every workload in a fresh process.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_totals

# Single-threaded solver: pin every thread pool before numpy is first imported
# (by load_program, never at module level).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
NAMES = ("lid-newton", "lid-picard", "step-ladder")

# Extra timed set-ups before each operation, so set-up samples span the run.
SETUP_REPS = 4
# Zero on workloads that bypass the layer, so printed but not in the JSON result.
PRINT_ONLY = ("newton.recover.s", "fixed_point.assemble.s")


def load_program():
    """Import vmsflow from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "vmsflow"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no vmsflow sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import vmsflow
    if Path(vmsflow.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported vmsflow from {vmsflow.__file__}, not {package}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, factor: float) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
        "re_factor": factor, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def upper_quartile(samples) -> float:
    """Inclusive upper quartile (interpolated); one sample is its own quartile."""
    values = list(samples)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def layer_metrics(tracer, op: int, result, tol: float) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced operation; see README.md."""
    t = layer_totals(tracer, op)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def secs(name):
        return t.get(name, {}).get("s", 0.0)

    iters = result.iterations
    assemblies = calls("newton.assemble") + calls("fixed_point.assemble")
    stops = ["tol" if r.final_residual <= tol else "increment"
             for r in result.reports if r.converged]
    nnz = [v for o, v in tracer.lu_nnz if o == op]
    m = {}
    for name in ("mesh.build", "mesh.dof_map", "newton.element_tables",
                 "newton.assemble", "solve.linear", "solve.lu_factor"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    for name in ("problems.with_re", "newton.recover", "newton.traction",
                 "fixed_point.assemble"):
        m[f"{name}.calls"] = (calls(name), "count")
    m["newton.assemble.s_per_call"] = (
        secs("newton.assemble") / max(calls("newton.assemble"), 1), "s")
    m["solve.lu_nnz"] = (max(nnz, default=0), "count")
    m["solve.factor_per_iter"] = (calls("solve.lu_factor") / iters, "ratio")
    m["solve.assemble_per_iter"] = (assemblies / iters, "ratio")
    m["solve.self_s"] = (t["solve"]["self_s"], "s")
    m["solve.final_residual"] = (max(r.final_residual for r in result.reports), "norm")
    m["solve.stop_tol"] = (stops.count("tol"), "count")
    m["solve.stop_increment"] = (stops.count("increment"), "count")
    m["output.write.s"] = (secs("output.write"), "s")
    m["output.bytes"] = (sum(Path(p).stat().st_size for p in result.written), "bytes")
    m["newton.recover.s"] = (secs("newton.recover"), "s")
    m["fixed_point.assemble.s"] = (secs("fixed_point.assemble"), "s")
    return m


def measure(args) -> dict:
    from workloads import WORKLOADS, gate, re_factor, run_op

    workload = WORKLOADS[args.workload]
    factor = re_factor(args.seed)
    record = run_record(args, factor)
    print("record:", json.dumps(record), flush=True)
    outdir = OUT / args.workload
    OUT.mkdir(exist_ok=True)

    tracer = Tracer()
    if args.trace:
        with tracer.installed():  # raises MissingTraceTarget before any operation
            pass
    plain, traced, errors, setups = [], [], [], []
    inconsistent = []  # determinism checks: they make the run incorrect, not an operation
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    start = perf_counter()
    while True:
        use_trace = bool(args.trace) and attempted % 2 == 1
        if len(cpus) > 1:
            # A shared host can slow one vCPU in phases of its own, so operations
            # take turns on the allowed CPUs (traced runs in pairs, so that traced
            # and untraced operations meet every CPU).
            turn = attempted // 2 if args.trace else attempted
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        t0 = perf_counter()
        for _ in range(SETUP_REPS):
            workload.setup(factor)
            setups.append(perf_counter() - t0)
            t0 = perf_counter()
        attempted += 1
        try:
            if use_trace:
                tracer.op = attempted
                with tracer.installed(), tracer.span("op"):
                    result = run_op(workload, factor, outdir, tracer.span)
            else:
                result = run_op(workload, factor, outdir)
            reasons = gate(workload, result)
        except Exception:  # any program error fails this operation, not the run
            reasons = [traceback.format_exc()]
            result = None
        if reasons:
            failed += 1
            errors.append(reasons)
            print(f"operation {attempted} FAILED: " + "; ".join(reasons), file=sys.stderr)
        if result is not None:
            (traced if use_trace else plain).append((attempted, result))
        now = perf_counter()
        done = now - start + (now - t0) > args.seconds
        if done and (not args.trace or traced):
            break
    if not plain or (args.trace and not traced):
        sys.exit("perfbench: no operation completed; nothing to report")

    setups += [r.setup_s for _, r in plain]
    solve_times = [r.solve_s for _, r in plain]
    iters = {r.iterations for _, r in plain + traced}
    if len(iters) != 1:
        inconsistent.append(f"iteration counts differ between operations: {sorted(iters)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The host runs identical code at two speeds about 1.4x apart, in phases of
    # seconds to minutes; a run's median flips between them as their shares
    # cross one half, while its upper quartile holds the slow speed unless three
    # quarters of the run fall in the fast one (README.md, "Steadiness").
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_p75_s": (upper_quartile(solve_times), "s"),
        "total_p75_s": (upper_quartile(r.total_s for _, r in plain), "s"),
        "iter_p75_s": (upper_quartile(r.solve_s / r.iterations for _, r in plain), "s"),
        "nonlinear_iters": (plain[0][1].iterations, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"solve_s = {statistics.median(solve_times):.6g} s (median)")
    t = tail(solve_times)
    if t:
        print(f"solve_tail_s = {t[1]:.6g} s (p{t[0]:.1f} of {len(solve_times)} solves)")
    else:
        print(f"solve_tail_s = n/a ({len(solve_times)} solves; a tail needs >= 11)")
    print(f"setup samples = {len(setups)}, operations: {attempted} attempted, {failed} failed")

    metrics = e2e
    saved = {"record": record, "end_to_end": e2e, "errors": errors,
             "samples": {"setup_s": setups, "solve_s": solve_times}}
    if args.trace:
        tol = workload.config(factor).tol
        per_op = [layer_metrics(tracer, op, r, tol) for op, r in traced]
        layers = {}
        for name, (_, unit) in per_op[0].items():
            values = [m[name][0] for m in per_op]
            if unit == "s":
                layers[name] = (statistics.median(values), unit)
            elif len(set(values)) == 1:
                layers[name] = (values[0], unit)
            else:
                inconsistent.append(f"{name} differs between traced operations: {values}")
                layers[name] = (values[0], unit)
        layers["trace.overhead_s"] = (
            statistics.median(r.solve_s for _, r in traced) - statistics.median(solve_times),
            "s")
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"traced operations = {len(traced)}, untraced = {len(plain)}")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        saved["per_layer"] = layers
        metrics = {k: v for k, v in layers.items() if k not in PRINT_ONLY}
    for message in inconsistent:
        print("INCONSISTENT:", message, file=sys.stderr)
    saved["inconsistent"] = inconsistent
    suffix = "-trace" if args.trace else ""
    (OUT / f"run-{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(saved, indent=1, default=str))
    return {
        "correct": failed == 0 and not inconsistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so memory and import state do not leak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}", *lines[:-1], sep="\n", flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    result = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
