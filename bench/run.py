"""dickelab benchmark: CLI workloads end to end, per-layer numbers from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the package is imported from ./src.
Every job goes through dickelab.cli.main in this process with
DICKELAB_WORKERS unset (one worker).  A pass runs all jobs of the workload
once, closed loop, in an order drawn from the seed; passes repeat until
--seconds have gone by.  After each pass every output is checked (exit
code, artifacts, numbers); a failed check counts the run as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics; the difference of their
walls is the tracing overhead.  --workload all runs every workload in its
own fresh process, untraced and traced, and prints every metric.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Details (environment, per-run records and,
when traced, all spans) go to .bench_out/ at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5    # this process plus four fresh child processes

END_TO_END = {
    "setup_s": ("s", "import the package, generate configs, one warm-up solve (median of 5 processes)"),
    "wall_s": ("s", "wall time of one pass over the workload's CLI runs (median over passes)"),
    "run_s.p50": ("s", "median wall time of a single CLI run"),
    "run_s.max": ("s", "slowest CLI run of a pass (median over passes)"),
    "peak_rss_mb": ("MB", "peak RSS of the workload process (ru_maxrss)"),
}
EXACT_UNITS = {"count", "ratio", "B_computed"}   # per-layer counters read from return values


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> int:
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = _nproc()
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("DICKELAB_WORKERS", None)
    return threads


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "seed": seed, "git_commit": _git_commit(),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, work: Path):
    """Import the package, write the config documents, run one warm-up solve.

    Returns (package, jobs, config paths, refs, seconds)."""
    import workloads

    t0 = time.perf_counter()
    import dickelab
    import dickelab.cli

    if Path(dickelab.__file__).resolve().parent != SRC / "dickelab":
        raise RuntimeError(f"imported dickelab from {dickelab.__file__}, not from {SRC}")
    refs = json.loads((Path(__file__).parent / "refs.json").read_text())
    jobs = workloads.WORKLOADS[workload]()
    warm = workloads.warmup_job(workload)
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True)
    paths = {}
    for job in [warm, *jobs]:
        paths[job.name] = cfg_dir / f"{job.name}.json"
        paths[job.name].write_text(json.dumps(job.config))
    out = work / "warmup"
    t_run = time.perf_counter()
    code = dickelab.cli.main([str(paths[warm.name]), "-o", str(out)])
    outcome = workloads.check(warm, out, code, time.perf_counter() - t_run, refs)
    seconds = time.perf_counter() - t0
    if not outcome.ok:
        raise RuntimeError(f"warm-up solve failed: {outcome.reason}")
    shutil.rmtree(out)
    return dickelab, jobs, paths, refs, seconds


def setup_in_child(args, work: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_jobs(package, jobs, paths, order, cli_seed, work: Path, tag: str):
    """Run every job once in the given order; returns (pass wall, runs)."""
    main = package.cli.main
    runs = []
    t_pass = time.perf_counter()
    for i in order:
        job = jobs[i]
        out = work / f"{tag}-{job.name}"
        t0 = time.perf_counter()
        try:
            code = main([str(paths[job.name]), "-o", str(out), "--seed", str(cli_seed)])
        except Exception:  # a traceback is a failed run, not a crashed benchmark
            code = "traceback"
            traceback.print_exc(file=sys.stderr)
        runs.append((job, out, code, time.perf_counter() - t0))
    return time.perf_counter() - t_pass, runs


def check_runs(runs, refs):
    """Check every output of a pass and delete it; returns (records, parity_odd)."""
    import workloads

    records, parity_odd = [], 0
    for job, out, code, seconds in runs:
        outcome = workloads.check(job, out, code, seconds, refs)
        parity_odd += outcome.parity_odd
        records.append({"job": job.name, "exit_code": code, "seconds": seconds,
                        "ok": outcome.ok, "reason": outcome.reason})
        if not outcome.ok:
            print(f"FAILED {job.name}: {outcome.reason}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
    return records, parity_odd


def measure(args, work: Path) -> dict:
    import layers

    samples = []
    package, jobs, paths, refs, seconds = setup(args.workload, work)
    samples.append(seconds)
    for k in range(1, SETUP_SAMPLES):
        samples.append(setup_in_child(args, work / f"setup-child{k}"))

    rng = random.Random(args.seed)
    cli_seed = args.seed
    walls, traced_walls, run_seconds, run_max, records = [], [], [], [], []
    traced, all_spans = [], []
    deadline = time.perf_counter() + args.seconds
    n = 0
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        wall, runs = run_jobs(package, jobs, paths, order, cli_seed, work, f"p{n}")
        recs, _ = check_runs(runs, refs)
        walls.append(wall)
        run_seconds.extend(r["seconds"] for r in recs)
        run_max.append(max(r["seconds"] for r in recs))
        records.extend(recs)
        if args.trace:
            tracer = layers.Tracer()
            with tracer.installed(package):
                wall, runs = run_jobs(package, jobs, paths, order, cli_seed, work, f"t{n}")
            recs, parity_odd = check_runs(runs, refs)
            traced_walls.append(wall)
            traced.append(layers.pass_metrics(tracer.spans, wall, parity_odd))
            all_spans.append({"pass": n, "order": [jobs[i].name for i in order],
                              "spans": tracer.spans})
            records.extend(recs)
        n += 1
        if time.perf_counter() >= deadline:
            break

    failed = sum(not r["ok"] for r in records)
    result = {"attempted": len(records), "failed": failed,
              "fail_frac": failed / len(records), "passes": n}
    if args.trace:
        per_layer = layers.median_metrics(traced)
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["metrics"] = {name: (per_layer[name], unit)
                             for name, (unit, _, _) in layers.METRICS.items()}
        result["spans"] = all_spans
    else:
        e2e = {"setup_s": statistics.median(samples),
               "wall_s": statistics.median(walls),
               "run_s.p50": statistics.median(run_seconds),
               "run_s.max": statistics.median(run_max),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        result["metrics"] = {name: (e2e[name], unit) for name, (unit, _) in END_TO_END.items()}
    result["setup_samples"] = samples
    result["records"] = records
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(args, env: dict, result: dict) -> None:
    import layers

    print(f"dickelab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_frac={result['fail_frac']:.6g} (ratio)")
    if not args.trace:
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name:38s} {value:16.6g} {unit:11s} {END_TO_END[name][1]}")
        return
    for title, exact in (("measured (varies run to run):", False),
                         ("counted (repeats exactly for a given seed):", True)):
        print(title)
        for name, (value, unit) in result["metrics"].items():
            if (unit in EXACT_UNITS) == exact:
                shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6g}"
                print(f"  {name:38s} {shown} {unit:11s} moves {layers.METRICS[name][2]}")
    m = {k: v for k, (v, _) in result["metrics"].items()}
    print(f"exactdiag.ground_state.s is {100 * m['exactdiag.ground_state.s'] / m['trace.wall_s']:.1f}% "
          f"of the traced pass wall")


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    import workloads

    combined = {"attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: workload {name} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for metric, body in last["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = (body["value"], body["unit"])
    print(summary_line(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dickelab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dickelab'}; run from a dickelab source tree",
              file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, Path(args.setup_only))[4]}))
        return 0
    if args.workload == "all":
        return run_all(args)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args.seed, blas_threads)
    OUT.mkdir(exist_ok=True)
    details = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps({"environment": env, **result}) + "\n")
    report(args, env, result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
