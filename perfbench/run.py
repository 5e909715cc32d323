"""prslab benchmark: closed-loop passes over a workload's job list.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prslab checkout; prslab is imported from its `src/`.
Each workload is one process running one job after another, with no worker
pool.  The BLAS thread count is pinned to `nproc` in this process's
environment before numpy loads, and the memory budget to prslab's default.

--trace 0  Untraced passes, repeated until S seconds have passed (at least
           one).  Prints the end-to-end metrics:
             setup_s       median over SETUP_PROBES fresh processes of the time
                           from process start to the first timed job (imports,
                           inputs from the seed, one warm-up job);
             wall_s        median wall time of one pass;
             peak_rss_mib  peak resident memory of this process after the passes.
--trace 1  Pairs of one untraced and one traced pass until S seconds have
           passed.  Prints the per-layer metrics of the traced pass with the
           median wall time, the tracing overhead, and writes its spans to
           .perfbench_out/.

Every output is checked after the timed passes (jobs.py).  A job that raised
or failed its check counts in `failed`; in a traced run, so does a job whose
traced output differs from its untraced output.  The last line of standard
output is the JSON result; earlier lines starting with '#' are for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_VAR = "PRS_LAB_BUDGET_MIB"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a timed run would, print the ready time, exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> int:
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ.pop(BUDGET_VAR, None)
    return threads


def set_up(workload: str, seed: int):
    """Import prslab, build the inputs from the seed, run the warm-up job."""
    sys.path.insert(0, str(SRC))
    import jobs
    import prslab

    if Path(prslab.__file__).resolve().parent != SRC / "prslab":
        raise SystemExit(f"imported prslab from {prslab.__file__}, not from {SRC}")
    if workload not in jobs.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(jobs.WORKLOADS)}")
    job_list, warmup = jobs.build(workload, seed)
    warmup.run()
    return jobs, job_list


def run_pass(job_list, recorder=None):
    """One closed-loop pass; an exception ends its job, never the pass."""
    results = []
    gc.collect()  # every pass starts from the same heap
    start = time.perf_counter()
    for job in job_list:
        try:
            if recorder is None:
                results.append(job.run())
            else:
                with recorder.job(job.label):
                    results.append(job.run())
        except Exception as exc:  # counted as a failed job
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
    return time.perf_counter() - start, results


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, from its start to its ready time.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"setup probe exited with code {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def environment(threads: int) -> dict:
    import numpy
    import scipy
    from prslab import budget

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads": threads,
        "blas_threads_reported": _openblas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "budget_mib": budget.budget_mib(),
        "budget_mib_default": budget.DEFAULT_BUDGET_MIB,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "prslab").rglob("*.py"))),
    }


def _openblas_threads(numpy) -> int | None:
    """Thread count OpenBLAS reports, when numpy ships the scipy-openblas build."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return int(get())
    return None


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def report_failures(failed: list[str]) -> None:
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)


def untraced_run(args, jobs, job_list) -> int:
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    walls, failed, oracles = [], [], {}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, results = run_pass(job_list)
        walls.append(wall)
        failed += jobs.check_pass(job_list, results, oracles)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(job_list) * len(walls)
    report_failures(failed)
    print(f"# {args.workload}: {len(walls)} passes of {len(job_list)} jobs, "
          f"walls {[round(w, 4) for w in walls]} s, setups {[round(s, 4) for s in setups]} s, "
          f"fail_ratio {len(failed) / attempted} ({len(failed)}/{attempted})")
    emit(not failed, attempted, len(failed), {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
    })
    return 0


def traced_run(args, jobs, job_list, env) -> int:
    import tracer

    untraced_walls, traced, failed, oracles = [], [], [], {}
    first_results = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, results = run_pass(job_list)
        untraced_walls.append(wall)
        failed += jobs.check_pass(job_list, results, oracles)
        first_results = first_results or results
        recorder = tracer.Recorder()
        with recorder.patched():
            wall, results = run_pass(job_list, recorder)
        traced.append((wall, recorder))
        failed += jobs.check_pass(job_list, results, oracles, same_as=first_results)
    attempted = len(job_list) * (len(untraced_walls) + len(traced))
    report_failures(failed)

    # the traced pass with the median wall time (the lower one of an even count)
    traced.sort(key=lambda entry: entry[0])
    wall, recorder = traced[(len(traced) - 1) // 2]
    untraced_wall = statistics.median(untraced_walls)
    metrics = tracer.layer_metrics(recorder)
    self_sum = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.spans": (float(len(recorder.span_start)), "count"),
    })
    rows = tracer.baseline_rows(recorder, args.workload)
    for row in rows:
        flag = "  OFF BY MORE THAN 2x" if row["off_by_2x"] else ""
        print(f"# baseline {row['row']}: {row['measured_s']:.6g} s traced, "
              f"ROADMAP {row['roadmap_s']:.6g} s, ratio {row['ratio']:.3f}{flag}")
    print(f"# {args.workload}: {len(traced)} traced passes; traced wall {wall:.4f} s, "
          f"untraced {untraced_wall:.4f} s, module self times sum to {self_sum:.4f} s, "
          f"fail_ratio {len(failed) / attempted} ({len(failed)}/{attempted})")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    recorder.dump(path, {
        "workload": args.workload, "seed": args.seed, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "baseline": rows,
    })
    print(f"# spans written to {path.relative_to(ROOT)}")
    emit(not failed, attempted, len(failed), metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prslab" / "__init__.py").is_file():
        print(f"error: no prslab sources at {SRC}; run from a prslab checkout", file=sys.stderr)
        return 2
    threads = pin_environment()
    jobs, job_list = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0
    env = environment(threads)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        return traced_run(args, jobs, job_list, env)
    return untraced_run(args, jobs, job_list)


if __name__ == "__main__":
    sys.exit(main())
