#!/usr/bin/env python3
"""anfem benchmark: runs one workload (or all), checks its outputs and prints
its metrics; the last line of standard output is one JSON object.

    python3 perfbench/run.py --workload lshape_adaptive --seed 1 \
        --seconds 12 --trace 0

`--trace 0` reports the end-to-end metrics: set-up time (median of three
set-ups, two in fresh processes), then the workload repeated until
`--seconds` seconds have passed, with the median wall time and dofs/s over
the repetitions, and peak RSS. Set-up and wall times are scaled to a
reference machine speed by a calibration that runs on the other CPU
meanwhile (`calibrate.py`); the unscaled times are printed and saved too.
`--trace 1` runs a cold untraced, a traced and a warm untraced repetition
and reports the per-layer metrics from the trace, unscaled. `--workload all`
runs every workload in its own process. BLAS/OpenMP pools use AFEM_THREADS
threads (default 1).
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
import time
import traceback

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 3          # fresh-process set-ups per run; median reported
MIN_COVERAGE = 0.9         # top-level spans must cover the traced wall time
NPROC = len(os.sched_getaffinity(0))   # before the sampler pins this process
THREAD_VARS = ("AFEM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    import sympy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": NPROC,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "machine": platform.machine(),
    }


def _probe_setup(args) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _rep(wl, ctx, seed):
    """One repetition: (wall seconds, dofs, failed output checks)."""
    start = time.perf_counter()
    try:
        out = wl.run(ctx, seed)
        wall = time.perf_counter() - start
        dofs, errors = wl.verify(ctx, out)
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc()
        return wall, 0, ["raised " + traceback.format_exc().splitlines()[-1]]
    return wall, dofs, errors


def _summary(samples: list) -> dict:
    q1, median, q3 = _quartiles(samples)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def _report(args, metrics: dict, units: dict, failures: list,
            attempted: int, failed: int, extra: dict) -> int:
    """Print the metrics, save them with the environment, print the result
    line; exit code 0 means the run finished, `correct` tells if it passed."""
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for name, s in metrics.items():
        print(f"{name:32s} {s['median']:14.6g} {units[name]:6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"{'failed_fraction':32s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} repetitions")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"env": env, "metrics": metrics, "units": units,
                   "attempted": attempted, "failed": failed,
                   "failures": failures, **extra}, f, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": units[k]}
                    for k, s in metrics.items()}}))
    return 0


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "dofs_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def run_measured(wl, args) -> int:
    """Set-up in this process and in SETUP_SAMPLES - 1 fresh ones, then
    repetitions until `--seconds` have passed, while the calibration
    sampler runs on the other CPU; each phase's times are scaled by the
    passes timed during it."""
    from calibrate import Sampler

    raw_setups, raw_walls, dofs, failures, failed = [], [], [], [], 0
    with Sampler() as sampler:
        setup_start = time.perf_counter()
        ctx = wl.setup(args.seed)
        raw_setups.append(time.perf_counter() - setup_start)
        for _ in range(SETUP_SAMPLES - 1):
            raw_setups.append(_probe_setup(args))
        begin = time.perf_counter()
        while True:
            wall, n, errors = _rep(wl, ctx, args.seed)
            if not raw_walls:  # later repetitions can grow a fragmented heap
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            raw_walls.append(wall)
            dofs.append(n)
            failures += errors
            failed += bool(errors)
            if errors:
                break                  # same inputs: it would fail again
            if time.perf_counter() - begin >= args.seconds:
                break
        end = time.perf_counter()
    setup_scale = sampler.scale(setup_start, begin)
    wall_scale = sampler.scale(begin, end)
    setups = [t * setup_scale for t in raw_setups]
    walls = [t * wall_scale for t in raw_walls]
    rates = [n / t for n, t in zip(dofs, walls)]
    metrics = {"setup_s": _summary(setups), "wall_s": _summary(walls),
               "dofs_per_s": _summary(rates),
               "peak_rss_mb": _summary([rss_mb])}
    for name, samples in (("setup_s", raw_setups), ("wall_s", raw_walls)):
        s = _summary(samples)
        print(f"unscaled {name:23s} {s['median']:14.6g} {'s':6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"scale factors: set-up {setup_scale:.4f}, repetitions "
          f"{wall_scale:.4f} ({len(sampler.samples)} calibration passes)")
    return _report(args, metrics, END_TO_END_UNITS, failures, len(walls),
                   failed, {"scale": {"setup": setup_scale,
                                      "wall": wall_scale},
                            "calibration": sampler.samples,
                            "samples": {
                                "setup_s": setups, "wall_s": walls,
                                "dofs_per_s": rates,
                                "unscaled_setup_s": raw_setups,
                                "unscaled_wall_s": raw_walls}})


def run_traced(wl, args) -> int:
    """Cold untraced repetition, traced repetition, warm untraced
    repetition; the overhead compares the last two."""
    import anfem  # noqa: F401  (the tracer patches loaded modules)
    import anfem.cli  # noqa: F401
    from tracer import Tracer, per_layer_unit

    tracer = Tracer()
    tracer.install()
    s0 = tracer.mark()
    ctx = wl.setup(args.seed)
    setup = (s0, tracer.mark())
    tracer.uninstall()

    _, _, cold_errors = _rep(wl, ctx, args.seed)

    tracer.install(loads=[ctx["load"]])
    r0 = tracer.mark()
    start = time.perf_counter()
    try:
        out = wl.run(ctx, args.seed)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    rep = (r0, tracer.mark())
    _, errors = wl.verify(ctx, out)

    wall_untraced, _, warm_errors = _rep(wl, ctx, args.seed)

    layers = tracer.layer_metrics(setup, rep, wall)
    layers["trace.overhead_s"] = wall - wall_untraced
    if layers["trace.top_level_coverage"] < MIN_COVERAGE:
        errors.append(f"top-level spans cover only "
                      f"{layers['trace.top_level_coverage']:.3f} of the "
                      f"traced wall time")
    reps = (cold_errors, errors, warm_errors)
    metrics = {k: _summary([v]) for k, v in sorted(layers.items())}
    units = {k: per_layer_unit(k) for k in metrics}
    return _report(args, metrics, units, [e for r in reps for e in r],
                   len(reps), sum(1 for r in reps if r),
                   {"wall_s": {"untraced": wall_untraced, "traced": wall},
                    "spans": tracer.records()})


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # numpy is first imported by a workload's set-up, after this
    threads = os.environ.get("AFEM_THREADS", "1")
    for var in THREAD_VARS:
        os.environ[var] = threads
    if not os.path.isfile(os.path.join(ROOT, "src", "anfem", "__init__.py")):
        print(f"error: no anfem sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        start = time.perf_counter()
        wl.setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    return (run_traced if args.trace else run_measured)(wl, args)


if __name__ == "__main__":
    sys.exit(main())
