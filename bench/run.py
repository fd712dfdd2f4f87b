"""afstab benchmark: end-to-end metrics per workload, or per-layer ones traced.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout of the repository; afstab is imported from its `src`.
One worker process (bench/worker.py) sets up and repeats the workload for
S seconds, each iteration on its own input set derived from N; further
worker processes only set up, so that set-up is timed at least five times.

--trace 0 reports wall_s (median over iterations), peak_rss_mb (the
worker's) and setup_s (median over the set-ups).  Both times are scaled
to the core's full speed with the worker's speed samples (speed.py): the
host slows its cores by up to a third for stretches of a second, and the
share of slow stretches drifts over minutes.  --trace 1 alternates
plain and traced iterations on the same inputs and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  The last line of
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A run whose outputs fail a check prints the problems, reports no metrics
and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from speed import full_speed_seconds, share  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, *flags):
    """One worker process; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    # single-threaded BLAS: the workloads are serial and this keeps them steady
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_p80"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_frac") or name.endswith("rows_per_call"):
        return "ratio"
    return "count"


def measure(workload, seed, seconds, trace):
    """Run and check one workload; print its block and return the result."""
    flags = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    run = run_worker(workload, seed, *flags)
    iters = run["iterations"]
    kind = WORKLOADS[workload]["speed_kernel"]
    speed = run["ticks"][kind]
    for it in iters:
        it["raw_wall_s"] = it["wall_s"]
        it["stage_s"] = {stage: full_speed_seconds(a, b, speed, kind)
                         for stage, (a, b) in it["windows"].items()}
        it["wall_s"] = sum(it["stage_s"].values())
    # set-up is timed against the pure-Python kernel, which needs no imports
    setup_runs = [(run["setup"], [r for r in run["ticks"]["python"]
                                  if r[0] < run["setup"][1]])]
    while not trace and len(setup_runs) < SETUP_SAMPLES:
        other = run_worker(workload, seed, "--setup-only")
        setup_runs.append((other["setup"], other["ticks"]["python"]))
    setups = [full_speed_seconds(*window, ticks, "python")
              for window, ticks in setup_runs]
    raw_setups = [b - a for (a, b), _ in setup_runs]
    setup_ticks = [r for _, ticks in setup_runs for r in ticks]

    problems = sorted({p for it in iters for p in it["problems"]})
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    plain = [it for it in iters if "layers" not in it]
    traced = [it for it in iters if "layers" in it]
    walls = [it["wall_s"] for it in plain]
    print(f"afstab benchmark: workload {workload}, seed {seed}, {len(iters)} "
          f"iterations, tracing {'on' if trace else 'off'}")
    print("env: " + json.dumps(run["env"], sort_keys=True))
    print("inputs (sampling.seed): " + " ".join(str(it["inputs"]) for it in iters))
    print(f"speed: {len(speed)} samples of the {kind} kernel; median share of "
          f"full speed {share(speed, kind):.3f}; in set-up {share(setup_ticks, 'python'):.3f}")
    print("stages (median full-speed s): " + ", ".join(
        f"{k} {statistics.median(it['stage_s'][k] for it in iters):.3f}"
        for k in iters[0]["stage_s"]))
    print(f"fail_frac        {failed / attempted:.6g} ({failed} of {attempted} "
          "operations: stage calls, distortion pairs, records, flow traces)")
    if trace:
        metrics = {name: statistics.median(it["layers"][name] for it in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        for name, value in metrics.items():
            print(f"{name:32s} {value:.6g} {metric_unit(name)}")
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": run["peak_rss_mb"]}
        raw = [it["raw_wall_s"] for it in plain]
        print(f"wall_s           {metrics['wall_s']:.6f} s at full speed (median of "
              f"{len(walls)}; min {min(walls):.4f}, max {max(walls):.4f}); "
              f"as measured {statistics.median(raw):.4f} s")
        print(f"setup_s          {metrics['setup_s']:.6f} s at full speed (median of "
              f"{len(setups)}); as measured {statistics.median(raw_setups):.4f} s")
        print(f"peak_rss_mb      {metrics['peak_rss_mb']:.3f} MiB")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {} if problems else
            {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "afstab" / "cli.py").is_file():
        print(f"no afstab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(outcomes[name]))
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {"correct": all(o["correct"] for o in outcomes.values()),
                 "attempted": sum(o["attempted"] for o in outcomes.values()),
                 "failed": sum(o["failed"] for o in outcomes.values()),
                 "metrics": {f"{n}.{k}": v for n, o in outcomes.items()
                             for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
