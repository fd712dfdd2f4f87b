"""Measured iterations of one benchmark workload, in a process of its own.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--iterations K] [--trace] [--setup-only]

Times set-up (imports, config parse and validation, chart and grid
construction), then repeats the workload until S seconds are spent (at
least three iterations) or exactly K times.  Iteration k samples its
inputs with `sampling.seed = 1000 * N + k`, runs the stages through
`afstab.cli.run` into a fresh directory under .bench_out, checks the
outputs and removes the directory.  With --trace, iterations alternate
plain and traced on the same inputs; the traced ones wrap the public
afstab functions and write their spans under .bench_traces.  A speed
sampler (speed.py) runs throughout; its ticks and the time windows of
set-up and of every stage call go out with the result, so that the
runner can scale them to the core's full speed.  Prints one JSON line.
"""

import time

T0 = time.perf_counter()

from speed import Sampler  # noqa: E402

# started on import: this file only runs as a script, and set-up is timed
# from the first line, so the speed samples must cover it from there
SAMPLER = Sampler("python")
SAMPLER.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3


def sampling_seed(seed: int, iteration: int) -> int:
    return 1000 * seed + iteration


def environment() -> dict:
    import numpy
    import scipy

    import afstab.harmonic

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "afstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                        / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        # solve_harmonic_coordinate resolves "auto" to AMG only with pyamg
        "solver_method": "cg" if afstab.harmonic.pyamg is None else "amg",
    }


def iteration(workload, inputs, reference, trace_file=None) -> dict:
    """Run, check and clean up one iteration on the input set `inputs`."""
    import afstab.cli
    from afstab.config import config_from_dict

    import workloads

    cfg_dict = workloads.config_dict(ROOT, workload, inputs)
    cfg = config_from_dict(cfg_dict)
    out = ROOT / ".bench_out" / uuid.uuid4().hex
    out.mkdir(parents=True)
    tracer = None
    if trace_file is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    statuses = {}
    stage_s = {}
    windows = {}
    try:
        for stage in workloads.WORKLOADS[workload]["stages"]:
            t = time.perf_counter()
            try:
                _, manifest = afstab.cli.run(stage, cfg, out_dir=out)
                statuses[stage] = manifest.data["stages"].get(stage, "missing")
            except Exception as exc:   # noqa: BLE001 - an escaped error is a failed op
                statuses[stage] = f"raised: {type(exc).__name__}: {exc}"
                traceback.print_exc()
            windows[stage] = [t, time.perf_counter()]
            stage_s[stage] = windows[stage][1] - t
        if tracer is not None:
            tracer.uninstall()
        problems, attempted, failed, scalars = workloads.check_outputs(
            workload, cfg_dict, out, statuses)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    problems += workloads.compare_reference(scalars, reference, inputs)
    result = {"inputs": inputs, "wall_s": sum(stage_s.values()), "stage_s": stage_s,
              "windows": windows, "statuses": statuses, "problems": problems,
              "attempted": attempted, "failed": failed, "scalars": scalars}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        with open(trace_file, "w") as f:
            json.dump({"run": tracer.run_id, "workload": workload, "inputs": inputs,
                       "spans": tracer.span_dicts(), "counts": dict(tracer.counts),
                       "samples": {k: list(v) for k, v in tracer.samples.items()}},
                      f)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import afstab.cli  # noqa: F401 - set-up cost: every afstab module
    from afstab.config import config_from_dict

    import workloads

    cfg = config_from_dict(workloads.config_dict(ROOT, args.workload,
                                                 sampling_seed(args.seed, 0)))
    cfg.chart()
    cfg.make_grid()
    setup = [T0, time.perf_counter()]
    if args.setup_only:
        SAMPLER.stop()
        print(json.dumps({"setup": setup, "ticks": {"python": SAMPLER.column("python")}}))
        return 0
    kind = workloads.WORKLOADS[args.workload]["speed_kernel"]
    SAMPLER.add(kind)

    ref_path = Path(__file__).resolve().parent / "reference.json"
    reference = {}
    if ref_path.exists():
        reference = json.loads(ref_path.read_text()).get(args.workload, {})
    step = 2 if args.trace else 1   # a traced iteration follows a plain one
    iterations = []
    start = time.monotonic()
    while True:
        n = len(iterations)
        inputs = sampling_seed(args.seed, n // step)
        trace_file = None
        if args.trace and n % 2:
            (ROOT / ".bench_traces").mkdir(exist_ok=True)
            trace_file = ROOT / ".bench_traces" / f"{args.workload}-seed{inputs}.json"
        iterations.append(iteration(args.workload, inputs, reference, trace_file))
        done = len(iterations)
        elapsed = time.monotonic() - start
        if args.iterations is not None:
            if done >= args.iterations:
                break
        elif (done % step == 0 and done >= (step if args.trace else MIN_ITERATIONS)
              and elapsed * (done + step) / done > args.seconds):
            break
    SAMPLER.stop()
    try:
        (ROOT / ".bench_out").rmdir()
    except OSError:
        pass   # another worker's directory is still there
    print(json.dumps({
        "setup": setup, "iterations": iterations, "env": environment(),
        "ticks": {k: SAMPLER.column(k) for k in ("python", kind)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
