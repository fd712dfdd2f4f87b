"""Workload definitions and output checks for the afstab benchmark.

A workload is a repository config, the overrides that pin its size (grid
nodes, pair, record and trace counts, solver tolerance) and the `afstab`
subcommands it runs, in order, into one fresh output directory.  Sizes
live here, not in the repository configs, so a change to the program
cannot make a workload cheaper by shrinking them.

This module imports neither numpy nor afstab: the runner reads the
workload names from it without paying for those imports.
"""

import csv
import json
import math
import os
import statistics

# pinned here so the solve cannot be made cheaper by loosening the config
SOLVER = {"tol": 1e-11, "method": "auto", "max_iter": 20000}

WORKLOADS = {
    "harmonic-fine": {
        "why": "harmonic solve and dump round trip at the finest grid of the set; "
               "no geodesics",
        "config": "configs/schwarzschild_sweep.json",
        "overrides": {"grid": {"nodes": 65},
                      "solver": SOLVER},
        "stages": ["harmonic", "inequality"],
        # memory-bound sparse solve: a streaming pass slows down as it does
        "speed_kernel": "stream",
    },
    "desk-point": {
        "why": "one desk-sweep point as separate stage calls; geodesic shooting on "
               "large batches dominates",
        "config": "configs/schwarzschild_sweep.json",
        "overrides": {"grid": {"nodes": 33},
                      "solver": SOLVER,
                      "sampling": {"n_pairs": 60, "eikonal_nodes": 41,
                                   "n_pythagoras_pairs": 2, "n_targets": 2,
                                   "ball_radius": 1.5, "target_radius": 1.0}},
        "stages": ["check-af", "mass", "harmonic", "inequality", "distort",
                   "pythagoras", "flow"],
        # many small-array numpy calls: so is the kernel
        "speed_kernel": "ufunc",
    },
}

MASS_RTOL = 5e-3          # extrapolated ADM mass against the family parameter
REFERENCE_RTOL = 1e-4     # summary scalars against the recorded reference
REFERENCE_ATOL = 1e-9


def config_dict(root, name: str, seed: int) -> dict:
    """The workload's config as a dict: repository config, overrides, seed."""
    spec = WORKLOADS[name]
    with open(os.path.join(root, spec["config"])) as f:
        data = json.load(f)
    for section, fields in spec["overrides"].items():
        data.setdefault(section, {}).update(fields)
    data.setdefault("sampling", {})["seed"] = int(seed)
    return data


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _csv_scalars(rows, prefix):
    """Numeric CSV cells keyed "<prefix>[<row>].<column>"."""
    return {f"{prefix}[{i}].{col}": float(val)
            for i, row in enumerate(rows) for col, val in row.items()
            if col != "family"}


def _mass_problem(found, expected, where):
    if not abs(found - expected) <= MASS_RTOL * abs(expected):
        return (f"{where}: extrapolated ADM mass {found!r} is not within "
                f"{MASS_RTOL:.1%} of {expected!r}")
    return None


def check_outputs(name: str, cfg: dict, out_dir, statuses: dict):
    """Check one iteration's outputs.

    `statuses` maps each stage call to its manifest status, or to
    "raised: ..." when an exception escaped `run`.  Returns
    (problems, attempted, failed, scalars): the list of failed checks,
    the operation counts, and the summary scalars compared against the
    recorded reference.
    """
    problems = []
    scalars = {}
    sm = cfg["sampling"]
    m = float(cfg["family"]["params"]["m"])
    attempted = len(statuses)
    failed = 0
    for stage, status in statuses.items():
        if status != "ok":
            failed += 1
            problems.append(f"stage {stage}: {status}")

    def path(fn):
        return os.path.join(out_dir, fn)

    def stage_ok(stage):
        return statuses.get(stage) == "ok"

    if stage_ok("inequality"):
        rep = _read_json(path("inequality_report.json"))
        problems.append(_mass_problem(rep["mass"], m, "inequality"))
        scalars.update(_csv_scalars(_read_csv(path("inequality.csv")), "inequality"))
    if name == "desk-point":
        n_pairs, n_rec, n_tr = sm["n_pairs"], sm["n_pythagoras_pairs"], sm["n_targets"]
        attempted += n_pairs + n_rec + n_tr
        if stage_ok("mass"):
            problems.append(_mass_problem(
                _read_json(path("mass_report.json"))["extrapolated"], m, "mass"))
        if stage_ok("distort"):
            rep = _read_json(path("distortion_report.json"))
            failed += rep["n_failed_pairs"]
            if rep["n_failed_pairs"] > max(1, n_pairs // 100):
                problems.append(f"distort: {rep['n_failed_pairs']} of {n_pairs} "
                                "pairs failed")
            for k in ("defect_p50", "defect_p90", "defect_p99", "max_defect",
                      "ortho_l1"):
                scalars[f"distortion.{k}"] = rep[k]
        else:
            failed += n_pairs
        if stage_ok("pythagoras"):
            rep = _read_json(path("pythagoras_report.json"))
            failed += rep["n_failures"]
            for k in ("median_defect", "median_u_defect_same"):
                scalars[f"pythagoras.{k}"] = rep[k]
        else:
            failed += n_rec
        if stage_ok("flow"):
            rep = _read_json(path("flow_report.json"))
            traces = _read_json(path("flow_traces.json"))["traces"]
            scalars["flow.image_hausdorff"] = rep["image_hausdorff"]
            scalars["flow.median_u_error"] = statistics.median(
                t["u_error"] for t in traces)
        else:
            failed += n_tr
    return [p for p in problems if p], attempted, failed, scalars


def compare_reference(scalars: dict, reference: dict, seed: int):
    """Scalars that differ from the recorded reference for this seed.

    The reference holds values that were the same for every recorded seed
    under "any_seed" and the others under "seeds"; a seed that was not
    recorded is checked against the seed-independent values only.
    """
    expected = dict(reference.get("any_seed", {}))
    expected.update(reference.get("seeds", {}).get(str(seed), {}))
    problems = []
    for key, want in sorted(expected.items()):
        got = scalars.get(key)
        if got is None:
            problems.append(f"reference: {key} missing")
        elif not math.isclose(got, want, rel_tol=REFERENCE_RTOL,
                              abs_tol=REFERENCE_ATOL):
            problems.append(f"reference: {key} = {got!r}, recorded {want!r}")
    return problems
