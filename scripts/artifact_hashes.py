#!/usr/bin/env python3
"""sha256 of every artifact of the desk sweep and of the stage chain.

    python3 scripts/artifact_hashes.py <out_dir> [--against OTHER_OUT_DIR]

Runs the `sweep` subcommand on configs/schwarzschild_sweep.json into
<out_dir>/sweep, then `check-af, mass, harmonic, inequality, distort,
pythagoras, flow` with the same config, in that order, into
<out_dir>/chain, all through `afstab.cli.run`, and prints
`relpath sha256` for every file under <out_dir> except the manifests
(they hold wall times); the runs' status lines go to stderr, and then
one line `christoffel_quadratic calls: sweep N, chain M`, the
`MetricChart.christoffel_quadratic` calls of the sweep and of the chain
(deterministic: one call per RK4 stage of a geodesic batch).  afstab is
imported from this checkout's `src`, so the output of two checkouts can
be compared line by line, e.g. with `diff`, to check that a change keeps
the artifacts byte-identical.

The chain runs the config's own family parameters, which are also the
sweep's first point, and reloads the `harmonic` field dumps; its reports
must give that point's stability_<tag>.json numbers exactly, and each
stage's manifest status must be that point's tag for the stage
(`check-af` is tagged `certify`, `distort` is tagged `distortion`, the
others by their names).  Each field or status that differs is named on
stderr.  Exits nonzero if any run did or anything differs.

With --against OTHER_OUT_DIR, the output directory of an earlier run
(say, of another checkout), each artifact whose sha256 differs from its
namesake there gets one line on stderr: for a JSON or CSV artifact, the
largest relative change |new - old| / |old| over its numbers with
|old| >= 1e-12, the key where it occurs with its old and new values, and
how many numbers moved; for
any other file, only that its bytes differ.  A difference in structure
(keys or list items on one side only, strings) is named by its key, and
the numbers under the keys both sides share are still compared.  The
comparison does not change the exit code.
"""

import argparse
import contextlib
import csv
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afstab.cli import run  # noqa: E402
from afstab.config import parse_config  # noqa: E402
from afstab.geometry import MetricChart  # noqa: E402
from afstab.reporting import sha256_file  # noqa: E402

CONFIG = str(ROOT / "configs" / "schwarzschild_sweep.json")
CHAIN = ("check-af", "mass", "harmonic", "inequality", "distort", "pythagoras",
         "flow")
SWEEP_TAG = {"check-af": "certify", "distort": "distortion"}


def afstab(subcommand, cfg, out_dir):
    """Run one subcommand; returns (exit code, manifest status)."""
    code, manifest = run(subcommand, cfg, out_dir=out_dir)
    status = manifest.data["stages"][subcommand]
    print(f"afstab {subcommand}: {status}", file=sys.stderr)
    return code, status


@contextlib.contextmanager
def christoffel_calls():
    """Count the MetricChart.christoffel_quadratic calls made inside the
    block; yields a one-item list that holds the count."""
    real = MetricChart.christoffel_quadratic
    count = [0]

    def counting(self, x, v):
        count[0] += 1
        return real(self, x, v)

    MetricChart.christoffel_quadratic = counting
    try:
        yield count
    finally:
        MetricChart.christoffel_quadratic = real


def chain_point(chain: pathlib.Path) -> dict:
    """The sweep point's numbers as the chain's reports give them."""
    def report(name):
        return json.loads((chain / name).read_text())

    harm, ineq = report("harmonic_report.json"), report("inequality_report.json")
    dist, flow = report("distortion_report.json"), report("flow_report.json")
    axes = ineq["axes"]
    return {"mass": ineq["mass"], "grad_sup": harm["grad_sup"],
            "residual_norms": harm["residual_norms"], "cheng_yau": harm["cheng_yau"][0],
            "hessian_l2": max(ax["hessian_l2"] for ax in axes),
            "rhs_integral": max(ax["rhs_integral"] for ax in axes),
            "slack": min(ax["slack"] for ax in axes),
            "psi_l1": ineq["relaxed_certificate"]["psi_l1"],
            "defect_p50": dist["defect_p50"], "defect_p90": dist["defect_p90"],
            "defect_max": dist["max_defect"], "ortho_l1": dist["ortho_l1"],
            "pythagorean_median": report("pythagoras_report.json")["median_defect"],
            "image_hausdorff": flow["image_hausdorff"]}


# Numbers below this size are compared for their presence only.
TINY = 1e-12


def _leaves(value, key=""):
    """(key, leaf) pairs of a parsed JSON value, keys like `axes[1].slack`."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def _cell(text):
    """A CSV cell as a float, a list of floats (`;`-separated) or its text."""
    try:
        return float(text)
    except ValueError:
        try:
            return [float(t) for t in text.split(";")]
        except ValueError:
            return text


def _parsed(path: pathlib.Path):
    """The (key, leaf) pairs of a JSON or CSV artifact; None for others."""
    if path.suffix == ".json":
        return list(_leaves(json.loads(path.read_text())))
    if path.suffix == ".csv":
        rows = list(csv.reader(path.read_text().splitlines()))
        return list(_leaves([{name: _cell(text) for name, text in zip(rows[0], row)}
                             for row in rows[1:]]))
    return None


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(new: pathlib.Path, old: pathlib.Path) -> str:
    """One line on how artifact `new` moved from `old`: the keys on one
    side only and the shared leaves whose non-numbers differ, then the
    largest move over the shared numbers."""
    a, b = _parsed(old), _parsed(new)
    if a is None:
        return "bytes differ"
    olds, news = dict(a), dict(b)
    notes = [f"only in {side}: {', '.join(keys)}"
             for side, keys in (("old", [k for k in olds if k not in news]),
                                ("new", [k for k in news if k not in olds])) if keys]
    worst, where, moved = 0.0, None, 0     # where: (key, old, new)
    for key, u in a:
        if key not in news:
            continue
        v = news[key]
        if _number(u) and _number(v):
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            moved += 1
            if abs(u) >= TINY and math.isfinite(u) and math.isfinite(v):
                rel = abs(v - u) / abs(u)
                if rel > worst:
                    worst, where = rel, (key, u, v)
        elif u != v:
            notes.append(f"structure differs at {key}: {u!r} -> {v!r}")
    if where is None:
        if moved or not notes:
            notes.append(f"{moved} number(s) moved, none of size >= {TINY:g}")
    else:
        key, u, v = where
        notes.append(f"largest relative change {worst:.3g} at {key}: {u!r} -> {v!r} "
                     f"({moved} number(s) moved)")
    return "; ".join(notes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path, metavar="OTHER_OUT_DIR")
    args = parser.parse_args()
    out = args.out_dir
    cfg = parse_config(CONFIG)
    with christoffel_calls() as sweep_calls:
        code, _ = afstab("sweep", cfg, out / "sweep")
    statuses = {}
    with christoffel_calls() as chain_calls:
        for stage in CHAIN:
            stage_code, statuses[stage] = afstab(stage, cfg, out / "chain")
            code = max(code, stage_code)
    print(f"christoffel_quadratic calls: sweep {sweep_calls[0]}, chain {chain_calls[0]}",
          file=sys.stderr)
    hashes = {path.relative_to(out).as_posix(): sha256_file(path)
              for path in sorted(out.rglob("*"))
              if path.is_file() and path.name != "manifest.json"}
    for rel, digest in hashes.items():
        print(rel, digest)
    if args.against is not None:
        others = {path.relative_to(args.against).as_posix()
                  for path in args.against.rglob("*")
                  if path.is_file() and path.name != "manifest.json"}
        for rel in sorted(others | set(hashes)):
            if rel not in hashes or rel not in others:
                where = args.against if rel not in hashes else out
                print(f"{rel}: only in {where}", file=sys.stderr)
            elif hashes[rel] != sha256_file(args.against / rel):
                print(f"{rel}: {compare(out / rel, args.against / rel)}",
                      file=sys.stderr)
    name = cfg.sweep.parameter
    tag = f"{name}{cfg.family.params[name]:g}"
    sweep = json.loads((out / "sweep" / f"stability_{tag}.json").read_text())
    for key, value in chain_point(out / "chain").items():
        if value != sweep[key]:
            print(f"chain and sweep differ in {key}: {value!r} != "
                  f"{sweep[key]!r} (stability_{tag}.json)", file=sys.stderr)
            code = 1
    for stage, status in statuses.items():
        swept = sweep["stages"][SWEEP_TAG.get(stage, stage)]
        if status != swept:
            print(f"chain and sweep differ in the {stage} verdict: {status!r} != "
                  f"{swept!r} (stability_{tag}.json)", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
