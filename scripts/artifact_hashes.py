#!/usr/bin/env python3
"""sha256 of every artifact of the desk sweep and of the stage chain.

    python3 scripts/artifact_hashes.py <out_dir>

Runs the `sweep` subcommand on configs/schwarzschild_sweep.json into
<out_dir>/sweep, then `check-af, mass, harmonic, inequality, distort,
pythagoras, flow` with the same config, in that order, into
<out_dir>/chain, all through `afstab.cli.run`, and prints
`relpath sha256` for every file under <out_dir> except the manifests
(they hold wall times); the runs' status lines go to stderr.  afstab is
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
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afstab.cli import run  # noqa: E402
from afstab.config import parse_config  # noqa: E402
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


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = pathlib.Path(sys.argv[1])
    cfg = parse_config(CONFIG)
    code, _ = afstab("sweep", cfg, out / "sweep")
    statuses = {}
    for stage in CHAIN:
        stage_code, statuses[stage] = afstab(stage, cfg, out / "chain")
        code = max(code, stage_code)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name != "manifest.json":
            print(path.relative_to(out).as_posix(), sha256_file(path))
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
