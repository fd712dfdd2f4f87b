#!/usr/bin/env python3
"""Desk-scale mass sweep on the Schwarzschild-isotropic family.

Runs the full stability pipeline (hypothesis certificates, ADM mass,
harmonic triple, mass-inequality integrals, GH distortion, gradient-flow
coverage, Pythagorean records) for m = 0.2 ... 0.025 and prints the
monotone-trend summary.  Equivalent to

    afstab sweep --config configs/schwarzschild_sweep.json
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afstab.cli import run  # noqa: E402
from afstab.config import parse_config  # noqa: E402


def main():
    cfg = parse_config(ROOT / "configs" / "schwarzschild_sweep.json")
    out = cfg.output.directory if len(sys.argv) < 2 else sys.argv[1]
    code, manifest = run("sweep", cfg, out_dir=out)
    summary = json.load(open(pathlib.Path(out) / "sweep_summary.json"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"artifacts: {len(manifest.data['artifacts'])} under {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
