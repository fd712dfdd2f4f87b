#!/usr/bin/env python3
"""Hypothesis-violation control: fixed negative-curvature bump, A -> 0.

The perturbed family keeps a compactly supported conformal bump of fixed
amplitude while its monopole amplitude A (hence the ADM mass) sweeps
toward zero.  Because the bump violates R >= 0 at fixed strength, the
distortion of the coordinate map must NOT tend to zero with the mass;
this script demonstrates the floor next to the clean Schwarzschild decay.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afstab.cli import run  # noqa: E402
from afstab.config import parse_config  # noqa: E402


def main():
    cfg = parse_config(ROOT / "configs" / "bump_control.json")
    out = cfg.output.directory if len(sys.argv) < 2 else sys.argv[1]
    code, _ = run("sweep", cfg, out_dir=out)
    rows = (pathlib.Path(out) / "sweep.csv").read_text().strip().splitlines()
    print("\n".join(rows))
    p50s = [float(r.split(",")[8]) for r in rows[1:]]
    floor = min(p50s)
    print(f"\ndistortion p50 floor across the A-sweep: {floor:.4f} "
          f"(does not tend to 0: bump violates R >= 0 at fixed amplitude)")
    # the sweep's monotone assertions are expected to fail here: exit 0 as
    # long as the floor is visibly above the flat-family noise level
    return 0 if floor > 1e-3 else 1


if __name__ == "__main__":
    sys.exit(main())
