#!/usr/bin/env python3
"""sha256 of every artifact of the desk sweep and of the stage chain.

    python3 scripts/artifact_hashes.py <out_dir>

Runs `afstab sweep --config configs/schwarzschild_sweep.json` into
<out_dir>/sweep, then `check-af, mass, harmonic, inequality, distort,
pythagoras, flow` with the same config, in that order, into
<out_dir>/chain, and prints `relpath sha256` for every file under
<out_dir> except the manifests (they hold wall times); the runs' status
lines go to stderr.  afstab is imported from this checkout's `src`, so
the output of two checkouts can be compared line by line, e.g. with
`diff`, to check that a change keeps the artifacts byte-identical.
Exits nonzero if any run did.
"""

import contextlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afstab.cli import main as afstab  # noqa: E402
from afstab.reporting import sha256_file  # noqa: E402

CONFIG = str(ROOT / "configs" / "schwarzschild_sweep.json")
CHAIN = ("check-af", "mass", "harmonic", "inequality", "distort", "pythagoras",
         "flow")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = pathlib.Path(sys.argv[1])
    with contextlib.redirect_stdout(sys.stderr):     # the runs' status lines
        code = afstab(["sweep", "--config", CONFIG, "--out", str(out / "sweep")])
        for stage in CHAIN:
            code = max(code, afstab([stage, "--config", CONFIG,
                                     "--out", str(out / "chain")]))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name != "manifest.json":
            print(path.relative_to(out).as_posix(), sha256_file(path))
    return code


if __name__ == "__main__":
    sys.exit(main())
