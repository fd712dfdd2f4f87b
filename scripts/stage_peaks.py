#!/usr/bin/env python3
"""Wall time and peak memory of the `harmonic` and `inequality` stages.

    python3 scripts/stage_peaks.py <config> <nodes>

Runs `harmonic`, then `inequality` (which reloads the field dumps), with
the config's grid set to <nodes> nodes per axis, through `afstab.cli.run`
in one process, into a temporary directory that is removed afterwards.
After each stage it prints one line: the stage, its status, its wall time
and the process's maximum resident set size so far (getrusage), so the
second line gives the peak of the two stages together.  afstab is
imported from this checkout's `src`.  Exits nonzero if a stage failed.
"""

import pathlib
import resource
import sys
import tempfile
import time
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afstab.cli import run  # noqa: E402
from afstab.config import parse_config  # noqa: E402


def max_rss_mib() -> float:
    """The process's maximum resident set size so far, in MiB (Linux
    reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: stage_peaks.py <config> <nodes>", file=sys.stderr)
        return 2
    cfg = parse_config(sys.argv[1])
    cfg = replace(cfg, grid=replace(cfg.grid, nodes=int(sys.argv[2])))
    failed = False
    with tempfile.TemporaryDirectory() as out:
        for stage in ("harmonic", "inequality"):
            start = time.perf_counter()
            code, manifest = run(stage, cfg, out_dir=out)
            wall = time.perf_counter() - start
            failed |= code != 0
            print(f"{stage}: {manifest.data['stages'][stage]}, N={cfg.grid.nodes}, "
                  f"wall {wall:.2f} s, max RSS {max_rss_mib():.1f} MiB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
