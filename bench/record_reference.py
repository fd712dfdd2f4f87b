"""Record the summary scalars that benchmark runs are checked against.

    python3 bench/record_reference.py --seeds 0-9 --iterations 3 [--workload NAME ...]

Runs one plain iteration per workload for the input sets of the first
`--iterations` iterations of each benchmark seed, at the current source,
and writes bench/reference.json.  Scalars that came out the same for every
input set go under "any_seed" and are checked on every run; the others go
under "seeds", keyed by sampling seed, and are checked only when an
iteration uses that input set.  Record at a commit whose outputs are
trusted.
"""

import argparse
import json
import sys

from run import BENCH, WorkerFailed, run_worker
from workloads import WORKLOADS


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    try:
        for name in args.workload or sorted(WORKLOADS):
            per_input = {}
            for seed in args.seeds:
                run = run_worker(name, seed, "--iterations", str(args.iterations))
                for it in run["iterations"]:
                    bad = {k: v for k, v in it["statuses"].items()
                           if v not in ("ok", "assertion-failed")}
                    if bad:
                        print(f"{name} input set {it['inputs']}: stage failures {bad}",
                              file=sys.stderr)
                        return 1
                    per_input[str(it["inputs"])] = it["scalars"]
                print(f"{name} seed {seed}: {len(run['iterations'])} input sets",
                      flush=True)
            first = next(iter(per_input.values()))
            common = {k: v for k, v in first.items()
                      if all(s.get(k) == v for s in per_input.values())}
            reference[name] = {
                "any_seed": common,
                "seeds": {key: {k: v for k, v in s.items() if k not in common}
                          for key, s in per_input.items()},
            }
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
