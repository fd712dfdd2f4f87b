"""The artifact format, and run manifests.

Every report, table and summary a run writes goes through this module,
so their format is decided in one place:

* JSON (`write_json`): sorted keys, indent 2, a trailing newline; NaN
  and infinite numbers, at any depth, are written as null, so every
  report is strict JSON.
* CSV (`write_csv`): a header row, then one cell rule: a str as is, an
  int as str(v), anything else as repr(float(v)).
* `summary.txt` (`write_summary`): a title line, then `  key: value` per
  payload entry in key order, tuples printed as lists.

Every CLI run writes its reports first and a manifest last; the manifest
records the config hash, per-stage status, and a content hash for every
artifact in the output directory, so reruns can be checked for
byte-identical outputs.  The manifest itself carries timestamps and is the
one file exempt from the byte-identity guarantee.
"""

import csv
import datetime
import hashlib
import json
import math
import os

import numpy as np

from . import __version__

MANIFEST_NAME = "manifest.json"


def _plain(obj, leaf=lambda v: v):
    """obj with every tuple as a list and leaf applied to every other
    value that is not a dict or a list, at any depth."""
    if isinstance(obj, dict):
        return {k: _plain(v, leaf) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, leaf) for v in obj]
    return leaf(obj)


def _finite_or_none(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path, payload: dict):
    with open(path, "w") as f:
        json.dump(_plain(payload, _finite_or_none), f, sort_keys=True, indent=2,
                  allow_nan=False)
        f.write("\n")


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(v)
    return repr(float(v))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_summary(path, title: str, payload: dict):
    lines = [title] + [f"  {k}: {v}" for k, v in sorted(_plain(payload).items())]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg) -> str:
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()


class RunManifest:
    def __init__(self, cfg, out_dir):
        self.out_dir = str(out_dir)
        self.data = {
            "tool_version": __version__,
            "config_hash": config_hash(cfg),
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "finished": None,
            "stages": {},
            "artifacts": {},
        }

    def stage(self, name: str, status: str = "ok"):
        self.data["stages"][name] = status

    def finish(self):
        """Hash every artifact under the output directory and write last."""
        artifacts = {}
        for root, _, files in os.walk(self.out_dir):
            for fn in sorted(files):
                if fn == MANIFEST_NAME:
                    continue
                path = os.path.join(root, fn)
                rel = os.path.relpath(path, self.out_dir)
                artifacts[rel] = sha256_file(path)
        self.data["artifacts"] = artifacts
        self.data["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        path = os.path.join(self.out_dir, MANIFEST_NAME)
        write_json(path, self.data)
        return path

    def verify(self) -> list:
        """Return mismatches between recorded hashes and files on disk."""
        problems = []
        for rel, digest in self.data["artifacts"].items():
            path = os.path.join(self.out_dir, rel)
            if not os.path.exists(path):
                problems.append(f"missing artifact {rel}")
            elif sha256_file(path) != digest:
                problems.append(f"hash mismatch for {rel}")
        return problems
