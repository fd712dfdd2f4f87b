"""The artifact format: strict JSON, the CSV cell rule, one writer module."""

import json
import math
import pathlib
import re

import numpy as np

import afstab
from afstab.reporting import write_csv, write_json, write_summary


def test_write_json_nonfinite_as_null(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": [1.0, math.nan, (math.inf, -math.inf)],
                      "a": {"x": np.float64(math.nan), "y": 0.5, "z": "s"}})

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(path.read_text(), parse_constant=no_constant) == {
        "a": {"x": None, "y": 0.5, "z": "s"}, "b": [1.0, None, [None, None]]}
    text = path.read_text()
    assert text.startswith('{\n  "a": {') and text.endswith("}\n")


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["s", "i", "n", "f", "g"],
              [("flat", 17, np.int64(3), 1, np.float64(0.1)), ("a;b", 0, 2, 2.5, math.nan)])
    assert path.read_text().splitlines() == [
        "s,i,n,f,g", "flat,17,3,1,0.1", "a;b,0,2,2.5,nan"]


def test_write_summary_prints_tuples_as_lists(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, "afstab x: ok", {"b": (0.0, 1.0), "a": {"c": (1, 2)}})
    assert path.read_text() == "afstab x: ok\n  a: {'c': [1, 2]}\n  b: [0.0, 1.0]\n"


def test_artifact_writers_only_in_reporting():
    # the artifact format is decided in one module; config.to_json's
    # json.dumps is the config_hash input, not an artifact writer
    src = pathlib.Path(afstab.__file__).parent
    offenders = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
                 if path.name != "reporting.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"json\.dump\(|csv\.writer", line)]
    assert offenders == []
