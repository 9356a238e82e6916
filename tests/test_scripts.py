"""Smoke runs of the experiment scripts on small inputs."""

import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, tmp_path, *args):
    out = tmp_path / f"{script}.csv"
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{script}.py"), *args,
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_grid_refinement_certifies_and_brackets_the_threshold(tmp_path):
    rows = _run("grid_refinement", tmp_path, "--sizes", "17", "21")
    assert [r["grid_size"] for r in rows] == ["17", "21"]
    for row in rows:
        assert row["certified"] == "True"
        assert float(row["lower_integral_err"]) <= 1e-10
        assert float(row["threshold_err"]) <= 1e-3   # the bisection's tolerance


def test_radius_scan_records_where_each_condition_flips(tmp_path):
    rows = _run("radius_scan", tmp_path, "--count", "4")
    assert len(rows) == 4
    # index one holds at large radii only, index zero at small radii only
    assert [r["index_one_holds"] for r in rows] == ["False", "False", "True", "True"]
    assert [r["index_zero_holds"] for r in rows] == ["True", "True", "False", "False"]
