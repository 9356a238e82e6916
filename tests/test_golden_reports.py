"""Golden certificate reports: ``verify`` on the bundled c2 and gravity
scenarios (seed 0) writes the reports committed under ``tests/golden``,
every status and string exactly and every number within 1e-12 relative,
the gate of a certified scalar.

A change that moves a number on purpose regenerates the file with

    python -m hammerline --scenario scenarios/<name>.json --command verify --out <dir>

copies ``<dir>/report.json`` to ``tests/golden/verify_<name>.json`` and
names the moved fields in its change notes.
"""

import json
import math
from pathlib import Path

import pytest

import hammerline as hl

REPO_DIR = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL = 1e-12


def _mismatches(got, want, path: str = "$") -> list:
    """The paths at which ``got`` differs from ``want``: keys, list lengths,
    types, strings, bools and nulls exactly, numbers within REL relative."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} is not a {type(want).__name__} like {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        close = math.isclose(got, want, rel_tol=REL, abs_tol=0.0)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", ["boosted_projectile_c2", "gravity_projectile"])
def test_verify_writes_the_golden_report(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert hl.main(["--scenario", str(REPO_DIR / "scenarios" / f"{name}.json"),
                    "--command", "verify", "--out", str(out)]) == 0
    capsys.readouterr()
    got = json.loads((out / "report.json").read_text())
    want = json.loads((GOLDEN_DIR / f"verify_{name}.json").read_text())
    assert want["meta"]["seed"] == 0
    assert _mismatches(got, want) == []


def test_the_golden_comparison_sees_a_moved_number():
    want = {"a": [1.0, "x", None, True], "b": {"c": 3}}
    assert _mismatches(json.loads(json.dumps(want)), want) == []
    assert _mismatches({"a": [1.0 + 2e-12, "x", None, True], "b": {"c": 3}}, want) == \
        ["$.a[0]: 1.000000000002 != 1.0"]
    assert _mismatches({"a": [1.0, "y", None, False], "b": {"c": 3.0}}, want) == \
        ["$.a[1]: 'y' != 'x'", "$.a[3]: False != True", "$.b.c: 3.0 is not a int like 3"]
