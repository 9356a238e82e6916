"""Reference checks on the artifacts one benchmark run wrote.

Each check takes the run's output directory and the scenario dictionary
and returns (problems, notes): a list of failed checks, empty when the
run is correct, and facts recorded as the program reported them.
References are closed forms computed here from the scenario parameters,
not the reference values the program writes beside its results.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# the acceptance suite's tolerances (tests/test_acceptance.py)
GOLDEN_TOL = 1e-8
ORACLE_TOL = 1e-4
# relative tolerance on the solved slope against the escape speed; the
# m=81 grid gives about 1.2e-8, the bound leaves room for other grids
SLOPE_REL_TOL = 1e-6
GRAVITY_FAILING = ("C2", "C3", "C6", "C7")


def _load(out: Path, name: str) -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def demo_c2(out: Path, scenario: dict) -> tuple:
    """Closed-form golden rows, threshold bracket, S1 window, oracle."""
    summary = _load(out, "demo_summary.json")
    v0 = float(scenario["problem"]["params"]["v0"])
    c = float(scenario["weights"]["cone_integral"]["params"]["c"])
    e = math.e
    closed = {
        "lower functional of slice, s=0.5": math.exp(-0.5),
        "lower functional of slice, s=1": math.exp(-1.0),
        "lower functional of slice, s=2": math.exp(-2.0),
        "upper functional of slice, s=1": math.exp(-2.0),
        "lower kernel profile integral": 1.0,
        "upper kernel profile integral": math.exp(-1.0),
        "lower functional of forcing": v0,
        "upper functional of forcing": v0 / e,
        "cone functional of forcing": v0 * (1.0 / c - 1.0 / e),
    }
    problems = []
    if summary["certified"] is not True:
        problems.append("not certified")
    rows = {r["name"]: r["computed"] for r in summary["golden"]}
    for name, reference in closed.items():
        if name not in rows:
            problems.append(f"golden row missing: {name}")
        elif not abs(rows[name] - reference) <= GOLDEN_TOL:
            problems.append(f"golden row off: {name} = {rows[name]!r}, "
                            f"closed form {reference!r}")
    threshold = v0 / (e - 1.0)
    bracket = summary["threshold_bracket"]
    if not (bracket and bracket[0] <= threshold <= bracket[1]):
        problems.append(f"threshold bracket {bracket} misses {threshold!r}")
    window = summary["window"]
    if not (window and window["pattern"] == "S1"
            and abs(window["radii"][0] - 0.9 * v0) < 1e-12
            and abs(window["radii"][1] - 0.7 * v0) < 1e-12):
        problems.append(f"S1 window ({0.9 * v0:g}, {0.7 * v0:g}) missing")
    if not summary["oracle_max_rel_diff"] <= ORACLE_TOL:
        problems.append(f"oracle disagreement {summary['oracle_max_rel_diff']!r}")
    return problems, {"converged": summary["solution"]["converged"]}


def solve_gravity(out: Path, scenario: dict) -> tuple:
    """Solved slope against the escape speed sqrt(v0^2 - 2gR)."""
    summary = _load(out, "solution_summary.json")
    params = scenario["problem"]["params"]
    v0, g, R = (float(params[k]) for k in ("v0", "g", "R"))
    v_inf = math.sqrt(v0 * v0 - 2.0 * g * R)
    rel = abs(summary["slope"] - v_inf) / v_inf
    problems = []
    if not rel <= SLOPE_REL_TOL:
        problems.append(f"slope {summary['slope']!r} is {rel:.3e} away from "
                        f"the escape speed {v_inf!r}")
    if not (out / "solution.csv").is_file():
        problems.append("solution.csv missing")
    return problems, {"converged": summary["converged"],
                      "iterations": summary["iterations"]}


def verify_gravity(out: Path, scenario: dict) -> tuple:
    """The certificate fails on exactly C2, C3, C6 and C7."""
    report = _load(out, "report.json")
    failing = tuple(sorted(k for k, e in report["entries"].items()
                           if e["status"] == "fail"))
    problems = []
    if report["certified"] is not False:
        problems.append("certified, expected a rejection")
    if failing != GRAVITY_FAILING:
        problems.append(f"failing entries {failing}, expected {GRAVITY_FAILING}")
    return problems, {"failing": ",".join(failing)}
