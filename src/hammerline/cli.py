"""Command-line entry point: load a scenario file, run one pipeline
(solve | verify | windows | classify | demo-projectile), and write the
artifacts (JSON reports, CSV curves, gnuplot scripts) to the output
directory.

Exit codes: 0 when the pipeline ran (a failed certification or a
non-converged iteration is still a result), 1 for validation problems,
2 for numerical failures. Failures leave a machine-readable error record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .errors import (BlowupError, DomainError, QuadratureError, ScenarioError,
                     TailLimitError)
from .weights import classify_asymptotic
from .cone import (eval_functional, eval_functional_raw, find_solution_windows,
                   locate_index_one_flip, report_to_jsonable,
                   windows_to_jsonable, verify_cone_hypotheses)
from .solver import (anderson_solve, compare_with_oracle, solution_to_csv)
from .scenario import (SCENARIO_SCHEMA, Scenario, build_envelope, build_problem,
                       build_quad, build_space, build_system, build_weight, build_map,
                       load_scenario, rho_grid, scenario_to_jsonable)
from .schema import best_match

COMMANDS = ("solve", "verify", "windows", "classify", "demo-projectile")
EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2

_NUMERICAL_ERRORS = (QuadratureError, BlowupError, TailLimitError, DomainError,
                     OverflowError, FloatingPointError, ZeroDivisionError)


def _write_json(path: Path, payload: dict) -> None:
    """payload as strict JSON: a nan or inf is refused before the file opens."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise DomainError(f"{path.name} not written: {e}") from None
    path.write_text(text + "\n")


def _refuse(exc: Exception, command: str, scenario_path) -> dict:
    """The error record of exc, printed to stderr as one JSON line."""
    record = {"schema": 1, "kind": "error",
              "error": {"type": type(exc).__name__, "message": str(exc)},
              "command": command, "scenario": str(scenario_path)}
    print(json.dumps(record, allow_nan=False), file=sys.stderr)
    return record


def _plot_script(csv_name: str) -> str:
    return "\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        "set ylabel 'u'",
        f"plot '{csv_name}' using 1:3 with lines title 'u(t)', \\",
        f"     '{csv_name}' using 1:2 with lines title 'weighted u(t)'",
        "",
    ])


def _apply_overrides(scn: Scenario, grid_size, tol, seed, out_dir) -> Scenario:
    fields = SCENARIO_SCHEMA["properties"]
    for flag, value, schema in (("--grid-size", grid_size, fields["grid_size"]),
                                ("--tol", tol, fields["tolerances"]["properties"]["picard_tol"]),
                                ("--seed", seed, fields["seed"])):
        message = None if value is None else best_match(value, schema)
        if message is None and isinstance(value, float) and not math.isfinite(value):
            message = f"{value!r} is not a finite number"   # nan passes every bound
        if message is not None:
            raise ScenarioError(f"{flag} does not match the schema: {message}")
    changes = {}
    if grid_size is not None:
        changes["grid_size"] = int(grid_size)
    if tol is not None:
        tols = dict(scn.tolerances)
        tols["picard_tol"] = float(tol)
        changes["tolerances"] = tols
    if seed is not None:
        changes["seed"] = int(seed)
    if out_dir is not None:
        changes["output_dir"] = str(out_dir)
    return dataclasses.replace(scn, **changes) if changes else scn


# ---------------------------------------------------------------------------
# command bodies

def _run_verify(scn: Scenario, out: Path):
    space = build_space(scn)
    problem = build_problem(scn, space)
    system = build_system(scn)
    quad = build_quad(scn)
    report = verify_cone_hypotheses(problem, system.cone, system.upper,
                                    system.lower, samples=scn.samples,
                                    quad=quad, seed=scn.seed)
    payload = report_to_jsonable(report)
    payload["meta"]["scenario"] = scn.name
    _write_json(out / "report.json", payload)
    return report, system, problem, quad


def _scan_windows(scn: Scenario, report, radii, out: Path) -> list:
    """The certified windows over radii, written to windows.json."""
    envelopes = tuple(build_envelope(scn.envelopes.get(k)) for k in ("upper", "lower"))
    windows = find_solution_windows(report, envelopes=envelopes, rho_values=radii)
    _write_json(out / "windows.json", {"schema": 1, "kind": "index-windows", "certified": True,
                                       "windows": windows_to_jsonable(windows)})
    return windows


def _solve(scn: Scenario, problem, quad, out: Path):
    """The Anderson-accelerated solution, written to solution.csv with its
    gnuplot script."""
    sol = anderson_solve(problem, tol=scn.picard_tol, max_iters=scn.max_iters,
                         relaxation=scn.relaxation, quad=quad)
    solution_to_csv(problem, sol, out / "solution.csv", quad=quad)
    (out / "solution.gnuplot").write_text(_plot_script("solution.csv"))
    return sol


def _cmd_verify(scn: Scenario, out: Path) -> None:
    report, _, _, _ = _run_verify(scn, out)
    for key in sorted(report.entries):
        e = report.entries[key]
        line = f"{key}: {e.status}"
        if e.detail:
            line += f"  ({e.detail})"
        print(line)
    for key in sorted(report.properties):
        print(f"{key}: {report.properties[key].status}")
    print(f"certified: {report.certified}")
    print(f"report written to {out / 'report.json'}")


def _cmd_windows(scn: Scenario, out: Path) -> None:
    report, _, _, _ = _run_verify(scn, out)
    if report.certified:
        windows = _scan_windows(scn, report, rho_grid(scn), out)
        print(f"{len(windows)} certified window(s)")
        for w in windows[:5]:
            radii = ", ".join(f"{r:.6g}" for r in w.radii)
            print(f"  {w.pattern} ({radii}) min margin {w.min_margin:.4g} "
                  f"-> {w.expected_solutions} solution(s)")
    else:
        failing = [k for k, e in sorted(report.entries.items())
                   if e.status != "pass"]
        _write_json(out / "windows.json", {"schema": 1, "kind": "index-windows",
                                           "certified": False, "windows": [],
                                           "failing": failing})
        print(f"not certified; failing: {', '.join(failing)}")
    print(f"windows written to {out / 'windows.json'}")


def _cmd_solve(scn: Scenario, out: Path) -> None:
    space = build_space(scn)
    problem = build_problem(scn, space)
    sol = _solve(scn, problem, build_quad(scn), out)
    summary = {"schema": 1, "kind": "solution-summary", "scenario": scn.name,
               "method": sol.method, "converged": sol.converged,
               "iterations": sol.iterations, "residual": sol.residual,
               "slope": sol.slope, "relaxation": sol.relaxation,
               "quad_error": sol.quad_error, "trace": list(sol.trace)}
    _write_json(out / "solution_summary.json", summary)
    print(f"converged: {sol.converged} after {sol.iterations} {sol.method} "
          f"iteration(s), residual {sol.residual:.3e}, slope {sol.slope:.12g}")
    print(f"solution written to {out / 'solution.csv'}")


def _cmd_classify(scn: Scenario, out: Path) -> None:
    if scn.classify is None:
        raise ScenarioError("classify command needs a 'classify' block "
                            "in the scenario")
    left = build_weight(scn.classify["left"])
    right = build_weight(scn.classify["right"])
    side = int(scn.classify.get("side", 1))
    rel = classify_asymptotic(left, right, build_map(scn), side=side)
    payload = {"schema": 1, "kind": "asymptotic-relation",
               "left": scn.classify["left"], "right": scn.classify["right"],
               "side": side, "tag": rel.tag,
               "limit": rel.limit,
               "detail": rel.detail}
    _write_json(out / "classification.json", payload)
    print(f"{left.label} vs {right.label} toward "
          f"{'+inf' if side > 0 else '-inf'}: {rel.tag}"
          + (f" (limit {rel.limit:.12g})" if rel.limit is not None else ""))


def _cmd_demo(scn: Scenario, out: Path) -> None:
    if scn.problem["name"] != "boosted-projectile":
        raise ScenarioError("demo-projectile needs a boosted-projectile scenario")
    v0 = float(scn.problem["params"]["v0"])
    c = float(scn.weights["cone_integral"].get("params", {}).get("c", 1.0))
    report, system, problem, quad = _run_verify(scn, out)
    space = problem.space

    golden = []

    def row(name, computed, reference):
        golden.append({"name": name, "computed": float(computed),
                       "reference": float(reference),
                       "abs_diff": abs(float(computed) - float(reference))})

    kern = problem.kernel
    for s_probe in (0.5, 1.0, 2.0):
        val = eval_functional_raw(
            system.lower, lambda t: kern.fn(t, s_probe), space, quad,
            kinks=(s_probe,))
        row(f"lower functional of slice, s={s_probe:g}", val,
            math.exp(-s_probe))
    val = eval_functional_raw(system.upper,
                              lambda t: kern.fn(t, 1.0), space, quad)
    row("upper functional of slice, s=1", val, math.exp(-2.0))
    row("lower kernel profile integral",
        report.scalars["lower_profile_integral"], 1.0)
    row("upper kernel profile integral",
        report.scalars["upper_profile_integral"], math.exp(-1.0))
    row("lower functional of forcing", report.scalars["lower_of_forcing"], v0)
    row("upper functional of forcing", report.scalars["upper_of_forcing"],
        v0 / math.e)
    row("cone functional of forcing", report.scalars["cone_of_forcing"],
        v0 * (1.0 / c - 1.0 / math.e))

    threshold = None
    bracket = None
    window_payload = None
    if report.certified:
        bracket = locate_index_one_flip(report, 0.5 * v0, 0.6 * v0)
        threshold = 0.5 * (bracket[0] + bracket[1])
        row("contraction threshold radius", threshold, v0 / (math.e - 1.0))
        radii = sorted(set(rho_grid(scn)) | {0.7 * v0, 0.9 * v0})
        windows = _scan_windows(scn, report, radii, out)
        target = next((w for w in windows
                       if w.pattern == "S1"
                       and abs(w.radii[0] - 0.9 * v0) < 1e-12
                       and abs(w.radii[1] - 0.7 * v0) < 1e-12), None)
        window_payload = windows_to_jsonable([target])[0] if target else None

    sol = _solve(scn, problem, quad, out)
    cone_of_solution = eval_functional(system.cone, sol.u, quad)
    comparison, _ = compare_with_oracle(problem, sol.u, T_max=20.0)

    width = max(len(r["name"]) for r in golden) + 2
    print(f"{'quantity':<{width}}{'computed':>18}{'reference':>18}{'|diff|':>12}")
    for r in golden:
        print(f"{r['name']:<{width}}{r['computed']:>18.12g}"
              f"{r['reference']:>18.12g}{r['abs_diff']:>12.3e}")
    print(f"certified: {report.certified}")
    if bracket is not None:
        print(f"threshold bracket: [{bracket[0]:.6g}, {bracket[1]:.6g}]")
    if window_payload is not None:
        print(f"window S1 ({0.9 * v0:g}, {0.7 * v0:g}): certified, "
              f"min margin {min(window_payload['margins'].values()):.4g}")
    print(f"solution: converged={sol.converged} iterations={sol.iterations} "
          f"residual={sol.residual:.3e}")
    print(f"cone functional of solution: {cone_of_solution:.6g}")
    print(f"oracle agreement on [0, 20]: {comparison.max_rel_diff:.3e} "
          f"relative sup")

    _write_json(out / "demo_summary.json", {
        "schema": 1, "kind": "demo-summary", "scenario": scn.name,
        "golden": golden, "certified": report.certified,
        "threshold_bracket": list(bracket) if bracket else None,
        "window": window_payload,
        "solution": {"method": sol.method, "converged": sol.converged,
                     "iterations": sol.iterations, "residual": sol.residual,
                     "slope": sol.slope},
        "cone_of_solution": cone_of_solution,
        "oracle_max_rel_diff": comparison.max_rel_diff,
    })
    print(f"artifacts written to {out}")


_DISPATCH = {
    "verify": _cmd_verify,
    "windows": _cmd_windows,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "demo-projectile": _cmd_demo,
}


def run_scenario(path, command: str, *, out_dir=None, grid_size=None,
                 tol=None, seed=None) -> int:
    """Run one pipeline for a scenario file; returns the process exit code."""
    if command not in COMMANDS:
        _refuse(ScenarioError(f"unknown command {command!r}"), command, path)
        return EXIT_VALIDATION
    try:
        scn = load_scenario(path)
        scn = _apply_overrides(scn, grid_size, tol, seed, out_dir)
    except ScenarioError as e:
        _refuse(e, command, path)
        return EXIT_VALIDATION
    out = Path(scn.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "scenario_used.json", scenario_to_jsonable(scn))
        _DISPATCH[command](scn, out)
        return EXIT_OK
    except ScenarioError as e:
        _refuse(e, command, path)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as e:
        record = _refuse(e, command, path)
        try:
            _write_json(out / "error.json", record)
        except OSError:
            pass
        return EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="hammerline",
        description="Weighted-space Hammerstein solver and certifier: run a "
                    "scenario file through one of the pipelines.")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the scenario)")
    parser.add_argument("--grid-size", type=int, default=None,
                        help="override the grid size")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the iteration tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the certificate sampling seed")
    args = parser.parse_args(argv)
    return run_scenario(args.scenario, args.command, out_dir=args.out,
                        grid_size=args.grid_size, tol=args.tol, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
