import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hammerline as hl

REPO_DIR = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_DIR / "scenarios"
C2 = str(SCENARIO_DIR / "boosted_projectile_c2.json")
C3 = str(SCENARIO_DIR / "boosted_projectile_c3.json")
CLASSIFY = str(SCENARIO_DIR / "classify_weights.json")
GRAVITY = str(SCENARIO_DIR / "gravity_projectile.json")


def run(tmp_path, command, scenario=C2, *extra):
    out = tmp_path / "out"
    rc = hl.main(["--scenario", scenario, "--command", command,
                  "--out", str(out), "--grid-size", "17", *extra])
    return rc, out


# -- pipelines -------------------------------------------------------------------

def test_verify_certifies_and_prints_entries(tmp_path, capsys):
    rc, out = run(tmp_path, "verify")
    assert rc == 0
    text = capsys.readouterr().out
    assert "C1: pass" in text and "C9: pass" in text
    assert "P3: pass" in text
    assert "certified: True" in text
    report = json.loads((out / "report.json").read_text())
    assert report["certified"] is True
    assert report["meta"]["scenario"] == "boosted-projectile-c2"
    assert report["meta"]["grid_size"] == 17
    used = json.loads((out / "scenario_used.json").read_text())
    assert used["grid_size"] == 17
    assert used["output_dir"] == str(out)


def test_verify_reports_failure_without_failing_the_process(tmp_path, capsys):
    rc, out = run(tmp_path, "verify", C3)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certified"] is False
    assert report["entries"]["C5"]["status"] == "fail"
    assert "certified: False" in capsys.readouterr().out


def test_windows_emits_certified_list(tmp_path, capsys):
    rc, out = run(tmp_path, "windows")
    assert rc == 0
    payload = json.loads((out / "windows.json").read_text())
    assert payload["kind"] == "index-windows"
    assert payload["certified"] is True
    assert len(payload["windows"]) > 0
    target = [w for w in payload["windows"]
              if w["pattern"] == "S1" and w["radii"] == [0.9, 0.7]]
    assert len(target) == 1
    assert "window(s)" in capsys.readouterr().out


def test_windows_on_failing_certificate_lists_the_blockers(tmp_path, capsys):
    rc, out = run(tmp_path, "windows", C3)
    assert rc == 0
    payload = json.loads((out / "windows.json").read_text())
    assert payload["certified"] is False
    assert payload["windows"] == []
    assert "C5" in payload["failing"]
    assert "not certified" in capsys.readouterr().out


def test_solve_writes_deterministic_csv(tmp_path, capsys):
    rc1, out1 = run(tmp_path / "a", "solve")
    rc2, out2 = run(tmp_path / "b", "solve")
    assert rc1 == 0 and rc2 == 0
    b1 = (out1 / "solution.csv").read_bytes()
    assert b1 == (out2 / "solution.csv").read_bytes()
    summary = json.loads((out1 / "solution_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["residual"] <= 1e-9
    assert 0.0 < summary["quad_error"] <= 1e-10
    assert (out1 / "solution.gnuplot").exists()
    assert "converged: True" in capsys.readouterr().out


def test_solve_runs_the_accelerated_iteration(tmp_path):
    out = tmp_path / "out"
    rc = hl.main(["--scenario", str(SCENARIO_DIR / "gravity_projectile.json"),
                  "--command", "solve", "--out", str(out), "--grid-size", "81"])
    assert rc == 0
    summary = json.loads((out / "solution_summary.json").read_text())
    assert summary["method"] == "anderson"
    assert summary["converged"] is True
    assert summary["iterations"] <= 12


def test_classify_pipeline(tmp_path, capsys):
    rc, out = run(tmp_path, "classify", CLASSIFY)
    assert rc == 0
    payload = json.loads((out / "classification.json").read_text())
    assert payload["kind"] == "asymptotic-relation"
    assert payload["tag"] == "equivalent"
    assert payload["limit"] == pytest.approx(1.0, rel=1e-6)
    assert "equivalent" in capsys.readouterr().out


def test_classify_needs_its_block(tmp_path, capsys):
    rc, out = run(tmp_path, "classify", C2)
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ScenarioError"


def test_demo_writes_all_artifacts(tmp_path, capsys):
    rc, out = run(tmp_path, "demo-projectile")
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["demo_summary.json", "report.json", "scenario_used.json",
                     "solution.csv", "solution.gnuplot", "windows.json"]
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["certified"] is True
    lo, hi = summary["threshold_bracket"]
    assert 0.58 <= lo < hi <= 0.584
    assert summary["window"] is not None
    assert summary["oracle_max_rel_diff"] <= 1e-3
    # the closed-form rows hold to roundoff, the threshold to its bisection
    *closed, threshold = summary["golden"]
    assert len(closed) == 9 and all(r["abs_diff"] <= 1e-12 for r in closed)
    assert threshold["name"] == "contraction threshold radius"
    assert lo <= threshold["reference"] <= hi
    text = capsys.readouterr().out
    assert "threshold bracket" in text
    assert "oracle agreement" in text


# -- failure modes ------------------------------------------------------------------

def test_invalid_scenario_exits_one_without_artifacts(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = json.loads(Path(C2).read_text())
    del data["problem"]["params"]
    bad.write_text(json.dumps(data))
    out = tmp_path / "never"
    rc = hl.main(["--scenario", str(bad), "--command", "verify",
                  "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert "v0" in err["error"]["message"]


def test_negative_seed_override_exits_one_without_artifacts(tmp_path, capsys):
    # validated as the scenario's own seed field (minimum 0), before any run
    out = tmp_path / "never"
    rc = hl.main(["--scenario", C2, "--command", "verify", "--out", str(out),
                  "--seed", "-1"])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ScenarioError"
    assert err["error"]["message"] == ("--seed does not match the schema: "
                                       "-1 is less than the minimum of 0")


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-size", "3", "3 is less than the minimum of 8"),
    ("--tol", "0", "0.0 is less than or equal to the minimum of 0"),
    ("--tol", "-1", "-1.0 is less than or equal to the minimum of 0"),
    ("--tol", "nan", "nan is not a finite number"),
    ("--tol", "inf", "inf is not a finite number"),
])
def test_out_of_schema_override_exits_one_without_artifacts(flag, value, message, tmp_path,
                                                            capsys):
    # validated as the scenario's own field (grid_size, tolerances.picard_tol),
    # before any run
    out = tmp_path / "never"
    rc = hl.main(["--scenario", GRAVITY, "--command", "solve", "--out", str(out),
                  flag, value])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ScenarioError"
    assert err["error"]["message"] == f"{flag} does not match the schema: {message}"


def test_unparseable_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = hl.main(["--scenario", str(bad), "--command", "verify",
                  "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


def test_missing_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        hl.main(["--scenario", C2])
    assert exc.value.code == 1
    capsys.readouterr()


def test_unknown_command_via_api_returns_validation_code(tmp_path, capsys):
    rc = hl.run_scenario(C2, "transmogrify", out_dir=str(tmp_path / "o"))
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "transmogrify" in err["error"]["message"]


def test_numerical_failure_exits_two_with_error_record(tmp_path, capsys):
    data = json.loads(Path(C2).read_text())
    # a decaying space weight is rejected during construction, after the
    # scenario itself validated
    data["weights"]["space"] = {"label": "exponential",
                                "params": {"c": 1.0, "rate": -1.0}}
    bad = tmp_path / "decaying.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = hl.main(["--scenario", str(bad), "--command", "verify",
                  "--out", str(out)])
    assert rc == 2
    assert (out / "scenario_used.json").exists()
    record = json.loads((out / "error.json").read_text())
    assert record["kind"] == "error"
    assert record["error"]["type"] == "DomainError"
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "DomainError"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_gravity_report_is_strict_json(tmp_path):
    # C2's and C3's witnesses hold nan and inf, which the report writes as null
    out = tmp_path / "out"
    assert hl.main(["--scenario", GRAVITY, "--command", "verify", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_no_constant)
    c2, c3 = report["entries"]["C2"]["witness"], report["entries"]["C3"]["witness"]
    assert c2["negativity"]["value"] is None
    assert c2["dominator"]["r=1"]["value"] is None
    assert c3["r=1"]["sup"] is None


def test_a_non_finite_artifact_number_exits_two_with_error_record(tmp_path, capsys,
                                                                  monkeypatch):
    # an artifact number JSON cannot hold is a numerical failure, not a
    # nonstandard file
    import hammerline.cli as cli_mod

    relation = SimpleNamespace(tag="comparable-with-limit", limit=math.nan, detail="")
    monkeypatch.setattr(cli_mod, "classify_asymptotic", lambda *args, **kwargs: relation)
    rc, out = run(tmp_path, "classify", CLASSIFY)
    assert rc == 2
    assert not (out / "classification.json").exists()
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "DomainError"
    assert "classification.json not written" in record["error"]["message"]
    assert json.loads(capsys.readouterr().err.strip()) == record


# -- entry points ---------------------------------------------------------------------

def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "hammerline", "--scenario", CLASSIFY,
         "--command", "classify", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "classification.json").exists()


def _run_console_script(target, *args):
    """Run ``target`` (a ``module:attr`` entry point) as an installed console
    script would: under the name ``hammerline``, exiting with its return."""
    code = ("import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"main = EntryPoint(name='hammerline', value={target!r}, "
            "group='console_scripts').load()\n"
            "sys.argv[0] = 'hammerline'\n"
            "sys.exit(main())\n")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)


def test_console_script_installed(tmp_path):
    """The declared ``hammerline`` script runs the CLI; checked from
    ``pyproject.toml``, so no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_DIR / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    target = scripts["hammerline"]
    entry = importlib.metadata.EntryPoint(
        name="hammerline", value=target, group="console_scripts")
    assert entry.load() is hl.main

    out = tmp_path / "out"
    proc = _run_console_script(target, "--scenario", CLASSIFY,
                               "--command", "classify", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "classification.json").exists()

    proc = _run_console_script(target)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: hammerline")


@pytest.mark.skipif(
    not importlib.metadata.entry_points(group="console_scripts",
                                        name="hammerline"),
    reason="the hammerline distribution is not installed")
def test_console_script_on_path():
    assert shutil.which("hammerline") is not None
