import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hammerline as hl
from hammerline.errors import ScenarioError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_dict(**extra):
    data = {
        "schema": 1,
        "name": "minimal",
        "interval": {"kind": "half-line", "start": 0.0, "scale": 1.0},
        "grid_size": 17,
        "weights": {
            "space": {"label": "affine", "params": {"b": 1.0}},
            "cone_integral": {"label": "exponential", "params": {"c": 2.0}},
            "radius": {"label": "exponential", "params": {"c": 1.0}},
        },
        "problem": {"name": "boosted-projectile", "params": {"v0": 1.0}},
    }
    data.update(extra)
    return data


# -- loading and validation ----------------------------------------------------

def test_bundled_scenario_loads():
    scn = hl.load_scenario(SCENARIO_DIR / "boosted_projectile_c2.json")
    assert scn.name == "boosted-projectile-c2"
    assert scn.grid_size == 41
    assert scn.quad_tol == 1e-10
    assert scn.picard_tol == 1e-10
    assert scn.problem["params"]["v0"] == 1.0
    assert 0.7 in scn.rho_scan["include"]


def test_every_bundled_scenario_validates():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 5
    for path in paths:
        scn = hl.load_scenario(path)
        assert scn.name


def test_defaults_on_minimal_scenario():
    scn = hl.scenario_from_dict(minimal_dict())
    assert scn.seed == 0
    assert scn.samples == 8
    assert scn.quad_tol == 1e-10
    assert scn.picard_tol == 1e-10
    assert scn.output_dir == "out"
    assert scn.classify is None
    assert scn.envelopes == {}


def test_jsonable_round_trip():
    scn = hl.load_scenario(SCENARIO_DIR / "boosted_projectile_c2.json")
    again = hl.scenario_from_dict(json.loads(
        json.dumps(hl.scenario_to_jsonable(scn))))
    assert again == scn


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="schema"):
        hl.scenario_from_dict(minimal_dict(surprise=True))


def test_both_schemas_are_valid_json_schemas():
    # the package's validator never checks a schema: this test does
    import jsonschema

    for schema in (hl.SCENARIO_SCHEMA, hl.REPORT_SCHEMA):
        jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("bad", [{"surprise": True}, {"schema": 2}, {"grid_size": "many"},
                                 {"interval": {"kind": "circle"}}])
def test_schema_errors_read_as_jsonschema_reports_them(bad):
    import jsonschema

    data = minimal_dict(**bad)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(data, hl.SCENARIO_SCHEMA)
    with pytest.raises(ScenarioError) as got:
        hl.scenario_from_dict(data)
    assert str(got.value) == f"scenario does not match the schema: {want.value.message}"


# test references only: a command must not pay for importing them
TEST_ONLY_MODULES = {"jsonschema", "scipy", "numpy.random", "numpy.polynomial"}


def _imported_test_modules(statement: str) -> str:
    """The last stdout line of a fresh interpreter that imports hammerline,
    runs ``statement`` and prints the test-only modules then imported."""
    code = (f"import sys, hammerline\n{statement}\n"
            f"print(sorted({TEST_ONLY_MODULES!r} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(hl.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip().splitlines()[-1]


def test_import_and_load_leave_jsonschema_and_scipy_out():
    gravity = str(SCENARIO_DIR / "gravity_projectile.json")
    assert _imported_test_modules(f"hammerline.load_scenario({gravity!r})") == "[]"


def test_verify_leaves_numpy_random_and_polynomial_out(tmp_path):
    # the certifier draws from its own PCG64, and the rule is a literal table
    gravity = str(SCENARIO_DIR / "gravity_projectile.json")
    run = (f"assert hammerline.main(['--scenario', {gravity!r}, '--command', 'verify', "
           f"'--out', {str(tmp_path)!r}]) == 0")
    assert _imported_test_modules(run) == "[]"
    assert (tmp_path / "report.json").exists()


def test_schema_version_is_pinned():
    with pytest.raises(ScenarioError):
        hl.scenario_from_dict(minimal_dict(schema=2))


def test_grid_size_floor_enforced():
    with pytest.raises(ScenarioError):
        hl.scenario_from_dict(minimal_dict(grid_size=7))


def test_full_line_takes_no_start():
    data = minimal_dict(interval={"kind": "full-line", "start": 1.0})
    with pytest.raises(ScenarioError, match="start"):
        hl.scenario_from_dict(data)


def test_bundled_problem_requires_its_parameters():
    data = minimal_dict(problem={"name": "boosted-projectile"})
    with pytest.raises(ScenarioError, match="needs parameters: v0"):
        hl.scenario_from_dict(data)
    data = minimal_dict(problem={"name": "gravity-projectile",
                                 "params": {"g": 1.0}})
    with pytest.raises(ScenarioError, match="needs parameters"):
        hl.scenario_from_dict(data)


def test_bundled_problem_rejects_unknown_parameters():
    data = minimal_dict(problem={"name": "boosted-projectile",
                                 "params": {"v0": 1.0, "spin": 3.0}})
    with pytest.raises(ScenarioError, match="unknown parameters: spin"):
        hl.scenario_from_dict(data)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        hl.load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        hl.load_scenario(bad)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_scenario_refuses_non_finite_literals(tmp_path, literal):
    # json accepts these three literals; JSON has no such numbers
    path = tmp_path / "scenario.json"
    text = json.dumps(minimal_dict(tolerances={"quad_tol": 1e-10}))
    path.write_text(text.replace("1e-10", literal))
    with pytest.raises(ScenarioError, match=f"not valid JSON: {literal} is not a JSON number"):
        hl.load_scenario(path)


# -- construction ----------------------------------------------------------------

def test_build_weight_by_label():
    w = hl.build_weight({"label": "exponential", "params": {"c": 2.0,
                                                            "rate": 0.5}})
    assert w(2.0) == pytest.approx(2.0 * math.exp(1.0), rel=1e-15)
    with pytest.raises(ScenarioError, match="unknown weight label"):
        hl.build_weight({"label": "spline"})
    with pytest.raises(ScenarioError, match="bad parameters"):
        hl.build_weight({"label": "affine", "params": {"q": 1.0}})


def test_build_map_and_space():
    scn = hl.scenario_from_dict(minimal_dict(
        interval={"kind": "half-line", "start": 2.0, "scale": 3.0}))
    cmap = hl.build_map(scn)
    assert cmap.kind == "half-line"
    assert cmap.from_compact(-1.0) == 2.0
    space = hl.build_space(scn)
    assert space.m == 17
    assert space.order == 0
    assert space.weight(0.0) == 1.0

    full = hl.scenario_from_dict(minimal_dict(
        interval={"kind": "full-line", "scale": 2.0}))
    assert hl.build_map(full).kind == "full-line"


def test_build_problem_from_registry():
    scn = hl.scenario_from_dict(minimal_dict())
    problem = hl.build_problem(scn, hl.build_space(scn))
    assert problem.name == "boosted-projectile"
    assert problem.params == {"v0": 1.0}
    ghost = hl.scenario_from_dict(minimal_dict(
        problem={"name": "no-such-problem"}))
    with pytest.raises(ScenarioError, match="unknown problem"):
        hl.build_problem(ghost, hl.build_space(ghost))


def test_build_system_kinds():
    scn = hl.scenario_from_dict(minimal_dict())
    system = hl.build_system(scn)
    assert system.cone.kind == "difference"
    assert system.upper.kind == "weighted-sup"
    assert system.lower.kind == "weighted-integral"
    assert system.cone.integral_weight(1.0) == pytest.approx(2.0 * math.e,
                                                             rel=1e-15)


def test_build_envelope_shapes():
    assert hl.build_envelope(None) is None
    prop = hl.build_envelope({"kind": "proportional", "coefficient": 2.0})
    assert prop(5.0, 0.3) == pytest.approx(0.6)
    unit = hl.build_envelope({"kind": "proportional"})
    assert unit(1.0, 0.3) == pytest.approx(0.3)
    const = hl.build_envelope({"kind": "constant", "value": 3.0})
    assert const(9.9, 0.1) == 3.0


def test_build_quad_couples_tolerances():
    scn = hl.scenario_from_dict(minimal_dict(
        tolerances={"quad_tol": 1e-8}))
    quad = hl.build_quad(scn)
    assert quad.tol == 1e-8
    assert quad.rel_tol == 1e-9


def test_rho_grid_merges_includes():
    scn = hl.scenario_from_dict(minimal_dict(
        rho_scan={"lo": 0.1, "hi": 2.0, "count": 5, "include": [0.7, 0.9]}))
    grid = hl.rho_grid(scn)
    assert grid == sorted(grid)
    assert len(grid) == len(set(grid))
    assert 0.7 in grid and 0.9 in grid
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(2.0)
    bad = hl.scenario_from_dict(minimal_dict(
        rho_scan={"lo": 2.0, "hi": 1.0}))
    with pytest.raises(ScenarioError, match="lo < hi"):
        hl.rho_grid(bad)
