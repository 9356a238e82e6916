"""The built-in schema validator against jsonschema, its reference.

Single-field mutations of the bundled scenarios and of a report payload
must get jsonschema's verdict and the message of its ``best_match``.
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import hammerline as hl
from hammerline.schema import best_match

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = [json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))]

# values at or next to the schemas' bounds, enums and types
EDGES = [None, True, False, 0, 1, -1, 2, 7, 8, 41.0, 1.5, 0.0, -0.5, "", "x",
         "half-line", "full-line", "proportional", "pass", "certificate-report",
         [], [0.5], [-1, 2], {}, {"kind": "constant"}, {"label": "affine"}]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 100)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=2),
    max_leaves=4)
VALUES = st.sampled_from(EDGES) | JSON


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw, base):
    """base with one node replaced, deleted, or given an extra key."""
    data = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_paths(data))))
    value = draw(VALUES)
    if not path:
        return value
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    node, op = parent[path[-1]], draw(st.sampled_from(["replace", "delete", "extend"]))
    if op == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif op == "extend" and isinstance(node, dict):
        node[draw(st.sampled_from(["extra", "kind", "value", "start", "include"]))] = value
    else:
        parent[path[-1]] = value
    return data


def assert_as_jsonschema(data, schema):
    want = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(data))
    got = best_match(data, schema)
    assert got == (None if want is None else want.message)


@settings(max_examples=400)
@given(st.sampled_from(SCENARIOS).flatmap(mutations))
def test_scenario_mutations_get_jsonschema_verdict_and_message(data):
    assert_as_jsonschema(data, hl.SCENARIO_SCHEMA)


@settings(max_examples=200)
@given(data=st.data())
def test_report_mutations_get_jsonschema_verdict_and_message(report_c2, data):
    payload = json.loads(json.dumps(hl.report_to_jsonable(report_c2)))
    assert_as_jsonschema(data.draw(mutations(payload)), hl.REPORT_SCHEMA)


def test_bundled_scenarios_and_a_report_are_valid(report_c2):
    for scenario in SCENARIOS:
        assert best_match(scenario, hl.SCENARIO_SCHEMA) is None
    assert best_match(hl.report_to_jsonable(report_c2), hl.REPORT_SCHEMA) is None


@pytest.mark.parametrize("schema, instance", [
    ({"type": "number"}, True),              # a bool is not a number
    ({"type": "integer"}, 41.0),             # an integral float is an integer
    ({"type": "integer"}, 41.5),
    ({"const": 1}, True),                    # True is not 1
    ({"const": 1}, 1.0),
    ({"enum": [-1, 1]}, True),
    ({"enum": [0, 1]}, False),
    ({"type": ["number", "null"]}, "x"),
    ({"type": "integer", "minimum": 8}, 3.5),   # two errors at one path
    ({"required": ["a", "b"]}, {}),
    ({"additionalProperties": False, "properties": {"a": {}}}, {"b": 1, "c": 2}),
    ({"minLength": 1}, ""),
    ({"minLength": 2}, "x"),
    ({"oneOf": [{"type": "null"}, {"type": "number"}]}, "x"),
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, 1),
    # a weak error against one that fails no type, in a oneOf's context
    ({"oneOf": [{"oneOf": [{"type": "null"}, {"type": "string"}]},
                {"type": "number", "minimum": 5}]}, 1),
])
def test_json_semantics_match_jsonschema(schema, instance):
    assert_as_jsonschema(instance, schema)


def _keywords(schema: dict) -> dict:
    """Every keyword of schema and of its subschemas, with a value it takes."""
    found = dict(schema)
    subschemas = list(schema.get("properties", {}).values()) + schema.get("oneOf", []) \
        + [schema[k] for k in ("additionalProperties", "items") if isinstance(schema.get(k), dict)]
    for sub in subschemas:
        found.update(_keywords(sub))
    return found


def test_every_keyword_of_both_schemas_is_implemented():
    used = {**_keywords(hl.SCENARIO_SCHEMA), **_keywords(hl.REPORT_SCHEMA)}
    assert len(used) == 13
    for keyword, value in used.items():
        best_match(None, {keyword: value})   # an unknown keyword raises


@pytest.mark.parametrize("schema, instance", [
    ({"type": "string", "pattern": "^a"}, "b"),
    ({"properties": {"a": {"multipleOf": 2}}}, {"a": 3}),
    ({"anyOf": [{"type": "null"}]}, None),
])
def test_unknown_keyword_raises(schema, instance):
    with pytest.raises(NotImplementedError, match="is not implemented"):
        best_match(instance, schema)
