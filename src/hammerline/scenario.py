"""Scenario files: a JSON description of interval, grid, weights, problem,
and run parameters, schema-validated before any computation starts.

A scenario names everything by label so runs are reproducible from a single
versioned file: weight constructors by label with keyword parameters,
problems from the problem registry, envelope bounds by shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import jsonschema

from .compactline import FULL_LINE, HALF_LINE, CompactMap, GridSpec, build_grid
from .elementwise import filled
from .errors import ScenarioError
from .quadrature import QuadratureConfig
from .weights import Weight, affine, exponential, power
from .weighted_space import Space
from .cone import ConeSystem, FunctionalSpec
from .hammerstein import PROBLEM_BUILDERS, HammersteinProblem

WEIGHT_BUILDERS = {"affine": affine, "exponential": exponential, "power": power}

# parameters a scenario must supply for the bundled problems; problems
# registered at runtime are not checked here
REQUIRED_PARAMS = {
    "boosted-projectile": {"v0"},
    "gravity-projectile": {"g", "R", "v0"},
}

_WEIGHT_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label"],
    "properties": {
        "label": {"type": "string"},
        "params": {"type": "object",
                   "additionalProperties": {"type": "number"}},
    },
}

_ENVELOPE_SPEC = {
    "oneOf": [
        {"type": "null"},
        {"type": "object",
         "additionalProperties": False,
         "required": ["kind"],
         "properties": {
             "kind": {"enum": ["proportional", "constant"]},
             "coefficient": {"type": "number"},
             "value": {"type": "number"},
         }},
    ],
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "name", "interval", "grid_size", "weights", "problem"],
    "properties": {
        "schema": {"const": 1},
        "name": {"type": "string", "minLength": 1},
        "interval": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": [FULL_LINE, HALF_LINE]},
                "start": {"type": "number"},
                "scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "grid_size": {"type": "integer", "minimum": 8},
        "weights": {
            "type": "object",
            "additionalProperties": False,
            "required": ["space", "cone_integral", "radius"],
            "properties": {
                "space": _WEIGHT_SPEC,
                "cone_integral": _WEIGHT_SPEC,
                "radius": _WEIGHT_SPEC,
            },
        },
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object",
                           "additionalProperties": {"type": "number"}},
            },
        },
        "envelopes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"upper": _ENVELOPE_SPEC, "lower": _ENVELOPE_SPEC},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "quad_tol": {"type": "number", "exclusiveMinimum": 0},
                "picard_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "rho_scan": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lo": {"type": "number", "exclusiveMinimum": 0},
                "hi": {"type": "number", "exclusiveMinimum": 0},
                "count": {"type": "integer", "minimum": 2},
                "include": {"type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0}},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "samples": {"type": "integer", "minimum": 1},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iters": {"type": "integer", "minimum": 1},
                "relaxation": {"type": "number", "exclusiveMinimum": 0,
                               "maximum": 1},
            },
        },
        "classify": {
            "type": "object",
            "additionalProperties": False,
            "required": ["left", "right"],
            "properties": {
                "left": _WEIGHT_SPEC,
                "right": _WEIGHT_SPEC,
                "side": {"enum": [-1, 1]},
            },
        },
        "output_dir": {"type": "string", "minLength": 1},
    },
}


@dataclass(frozen=True)
class Scenario:
    name: str
    interval: dict
    grid_size: int
    weights: dict
    problem: dict
    envelopes: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    rho_scan: dict = field(default_factory=dict)
    seed: int = 0
    samples: int = 8
    solver: dict = field(default_factory=dict)
    classify: dict | None = None
    output_dir: str = "out"

    @property
    def quad_tol(self) -> float:
        return float(self.tolerances.get("quad_tol", 1e-10))

    @property
    def picard_tol(self) -> float:
        return float(self.tolerances.get("picard_tol", 1e-10))


def scenario_from_dict(data: dict) -> Scenario:
    try:
        jsonschema.validate(data, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as e:
        raise ScenarioError(f"scenario does not match the schema: {e.message}") from e
    interval = data["interval"]
    if interval["kind"] == FULL_LINE and "start" in interval:
        raise ScenarioError("a full-line interval takes no start point")
    prob = data["problem"]
    required = REQUIRED_PARAMS.get(prob["name"])
    params = prob.get("params", {})
    if required is not None:
        missing = sorted(required - set(params))
        if missing:
            raise ScenarioError(
                f"problem {prob['name']!r} needs parameters: {', '.join(missing)}")
        extra = sorted(set(params) - required)
        if extra:
            raise ScenarioError(
                f"problem {prob['name']!r} got unknown parameters: "
                f"{', '.join(extra)}")
    return Scenario(
        name=data["name"], interval=dict(interval),
        grid_size=int(data["grid_size"]),
        weights=data["weights"], problem=prob,
        envelopes=data.get("envelopes", {}),
        tolerances=data.get("tolerances", {}),
        rho_scan=data.get("rho_scan", {}),
        seed=int(data.get("seed", 0)),
        samples=int(data.get("samples", 8)),
        solver=data.get("solver", {}),
        classify=data.get("classify"),
        output_dir=data.get("output_dir", "out"),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario file is not valid JSON: {e}") from e
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# construction

def build_weight(spec: dict) -> Weight:
    label = spec["label"]
    builder = WEIGHT_BUILDERS.get(label)
    if builder is None:
        known = ", ".join(sorted(WEIGHT_BUILDERS))
        raise ScenarioError(f"unknown weight label {label!r} (known: {known})")
    try:
        return builder(**spec.get("params", {}))
    except TypeError as e:
        raise ScenarioError(f"bad parameters for weight {label!r}: {e}") from e


def build_map(scn: Scenario) -> CompactMap:
    iv = scn.interval
    L = float(iv.get("scale", 1.0))
    if iv["kind"] == FULL_LINE:
        return CompactMap.full_line(L=L)
    return CompactMap.half_line(a=float(iv.get("start", 0.0)), L=L)


def build_space(scn: Scenario) -> Space:
    grid = build_grid(build_map(scn), GridSpec(scn.grid_size))
    return Space(grid, build_weight(scn.weights["space"]), order=0)


def build_problem(scn: Scenario, space: Space) -> HammersteinProblem:
    name = scn.problem["name"]
    builder = PROBLEM_BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(PROBLEM_BUILDERS))
        raise ScenarioError(f"unknown problem {name!r} (known: {known})")
    try:
        return builder(space, **scn.problem.get("params", {}))
    except TypeError as e:
        raise ScenarioError(f"bad parameters for problem {name!r}: {e}") from e


def build_system(scn: Scenario) -> ConeSystem:
    w2 = build_weight(scn.weights["cone_integral"])
    w3 = build_weight(scn.weights["radius"])
    return ConeSystem(
        cone=FunctionalSpec("difference", integral_weight=w2, sup_weight=w3,
                            name="cone"),
        upper=FunctionalSpec("weighted-sup", sup_weight=w3, name="upper"),
        lower=FunctionalSpec("weighted-integral", integral_weight=w3,
                             name="lower"),
    )


def build_envelope(spec: dict | None):
    if spec is None:
        return None
    if spec["kind"] == "proportional":
        coeff = float(spec.get("coefficient", 1.0))
        return lambda t, rho: filled(coeff * rho, t)
    value = float(spec.get("value", 0.0))
    return lambda t, rho: filled(value, t, rho)


def build_quad(scn: Scenario) -> QuadratureConfig:
    tol = scn.quad_tol
    return QuadratureConfig(tol=tol, rel_tol=tol / 10.0)


def rho_grid(scn: Scenario) -> list:
    import numpy as np

    lo = float(scn.rho_scan.get("lo", 0.05))
    hi = float(scn.rho_scan.get("hi", 5.0))
    count = int(scn.rho_scan.get("count", 25))
    if not lo < hi:
        raise ScenarioError("rho scan needs lo < hi")
    vals = set(float(r) for r in np.geomspace(lo, hi, count))
    vals.update(float(r) for r in scn.rho_scan.get("include", []))
    return sorted(vals)


def scenario_to_jsonable(scn: Scenario) -> dict:
    out = {
        "schema": 1,
        "name": scn.name,
        "interval": scn.interval,
        "grid_size": scn.grid_size,
        "weights": scn.weights,
        "problem": scn.problem,
        "seed": scn.seed,
        "samples": scn.samples,
        "output_dir": scn.output_dir,
    }
    if scn.envelopes:
        out["envelopes"] = scn.envelopes
    if scn.tolerances:
        out["tolerances"] = scn.tolerances
    if scn.rho_scan:
        out["rho_scan"] = scn.rho_scan
    if scn.solver:
        out["solver"] = scn.solver
    if scn.classify is not None:
        out["classify"] = scn.classify
    return out
