"""Cone functionals, certificate reports, index conditions, and windows.

Three functionals drive the analysis: a cone functional (integral part minus
sup part) whose nonnegativity set is the cone, an upper functional (weighted
sup) and a lower functional (weighted integral) that measure radii. The
certifier checks every hypothesis the fixed-point-index machinery needs (the
functionals' structure is a lemma of their kinds, ``KIND_LEMMAS``; the
operator inequalities are sampled on random nonnegative elements as a
cross-check, which needs no cone membership),
records pass/fail with witnesses and tolerances, and the window search turns
a certified report plus envelope bounds into solution-count statements.

All certificates are one-sided: "pass" means numerically certified at the
stated tolerance, "fail" means not certified (never a disproof).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .compactline import Grid
from .elementwise import elementwise, exp, filled
from .errors import DomainError, QuadratureError
from .quadrature import (DEFAULT_QUAD, QuadratureConfig, _integral_parts, integrate_compact,
                         sup_on_grid)
from .schema import best_match
from .weights import Weight, read_ends, same_weight, weight_key
from .weighted_space import Space, WeightedFunction, norm, spaces_compatible
from .hammerstein import (HammersteinProblem, Kernel, VOLTERRA, apply_T,
                          c3_bound_profile, dominator_check, kernel_limits,
                          kernel_modulus_check)

POS_TOL = 1e-12          # admitted negativity slack for "nonnegative"
SAMPLE_INEQ_TOL = 1e-5   # slack for sampled inequalities
PROP_TOL = 1e-10         # tolerance of the sampled property oracle
RADIUS = 1.0             # ball radius of the domination (C2) and image bound (C3)

PASS, FAIL, NOT_CHECKED = "pass", "fail", "not-checked"

FUNCTIONAL_KINDS = ("weighted-integral", "weighted-sup", "difference")

# The structure of each kind, with positive weights (the ``Weight``
# contract): the integral part I is linear and the sup part S a weighted sup
# norm. property -> kind -> (holds, the lemma or the counterexample).
KIND_LEMMAS = {
    "superadditive": {"difference": (True, "I is additive and S subadditive"),
                      "weighted-integral": (True, "I is additive"),
                      "weighted-sup": (False, "a weighted sup is only subadditive")},
    "homogeneous": dict.fromkeys(FUNCTIONAL_KINDS, (True, "I and S are positively homogeneous")),
    "definite": {"difference": (True, "f(u) >= 0 and f(-u) >= 0 add up to -2 S(u) >= 0, "
                                      "so S(u) = 0 and u = 0"),
                 "weighted-integral": (False, "a weighted integral vanishes on sign-changing u"),
                 "weighted-sup": (False, "a weighted sup is >= 0 everywhere")},
    "additive": {"difference": (False, "S is only subadditive"),
                 "weighted-integral": (True, "I is linear"),
                 "weighted-sup": (False, "a weighted sup is only subadditive")},
}


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional on the weighted space.

    'weighted-integral': u -> integral of u/integral_weight.
    'weighted-sup':      u -> sup |u|/sup_weight (norm in that weight).
    'difference':        integral part minus sup part.
    """

    kind: str
    integral_weight: Weight | None = None
    sup_weight: Weight | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise DomainError(f"unknown functional kind {self.kind!r}")
        if self.kind in ("weighted-integral", "difference") and self.integral_weight is None:
            raise DomainError(f"{self.kind} functional needs integral_weight")
        if self.kind in ("weighted-sup", "difference") and self.sup_weight is None:
            raise DomainError(f"{self.kind} functional needs sup_weight")


@dataclass(frozen=True)
class ConeSystem:
    """The three functionals: cone membership, upper radius, lower radius."""

    cone: FunctionalSpec
    upper: FunctionalSpec
    lower: FunctionalSpec


# ---------------------------------------------------------------------------
# functional evaluation

def _distinct_weights(w: Sequence) -> tuple:
    """The distinct weights of the sequence ``w`` (one per row), in order,
    two weights with one ``weight_key`` being one, and the index among
    them of every row's weight."""
    keys = [weight_key(v) for v in w]
    index: dict = {}
    which = np.array([index.setdefault(k, len(index)) for k in keys])
    return [w[keys.index(k)] for k in index], which


def _row_weight(w) -> Callable:
    """(t, r) -> the weight of row r at t. ``w`` is one weight for every
    row, or a sequence with one per row, each evaluated only at the points
    of its rows (t and r broadcast)."""
    if isinstance(w, Weight):
        return lambda t, r: w(t)
    unique, which = _distinct_weights(w)
    if len(unique) == 1:
        return _row_weight(w[0])

    def at(t, r):
        t, r = np.broadcast_arrays(t, r)
        out = np.empty(t.shape)
        k = which[r]
        for j, v in enumerate(unique):
            mask = k == j
            if mask.any():
                out[mask] = v(t[mask])
        return out

    return at


def _parts(memo: dict, keys: list, part: str, compute, wanted: list) -> list:
    """The part ``part`` for every (weight, rows) pair of ``wanted`` (rows an
    index array into a batch), an array each. compute(w, rows) computes a
    part of the batch's rows, w their one weight or a list with a weight
    per row. ``keys`` name what each row of the batch is (one per row); a
    value is kept in ``memo`` under (part, weight_key(w), the row's key),
    read back on a hit, and all the misses, whatever their weight, are
    computed in one call. A part that raises is not stored."""
    named = [[(part, wk, keys[i]) for i in r.tolist()]
             for wk, r in ((weight_key(w), r) for w, r in wanted)]
    todo: dict = {}
    for (w, r), names in zip(wanted, named):
        for i, k in zip(r.tolist(), names):
            if k not in memo:
                todo.setdefault(k, (w, i))
    if todo:
        weights, rows = zip(*todo.values())
        one = len({wk for _, wk, _ in todo}) == 1   # same_weight's rule, read off the keys
        memo.update(zip(todo, compute(weights[0] if one else list(weights),
                                      np.array(rows)).tolist()))
    return [np.array([memo[k] for k in names]) for names in named]


def _combine(requests: list, integral, sup, memo: dict, keys: list) -> list:
    """The functional of every (spec, rows) request (rows an index array
    into a batch), an array each, from the parts of the rows:
    integral(integral_weight), sup(sup_weight), or integral minus sup for a
    difference. The integral parts of all requests are one call of
    ``integral``, then their sup parts one of ``sup``, each part kept in
    ``memo`` under the key ``keys`` gives its row (see ``_parts``)."""
    integrals = iter(_parts(memo, keys, "integral", integral,
                            [(s.integral_weight, r) for s, r in requests
                             if s.kind != "weighted-sup"]))
    sups = iter(_parts(memo, keys, "sup", sup, [(s.sup_weight, r) for s, r in requests
                                                if s.kind != "weighted-integral"]))
    return [next(integrals) if s.kind == "weighted-integral" else
            next(sups) if s.kind == "weighted-sup" else next(integrals) - next(sups)
            for s, _ in requests]


def _element_parts(samples: np.ndarray, space: Space, quad: QuadratureConfig) -> tuple:
    """The integral and sup parts of a batch of space elements, one per row
    of ``samples`` (their rescaled node values), as functions of the weight
    (one, or one per row) and of the rows to compute (see ``_parts``).

    At an infinite end the sup part takes each row's end sample times the
    certified limit of phi/sup_weight, one reading of the ends for the
    batch, and refuses when that ratio diverges or has no certified limit.
    """
    grid, cmap, phi = space.grid, space.map, space.weight
    interp = grid.interpolant(samples)

    def integral(w2, rows: np.ndarray) -> np.ndarray:
        wt = _row_weight(w2)
        return _integral_parts(lambda t, x, r: interp(x, rows[r]) * phi(t) / wt(t, r), cmap,
                               quad, np.empty((rows.size, 0)))

    def sup(w3, rows: np.ndarray) -> np.ndarray:
        wt = _row_weight(w3)
        col = np.arange(rows.size)[:, None]
        ends = {}
        for x, (kind, ratio) in read_ends(lambda t: phi(t) / wt(t, col), cmap,
                                          (rows.size,)).items():
            if (kind == "unknown").any():
                raise DomainError("weight ratio has no certified endpoint behavior")
            if np.isinf(ratio).any():
                # an unbounded ratio amplifies any interpolation wiggle of
                # the sampled element without bound near the endpoint, so no
                # trustworthy sup exists even for vanishing elements
                raise DomainError(
                    "sup part ill-conditioned: the space weight outgrows the "
                    "sup weight toward the endpoint")
            ends[x] = np.abs(samples[rows, 0 if x < 0 else -1]) * np.abs(ratio)

        def fn_x(x, r):
            t = cmap.from_compact(x)
            return np.abs(interp(x, rows[r])) * phi(t) / wt(t, r)

        return sup_on_grid(fn_x, grid, ends, np.empty((rows.size, 0)))

    return integral, sup


def _element_functionals(requests: list, quad: QuadratureConfig, memo: dict) -> list:
    """The values of every (spec, elements) request, an array each, the
    elements of all requests of one space: one integral computes the
    integral parts of all of them, one sup search their sup parts (see
    ``_combine``), each with the value it has alone, bit for bit. A part
    is kept in ``memo`` by its element's samples, so a repeated element's
    parts are computed once."""
    elements = [u for _, us in requests for u in us]
    if not elements:
        return [np.empty(0) for _ in requests]
    sp = elements[0].space
    if any(not spaces_compatible(e.space, sp) for e in elements):
        raise DomainError("elements of a batch live in different spaces")
    samples = np.array([e.samples[0] for e in elements])
    integral, sup = _element_parts(samples, sp, quad)
    keys = [("element", row.tobytes()) for row in samples]
    bounds = np.cumsum([0] + [len(us) for _, us in requests])
    return _combine([(spec, np.arange(a, b)) for (spec, _), a, b
                     in zip(requests, bounds, bounds[1:])], integral, sup, memo, keys)


def eval_functional(spec: FunctionalSpec, u: WeightedFunction | Sequence[WeightedFunction],
                    quad: QuadratureConfig | None = None) -> float | np.ndarray:
    """Value of the functional on a space element (quadrature-certified), or
    the array of its values on a sequence of elements of one space.

    The elements of a sequence are one batch: one integral computes the
    integral parts of all of them, one sup search their sup parts, each
    with the value it has alone, bit for bit. At an infinite end the sup
    part takes the element's end sample times the certified limit of
    phi/sup_weight, and refuses when that ratio diverges or has no
    certified limit; of several refused elements, the first one's refusal
    is raised. Within the call, an element that repeats in the sequence
    has its parts computed once.
    """
    one = isinstance(u, WeightedFunction)
    values = _element_functionals([(spec, [u] if one else list(u))], quad or DEFAULT_QUAD,
                                  {})[0]
    return float(values[0]) if one else values


def _raw_parts(fn, space: Space, quad: QuadratureConfig, kinks: np.ndarray,
               start: np.ndarray | None = None) -> tuple:
    """The integral and sup parts of a batch of raw callables, t -> fn(t, r)
    for every row r of ``kinks`` (their kink locations, shape (rows, k)),
    as functions of the weight (one, or one per row) and of the rows to
    compute (see ``_parts``).

    At an infinite end the sup part takes the certified limit of
    |fn|/sup_weight, and refuses when it diverges or is undecided; of
    several refused rows, the first one's refusal is raised. The sup search
    cuts each row's brackets at its kinks, and reads a row on t >= its
    ``start`` only (a t per row, where the callable vanishes left of it).
    """
    grid, cmap = space.grid, space.map
    cuts = cmap.to_compact(kinks)
    starts = None if start is None else cmap.to_compact(start)

    def integral(w2, rows: np.ndarray) -> np.ndarray:
        wt = _row_weight(w2)
        return _integral_parts(lambda t, x, r: fn(t, rows[r]) / wt(t, r), cmap, quad,
                               cuts[rows])

    def sup(w3, rows: np.ndarray) -> np.ndarray:
        wt = _row_weight(w3)
        col = np.arange(rows.size)[:, None]

        def h(t, r):
            return np.abs(fn(t, rows[r])) / wt(t, r)

        ends, refusals = {}, []
        for x, (kind, lim) in read_ends(lambda t: h(t, col), cmap, (rows.size,)).items():
            refusals.append(np.where(kind == "unknown", "sup part endpoint behavior undecided",
                                     np.where(np.isinf(lim), "sup part unbounded for this slice",
                                              "")))
            ends[x] = np.abs(lim)
        refused = np.stack(refusals, axis=1)
        if (refused != "").any():
            first = refused[np.argmax((refused != "").any(axis=1))]
            raise DomainError(str(first[first != ""][0]))
        return sup_on_grid(lambda x, r: h(cmap.from_compact(x), r), grid, ends, cuts[rows],
                           None if starts is None else starts[rows])

    return integral, sup


def eval_functional_raw(spec: FunctionalSpec, fn: Callable[[float], float],
                        space: Space, quad: QuadratureConfig | None = None,
                        kinks: Sequence[float] = ()) -> float:
    """Functional applied to a raw callable (kernel slices and the like).

    ``fn`` takes a float or an array; a float-only one is wrapped (see
    ``elementwise``). At an infinite end the sup part takes the certified
    limit of |fn|/sup_weight, and refuses when it diverges or is undecided.
    It is a batch of one of the slice functionals (see
    ``kernel_functional_integral``), with a memo of its own.
    """
    quad = quad or DEFAULT_QUAD
    grid = space.grid
    fn = elementwise(fn, at=grid.t[grid.m // 2:grid.m // 2 + 2])
    integral, sup = _raw_parts(lambda t, r: fn(t), space, quad,
                               np.array(kinks, dtype=float).reshape(1, -1))
    return float(_combine([(spec, np.arange(1))], integral, sup, {}, [0])[0][0])


# ---------------------------------------------------------------------------
# kernel profiles

def _kernel_slices(kernel: Kernel, s: np.ndarray, space: Space,
                   quad: QuadratureConfig) -> tuple:
    """The parts of the slices t -> k(t,s)eta(s) at every point of the 1-d
    array s (see ``_raw_parts``) and each slice's memo key, ("raw", s): a
    memo serves one kernel, quadrature and space. Each slice is
    cut at its diagonal t = s, the kink of a Volterra kernel and the peak
    of a Green's function. A Volterra slice, zero for t < s, is searched
    for its sup on t >= s only."""
    eta = kernel.eta(s)
    keys = [("raw", v) for v in s.tolist()]
    return _raw_parts(lambda t, r: kernel.fn(t, s[r]) * eta[r], space, quad, s[:, None],
                      s if kernel.support == VOLTERRA else None) + (keys,)


@dataclass(frozen=True)
class ProfileIntegral:
    """Functional of the kernel slices as a function of s, plus its integral.

    positivity means: every recorded value (sorted by s) >= -POS_TOL and the
    largest is strictly positive (degenerate all-zero profiles are rejected)."""

    s_values: tuple
    values: tuple
    integral: float
    positive: bool
    min_value: float
    witness_s: float
    tolerance: float = POS_TOL


def kernel_functional_integral(spec: FunctionalSpec | Sequence[FunctionalSpec],
                               kernel: Kernel, quad: QuadratureConfig | None = None, *,
                               space: Space) -> ProfileIntegral | list:
    """Integrate s -> spec(k(.,s)eta(s)) over the interval, and record the
    profile at every point the integral evaluated it: the quadrature's nodes
    plus each finite end of the interval, which no node reaches.

    A sequence of specs gives the list of their profiles, as one integral
    with a row per spec, each row refined as if it ran alone (see
    ``_profiles``); a slice part that repeats within the call is computed
    once.
    """
    if isinstance(spec, FunctionalSpec):
        return kernel_functional_integral([spec], kernel, quad, space=space)[0]
    return _profiles(list(spec), kernel, quad or DEFAULT_QUAD, space, {})


def _profiles(specs: list, kernel: Kernel, quad: QuadratureConfig, space: Space,
              memo: dict) -> list:
    """The profile of every spec of ``specs`` (see
    ``kernel_functional_integral``), as one integral with a row per spec.
    Each refinement round is one batch of slices over all rows (see
    ``_raw_parts``, and ``_combine`` for the one call per part), the first
    with the finite ends added. Slice parts go through ``memo`` keyed by
    the slice's s. When the batch refuses, the specs run one at a time, so
    the refusal raised is the first spec's, as a loop over them raises it.
    """
    ends = [v for v in space.map.interval() if math.isfinite(v)]

    def run(specs: list) -> list:
        seen: list = [[] for _ in specs]   # the (s, value) columns of each round

        def profile(s: np.ndarray, x, row) -> np.ndarray:
            at = [np.concatenate((s[row == j], [] if seen[j] else ends))
                  for j in range(len(specs))]
            bounds = np.cumsum([0] + [a.size for a in at])
            integral, sup, keys = _kernel_slices(kernel, np.concatenate(at), space, quad)
            values = _combine([(sp, np.arange(lo, hi)) for sp, lo, hi
                               in zip(specs, bounds, bounds[1:])], integral, sup, memo, keys)
            out = np.empty(s.size)
            for j, (a, v) in enumerate(zip(at, values)):
                here = row == j
                out[here] = v[:np.count_nonzero(here)]
                if a.size:
                    seen[j].append(np.stack((a, v)))
            return out

        integrals = integrate_compact(profile, space.map, quad,
                                      np.broadcast_to([-1.0, 1.0], (len(specs), 2)))
        return [_profile(np.hstack(pts), value) for pts, value in zip(seen, integrals.tolist())]

    try:
        return run(specs)
    except (DomainError, QuadratureError):
        if len(specs) == 1:
            raise
    return [run([sp])[0] for sp in specs]


def _profile(points: np.ndarray, integral: float) -> ProfileIntegral:
    """The profile of the (s, value) columns ``points`` and its integral."""
    s_vals, vals = points[:, np.argsort(points[0])]
    min_i = int(np.argmin(vals))
    positive = bool(vals[min_i] >= -POS_TOL) and bool(vals.max() > 0.0)
    return ProfileIntegral(
        s_values=tuple(s_vals.tolist()), values=tuple(vals.tolist()), integral=integral,
        positive=positive, min_value=float(vals[min_i]), witness_s=float(s_vals[min_i]))


# ---------------------------------------------------------------------------
# certificate report

@dataclass(frozen=True)
class ConditionEntry:
    """One checked hypothesis of a report: its status, tolerance and witness."""

    key: str
    title: str
    status: str
    tolerance: float | None = None
    witness: dict | None = None
    detail: str = ""


@dataclass(frozen=True)
class ReportContext:
    """The live objects a report was computed from, which the index checks read."""

    problem: HammersteinProblem
    upper_profile: ProfileIntegral
    lower_profile: ProfileIntegral


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Pass/fail entries for the nine hypotheses and P1-P3, computed
    scalars, bridge data, and reproducibility metadata."""

    entries: dict
    properties: dict
    scalars: dict
    bridges: dict
    meta: dict
    context: ReportContext | None = field(default=None, repr=False)

    @property
    def certified(self) -> bool:
        return all(e.status == PASS for e in self.entries.values())

    def entry(self, key: str) -> ConditionEntry:
        return self.entries[key]

    def require_context(self) -> ReportContext:
        if self.context is None:
            raise DomainError(
                "report carries no live context (was it parsed from disk?); "
                "re-run verification to enable index checks")
        return self.context


def _finite_or_null(x):
    """x with every non-finite float in its dicts and lists made None: JSON
    has no nan or inf."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _entry_jsonable(e: ConditionEntry) -> dict:
    return {"key": e.key, "title": e.title, "status": e.status,
            "tolerance": e.tolerance, "witness": _finite_or_null(e.witness),
            "detail": e.detail}


def report_to_jsonable(report: CertificateReport) -> dict:
    return {
        "schema": 1,
        "kind": "certificate-report",
        "certified": report.certified,
        "entries": {k: _entry_jsonable(e) for k, e in sorted(report.entries.items())},
        "properties": {k: _entry_jsonable(e)
                       for k, e in sorted(report.properties.items())},
        "scalars": dict(sorted(report.scalars.items())),
        "bridges": report.bridges,
        "meta": report.meta,
    }


_ENTRY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["key", "title", "status"],
    "properties": {
        "key": {"type": "string"},
        "title": {"type": "string"},
        "status": {"enum": [PASS, FAIL, NOT_CHECKED]},
        "tolerance": {"type": ["number", "null"]},
        "witness": {"type": ["object", "null"]},
        "detail": {"type": "string"},
    },
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "kind", "certified", "entries", "properties",
                 "scalars", "bridges", "meta"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "certificate-report"},
        "certified": {"type": "boolean"},
        "entries": {"type": "object",
                    "additionalProperties": _ENTRY_SCHEMA},
        "properties": {"type": "object",
                       "additionalProperties": _ENTRY_SCHEMA},
        "scalars": {"type": "object", "additionalProperties": {"type": "number"}},
        "bridges": {"type": "object"},
        "meta": {"type": "object"},
    },
}


def report_from_json(data: dict) -> CertificateReport:
    message = best_match(data, REPORT_SCHEMA)
    if message is not None:
        raise DomainError(f"report does not match the schema: {message}")

    def entries(block):
        return {k: ConditionEntry(key=v["key"], title=v["title"], status=v["status"],
                                  tolerance=v.get("tolerance"),
                                  witness=v.get("witness"),
                                  detail=v.get("detail", ""))
                for k, v in block.items()}

    return CertificateReport(entries=entries(data["entries"]),
                             properties=entries(data["properties"]),
                             scalars=dict(data["scalars"]),
                             bridges=dict(data["bridges"]),
                             meta=dict(data["meta"]), context=None)


# ---------------------------------------------------------------------------
# sampling

def _draw_elements(space: Space, n: int, rng: random.Random) -> list:
    """n random smooth nonnegative elements scale*(c0 + c1 q + c2 q^2 +
    c3 q^3), q = (1 + x)/2, in draw order: per element four coefficients
    from [0, 1], then the scale from [0.2, 2].

    They need not lie in the cone. Once C2 gives f >= 0, the C6/C7 operator
    inequalities hold for every element of the space: the integral parts by
    Tonelli, the sup parts by Minkowski's integral inequality. The elements
    only feed the cross-check of the images against the Fubini route.
    """
    q = (1.0 + space.grid.x) / 2.0
    out = []
    for _ in range(n):
        coeff = [rng.uniform(0.0, 1.0) for _ in range(4)]
        scale = rng.uniform(0.2, 2.0)
        samples = np.zeros((space.order + 1, space.m))
        samples[0] = scale * (coeff[0] + coeff[1] * q + coeff[2] * q ** 2 + coeff[3] * q ** 3)
        out.append(WeightedFunction(space, samples))
    return out


def _stream(seed: int) -> random.Random:
    """The certifier's seeded stream of uniform draws. A negative seed is
    refused: ``random.Random`` seeds with |seed|, so -s would repeat s."""
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"sampling seed must be nonnegative, got {seed}")
    return random.Random(seed)


def _nonneg_elements(space: Space, rng: random.Random, n: int) -> list:
    out = []
    for _ in range(n):
        samples = np.zeros((space.order + 1, space.m))
        samples[0] = [rng.uniform(0.0, 1.0) for _ in range(space.m)]
        out.append(WeightedFunction(space, samples))
    return out


@dataclass(frozen=True)
class PropertyChecks:
    """Result of the sampled property oracle ``check_functional_properties``."""

    pairs: int
    p1_worst: float            # max of f(u)+f(v)-f(u+v) over nonneg pairs
    p2_worst: float            # max |f(lam*u) - lam*f(u)| over samples
    p3_counterexamples: int    # nontrivial u with f(u)>=0 and f(-u)>=0
    tolerance: float
    passed: bool


def check_functional_properties(spec: FunctionalSpec, space: Space,
                                n_pairs: int = 50, seed: int = 0,
                                tolerance: float = PROP_TOL) -> PropertyChecks:
    """Sampled superadditivity, positive homogeneity, and the two-sided
    nonnegativity falsification search, on random nonnegative elements: the
    oracle that tests ``eval_functional`` against ``KIND_LEMMAS``, which the
    certifier reads in place of these samples. u, v, u+v, lam*u and -u are
    one ``eval_functional`` batch."""
    rng = _stream(seed)
    us = _nonneg_elements(space, rng, n_pairs)
    vs = _nonneg_elements(space, rng, n_pairs)
    lams = np.array([rng.uniform(0.0, 3.0) for _ in range(n_pairs)])
    fu, fv, fuv, flam, fneg = np.split(eval_functional(
        spec, us + vs + [u + v for u, v in zip(us, vs)]
        + [lam * u for lam, u in zip(lams.tolist(), us)] + [-u for u in us]), 5)
    p1_worst = float(np.max(fu + fv - fuv, initial=-math.inf))
    p2_worst = float(np.max(np.abs(flam - lams * fu) / np.maximum(1.0, np.abs(fu)),
                            initial=0.0))
    nonzero = np.array([norm(u) > 0.0 for u in us], dtype=bool)
    p3_bad = int(np.sum((fu >= 0.0) & nonzero & (fneg >= 0.0)))
    passed = (p1_worst <= tolerance) and (p2_worst <= tolerance) and (p3_bad == 0)
    return PropertyChecks(n_pairs, p1_worst, p2_worst, p3_bad, tolerance, passed)


# ---------------------------------------------------------------------------
# bridges

def _detect_bridge_b(cone: FunctionalSpec, lower: FunctionalSpec,
                     grid: Grid) -> dict | None:
    """Closed-form radius bridge when the cone's integral weight is a
    constant multiple c of the lower functional's integral weight: every
    cone element then has upper radius at most (lower radius)/c."""
    if cone.kind != "difference" or lower.kind != "weighted-integral":
        return None
    w_cone, w_low = cone.integral_weight, lower.integral_weight
    ts = grid.t[grid.finite_mask()]
    with np.errstate(invalid="ignore"):   # inf / inf where both overflow, skipped
        ratios = w_cone(ts) / w_low(ts)
    c = float(ratios[0])
    if not math.isfinite(c) or c <= 0:
        return None
    if (np.abs(ratios - c) > 1e-12 * max(1.0, abs(c))).any():
        return None
    return {"form": "closed", "coefficient": c,
            "detail": "cone integral weight = coefficient * lower integral weight; "
                      "upper radius <= lower radius / coefficient on the cone"}


def bridge_b(report: CertificateReport, rho: float) -> float:
    """Upper-functional radius bound b(rho) for cone elements with lower
    functional at most rho."""
    info = report.bridges.get("b")
    if not info:
        raise DomainError("no radius bridge b available in this report")
    return rho / info["coefficient"]


def _weight_ratio(up: Weight, low: Weight) -> Callable:
    """The integrand (t, x, row) -> up(t)/low(t) of bridge c. Two builder
    exponentials c e^(rate t) are one exponential, which reads no inf/inf
    where both overflow; any other pair is the quotient."""
    (up_label, *up_p), (low_label, *low_p) = weight_key(up), weight_key(low)
    if up_label == low_label == "exponential":
        (c_up, rate_up), (c_low, rate_low) = up_p, low_p
        return lambda t, x, row: (c_up / c_low) * exp((rate_up - rate_low) * t)
    return lambda t, x, row: up(t) / low(t)


def _detect_bridge_c(upper: FunctionalSpec, lower: FunctionalSpec, space: Space,
                     quad: QuadratureConfig) -> tuple:
    """Closed-form radius bridge c = integral of w_up/w_low over the
    interval, where w_up is the upper functional's sup weight and w_low the
    lower functional's integral weight: by Hoelder, every u has lower
    radius integral of u/w_low <= (upper radius) * c. Returns the bridge
    (None when there is none) and the reason there is none ("" otherwise)."""
    if upper.kind != "weighted-sup" or lower.kind != "weighted-integral":
        return None, (f"no bridge c: the upper functional is {upper.kind} and the lower "
                      f"{lower.kind}, not weighted-sup and weighted-integral")
    if same_weight(upper.sup_weight, lower.integral_weight):
        # decided here: the quadrature reads w/w as inf/inf = nan where w overflows
        return None, ("no bridge c: the upper sup weight is the lower integral weight, "
                      "and their ratio 1 has no finite integral over an unbounded interval")
    try:
        c = float(_integral_parts(_weight_ratio(upper.sup_weight, lower.integral_weight),
                                  space.map, quad, np.empty((1, 0)))[0])
    except DomainError as e:
        return None, f"no bridge c: {e}"
    return {"form": "closed", "coefficient": c,
            "detail": "coefficient = integral of upper sup weight / lower integral weight; "
                      "lower radius <= coefficient * upper radius (Hoelder)"}, ""


def bridge_c(report: CertificateReport, rho: float) -> float:
    """Lower-functional radius bound c(rho) for elements with upper
    functional at most rho: gamma(u) <= c * beta(u) (``_detect_bridge_c``)."""
    info = report.bridges.get("c")
    if not info:
        raise DomainError("no radius bridge c available in this report")
    return rho * info["coefficient"]


# ---------------------------------------------------------------------------
# the certifier

def _ineq_tol(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The slack a sampled inequality admits between the arrays lhs and rhs:
    SAMPLE_INEQ_TOL relative to the larger of |lhs|, |rhs| and 1."""
    return SAMPLE_INEQ_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


# the pieces of each sampled check in the order its refusals are raised:
# (side, functional), "lhs" the functional of the images, "rhs" its
# right-hand side on the elements (see ``_Certification._rounds``)
_SAMPLED = {"C6": (("lhs", "cone"), ("rhs", "cone")),
            "C7": (("rhs", "upper"), ("rhs", "lower"), ("lhs", "upper"), ("lhs", "lower"))}


def _violations(check: str, v: dict) -> tuple:
    """The mask of the samples of a round that violate ``check``'s operator
    inequalities, and its witness columns (name -> values), from the
    round's values ``v`` by (side, functional): C6 asks cone(Tu) >= its
    right-hand side, C7 upper(Tu) <= and lower(Tu) >= theirs."""
    if check == "C6":
        lhs, rhs = v["lhs", "cone"], v["rhs", "cone"]
        slack = lhs - rhs
        return slack < -_ineq_tol(lhs, rhs), {"lhs": lhs, "rhs": rhs, "slack": slack}
    b_lhs, b_rhs, g_lhs, g_rhs = (v[side, name] for name in ("upper", "lower")
                                  for side in ("lhs", "rhs"))
    bad = (b_lhs > b_rhs + _ineq_tol(b_lhs, b_rhs)) | (g_lhs < g_rhs - _ineq_tol(g_lhs, g_rhs))
    return bad, {"upper_lhs": b_lhs, "upper_rhs": b_rhs, "lower_lhs": g_lhs, "lower_rhs": g_rhs}


def _alone_on_refusal(run, points: np.ndarray, refusal) -> list:
    """run(points), a value per point of the 1-d array, as one batch; when
    the batch raises ``refusal``, run on each point alone, so that each
    refusal is attributed to its point. A (point, value or refusal) pair
    per point, in order."""
    try:
        return list(zip(points.tolist(), run(points)))
    except refusal:
        pass
    out = []
    for p in points.tolist():
        try:
            out.append((p, run(np.array([p]))[0]))
        except refusal as e:
            out.append((p, e))
    return out


class _Certification:
    """The context the checks of one certification share (the problem, its
    functionals ``specs`` by name, the parts memo, what ``share`` adds, and
    the sample rounds that C6 and C7 read, ``sampled``), with one check per
    hypothesis: ``c1`` ... ``c9``, each returning its entry.

    The memo serves this certification alone, so one problem, one
    quadrature and one space: a part is keyed by plain values, its part,
    its weight's ``weight_key`` and what it is taken of, ("raw", s) for a
    kernel slice, ("element", samples bytes) for an element and
    ("fubini", samples bytes) for a Fubini right-hand side."""

    def __init__(self, problem: HammersteinProblem, specs: dict, quad: QuadratureConfig):
        self.problem, self.specs, self.quad = problem, specs, quad
        self.sp = problem.space
        self.memo: dict = {}

    def share(self, elements: list) -> None:
        """The kernel profiles (the cone's, and the upper and lower ones that
        C7 and the index checks use) as one integral, the sampled
        ``elements`` with the image of the first, and the functionals of the
        forcing and of that image as one batch, which leaves the image's
        parts in the memo for the first sample round (see ``sampled``). The
        other images are computed only when the second round runs. When
        the batch refuses, the forcing's functionals run one at a time, so
        the refusal raised is that of a loop over them, and the image's are
        left to the first round."""
        sp, quad, memo, p = self.sp, self.quad, self.memo, self.problem.forcing
        specs = list(self.specs.values())
        self.profiles = dict(zip(self.specs, _profiles(specs, self.problem.kernel, quad, sp,
                                                       memo)))
        requests = [(spec, [p]) for spec in specs]
        self.elements = elements
        try:
            # the images refine the problem's operator, whose panels the
            # later images and solves keep
            self.images = [apply_T(self.problem, elements[0], quad)]
        except (DomainError, QuadratureError):
            for r in requests:   # a refused forcing functional is raised first
                _element_functionals([r], quad, memo)
            raise
        try:
            forcing = _element_functionals(
                requests + [(spec, self.images) for spec in specs], quad, memo)
        except (DomainError, QuadratureError):
            forcing = [_element_functionals([r], quad, memo)[0] for r in requests]
        self.forcing = {name: float(v[0]) for name, v in zip(self.specs, forcing)}

    def c1(self) -> ConditionEntry:
        """Slice integrability, membership, translation modulus. The three
        slice integrals are one batch, and so are the three slice limits
        (see ``_alone_on_refusal``)."""
        sp, kern, cmap = self.sp, self.problem.kernel, self.sp.map
        a, b = cmap.interval()
        ts = sp.grid.t[sp.grid.finite_mask()]

        def integrals(t: np.ndarray) -> list:
            hi = t if kern.support == VOLTERRA else np.full(t.shape, b)
            edges = cmap.to_compact(np.stack((np.full(t.shape, a), hi), axis=1))
            return integrate_compact(lambda s, x, row: np.abs(kern.fn(t[row], s) * kern.eta(s)),
                                     cmap, self.quad, edges, node=t).tolist()

        def limits(s: np.ndarray) -> list:
            lim = kernel_limits(kern, sp.weight, s, grid=sp.grid)
            return [{"z_lo": lo, "z_hi": hi, "sup": sup} for lo, hi, sup in
                    zip(lim.z_lo.tolist(), lim.z_hi.tolist(), lim.sup.tolist())]

        sub_detail = []
        probe_integrals, slice_limits = {}, {}
        for t, v in _alone_on_refusal(integrals, ts[np.linspace(1, ts.size - 1, 3).astype(int)],
                                      QuadratureError):
            if isinstance(v, QuadratureError):
                sub_detail.append(f"slice integral failed at t={t:.6g}: {v}")
            else:
                probe_integrals[f"t={t:.6g}"] = v
        for s, v in _alone_on_refusal(limits, cmap.from_compact(np.array([-0.5, 0.0, 0.7])),
                                      DomainError):
            if isinstance(v, DomainError):
                sub_detail.append(f"slice at s={s:.6g} not in the space: {v}")
            else:
                slice_limits[f"s={s:.6g}"] = v
        mod = None
        if kern.modulus_weight is not None:
            mod = kernel_modulus_check(kern, sp.weight, kern.modulus_weight, sp.grid)
            if not mod.passed:
                sub_detail.append("translation modulus failed")
        modulus_status = NOT_CHECKED if mod is None else PASS if mod.passed else FAIL
        return ConditionEntry(
            "C1", "kernel slices integrable, in the space, and translation-equicontinuous",
            FAIL if sub_detail else modulus_status, tolerance=None,
            witness={"slice_integrals": probe_integrals, "slice_limits": slice_limits,
                     "modulus": modulus_status,
                     "modulus_worst": None if mod is None else mod.worst},
            detail="; ".join(sub_detail) if sub_detail else
            ("no modulus comparison function supplied" if mod is None else ""))

    def c2(self) -> ConditionEntry:
        """Nonnegative nonlinearity dominated on weighted balls."""
        grid, w, nl = self.sp.grid, self.sp.weight, self.problem.nonlinearity
        ts, ys = grid.t[grid.finite_mask()], np.linspace(-2.0, 2.0, 9)
        vals = nl.fn(ts[:, None], ys * w(ts)[:, None])
        bad = np.isnan(vals) | (vals < -POS_TOL)
        c2_witness = None
        if bad.any():   # the first failing point in (t, y) order
            i, j = divmod(int(np.argmax(bad)), ys.size)
            c2_witness = {"t": float(ts[i]), "y": float(ys[j]), "value": float(vals[i, j])}
        c2_ok = c2_witness is None
        try:
            rep = dominator_check(nl, w, RADIUS, grid)
            dom = "pass" if rep.passed else rep.worst
            if not rep.passed:
                c2_ok = False
                c2_witness = c2_witness or rep.worst
        except DomainError as e:
            c2_ok, dom = False, str(e)
        return ConditionEntry(
            "C2", "nonlinearity nonnegative and dominated on weighted balls",
            PASS if c2_ok else FAIL, tolerance=POS_TOL,
            witness={"negativity": c2_witness, "dominator": {f"r={RADIUS:g}": dom}})

    def c3(self) -> ConditionEntry:
        """Weighted image bound with integrable tails."""
        prof = c3_bound_profile(self.problem, RADIUS, self.quad)
        return ConditionEntry(
            "C3", "weighted kernel image bound finite with integrable tails",
            PASS if prof.ok else FAIL,
            witness={f"r={prof.r:g}": {"sup": prof.sup, "scalars": prof.scalars,
                                       "failure": prof.failure}})

    def c4(self) -> ConditionEntry:
        """Forcing membership (finiteness is constructional; record the data)."""
        p = self.problem.forcing
        return ConditionEntry(
            "C4", "forcing term lies in the weighted space", PASS,
            witness={"norm": norm(p), "endpoints": [float(p.samples[0, 0]),
                                                    float(p.samples[0, -1])]})

    def c5(self) -> ConditionEntry:
        """Cone functional nonnegative on slices and forcing."""
        cone_prof, alpha_p = self.profiles["cone"], self.forcing["cone"]
        c5_ok = cone_prof.positive and alpha_p >= -POS_TOL
        return ConditionEntry(
            "C5", "kernel slices and forcing lie in the cone",
            PASS if c5_ok else FAIL, tolerance=POS_TOL,
            witness={"profile_min": cone_prof.min_value,
                     "profile_witness_s": cone_prof.witness_s,
                     "cone_of_forcing": alpha_p},
            detail="" if c5_ok else "cone functional negative on a slice or the forcing")

    def _fubini_part(self, part: str, w, samples: np.ndarray) -> np.ndarray:
        # Fubini route: the slice part ("integral" or "sup") in the weight of
        # each row (w: one weight for every row, or a sequence with one per
        # row) times f(s, u(s)) for the element of every row of samples,
        # under one adaptive outer integral with a row per element, each
        # refined as if it ran alone, a batch of slices each round, all at
        # the certification's accuracy. The slice parts share the memo with
        # the kernel profiles
        sp, kern, nl = self.sp, self.problem.kernel, self.problem.nonlinearity
        interp = sp.grid.interpolant(samples)
        unique, which = _distinct_weights([w] * len(samples) if isinstance(w, Weight) else w)

        def g(s, x, row):
            integral, sup, keys = _kernel_slices(kern, s, sp, self.quad)
            groups = [np.flatnonzero(which[row] == j) for j in range(len(unique))]
            inner = np.empty(s.size)
            for here, v in zip(groups, _parts(self.memo, keys, part,
                                              integral if part == "integral" else sup,
                                              list(zip(unique, groups)))):
                inner[here] = v
            return inner * nl.fn(s, interp(x, row) * sp.weight(s))

        return integrate_compact(g, sp.map, self.quad,
                                 np.broadcast_to([-1.0, 1.0], (len(samples), 2)))

    def _rhs(self, names: list, elements: list) -> list:
        """The right-hand side of every functional of ``names`` on the
        elements, an array each: one ``_combine`` over the Fubini parts, so
        the integral parts of all of them are one outer integral and their
        sup parts another, memoized per weight and element."""
        samples = np.array([e.samples[0] for e in elements])
        keys = [("fubini", row.tobytes()) for row in samples]
        rows = np.arange(len(elements))
        values = _combine([(self.specs[name], rows) for name in names],
                          lambda w2, r: self._fubini_part("integral", w2, samples[r]),
                          lambda w3, r: self._fubini_part("sup", w3, samples[r]),
                          self.memo, keys)
        return [v + self.forcing[name] for name, v in zip(names, values)]

    def rhs(self, name: str, u: WeightedFunction | Sequence[WeightedFunction]
            ) -> float | np.ndarray:
        """Integral over s of spec(slice at s)*f(s, u(s)), plus spec of the
        forcing, for the functional ``name``: a float for one element, the
        array of the values for a sequence of them, each the value it has
        alone, and the value it has in a sample round. Both parts go by the
        Fubini route (see ``_fubini_part``) and through the memo, per weight
        and element."""
        one = isinstance(u, WeightedFunction)
        values = self._rhs([name], [u] if one else list(u))[0]
        return float(values[0]) if one else values

    def _round(self, pieces: list, rows: slice) -> dict:
        """The value of every (side, name) piece on the samples ``rows``, an
        array each: side "lhs" is the functional ``name`` of the images, as
        one element batch, and "rhs" its right-hand side on the elements, as
        one Fubini batch (see ``_rhs``), each value that of its own call."""
        lhs = [name for side, name in pieces if side == "lhs"]
        rhs = [name for side, name in pieces if side == "rhs"]
        values = _element_functionals([(self.specs[name], self.images[rows]) for name in lhs],
                                      self.quad, self.memo)
        values += self._rhs(rhs, self.elements[rows])
        return dict(zip([("lhs", n) for n in lhs] + [("rhs", n) for n in rhs], values))

    def _rounds(self, checks: tuple, alone: bool = False) -> dict:
        """The witness of every check of ``checks`` that a sample violates:
        the first violating sample in sample order. The checks share their
        rounds: the first sample, then every other one for the checks it
        left undecided, with their images computed only then. A round
        evaluates the pieces of its checks (``_SAMPLED``) as one
        ``_round``, or one at a time when ``alone``. When a round refuses,
        the checks rerun one at a time, each its pieces one at a time, so
        the refusal raised is the first of separate calls in check order; a
        refused image is raised as it is."""
        witnesses: dict = {}
        for rows in (slice(0, 1), slice(1, None)):
            undecided = [c for c in checks if c not in witnesses]
            if not undecided or not self.elements[rows]:
                break
            self.images += [apply_T(self.problem, u, self.quad)
                            for u in self.elements[len(self.images):rows.stop]]
            pieces = [p for c in undecided for p in _SAMPLED[c]]
            try:
                values = {k: v for batch in ([[p] for p in pieces] if alone else [pieces])
                          for k, v in self._round(batch, rows).items()}
            except (DomainError, QuadratureError):
                if alone:
                    raise
                return {c: w for check in checks
                        for c, w in self._rounds((check,), alone=True).items()}
            for check in undecided:
                bad, columns = _violations(check, values)
                if bad.any():
                    i = int(np.argmax(bad))
                    witnesses[check] = {k: float(v[i]) for k, v in columns.items()}
        return witnesses

    @functools.cached_property
    def sampled(self) -> dict:
        """The witness of C6 and of C7's operator inequalities, for each
        check that a sample violates: shared rounds (see ``_rounds``), the
        first sample's image and functionals from ``share``, so a problem
        that fails both on its first sample computes no other image."""
        return self._rounds(tuple(_SAMPLED))

    def c6(self) -> ConditionEntry:
        """Cone functional of images dominates the slice estimate."""
        c6_witness = self.sampled.get("C6")
        return ConditionEntry(
            "C6", "cone functional of operator images dominates the slice estimate",
            PASS if c6_witness is None else FAIL,
            tolerance=SAMPLE_INEQ_TOL, witness=c6_witness or {"samples": len(self.elements)},
            detail="integral and sup parts by nested quadrature (slice parts under "
                   "an adaptive outer integral)")

    def c7(self) -> ConditionEntry:
        """Functional structure plus positive integrable kernel profiles."""
        upper_prof, lower_prof = self.profiles["upper"], self.profiles["lower"]
        c7_detail = [f"{name} kernel profile not positive" for name, prof in
                     (("upper", upper_prof), ("lower", lower_prof)) if not prof.positive]
        for name, prop in (("upper", "homogeneous"), ("lower", "additive")):
            holds, reason = KIND_LEMMAS[prop][self.specs[name].kind]
            if not holds:
                c7_detail.append(f"{name} functional not {prop}: {reason}")
        op_worst = self.sampled.get("C7")
        if op_worst is not None:
            c7_detail.append("operator inequality violated on a sample")
        c7_ok = not c7_detail and math.isfinite(upper_prof.integral) \
            and math.isfinite(lower_prof.integral)
        return ConditionEntry(
            "C7", "index functionals structured, kernel profiles positive and integrable",
            PASS if c7_ok else FAIL, tolerance=SAMPLE_INEQ_TOL,
            witness={"upper_profile_min": upper_prof.min_value,
                     "lower_profile_min": lower_prof.min_value,
                     "operator_witness": op_worst},
            detail="; ".join(c7_detail))

    def c8(self) -> ConditionEntry:
        """Reference cone element with positive lower functional (the forcing)."""
        alpha_p, gamma_p = self.forcing["cone"], self.forcing["lower"]
        c8_ok = alpha_p >= -POS_TOL and gamma_p > 0.0
        return ConditionEntry(
            "C8", "reference cone element with positive lower functional",
            PASS if c8_ok else FAIL, tolerance=POS_TOL,
            witness={"cone_of_forcing": alpha_p, "lower_of_forcing": gamma_p},
            detail="reference element: the forcing term")

    def c9(self) -> ConditionEntry:
        """Radius bridges decided from the weights; those found are kept as
        ``bridges``."""
        cone, upper, lower = self.specs.values()
        b_info = _detect_bridge_b(cone, lower, self.sp.grid)
        c_info, c_reason = _detect_bridge_c(upper, lower, self.sp, self.quad)
        self.bridges = {k: v for k, v in (("b", b_info), ("c", c_info)) if v is not None}
        return ConditionEntry(
            "C9", "radius bridge between the two index functionals",
            PASS if self.bridges else NOT_CHECKED,
            witness={"bridges": {k: v["form"] for k, v in self.bridges.items()}},
            detail=c_reason)

    def properties(self) -> dict:
        """P1-P3 of the cone functional, lemmas of its kind (``KIND_LEMMAS``)."""
        kind = self.specs["cone"].kind

        def entry(key: str, title: str, prop: str) -> ConditionEntry:
            holds, reason = KIND_LEMMAS[prop][kind]
            return ConditionEntry(key, title, PASS if holds else FAIL,
                                  detail=f"{kind} functional: {reason}")

        return {"P1": entry("P1", "superadditivity on nonnegative pairs", "superadditive"),
                "P2": entry("P2", "positive homogeneity", "homogeneous"),
                "P3": entry("P3", "two-sided nonnegativity only at zero", "definite")}


def verify_cone_hypotheses(problem: HammersteinProblem, cone: FunctionalSpec,
                           upper: FunctionalSpec, lower: FunctionalSpec,
                           samples: int = 8, *,
                           quad: QuadratureConfig | None = None,
                           seed: int = 0) -> CertificateReport:
    """Certify the operator/cone hypotheses numerically, one check per
    hypothesis.

    Regularity (kernel integrability and translation modulus, dominated
    nonnegative nonlinearity, weighted image bound, forcing membership) is
    probed on lattices; cone nonnegativity of slices at the profile
    integral's points, and of the forcing; the operator inequalities on
    ``samples`` random nonnegative elements (a cross-check: with f >= 0 the
    inequalities hold for every element, so the elements need not lie in
    the cone, see ``_draw_elements``); the functionals' structure (P1-P3,
    C7's homogeneity and additivity) from their kinds (``KIND_LEMMAS``); the
    reference element by direct computation; the radius bridges b and c from
    the weights, with no samples (C9). Failures carry witnesses; nothing is
    raised for a failed hypothesis. Fewer than one sample is refused.

    Each integral and sup part of a functional, on a kernel slice or an
    element, and each Fubini part of a C6/C7 right-hand side is computed
    once per call and read back wherever it repeats; the values are those
    of separate calls. C6 and C7 share their sample rounds: the first
    sample, whose functionals join the forcing's batch, then the others for
    a check the first left undecided, each round one element batch and one
    Fubini batch; an image is computed only when its round runs.
    """
    if samples < 1:
        raise DomainError(f"the sampled inequalities need at least 1 sample, got {samples}")
    quad = quad or DEFAULT_QUAD
    sp = problem.space
    elements = _draw_elements(sp, samples, _stream(seed))
    ctx = _Certification(problem, {"cone": cone, "upper": upper, "lower": lower}, quad)
    entries = [ctx.c1(), ctx.c2(), ctx.c3(), ctx.c4()]   # these touch no memo
    ctx.share(elements)
    entries += [ctx.c5(), ctx.c6(), ctx.c7(), ctx.c8(), ctx.c9()]
    scalars = {f"{name}_of_forcing": v for name, v in ctx.forcing.items()}
    scalars.update({f"{name}_profile_integral": ctx.profiles[name].integral
                    for name in ("upper", "lower", "cone")})
    meta = {
        "problem": problem.name,
        "params": {k: v for k, v in problem.params.items()},
        "grid_size": sp.m,
        "interval": {"kind": sp.map.kind, "start": sp.map.a, "scale": sp.map.L},
        "space_weight": {"label": sp.weight.label, "params": sp.weight.params},
        "functionals": {
            "cone": cone.kind, "upper": upper.kind, "lower": lower.kind},
        "samples": samples,
        "seed": seed,
        "quad_tol": quad.tol,
    }
    context = ReportContext(problem, ctx.profiles["upper"], ctx.profiles["lower"])
    return CertificateReport(entries={e.key: e for e in entries},
                             properties=ctx.properties(),
                             scalars=scalars, bridges=ctx.bridges, meta=meta,
                             context=context)


# ---------------------------------------------------------------------------
# index conditions

# the upper default asserts f^rho <= 1
DEFAULT_UPPER_ENVELOPE = lambda t, rho: filled(rho, t)        # noqa: E731
DEFAULT_LOWER_ENVELOPE = lambda t, rho: filled(0.0, t, rho)   # noqa: E731
FLIP_TOL = 1e-3          # bracket width of locate_index_one_flip
# bisection steps per radius batch of locate_index_one_flip: 2^4 + 1 radii,
# fewer than the window scan's, so the flip search sets no memory peak
_FLIP_LEVELS = 4


@dataclass(frozen=True)
class IndexCheck:
    """One index condition evaluated at one radius."""

    kind: str                 # 'index-one' | 'index-zero'
    rho: float
    holds: bool
    lhs: float
    margin: float
    envelope_bound: float     # sup F(.,rho)/rho or inf G(.,rho)/rho
    positivity_ok: bool       # profile integral + forcing/rho stays positive
    envelope_source: str


def _envelope_extreme(env, rho: np.ndarray, space: Space, mode: str) -> np.ndarray:
    """sup (mode "sup") or inf of env(., rho)/rho over the interval for every
    radius of the 1-d array rho: one lockstep search for all of them, and
    one reading of the ends."""
    grid, cmap = space.grid, space.map
    env = elementwise(env, 2)
    sign, col = (1.0 if mode == "sup" else -1.0), rho[:, None]

    def ratio(t, r):   # negated for an inf, which classify_tail mirrors exactly
        return sign * (env(t, r) / r)

    verdicts = read_ends(lambda t: ratio(t, col), cmap, (rho.size,))
    if any((kind == "unknown").any() for kind, _ in verdicts.values()):
        raise DomainError("envelope endpoint behavior undecided")
    ends = {x: value for x, (_, value) in verdicts.items()}
    return sign * sup_on_grid(lambda x, r: ratio(cmap.from_compact(x), rho[r]), grid, ends,
                              np.empty((rho.size, 0)))


def _index_checks(report: CertificateReport, kind: str, rho, envelope=None) -> list:
    """The condition ``kind`` (see ``check_index_one``, ``check_index_zero``)
    at every radius of the sequence rho, from one envelope search."""
    rho = np.array(rho, dtype=float)
    if (rho <= 0).any():
        raise DomainError("radius must be positive")
    ctx = report.require_context()
    which = "upper" if kind == "index-one" else "lower"
    own = getattr(ctx.problem.nonlinearity, f"{which}_envelope")
    default = DEFAULT_UPPER_ENVELOPE if which == "upper" else DEFAULT_LOWER_ENVELOPE
    env, source = ((envelope, "explicit") if envelope is not None else
                   (own, "problem") if own is not None else (default, "default"))
    bound = _envelope_extreme(env, rho, ctx.problem.space,
                              "sup" if which == "upper" else "inf")
    integral = report.scalars[f"{which}_profile_integral"]
    forcing = report.scalars[f"{which}_of_forcing"]
    lhs = bound * integral + forcing / rho
    margin = 1.0 - lhs if which == "upper" else lhs - 1.0
    positivity = (integral + forcing / rho) > 0.0
    return [IndexCheck(kind, *row, source) for row in zip(
        rho.tolist(), (margin > 0.0).tolist(), lhs.tolist(), margin.tolist(),
        bound.tolist(), positivity.tolist())]


def check_index_one(report: CertificateReport, rho: float,
                    envelope=None) -> IndexCheck:
    """Certify the small-radius condition at upper-functional radius rho:
    (sup envelope ratio) * (upper kernel profile integral) +
    (upper of forcing)/rho strictly below 1."""
    return _index_checks(report, "index-one", [rho], envelope)[0]


def check_index_zero(report: CertificateReport, rho: float,
                     envelope=None) -> IndexCheck:
    """Certify the expansion condition at lower-functional radius rho:
    (inf envelope ratio) * (lower kernel profile integral) +
    (lower of forcing)/rho strictly above 1."""
    return _index_checks(report, "index-zero", [rho], envelope)[0]


def locate_index_one_flip(report: CertificateReport, lo: float, hi: float) -> tuple:
    """Bisect [lo, hi] down to a bracket of width ``FLIP_TOL`` for the radius
    where the index-one condition starts to hold, with the problem's own
    upper envelope (or the default one, see ``check_index_one``); requires a
    fail at lo and a hold at hi.

    The radii the bisection can reach in ``_FLIP_LEVELS`` steps, built by
    its own midpoint recursion, are one ``_index_checks`` call, hi and lo
    added to the first; the walk down that tree then takes the steps of a
    sequential bisection, and a bracket still wider than ``FLIP_TOL`` after
    them starts the next tree. A refusal at any radius of a tree is raised,
    also where the walk would not reach it; every such radius lies in
    [lo, hi].
    """
    def tree(lo: float, hi: float, levels: int) -> list:
        if levels == 0 or not hi - lo > FLIP_TOL:
            return []
        mid = 0.5 * (lo + hi)
        return [mid] + tree(lo, mid, levels - 1) + tree(mid, hi, levels - 1)

    ends = [hi, lo]
    while ends or hi - lo > FLIP_TOL:
        radii = ends + tree(lo, hi, _FLIP_LEVELS)
        holds = dict(zip(radii, [c.holds for c in _index_checks(report, "index-one", radii)]))
        if ends and not holds[hi]:
            raise DomainError(f"index-one condition does not hold at rho={hi}")
        if ends and holds[lo]:
            raise DomainError(f"index-one condition already holds at rho={lo}")
        ends = []
        for _ in range(_FLIP_LEVELS):
            if not hi - lo > FLIP_TOL:
                break
            mid = 0.5 * (lo + hi)
            if holds[mid]:
                hi = mid
            else:
                lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# windows

class CertificateNotPassing(DomainError):
    pass


@dataclass(frozen=True)
class IndexWindow:
    """A certified radius pattern implying solutions in the cone (the
    patterns S1-S4 are listed in ``_PATTERNS``)."""

    pattern: str
    radii: tuple
    margins: dict
    bridge_form: str
    expected_solutions: int

    @property
    def min_margin(self) -> float:
        return min(self.margins.values())


# each pattern: the condition at each radius (index-zero: expansion,
# index-one: contraction) and the bridge each radius clears from the one
# before, rho_k+1 > b(rho_k) or c(rho_k) (both closed form, see C9); its
# margin names and count of solutions (one fewer than its radii) follow
_PATTERNS = (("S1", ("index-zero", "index-one"), "b"),
             ("S2", ("index-one", "index-zero"), "c"),
             ("S3", ("index-zero", "index-one", "index-zero"), "bc"),
             ("S4", ("index-one", "index-zero", "index-one"), "cb"))
_MARGIN_NAMES = {"index-zero": "expansion", "index-one": "contraction"}


def windows_to_jsonable(windows: list) -> list:
    return [{"pattern": w.pattern, "radii": list(w.radii),
             "margins": w.margins, "bridge_form": w.bridge_form,
             "expected_solutions": w.expected_solutions} for w in windows]


def find_solution_windows(report: CertificateReport, envelopes: tuple = (None, None),
                          rho_values=None) -> list:
    """All certified radius windows over the scan grid, best margins first.

    Requires a fully certified report. A pattern runs when the report has
    each of its bridges; both are decided in closed form from the weights
    (C9), so every window's ``bridge_form`` is "closed". Each condition is
    evaluated once over the whole scan.
    """
    if not report.certified:
        failing = [k for k, e in sorted(report.entries.items()) if e.status != PASS]
        raise CertificateNotPassing(
            f"hypotheses not certified: {', '.join(failing)}")
    if rho_values is None:
        rho_values = np.geomspace(0.05, 5.0, 25)
    rho_values = sorted(float(r) for r in rho_values)
    held = {kind: [(c.rho, c.margin) for c in _index_checks(report, kind, rho_values, env)
                   if c.holds]
            for kind, env in zip(("index-one", "index-zero"), envelopes)}
    windows: list = []
    for pattern, kinds, links in _PATTERNS:
        if not all(b in report.bridges for b in links):
            continue
        names = [_MARGIN_NAMES[k] for k in kinds] + ["bridge"] * len(links)
        names = [f"{n}_{names[:i].count(n) + 1}" if names.count(n) > 1 else n
                 for i, n in enumerate(names)]   # a repeated name is numbered
        for picked in itertools.product(*(held[k] for k in kinds)):
            radii, margins = zip(*picked)
            margins += tuple((hi - (bridge_b if b == "b" else bridge_c)(report, lo)) / max(lo, hi)
                             for b, lo, hi in zip(links, radii, radii[1:]))
            if all(v > 0.0 for v in margins):
                windows.append(IndexWindow(pattern, radii, dict(zip(names, margins)), "closed",
                                           len(radii) - 1))
    windows.sort(key=lambda wdw: (-wdw.min_margin, wdw.pattern, wdw.radii))
    return windows
