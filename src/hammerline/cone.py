"""Cone functionals, certificate reports, index conditions, and windows.

Three functionals drive the analysis: a cone functional (integral part minus
sup part) whose nonnegativity set is the cone, an upper functional (weighted
sup) and a lower functional (weighted integral) that measure radii. The
certifier samples every hypothesis the fixed-point-index machinery needs,
records pass/fail with witnesses and tolerances, and the window search turns
a certified report plus envelope bounds into solution-count statements.

All certificates are one-sided: "pass" means numerically certified at the
stated tolerance, "fail" means not certified (never a disproof).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .compactline import Grid
from .elementwise import elementwise, filled
from .errors import DomainError, QuadratureError
from .quadrature import (DEFAULT_QUAD, QuadratureConfig, inf_on_grid,
                         integrate_interval, sup_on_grid)
from .weights import Weight, tail_trend, weight_key
from .weighted_space import Space, WeightedFunction, norm
from .hammerstein import (HammersteinProblem, Kernel, apply_T, c3_bound_profile,
                          dominator_check, kernel_limits, kernel_modulus_check,
                          slice_endpoint_values, slice_tilde, VOLTERRA)

POS_TOL = 1e-12          # admitted negativity slack for "nonnegative"
SAMPLE_INEQ_TOL = 1e-5   # slack for sampled inequalities computed exactly
SUP_TAB_TOL = 1e-3       # slack when a sup-part profile tabulation is involved
PROP_TOL = 1e-10         # superadditivity/homogeneity tolerance

PASS, FAIL, NOT_CHECKED = "pass", "fail", "not-checked"

FUNCTIONAL_KINDS = ("weighted-integral", "weighted-sup", "difference")


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

def _certify_integrable_tail(fn, cmap, side: float) -> None:
    kind, val = tail_trend(lambda t: fn(t) * abs(t) ** 1.5, cmap, side)
    if kind == "diverges":
        raise DomainError(
            "integral part diverges: integrand decays slower than |t|^-3/2 "
            f"toward {'+' if side > 0 else '-'}inf")


def _tail_value(fn, cmap, side: float, undecided: str) -> float:
    """Certified value of fn at an infinite end: its limit, or +-inf for a
    certified divergence; undecided behavior raises ``undecided``."""
    kind, val = tail_trend(fn, cmap, side)
    if kind == "unknown":
        raise DomainError(undecided)
    return val


def _integral_part(g, space: Space, quad: QuadratureConfig, kinks=()) -> float:
    """Integral of g over the interval, refused when a tail is not integrable."""
    cmap = space.map
    for side in cmap.infinite_ends():
        _certify_integrable_tail(lambda t: abs(g(t)), cmap, side)
    try:
        return integrate_interval(g, cmap, quad, breakpoints=kinks)
    except QuadratureError as e:
        raise DomainError(f"integral part did not converge: {e}") from e


def _memoized(memo: dict | None, key: tuple | None, part: str, compute):
    """``compute`` (a part as a function of its weight) read from ``memo``
    on a hit and stored there on a miss; returned as is without a memo or
    a key. A part that raises is not stored."""
    if memo is None or key is None:
        return compute

    def part_of(w: Weight) -> float:
        k = (part, weight_key(w)) + key
        if k not in memo:
            memo[k] = compute(w)
        return memo[k]

    return part_of


def _combine(spec: FunctionalSpec, integral, sup, memo: dict | None = None,
             key: tuple | None = None) -> float:
    """The functional from its parts: integral(integral_weight),
    sup(sup_weight), or integral minus sup for a difference. With a memo,
    ``key`` names what the parts are taken of."""
    integral = _memoized(memo, key, "integral", integral)
    sup = _memoized(memo, key, "sup", sup)
    if spec.kind == "weighted-integral":
        return integral(spec.integral_weight)
    if spec.kind == "weighted-sup":
        return sup(spec.sup_weight)
    return integral(spec.integral_weight) - sup(spec.sup_weight)


def eval_functional(spec: FunctionalSpec, u: WeightedFunction,
                    quad: QuadratureConfig | None = None, *,
                    memo: dict | None = None) -> float:
    """Value of the functional on a space element (quadrature-certified).

    At an infinite end the sup part takes the element's end sample times
    the certified limit of phi/sup_weight, and refuses when that ratio
    diverges or has no certified limit. ``memo`` (a dict) keeps each part
    by weight, quadrature, space and samples, so a repeated part is not
    recomputed.
    """
    quad = quad or DEFAULT_QUAD
    sp = u.space
    grid, cmap, phi = sp.grid, sp.map, sp.weight
    row = u.samples[0]
    interp = grid.interpolant(row)

    def integral(w2: Weight) -> float:
        return _integral_part(
            lambda t: interp(cmap.to_compact(t)) * phi(t) / w2(t), sp, quad)

    def sup(w3: Weight) -> float:
        ends = {}
        for x in cmap.infinite_ends():
            ratio = _tail_value(lambda t: phi(t) / w3(t), cmap, x,
                                "weight ratio has no certified endpoint behavior")
            if math.isinf(ratio):
                # an unbounded ratio amplifies any interpolation wiggle of
                # the sampled element without bound near the endpoint, so no
                # trustworthy sup exists even for vanishing elements
                raise DomainError(
                    "sup part ill-conditioned: the space weight outgrows the "
                    "sup weight toward the endpoint")
            ends[x] = abs(float(row[0 if x < 0 else -1])) * abs(ratio)

        def fn_x(x):
            t = cmap.from_compact(x)
            return abs(interp(x)) * phi(t) / w3(t)

        return sup_on_grid(fn_x, grid, ends)

    key = None if memo is None else ("element", quad, sp, row.tobytes())
    return _combine(spec, integral, sup, memo, key)


def _raw_key(quad: QuadratureConfig, space: Space, key, kinks) -> tuple | None:
    return None if key is None else ("raw", quad, space, key, tuple(kinks))


def _raw_integral(fn, space: Space, quad: QuadratureConfig, kinks):
    """The integral part of a raw callable, as a function of its weight."""
    return lambda w2: _integral_part(lambda t: float(fn(t)) / w2(t), space,
                                     quad, kinks)


def eval_functional_raw(spec: FunctionalSpec, fn: Callable[[float], float],
                        space: Space, quad: QuadratureConfig | None = None,
                        kinks: Sequence[float] = (), *,
                        memo: dict | None = None, key=None) -> float:
    """Functional applied to a raw callable (kernel slices and the like).

    ``fn`` takes a float or an array; a float-only one is wrapped for the
    sup search (see ``elementwise``). At an infinite end the sup part takes
    the certified limit of |fn|/sup_weight, and refuses when it diverges or
    is undecided. ``key`` (hashable) names the callable for ``memo``; a
    callable without a key is never memoized.
    """
    quad = quad or DEFAULT_QUAD
    grid, cmap = space.grid, space.map

    def sup(w3: Weight) -> float:
        fn_t = elementwise(fn, at=grid.t[grid.m // 2:grid.m // 2 + 2])

        def h(t: float) -> float:
            return abs(float(fn_t(t))) / w3(t)

        ends = {}
        for x in cmap.infinite_ends():
            lim = _tail_value(h, cmap, x, "sup part endpoint behavior undecided")
            if math.isinf(lim):
                raise DomainError("sup part unbounded for this slice")
            ends[x] = abs(lim)

        def fn_x(x):   # h inlined: one call less per evaluation
            t = cmap.from_compact(x)
            return abs(fn_t(t)) / w3(t)

        return sup_on_grid(fn_x, grid, ends)

    return _combine(spec, _raw_integral(fn, space, quad, kinks), sup, memo,
                    _raw_key(quad, space, key, kinks))


# ---------------------------------------------------------------------------
# kernel profiles

def _kernel_slice(kernel: Kernel, s: float) -> tuple:
    """The slice t -> k(t,s)eta(s) and its kinks (the diagonal of a
    Volterra kernel)."""
    eta = kernel.eta(s)

    def fn(t):
        return kernel.fn(t, s) * eta

    return fn, ((s,) if kernel.support == VOLTERRA else ())


def _slice_key(kernel: Kernel, s: float) -> tuple:
    """What the slice at s depends on, as a memo key."""
    return (kernel.fn, kernel.eta, kernel.support, s)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def _gauss_segments(g, xs) -> float:
    """Composite 8-point Gauss quadrature over consecutive segments."""
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * math.fsum(
            wgt * g(mid + half * xx) for xx, wgt in zip(_GAUSS_X, _GAUSS_W))
    return total

@dataclass(frozen=True)
class ProfileIntegral:
    """Functional of the kernel slices as a function of s, plus its integral.

    positivity means: every tabulated value >= -POS_TOL and the largest is
    strictly positive (degenerate all-zero profiles are rejected)."""

    s_values: tuple
    values: tuple
    x_values: tuple
    integral: float
    positive: bool
    min_value: float
    witness_s: float
    tolerance: float = POS_TOL

    def interpolant(self, cmap):
        xs = np.asarray(self.x_values)
        vs = np.asarray(self.values)

        def at(s: float) -> float:
            return float(np.interp(cmap.to_compact(s), xs, vs))

        return at


def _profile_s_grid(space: Space, n: int) -> list:
    cmap = space.map
    lo, _ = cmap.interval()
    far = cmap.from_compact(1.0 - 1e-4)
    if math.isfinite(lo):
        offs = np.geomspace(1e-6, far - lo, n - 1)
        return [lo] + [lo + o for o in offs]
    half = (n - 1) // 2
    offs = np.geomspace(1e-6, far, half)
    return sorted([-o for o in offs] + [0.0] + [o for o in offs])


def kernel_functional_integral(spec: FunctionalSpec, kernel: Kernel,
                               quad: QuadratureConfig | None = None, *,
                               space: Space, s_points: int = 256,
                               memo: dict | None = None) -> ProfileIntegral:
    """Tabulate s -> spec(k(.,s)eta(s)) on a log-spaced grid and integrate it.

    The integral re-evaluates the profile at the quadrature's own points, so
    its accuracy is the quadrature tolerance, not the table resolution.
    Slice parts go through ``memo`` keyed by the slice's s.
    """
    quad = quad or DEFAULT_QUAD
    cmap = space.map

    def profile(s: float) -> float:
        fn, kinks = _kernel_slice(kernel, s)
        return eval_functional_raw(spec, fn, space, quad, kinks=kinks,
                                   memo=memo, key=_slice_key(kernel, s))

    s_vals = _profile_s_grid(space, s_points)
    vals = [profile(s) for s in s_vals]
    integral = integrate_interval(profile, cmap, quad)
    min_i = min(range(len(vals)), key=lambda i: vals[i])
    positive = (vals[min_i] >= -POS_TOL) and (max(vals) > 0.0)
    return ProfileIntegral(
        s_values=tuple(s_vals), values=tuple(vals),
        x_values=tuple(cmap.to_compact(s) for s in s_vals),
        integral=integral, positive=positive,
        min_value=vals[min_i], witness_s=s_vals[min_i])


# ---------------------------------------------------------------------------
# certificate report

@dataclass(frozen=True)
class ConditionEntry:
    key: str
    title: str
    status: str
    tolerance: float | None = None
    witness: dict | None = None
    detail: str = ""


@dataclass(frozen=True)
class ReportContext:
    problem: HammersteinProblem
    cone: FunctionalSpec
    upper: FunctionalSpec
    lower: FunctionalSpec
    quad: QuadratureConfig
    cone_profile: ProfileIntegral
    upper_profile: ProfileIntegral
    lower_profile: ProfileIntegral


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Pass/fail entries for the nine hypotheses, sampled properties,
    computed scalars, bridge data, and reproducibility metadata."""

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


def _entry_jsonable(e: ConditionEntry) -> dict:
    return {"key": e.key, "title": e.title, "status": e.status,
            "tolerance": e.tolerance, "witness": e.witness, "detail": e.detail}


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
    import jsonschema

    jsonschema.validate(data, REPORT_SCHEMA)

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

def _sample_cone_elements(space: Space, cone: FunctionalSpec,
                          quad: QuadratureConfig, n: int,
                          rng: np.random.Generator,
                          require_cone: bool = True,
                          memo: dict | None = None) -> list:
    """Random smooth nonnegative elements, filtered to the cone when asked."""
    out = []
    tries = 0
    q = (1.0 + space.grid.x) / 2.0
    while len(out) < n and tries < 50 * n:
        tries += 1
        coeff = rng.uniform(0.0, 1.0, 4)
        scale = rng.uniform(0.2, 2.0)
        row = scale * (coeff[0] + coeff[1] * q + coeff[2] * q ** 2 + coeff[3] * q ** 3)
        samples = np.zeros((space.order + 1, space.m))
        samples[0] = row
        u = WeightedFunction(space, samples)
        if require_cone and eval_functional(cone, u, quad, memo=memo) < -POS_TOL:
            continue
        out.append(u)
    return out


def _nonneg_elements(space: Space, rng: np.random.Generator, n: int) -> list:
    out = []
    for _ in range(n):
        row = rng.uniform(0.0, 1.0, space.m)
        samples = np.zeros((space.order + 1, space.m))
        samples[0] = row
        out.append(WeightedFunction(space, samples))
    return out


@dataclass(frozen=True)
class PropertyChecks:
    pairs: int
    p1_worst: float            # max of f(u)+f(v)-f(u+v) over nonneg pairs
    p2_worst: float            # max |f(lam*u) - lam*f(u)| over samples
    p3_counterexamples: int    # nontrivial u with f(u)>=0 and f(-u)>=0
    tolerance: float
    passed: bool


def check_functional_properties(spec: FunctionalSpec, space: Space,
                                n_pairs: int = 50, seed: int = 0,
                                quad: QuadratureConfig | None = None,
                                tolerance: float = PROP_TOL) -> PropertyChecks:
    """Sampled superadditivity, positive homogeneity, and the two-sided
    nonnegativity falsification search for a difference functional."""
    quad = quad or DEFAULT_QUAD
    rng = np.random.default_rng(seed)
    p1_worst = -math.inf
    p2_worst = 0.0
    p3_bad = 0
    for u, v in zip(_nonneg_elements(space, rng, n_pairs),
                    _nonneg_elements(space, rng, n_pairs)):
        fu, fv = eval_functional(spec, u, quad), eval_functional(spec, v, quad)
        fuv = eval_functional(spec, u + v, quad)
        p1_worst = max(p1_worst, fu + fv - fuv)
        lam = float(rng.uniform(0.0, 3.0))
        scale = max(1.0, abs(fu))
        p2_worst = max(p2_worst, abs(eval_functional(spec, lam * u, quad) - lam * fu)
                       / scale)
        if fu >= 0.0 and norm(u) > 0.0 and eval_functional(spec, -1.0 * u, quad) >= 0.0:
            p3_bad += 1
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
    ratios = [w_cone(t) / w_low(t) for t in ts]
    c = ratios[0]
    if not math.isfinite(c) or c <= 0:
        return None
    if any(abs(r - c) > 1e-12 * max(1.0, abs(c)) for r in ratios):
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


def bridge_c(report: CertificateReport, rho: float) -> float:
    info = report.bridges.get("c")
    if not info:
        raise DomainError("no radius bridge c available in this report")
    return rho * info["coefficient"]


# ---------------------------------------------------------------------------
# the certifier

def _probe_ts(grid: Grid, k: int = 3) -> list:
    ts = [t for t in grid.t[grid.finite_mask()]]
    idx = np.linspace(1, len(ts) - 1, k).astype(int)
    return [ts[i] for i in idx]


def _probe_ss(space: Space, k: int = 3) -> list:
    cmap = space.map
    return [cmap.from_compact(x) for x in (-0.5, 0.0, 0.7)][:k]


def verify_cone_hypotheses(problem: HammersteinProblem, cone: FunctionalSpec,
                           upper: FunctionalSpec, lower: FunctionalSpec,
                           samples: int = 8, *,
                           quad: QuadratureConfig | None = None, seed: int = 0,
                           r_values: tuple = (1.0,)) -> CertificateReport:
    """Certify the operator/cone hypotheses numerically.

    Regularity (kernel integrability and translation modulus, dominated
    nonnegative nonlinearity, weighted image bound, forcing membership) is
    probed on lattices; cone nonnegativity of slices and forcing on a
    log-spaced s-grid; the operator inequalities for the three functionals
    on ``samples`` random cone elements; the reference-element and bridge
    conditions by direct computation. Failures carry witnesses; nothing is
    raised for a failed hypothesis.

    Each integral and sup part of a functional, on a kernel slice or an
    element, is computed once per call and read back wherever it repeats
    (the sampled property checks P1-P3 excepted); the values are those of
    separate calls.
    """
    quad = quad or DEFAULT_QUAD
    memo: dict = {}
    sp = problem.space
    grid, w, cmap = sp.grid, sp.weight, sp.map
    kern, nl, p = problem.kernel, problem.nonlinearity, problem.forcing
    rng = np.random.default_rng(seed)
    entries: dict = {}
    scalars: dict = {}

    # C1: slice integrability, membership, translation modulus
    sub_detail = []
    c1_ok = True
    probe_integrals = {}
    for t in _probe_ts(grid):
        hi = t if kern.support == VOLTERRA else None
        try:
            val = integrate_interval(
                lambda s: abs(float(kern.fn(t, s)) * float(kern.eta(s))),
                cmap, quad, hi=hi, node=t)
            probe_integrals[f"t={t:.6g}"] = val
        except QuadratureError as e:
            c1_ok = False
            sub_detail.append(f"slice integral failed at t={t:.6g}: {e}")
    slice_limits = {}
    for s in _probe_ss(sp):
        try:
            lim = kernel_limits(kern, w, s, grid=grid)
            slice_limits[f"s={s:.6g}"] = {"z_lo": lim.z_lo, "z_hi": lim.z_hi,
                                          "sup": lim.sup}
        except DomainError as e:
            c1_ok = False
            sub_detail.append(f"slice at s={s:.6g} not in the space: {e}")
    modulus_status = NOT_CHECKED
    modulus_witness = None
    if kern.modulus_weight is not None:
        mod = kernel_modulus_check(kern, w, kern.modulus_weight, grid)
        modulus_status = PASS if mod.passed else FAIL
        modulus_witness = mod.worst
        if not mod.passed:
            c1_ok = False
            sub_detail.append("translation modulus failed")
    status = PASS if (c1_ok and modulus_status == PASS) else (
        FAIL if not c1_ok else NOT_CHECKED)
    entries["C1"] = ConditionEntry(
        "C1", "kernel slices integrable, in the space, and translation-equicontinuous",
        status, tolerance=None,
        witness={"slice_integrals": probe_integrals, "slice_limits": slice_limits,
                 "modulus": modulus_status, "modulus_worst": modulus_witness},
        detail="; ".join(sub_detail) if sub_detail else
        ("no modulus comparison function supplied" if modulus_status == NOT_CHECKED
         else ""))

    # C2: nonnegative nonlinearity dominated on weighted balls
    c2_ok = True
    c2_witness = None
    for t in grid.t[grid.finite_mask()]:
        for y in np.linspace(-2.0, 2.0, 9):
            val = float(nl.fn(t, y * w(t)))
            if math.isnan(val) or val < -POS_TOL:
                c2_ok = False
                c2_witness = {"t": float(t), "y": float(y), "value": val}
                break
        if not c2_ok:
            break
    dom_reports = {}
    for r in r_values:
        try:
            rep = dominator_check(nl, w, r, grid)
        except DomainError as e:
            c2_ok = False
            dom_reports[f"r={r:g}"] = str(e)
            continue
        dom_reports[f"r={r:g}"] = "pass" if rep.passed else rep.worst
        if not rep.passed:
            c2_ok = False
            c2_witness = c2_witness or rep.worst
    entries["C2"] = ConditionEntry(
        "C2", "nonlinearity nonnegative and dominated on weighted balls",
        PASS if c2_ok else FAIL, tolerance=POS_TOL,
        witness={"negativity": c2_witness, "dominator": dom_reports})

    # C3: weighted image bound with integrable tails
    c3_ok = True
    c3_witness = {}
    for r in r_values:
        prof = c3_bound_profile(problem, r, quad)
        c3_witness[f"r={r:g}"] = {"sup": prof.sup, "scalars": prof.scalars,
                                  "failure": prof.failure}
        if not prof.ok:
            c3_ok = False
    entries["C3"] = ConditionEntry(
        "C3", "weighted kernel image bound finite with integrable tails",
        PASS if c3_ok else FAIL, witness=c3_witness)

    # C4: forcing membership (finiteness is constructional; record the data)
    entries["C4"] = ConditionEntry(
        "C4", "forcing term lies in the weighted space", PASS,
        witness={"norm": norm(p), "endpoints": [float(p.samples[0, 0]),
                                                float(p.samples[0, -1])]})

    # C5: cone functional nonnegative on slices and forcing
    cone_prof = kernel_functional_integral(cone, kern, quad, space=sp, memo=memo)
    alpha_p = eval_functional(cone, p, quad, memo=memo)
    c5_ok = cone_prof.positive and alpha_p >= -POS_TOL
    entries["C5"] = ConditionEntry(
        "C5", "kernel slices and forcing lie in the cone",
        PASS if c5_ok else FAIL, tolerance=POS_TOL,
        witness={"profile_min": cone_prof.min_value,
                 "profile_witness_s": cone_prof.witness_s,
                 "cone_of_forcing": alpha_p},
        detail="" if c5_ok else "cone functional negative on a slice or the forcing")

    # upper/lower kernel profiles (used by C7 and the index checks)
    upper_prof = kernel_functional_integral(upper, kern, quad, space=sp, memo=memo)
    lower_prof = kernel_functional_integral(lower, kern, quad, space=sp, memo=memo)
    beta_p = eval_functional(upper, p, quad, memo=memo)
    gamma_p = eval_functional(lower, p, quad, memo=memo)

    # sup-part profile of the cone functional, for the sampled inequalities
    cone_sup_prof = None
    if cone.kind in ("weighted-sup", "difference"):
        cone_sup_prof = kernel_functional_integral(
            FunctionalSpec("weighted-sup", sup_weight=cone.sup_weight),
            kern, quad, space=sp, memo=memo)
    scalars.update({
        "cone_of_forcing": alpha_p,
        "upper_of_forcing": beta_p,
        "lower_of_forcing": gamma_p,
        "upper_profile_integral": upper_prof.integral,
        "lower_profile_integral": lower_prof.integral,
        "cone_profile_integral": cone_prof.integral,
    })

    # sampled cone elements and their operator images
    cone_samples = _sample_cone_elements(sp, cone, quad, samples, rng, memo=memo)
    images = [apply_T(problem, u, quad) for u in cone_samples]
    raw_evals = []
    for u in cone_samples:
        interp = grid.interpolant(u.samples[0])
        raw_evals.append(lambda s, _i=interp: _i(cmap.to_compact(s)) * w(s))

    relaxed = QuadratureConfig(tol=1e-9, rel_tol=1e-10,
                               max_subdivisions=quad.max_subdivisions)

    def exact_integral_rhs(w2: Weight, u_raw) -> float:
        # Fubini route: fresh inner slice integrals under an adaptive outer
        # quadrature; exact to quadrature tolerance
        def inner(s: float) -> float:
            fn, kinks = _kernel_slice(kern, s)
            key = _raw_key(relaxed, sp, _slice_key(kern, s), kinks)
            return _memoized(memo, key, "integral",
                             _raw_integral(fn, sp, relaxed, kinks))(w2)

        def g(s: float) -> float:
            return inner(s) * float(nl.fn(s, u_raw(s)))

        return integrate_interval(g, cmap, relaxed)

    def tab_sup_rhs(prof: ProfileIntegral, u_raw) -> float:
        # composite Gauss on the tabulated sup-part profile: exact for the
        # piecewise-linear factor; accuracy limited by the table resolution
        xs = np.asarray(prof.x_values)
        vs = np.asarray(prof.values)
        segs = np.unique(np.concatenate((xs, [-1.0, 1.0])))

        def g(x: float) -> float:
            t = cmap.from_compact(x)
            if not math.isfinite(t):
                return 0.0
            val = float(np.interp(x, xs, vs)) * float(nl.fn(t, u_raw(t)))
            return val * cmap.jacobian(x)

        return _gauss_segments(g, segs)

    def spec_rhs(spec: FunctionalSpec, sup_prof, u_raw) -> tuple:
        """Inner integral of spec(slice)*f(s, u(s)); returns (value, exact)."""
        value = _combine(spec, lambda w2: exact_integral_rhs(w2, u_raw),
                         lambda _w3: tab_sup_rhs(sup_prof, u_raw))
        return value, spec.kind == "weighted-integral"

    # C6: cone functional of images dominates the slice estimate
    c6_ok = True
    c6_witness = None
    c6_checked = 0
    c6_tol = SAMPLE_INEQ_TOL if cone.kind == "weighted-integral" else SUP_TAB_TOL
    for u, Tu, u_raw in zip(cone_samples, images, raw_evals):
        lhs = eval_functional(cone, Tu, quad, memo=memo)
        val, _ = spec_rhs(cone, cone_sup_prof, u_raw)
        rhs = val + alpha_p
        c6_checked += 1
        slack = lhs - rhs
        if slack < -c6_tol * max(1.0, abs(lhs), abs(rhs)):
            c6_ok = False
            c6_witness = {"lhs": lhs, "rhs": rhs, "slack": slack}
            break
    entries["C6"] = ConditionEntry(
        "C6", "cone functional of operator images dominates the slice estimate",
        PASS if (c6_ok and c6_checked) else FAIL, tolerance=c6_tol,
        witness=c6_witness or {"samples": c6_checked},
        detail="integral part by nested quadrature; sup part from the profile "
               "tabulation (tolerance reflects its resolution)")

    # C7: functional structure plus positive integrable kernel profiles
    c7_ok = upper_prof.positive and lower_prof.positive \
        and math.isfinite(upper_prof.integral) and math.isfinite(lower_prof.integral)
    c7_detail = []
    if not upper_prof.positive:
        c7_detail.append("upper kernel profile not positive")
    if not lower_prof.positive:
        c7_detail.append("lower kernel profile not positive")
    c7_witness = {"upper_profile_min": upper_prof.min_value,
                  "lower_profile_min": lower_prof.min_value}
    hom_worst = 0.0
    add_worst = 0.0
    for u, v in zip(cone_samples, cone_samples[1:] + cone_samples[:1]):
        lam = float(rng.uniform(0.0, 3.0))
        bu = eval_functional(upper, u, quad, memo=memo)
        hom_worst = max(hom_worst,
                        abs(eval_functional(upper, lam * u, quad) - lam * bu)
                        / max(1.0, abs(bu)))
        gu = eval_functional(lower, u, quad, memo=memo)
        gv = eval_functional(lower, v, quad, memo=memo)
        guv = eval_functional(lower, u + v, quad)
        add_worst = max(add_worst, abs(guv - gu - gv) / max(1.0, abs(guv)))
    if hom_worst > 1e-8 or add_worst > 1e-8:
        c7_ok = False
        c7_detail.append("homogeneity/additivity violated on samples")
    op_worst = None
    for u, Tu, u_raw in zip(cone_samples, images, raw_evals):
        b_rhs_val, b_exact = spec_rhs(upper, upper_prof, u_raw)
        g_rhs_val, g_exact = spec_rhs(lower, lower_prof, u_raw)
        b_lhs = eval_functional(upper, Tu, quad, memo=memo)
        b_rhs = b_rhs_val + beta_p
        g_lhs = eval_functional(lower, Tu, quad, memo=memo)
        g_rhs = g_rhs_val + gamma_p
        tol_b = (SAMPLE_INEQ_TOL if b_exact else SUP_TAB_TOL) \
            * max(1.0, abs(b_lhs), abs(b_rhs))
        tol_g = (SAMPLE_INEQ_TOL if g_exact else SUP_TAB_TOL) \
            * max(1.0, abs(g_lhs), abs(g_rhs))
        if b_lhs > b_rhs + tol_b or g_lhs < g_rhs - tol_g:
            c7_ok = False
            op_worst = {"upper_lhs": b_lhs, "upper_rhs": b_rhs,
                        "lower_lhs": g_lhs, "lower_rhs": g_rhs}
            c7_detail.append("operator inequality violated on a sample")
            break
    c7_witness.update({"homogeneity_worst": hom_worst, "additivity_worst": add_worst,
                       "operator_witness": op_worst})
    entries["C7"] = ConditionEntry(
        "C7", "index functionals structured, kernel profiles positive and integrable",
        PASS if c7_ok else FAIL, tolerance=SAMPLE_INEQ_TOL,
        witness=c7_witness, detail="; ".join(c7_detail))

    # C8: reference cone element with positive lower functional (the forcing)
    c8_ok = alpha_p >= -POS_TOL and gamma_p > 0.0
    entries["C8"] = ConditionEntry(
        "C8", "reference cone element with positive lower functional",
        PASS if c8_ok else FAIL, tolerance=POS_TOL,
        witness={"cone_of_forcing": alpha_p, "lower_of_forcing": gamma_p},
        detail="reference element: the forcing term")

    # C9: radius bridge
    bridges: dict = {}
    b_info = _detect_bridge_b(cone, lower, grid)
    if b_info is not None:
        bridges["b"] = b_info
    ratios = []
    for u in cone_samples:
        bu = eval_functional(upper, u, quad, memo=memo)
        gu = eval_functional(lower, u, quad, memo=memo)
        if bu > 0.0:
            ratios.append(gu / bu)
    if ratios:
        bridges["c"] = {"form": "heuristic", "coefficient": max(ratios),
                        "detail": "largest sampled ratio lower/upper; not a "
                                  "certified bound"}
    entries["C9"] = ConditionEntry(
        "C9", "radius bridge between the two index functionals",
        PASS if "b" in bridges else NOT_CHECKED,
        witness={"bridges": {k: v["form"] for k, v in bridges.items()}},
        detail="" if "b" in bridges else
        "no closed-form bridge detected; heuristic sampling only")

    # sampled properties of the cone functional
    props = check_functional_properties(cone, sp, n_pairs=max(8, samples),
                                        seed=seed + 1, quad=quad)
    properties = {
        "P1": ConditionEntry("P1", "superadditivity on nonnegative pairs",
                             PASS if props.p1_worst <= props.tolerance else FAIL,
                             tolerance=props.tolerance,
                             witness={"worst": props.p1_worst}),
        "P2": ConditionEntry("P2", "positive homogeneity",
                             PASS if props.p2_worst <= props.tolerance else FAIL,
                             tolerance=props.tolerance,
                             witness={"worst": props.p2_worst}),
        "P3": ConditionEntry("P3", "two-sided nonnegativity only at zero",
                             PASS if props.p3_counterexamples == 0 else FAIL,
                             witness={"counterexamples": props.p3_counterexamples},
                             detail="falsification search, not a proof"),
    }

    meta = {
        "problem": problem.name,
        "params": {k: v for k, v in problem.params.items()},
        "grid_size": sp.m,
        "interval": {"kind": cmap.kind, "start": cmap.a, "scale": cmap.L},
        "space_weight": {"label": w.label, "params": w.params},
        "functionals": {
            "cone": cone.kind, "upper": upper.kind, "lower": lower.kind},
        "samples": samples,
        "seed": seed,
        "quad_tol": quad.tol,
    }
    context = ReportContext(problem, cone, upper, lower, quad,
                            cone_prof, upper_prof, lower_prof)
    return CertificateReport(entries=entries, properties=properties,
                             scalars=scalars, bridges=bridges, meta=meta,
                             context=context)


# ---------------------------------------------------------------------------
# index conditions

# the upper default asserts f^rho <= 1
DEFAULT_UPPER_ENVELOPE = lambda t, rho: filled(rho, t)        # noqa: E731
DEFAULT_LOWER_ENVELOPE = lambda t, rho: filled(0.0, t, rho)   # noqa: E731


@dataclass(frozen=True)
class IndexCheck:
    kind: str                 # 'index-one' | 'index-zero'
    rho: float
    holds: bool
    lhs: float
    margin: float
    envelope_bound: float     # sup F(.,rho)/rho or inf G(.,rho)/rho
    positivity_ok: bool       # profile integral + forcing/rho stays positive
    envelope_source: str


def _resolve_envelope(report: CertificateReport, which: str, envelope):
    if envelope is not None:
        return envelope, "explicit"
    ctx = report.require_context()
    nl = ctx.problem.nonlinearity
    own = nl.upper_envelope if which == "upper" else nl.lower_envelope
    if own is not None:
        return own, "problem"
    default = DEFAULT_UPPER_ENVELOPE if which == "upper" else DEFAULT_LOWER_ENVELOPE
    return default, "default"


def _envelope_extreme(env, rho: float, space: Space, mode: str) -> float:
    grid, cmap = space.grid, space.map
    env = elementwise(env, 2)

    def fn_x(x):
        return env(cmap.from_compact(x), rho) / rho

    ends = {x: _tail_value(lambda t: float(env(t, rho)) / rho, cmap, x,
                           "envelope endpoint behavior undecided")
            for x in cmap.infinite_ends()}
    search = sup_on_grid if mode == "sup" else inf_on_grid
    return search(fn_x, grid, ends)


def check_index_one(report: CertificateReport, rho: float,
                    envelope=None) -> IndexCheck:
    """Certify the small-radius condition at upper-functional radius rho:
    (sup envelope ratio) * (upper kernel profile integral) +
    (upper of forcing)/rho strictly below 1."""
    if rho <= 0:
        raise DomainError("radius must be positive")
    ctx = report.require_context()
    env, source = _resolve_envelope(report, "upper", envelope)
    f_hi = _envelope_extreme(env, rho, ctx.problem.space, "sup")
    integral = report.scalars["upper_profile_integral"]
    forcing = report.scalars["upper_of_forcing"]
    lhs = f_hi * integral + forcing / rho
    positivity = (integral + forcing / rho) > 0.0
    return IndexCheck("index-one", rho, holds=lhs < 1.0, lhs=lhs,
                      margin=1.0 - lhs, envelope_bound=f_hi,
                      positivity_ok=positivity, envelope_source=source)


def check_index_zero(report: CertificateReport, rho: float,
                     envelope=None) -> IndexCheck:
    """Certify the expansion condition at lower-functional radius rho:
    (inf envelope ratio) * (lower kernel profile integral) +
    (lower of forcing)/rho strictly above 1."""
    if rho <= 0:
        raise DomainError("radius must be positive")
    ctx = report.require_context()
    env, source = _resolve_envelope(report, "lower", envelope)
    f_lo = _envelope_extreme(env, rho, ctx.problem.space, "inf")
    integral = report.scalars["lower_profile_integral"]
    forcing = report.scalars["lower_of_forcing"]
    lhs = f_lo * integral + forcing / rho
    positivity = (integral + forcing / rho) > 0.0
    return IndexCheck("index-zero", rho, holds=lhs > 1.0, lhs=lhs,
                      margin=lhs - 1.0, envelope_bound=f_lo,
                      positivity_ok=positivity, envelope_source=source)


def locate_index_one_flip(report: CertificateReport, lo: float, hi: float,
                          envelope=None, tol: float = 1e-3) -> tuple:
    """Bisect [lo, hi] for the radius where the index-one condition starts
    to hold; requires a fail at lo and a hold at hi."""
    if not check_index_one(report, hi, envelope).holds:
        raise DomainError(f"index-one condition does not hold at rho={hi}")
    if check_index_one(report, lo, envelope).holds:
        raise DomainError(f"index-one condition already holds at rho={lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if check_index_one(report, mid, envelope).holds:
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
    """A certified radius pattern implying solutions in the cone.

    Patterns (radii listed in pattern order):
      S1: expansion at rho1, contraction at rho2, rho2 > b(rho1) -> 1 solution
      S2: contraction at rho1, expansion at rho2, rho2 > c(rho1) -> 1 solution
      S3: expansion, contraction, expansion with rho2 > b(rho1),
          rho3 > c(rho2) -> 2 solutions
      S4: contraction, expansion, contraction with rho2 > c(rho1),
          rho3 > b(rho2) -> 2 solutions
    """

    pattern: str
    radii: tuple
    margins: dict
    bridge_form: str
    expected_solutions: int

    @property
    def min_margin(self) -> float:
        return min(self.margins.values())


def windows_to_jsonable(windows: list) -> list:
    return [{"pattern": w.pattern, "radii": list(w.radii),
             "margins": w.margins, "bridge_form": w.bridge_form,
             "expected_solutions": w.expected_solutions} for w in windows]


def find_solution_windows(report: CertificateReport, envelopes: tuple = (None, None),
                          rho_values=None, *,
                          allow_heuristic_bridges: bool = False) -> list:
    """All certified radius windows over the scan grid, best margins first.

    Requires a fully certified report. Patterns needing the sampled bridge c
    are emitted only with ``allow_heuristic_bridges`` (flagged in the
    result); the closed-form bridge b gates the rest.
    """
    if not report.certified:
        failing = [k for k, e in sorted(report.entries.items()) if e.status != PASS]
        raise CertificateNotPassing(
            f"hypotheses not certified: {', '.join(failing)}")
    up_env, low_env = envelopes
    if rho_values is None:
        rho_values = np.geomspace(0.05, 5.0, 25)
    rho_values = sorted(float(r) for r in rho_values)
    ones = {r: check_index_one(report, r, up_env) for r in rho_values}
    zeros = {r: check_index_zero(report, r, low_env) for r in rho_values}
    has_b = "b" in report.bridges and report.bridges["b"]["form"] == "closed"
    has_c_heur = "c" in report.bridges and allow_heuristic_bridges

    windows: list = []

    def margins_ok(ms: dict) -> bool:
        return all(v > 0.0 for v in ms.values())

    ones_hold = [r for r in rho_values if ones[r].holds]
    zeros_hold = [r for r in rho_values if zeros[r].holds]

    if has_b:
        for r1 in zeros_hold:
            b1 = bridge_b(report, r1)
            for r2 in ones_hold:
                ms = {"expansion": zeros[r1].margin, "contraction": ones[r2].margin,
                      "bridge": (r2 - b1) / max(r1, r2)}
                if margins_ok(ms):
                    windows.append(IndexWindow("S1", (r1, r2), ms, "closed", 1))
    if has_c_heur:
        cf = report.bridges["c"]["coefficient"]
        for r1 in ones_hold:
            for r2 in zeros_hold:
                ms = {"contraction": ones[r1].margin, "expansion": zeros[r2].margin,
                      "bridge": (r2 - cf * r1) / max(r1, r2)}
                if margins_ok(ms):
                    windows.append(IndexWindow("S2", (r1, r2), ms, "heuristic", 1))
    if has_b and has_c_heur:
        cf = report.bridges["c"]["coefficient"]
        for r1 in zeros_hold:
            b1 = bridge_b(report, r1)
            for r2 in ones_hold:
                if r2 <= b1:
                    continue
                for r3 in zeros_hold:
                    ms = {"expansion_1": zeros[r1].margin,
                          "contraction": ones[r2].margin,
                          "expansion_2": zeros[r3].margin,
                          "bridge_1": (r2 - b1) / max(r1, r2),
                          "bridge_2": (r3 - cf * r2) / max(r2, r3)}
                    if margins_ok(ms):
                        windows.append(IndexWindow("S3", (r1, r2, r3), ms,
                                                   "mixed", 2))
        for r1 in ones_hold:
            for r2 in zeros_hold:
                if r2 <= cf * r1:
                    continue
                b2 = bridge_b(report, r2)
                for r3 in ones_hold:
                    ms = {"contraction_1": ones[r1].margin,
                          "expansion": zeros[r2].margin,
                          "contraction_2": ones[r3].margin,
                          "bridge_1": (r2 - cf * r1) / max(r1, r2),
                          "bridge_2": (r3 - b2) / max(r2, r3)}
                    if margins_ok(ms):
                        windows.append(IndexWindow("S4", (r1, r2, r3), ms,
                                                   "mixed", 2))
    windows.sort(key=lambda wdw: (-wdw.min_margin, wdw.pattern, wdw.radii))
    return windows
