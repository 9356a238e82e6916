"""Integral-operator problems on the weighted space and their regularity probes.

A problem bundles a kernel k(t,s) with a density eta, a nonnegative
nonlinearity f(t,y), and a forcing term p in the space. The operator sends u
to p(t) + integral of k(t,s) eta(s) f(s, u(s)) ds; all evaluation happens on
the rescaled samples, with endpoint rows computed from the kernel's own
endpoint slices so that the image is again a space element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .compactline import CompactMap, Grid, barycentric_matrix
from .elementwise import elementwise, exp, filled, positive_part
from .errors import DomainError, QuadratureError
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate_interval, sup_on_grid
from .weights import Weight, tail_limit
from .weighted_space import Space, WeightedFunction, from_tilde, spaces_compatible

VOLTERRA = "volterra"
FULL = "full"


def _unit_density(s):
    return np.ones(s.shape) if isinstance(s, np.ndarray) else 1.0


@dataclass(frozen=True)
class Kernel:
    """Kernel k(t,s) with density eta and optional closed-form accelerators.

    ``tilde_slice`` evaluates k(t,s)eta(s)/phi(t) for the weight it was
    built against; ``slice_endpoints`` maps s to the endpoint values of that
    rescaled slice; ``dt_slices`` holds d^j/dt^j of the rescaled slice for
    j = 1, 2, ... and gates derivative-row support; ``modulus_weight`` is
    the comparison function the translation-equicontinuity check runs
    against; ``kink_locator`` lists interior s-kinks of t -> k(t,s).

    ``fn``, ``eta``, ``tilde_slice``, ``slice_endpoints`` and ``dt_slices``
    take floats or arrays (see ``elementwise``); float-only ones are wrapped
    at construction.
    """

    fn: Callable[[float, float], float]
    eta: Callable[[float], float] = _unit_density
    support: str = FULL
    name: str = "custom"
    tilde_slice: Callable[[float, float], float] | None = None
    slice_endpoints: Callable[[float], tuple] | None = None
    dt_slices: tuple = ()
    modulus_weight: Callable[[float], float] | None = None
    kink_locator: Callable[[float], tuple] | None = None

    def __post_init__(self):
        if self.support not in (VOLTERRA, FULL):
            raise DomainError(f"unknown kernel support {self.support!r}")
        for name, nargs in (("fn", 2), ("eta", 1), ("tilde_slice", 2)):
            object.__setattr__(self, name, elementwise(getattr(self, name), nargs))
        object.__setattr__(self, "slice_endpoints",
                           elementwise(self.slice_endpoints, outputs=2))
        object.__setattr__(self, "dt_slices",
                           tuple(elementwise(d, 2) for d in self.dt_slices))


@dataclass(frozen=True)
class Nonlinearity:
    """Nonnegative integrand factor f(t,y) with optional growth data.

    ``dominator`` maps a radius r to a callable bounding f(t, y*phi(t)) over
    |y| <= r; when absent and ``monotone_in_y`` is set, the bound
    f(t, r*phi(t)) is used. ``upper_envelope`` / ``lower_envelope`` are the
    radius envelopes F(t, rho), G(t, rho) consumed by the index checks.
    ``fn`` and the envelopes take floats or arrays (see ``elementwise``);
    float-only ones are wrapped at construction.
    """

    fn: Callable[[float, float], float]
    name: str = "custom"
    dominator: Callable[[float, Weight], Callable[[float], float]] | None = None
    monotone_in_y: bool = False
    upper_envelope: Callable[[float, float], float] | None = None
    lower_envelope: Callable[[float, float], float] | None = None

    def __post_init__(self):
        for name in ("fn", "upper_envelope", "lower_envelope"):
            object.__setattr__(self, name, elementwise(getattr(self, name), 2))


@dataclass(frozen=True, eq=False)
class HammersteinProblem:
    kernel: Kernel
    nonlinearity: Nonlinearity
    forcing: WeightedFunction
    space: Space
    name: str = "custom"
    params: dict = field(default_factory=dict)
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not spaces_compatible(self.forcing.space, self.space):
            raise DomainError("forcing does not live in the problem space")

    def operator(self, quad: QuadratureConfig | None = None) -> "NystromOperator":
        """The operator discretised for ``quad``, built once and kept."""
        quad = quad or DEFAULT_QUAD
        if quad not in self._operators:
            self._operators[quad] = NystromOperator(self, quad)
        return self._operators[quad]


# ---------------------------------------------------------------------------
# slice helpers

def slice_tilde(kernel: Kernel, weight: Weight, t, s):
    """Rescaled kernel slice k(t,s)eta(s)/phi(t) at a finite t (floats or
    arrays)."""
    if kernel.tilde_slice is not None:
        v = kernel.tilde_slice(t, s)
    else:
        v = kernel.fn(t, s) * kernel.eta(s) / weight(t)
    return v if isinstance(v, np.ndarray) else float(v)


def slice_endpoint_values(kernel: Kernel, weight: Weight, s,
                          cmap: CompactMap) -> tuple:
    """Endpoint values (left, right) of the rescaled slice t -> slice(t,s),
    two floats, or two arrays for an array of s.

    The left value is a direct evaluation when the interval starts at a
    finite point, a tail extrapolation otherwise; divergence raises."""
    if kernel.slice_endpoints is not None:
        lo, hi = kernel.slice_endpoints(s)
        if isinstance(s, np.ndarray):
            return lo, hi
        return float(lo), float(hi)
    if isinstance(s, np.ndarray):
        pairs = [slice_endpoint_values(kernel, weight, v, cmap)
                 for v in s.ravel().tolist()]
        return tuple(np.array([p[k] for p in pairs]).reshape(s.shape)
                     for k in (0, 1))
    lo_end, _ = cmap.interval()
    if math.isfinite(lo_end):
        lo = slice_tilde(kernel, weight, lo_end, s)
    else:
        lo = tail_limit(lambda t: slice_tilde(kernel, weight, t, s), cmap, -1)
    hi = tail_limit(lambda t: slice_tilde(kernel, weight, t, s), cmap, +1)
    return lo, hi


class KernelLimits(NamedTuple):
    """Endpoint values of the rescaled slice and the sup of its absolute
    value over the t-grid with golden refinement."""

    z_lo: float
    z_hi: float
    sup: float


def kernel_limits(kernel: Kernel, phi: Weight, s: float, *,
                  grid: Grid) -> KernelLimits:
    cmap = grid.map
    z_lo, z_hi = slice_endpoint_values(kernel, phi, s, cmap)
    for name, z in (("left", z_lo), ("right", z_hi)):
        if not math.isfinite(z):
            raise DomainError(f"slice at s={s} unbounded toward the {name} end")

    def fn_x(x):
        return abs(slice_tilde(kernel, phi, cmap.from_compact(x), s))

    ends = {x: abs(z_lo) if x < 0 else abs(z_hi) for x in cmap.infinite_ends()}
    return KernelLimits(z_lo, z_hi, sup_on_grid(fn_x, grid, ends))


# ---------------------------------------------------------------------------
# operator evaluation

# Gauss-Legendre rule on both halves of a panel (the value) and on the whole
# panel (the comparison behind the error estimate); the columns of a panel
# are its left-half, right-half and whole-panel nodes, on the reference [-1, 1].
# With 12 points the bundled problems' estimates stay about 30 times under
# the default tolerance; with 10 they came within 2.5 times of it.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)
_PANEL_X = np.concatenate(((_GAUSS_X - 1.0) / 2.0, (_GAUSS_X + 1.0) / 2.0,
                           _GAUSS_X))
_HALVES_W = np.concatenate((_GAUSS_W / 2.0, _GAUSS_W / 2.0,
                            np.zeros_like(_GAUSS_W)))
_DIFF_W = _HALVES_W - np.concatenate((np.zeros(2 * _GAUSS_W.size), _GAUSS_W))


def _splice(old: np.ndarray, new: np.ndarray, keep: np.ndarray,
            fresh: np.ndarray, axis: int = 0) -> np.ndarray:
    """Array indexed by panel along ``axis``, with the kept old panels and
    the fresh ones."""
    shape = list(old.shape)
    shape[axis] = fresh.size
    out = np.empty(shape)
    lead = (slice(None),) * axis
    out[lead + (~fresh,)] = old[lead + (keep,)]
    out[lead + (fresh,)] = new
    return out


class NystromOperator:
    """The integral operator of a problem, discretised for one quadrature
    config (Nystrom method, Atkinson 1997, ch. 4).

    The compact interval is cut into panels at the grid nodes and at every
    kernel kink; a Volterra row at a finite node x_i uses the panels left of
    x_i. The operator keeps the kernel matrix ``G`` (row by quadrature node:
    k(t_i,s) eta(s) dt/dx for a finite node, z(s) dt/dx for an infinite
    one, d^j/dt^j slice times dt/dx in derivative row j) and the barycentric
    matrix ``B`` (quadrature node by grid node, a node's exact row where a
    query hits it), both indexed by panel and node within the panel. An application evaluates f once per
    quadrature node between two matrix-vector products. A row whose error
    estimate exceeds max(tol, rel_tol * |value|) splits its worst panels,
    and the operator keeps them; splitting past ``max_subdivisions`` panels
    raises QuadratureError.
    """

    def __init__(self, problem: HammersteinProblem, cfg: QuadratureConfig):
        sp, kern = problem.space, problem.kernel
        if sp.order > len(kern.dt_slices):
            raise DomainError(
                "derivative rows need kernel derivative slice evaluators (dt_slices)")
        self.problem, self.cfg = problem, cfg
        grid, cmap = sp.grid, sp.map
        finite = grid.finite_mask()
        volterra = finite if kern.support == VOLTERRA else np.zeros(sp.m, bool)
        # a row at node i uses the panels ending at or before row_end[i]
        self.row_end = np.where(volterra, grid.x, math.inf)
        self.div = np.ones((sp.order + 1, sp.m))
        self.div[0, finite] = sp.weight(grid.t[finite])
        # a kink on a node is cut at the node's own x: to_compact(t_i) misses
        # x_i in the last bit for about 40% of the nodes, which would leave
        # sliver panels
        x_of = dict(zip(grid.t.tolist(), grid.x.tolist()))
        cuts = set(grid.x.tolist())
        if kern.kink_locator is not None:
            for ti in grid.t[finite]:
                cuts.update(x_of[k] if k in x_of else cmap.to_compact(k)
                            for k in kern.kink_locator(ti) if cmap.contains(k))
        edges = np.array(sorted(cuts))
        self.lo, self.hi = edges[:-1], edges[1:]
        self.t, self.w_at, self.G, self.B = self._panels(self.lo, self.hi)
        self.last_error = 0.0   # worst accepted row estimate of the last call

    def _panels(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """Node times, weight values, G and B blocks of the ascending panels
        [lo, hi]; the panel is the second axis of G, the first of the rest."""
        sp, kern = self.problem.space, self.problem.kernel
        grid, cmap, w = sp.grid, sp.map, sp.weight
        x = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _PANEL_X
        xs = x.ravel()
        ts = cmap.from_compact(xs)
        jac = cmap.jacobian(xs)
        eta_jac = kern.eta(ts) * jac
        ends = None
        # filled one row at a time, with one kernel call per row over the
        # panels it uses: the zeros of a Volterra row stay untouched
        g = np.zeros((sp.order + 1, sp.m, xs.size))
        for i, ti in enumerate(grid.t.tolist()):
            if math.isinf(ti):
                if ends is None:
                    ends = slice_endpoint_values(kern, w, ts, cmap)
                g[0, i] = ends[0 if ti < 0 else 1] * jac
                continue
            n = _PANEL_X.size * int(np.count_nonzero(hi <= self.row_end[i]))
            g[0, i, :n] = kern.fn(ti, ts[:n]) * eta_jac[:n]
            for j, dslice in enumerate(kern.dt_slices[:sp.order], start=1):
                g[j, i, :n] = dslice(ti, ts[:n]) * jac[:n]
        b = barycentric_matrix(grid.x, grid.bary_w, xs)
        shape = x.shape
        return (ts.reshape(shape), w(ts).reshape(shape),
                g.reshape((-1,) + shape), b.reshape(shape + (sp.m,)))

    def _f_at(self, t, w_at, b, v) -> np.ndarray:
        """f(s, u(s)) at the nodes of the given panels, u from samples v,
        in one call of f."""
        y = (b.reshape(-1, v.size) @ v) * w_at.ravel()
        return self.problem.nonlinearity.fn(t.ravel(), y).reshape(t.shape)

    def _node_of_row(self, r: int) -> float:
        return float(self.problem.space.grid.t[r % self.problem.space.m])

    def apply(self, u: WeightedFunction) -> WeightedFunction:
        """Image of u, refining the panels until every row estimate passes."""
        sp, cfg = self.problem.space, self.cfg
        if not spaces_compatible(u.space, sp):
            raise DomainError("operand does not live in the problem space")
        v = u.samples[0]
        fv = self._f_at(self.t, self.w_at, self.B, v)
        while True:
            nan_panels = np.flatnonzero(np.isnan(fv).any(axis=1))
            if nan_panels.size:
                i = np.argmax(self.row_end >= self.hi[nan_panels[0]])
                raise QuadratureError("integration returned nan",
                                      node=self._node_of_row(i),
                                      estimate=math.nan)
            half = 0.5 * (self.hi - self.lo)[:, None]
            raw = self.G.reshape(-1, fv.size) @ (half * _HALVES_W * fv).ravel()
            err = np.abs(np.einsum("rpk,pk->rp", self.G, half * _DIFF_W * fv))
            est = err.sum(axis=1)
            tol = np.maximum(cfg.tol, cfg.rel_tol * np.abs(raw))
            over = est > tol
            if not over.any():
                break
            fv = self._refine(err, est, tol, over, fv, v)
        self.last_error = float(est.max())
        rows = raw.reshape(self.div.shape) / self.div + self.problem.forcing.samples
        return WeightedFunction(sp, rows)

    def _refine(self, err, est, tol, over, fv, v) -> np.ndarray:
        """Split the worst panels of every row over tolerance until what is
        left of its estimate is at most half its tolerance; returns f at the
        nodes of the refined panels."""
        split = np.zeros(self.lo.size, bool)
        for r in np.flatnonzero(over):
            worst = np.argsort(err[r])[::-1]
            rest = est[r] - np.cumsum(err[r][worst])
            split[worst[:np.argmax(rest <= 0.5 * tol[r]) + 1]] = True
        mid = 0.5 * (self.lo + self.hi)
        counts = 1 + split
        why = None
        if counts.sum() > self.cfg.max_subdivisions:
            why = (f"{counts.sum()} panels would pass the limit of "
                   f"{self.cfg.max_subdivisions}")
        elif np.any(split & ~((self.lo < mid) & (mid < self.hi))):
            why = "a panel is too narrow to split"
        if why is not None:
            r = int(np.argmax(np.where(over, est, -1.0)))
            raise QuadratureError(f"integration did not converge: {why}",
                                  node=self._node_of_row(r),
                                  estimate=float(est[r]))
        start = np.cumsum(counts) - counts
        lo, hi = np.repeat(self.lo, counts), np.repeat(self.hi, counts)
        hi[start[split]] = mid[split]
        lo[start[split] + 1] = mid[split]
        fresh = np.repeat(split, counts)
        keep = ~split
        t, w_at, g, b = self._panels(lo[fresh], hi[fresh])
        fv = _splice(fv, self._f_at(t, w_at, b, v), keep, fresh)
        self.t, self.w_at, self.B = (
            _splice(old, new, keep, fresh) for old, new in
            ((self.t, t), (self.w_at, w_at), (self.B, b)))
        self.G = _splice(self.G, g, keep, fresh, axis=1)
        self.lo, self.hi = lo, hi
        return fv


def apply_T(problem: HammersteinProblem, u: WeightedFunction,
            quad: QuadratureConfig | None = None) -> WeightedFunction:
    """Image of u under the integral operator, sampled on the problem grid.

    Finite rows integrate the weighted slice against f(s, u(s)); rows at
    infinite nodes use the endpoint slices, integral of z(s) f(s, u(s)) plus
    the forcing endpoint. Derivative rows require the kernel's ``dt_slices``
    evaluators and inherit the forcing's endpoint convention (zero). The
    problem's NystromOperator for ``quad`` is built on the first call and
    reused by every later one.
    """
    return problem.operator(quad).apply(u)


# ---------------------------------------------------------------------------
# regularity probes

@dataclass(frozen=True)
class ModulusReport:
    passed: bool
    eps_grid: tuple
    delta_by_eps: dict
    worst: dict | None = None


def kernel_modulus_check(kernel: Kernel, phi: Weight, omega: Callable[[float], float],
                         grid: Grid, *,
                         eps_grid: tuple = (1e-1, 1e-2, 1e-3),
                         delta_min: float = 1e-9, s_count: int = 24) -> ModulusReport:
    """Translation equicontinuity of the rescaled slice against omega.

    For each eps, searches the largest delta (descending decades down to
    ``delta_min``) such that |slice(t + step, s) - slice(t, s)| stays below
    eps * omega(s) for steps of 0.5*delta and 0.999*delta across a (t, s)
    lattice. Fails when some eps admits no delta >= delta_min.
    """
    cmap = grid.map
    t_probes = [t for t in grid.t[grid.finite_mask()]][::2]
    s_probes = [cmap.from_compact(x) for x in np.linspace(-0.999, 0.999, s_count)]
    deltas = [10.0 ** (-j) for j in range(0, 10)]
    deltas = [d for d in deltas if d >= delta_min]

    def ok_for(eps: float, delta: float):
        worst = None
        for t1 in t_probes:
            for theta in (0.5, 0.999):
                t2 = t1 + theta * delta
                for s in s_probes:
                    gap = abs(slice_tilde(kernel, phi, t2, s)
                              - slice_tilde(kernel, phi, t1, s))
                    bound = eps * float(omega(s))
                    if gap > bound:
                        if worst is None or gap - bound > worst["excess"]:
                            worst = {"t1": t1, "t2": t2, "s": s, "gap": gap,
                                     "bound": bound, "excess": gap - bound}
        return worst

    table: dict = {}
    overall_worst = None
    passed = True
    for eps in eps_grid:
        found = None
        for delta in deltas:
            worst = ok_for(eps, delta)
            if worst is None:
                found = delta
                break
            overall_worst = worst
        table[eps] = found
        if found is None:
            passed = False
    return ModulusReport(passed, tuple(eps_grid), table,
                         None if passed else overall_worst)


def resolve_dominator(nl: Nonlinearity, phi: Weight):
    """Radius -> pointwise bound of f(t, y*phi(t)) over |y| <= r, or None."""
    if nl.dominator is not None:
        return lambda r: nl.dominator(r, phi)
    if nl.monotone_in_y:
        return lambda r: (lambda t: float(nl.fn(t, r * phi(t))))
    return None


@dataclass(frozen=True)
class DominatorReport:
    passed: bool
    r: float
    worst: dict | None = None


def dominator_check(nl: Nonlinearity, phi: Weight, r: float,
                    grid: Grid, *, y_count: int = 33,
                    tol: float = 1e-12) -> DominatorReport:
    """Sampled domination f(t, y*phi(t)) <= phi_r(t) over y in [-r, r]."""
    if r <= 0:
        raise DomainError("radius must be positive")
    dom = resolve_dominator(nl, phi)
    if dom is None:
        raise DomainError(
            f"nonlinearity {nl.name!r} has no dominator and is not marked monotone")
    phi_r = dom(r)
    worst = None
    passed = True
    for t in grid.t[grid.finite_mask()]:
        bound = float(phi_r(t))
        for y in np.linspace(-r, r, y_count):
            val = float(nl.fn(t, y * phi(t)))
            if math.isnan(val):
                return DominatorReport(False, r, {"t": t, "y": y, "value": val,
                                                  "bound": bound})
            excess = val - bound - tol * max(1.0, abs(bound))
            if worst is None or excess > worst["excess"]:
                worst = {"t": t, "y": y, "value": val, "bound": bound,
                         "excess": excess}
            if excess > 0.0:
                passed = False
    return DominatorReport(passed, r, worst)


@dataclass(frozen=True)
class BoundProfile:
    ok: bool
    r: float
    values: tuple           # aligned with the grid nodes (endpoint columns too)
    sup: float
    scalars: dict
    failure: str | None = None


def c3_bound_profile(problem: HammersteinProblem, r: float = 1.0,
                     quad: QuadratureConfig | None = None, *,
                     include_sup_integral: bool = True) -> BoundProfile:
    """Weighted image bound of the kernel against the dominated nonlinearity.

    At a finite node t the profile is (1/phi(t)) * integral of
    |k(t,s)eta(s)| * phi_r(s) ds over the kernel support; at an infinite
    node it is the integral of |z(s)| * phi_r(s). Scalars collect the
    integrals of omega*phi_r, |z_lo|*phi_r, |z_hi|*phi_r, and sup|slice|*phi_r
    that certify integrable tails. A divergent integral yields a fail report.
    """
    quad = quad or DEFAULT_QUAD
    sp = problem.space
    grid, w, cmap = sp.grid, sp.weight, sp.map
    kern = problem.kernel
    dom = resolve_dominator(problem.nonlinearity, w)
    if dom is None:
        raise DomainError("bound profile needs a dominator (see dominator_check)")
    phi_r = dom(r)

    def abs_weighted(t: float, s: float) -> float:
        return abs(float(kern.fn(t, s)) * float(kern.eta(s))) * float(phi_r(s))

    values = []
    try:
        for ti in grid.t:
            if math.isinf(ti):
                side = 0 if ti < 0 else 1

                def z_dom(s: float, _side=side) -> float:
                    z = slice_endpoint_values(kern, w, s, cmap)[_side]
                    return abs(z) * float(phi_r(s))

                values.append(integrate_interval(z_dom, cmap, quad, node=ti))
            else:
                kinks = tuple(kern.kink_locator(ti)) if kern.kink_locator else ()
                hi = ti if kern.support == VOLTERRA else None
                raw = integrate_interval(lambda s: abs_weighted(ti, s), cmap, quad,
                                         hi=hi, breakpoints=kinks, node=ti)
                values.append(raw / w(ti))
        scalars = {}
        if kern.modulus_weight is not None:
            scalars["modulus_dominator_integral"] = integrate_interval(
                lambda s: float(kern.modulus_weight(s)) * float(phi_r(s)), cmap, quad)
        z_cache: dict = {}

        def z_at(s: float) -> tuple:
            if s not in z_cache:
                z_cache[s] = slice_endpoint_values(kern, w, s, cmap)
            return z_cache[s]

        scalars["abs_z_lo_integral"] = integrate_interval(
            lambda s: abs(z_at(s)[0]) * float(phi_r(s)), cmap, quad)
        scalars["abs_z_hi_integral"] = integrate_interval(
            lambda s: abs(z_at(s)[1]) * float(phi_r(s)), cmap, quad)
        if include_sup_integral:
            scalars["sup_slice_integral"] = integrate_interval(
                lambda s: kernel_limits(kern, w, s, grid=grid).sup * float(phi_r(s)),
                cmap, quad)
    except (QuadratureError, DomainError) as e:
        return BoundProfile(False, r, tuple(values), math.inf, {}, failure=str(e))

    sup = max(values)
    ok = all(math.isfinite(v) for v in values) and \
        all(math.isfinite(v) for v in scalars.values())
    return BoundProfile(ok, r, tuple(values), sup, scalars,
                        None if ok else "non-finite profile or scalar")


# ---------------------------------------------------------------------------
# bundled problems

def second_order_ivp_kernel(v0: float, space: Space) -> tuple:
    """Volterra kernel and forcing of u'' = f(t, u), u(a) = 0, u'(a) = v0.

    The kernel is (t - s) for a <= s <= t and 0 otherwise; the forcing is
    the free motion v0 * (t - a). The space weight must grow linearly for
    the forcing to have a finite rescaled endpoint; otherwise this raises.
    Supports order 0, and order 1 when the weight has a derivative evaluator.
    """
    cmap = space.map
    a, hi = cmap.interval()
    if not math.isfinite(a) or not math.isinf(hi):
        raise DomainError("the initial-value kernel lives on a half-line")
    w = space.weight
    try:
        slope_ratio = tail_limit(lambda t: t / w(t), cmap, +1)
    except DomainError as e:
        raise DomainError(
            "linear forcing has no finite rescaled endpoint for this weight") from e

    def k(t, s):
        return positive_part(t - s)

    dt_slices: tuple = ()
    if w.derivs:
        dw = w.derivs[0]

        def d1(t, s):
            if isinstance(t, np.ndarray) or isinstance(s, np.ndarray):
                wt = w(t)
                return np.where(t > s, (wt - (t - s) * dw(t)) / (wt * wt), 0.0)
            if t <= s:
                return 0.0
            wt = w(t)
            return (wt - (t - s) * w.derivative(t)) / (wt * wt)

        dt_slices = (d1,)

    kernel = Kernel(
        fn=k,
        support=VOLTERRA,
        name="second-order-ivp",
        tilde_slice=lambda t, s: positive_part(t - s) / w(t),
        slice_endpoints=lambda s: (positive_part(a - s) / w(a),
                                   filled(slope_ratio, s)),
        dt_slices=dt_slices,
        modulus_weight=lambda s: 1.0 + abs(s),
        kink_locator=lambda t: (t,) if t > a else (),
    )

    rows = [lambda t: v0 * (t - a) / w(t)]
    if space.order >= 1:
        if not w.derivs:
            raise DomainError("order-1 forcing needs a weight derivative evaluator")
        rows.append(lambda t: v0 * (w(t) - (t - a) * w.derivative(t)) / w(t) ** 2)
    if space.order >= 2:
        raise DomainError("orders above 1 are not supported by this builder")
    p = from_tilde(space, rows, endpoints={"hi": v0 * slope_ratio})
    return kernel, p


def boosted_projectile_problem(space: Space, v0: float = 1.0) -> HammersteinProblem:
    """Half-line model with exponentially damped positive-part forcing term.

    f(t, y) = max(y, 0) * exp(-t): increasing in y, zero below zero, with
    the closed-form envelopes used by the index checks (the upper envelope
    assumes the standard exponential sup weight; scenario assembly enforces
    that pairing).
    """
    kernel, p = second_order_ivp_kernel(v0, space)

    def f(t, y):
        return positive_part(y) * exp(-t)

    nl = Nonlinearity(
        fn=f,
        name="boosted-projectile",
        monotone_in_y=True,
        upper_envelope=lambda t, rho: filled(rho, t),
        lower_envelope=lambda t, rho: filled(0.0, t, rho),
    )
    return HammersteinProblem(kernel, nl, p, space, name="boosted-projectile",
                              params={"v0": v0})


def gravity_projectile_problem(space: Space, g: float = 1.0, R: float = 1.0,
                               v0: float = 1.0) -> HammersteinProblem:
    """Radial escape model: u'' = -g R^2 / (u + R)^2 above the surface.

    The nonlinearity is negative (attraction), so the cone certificates fail
    honestly; the problem exists for operator evaluation and the independent
    trajectory oracle.
    """
    if g <= 0 or R <= 0:
        raise DomainError("g and R must be positive")
    kernel, p = second_order_ivp_kernel(v0, space)

    def f(t, y):
        if isinstance(t, np.ndarray) or isinstance(y, np.ndarray):
            y = np.broadcast_arrays(t, y)[1]
            with np.errstate(divide="ignore"):
                return np.where(y <= -R, np.nan, -g * R * R / (y + R) ** 2)
        if y <= -R:
            return math.nan
        return -g * R * R / (y + R) ** 2

    nl = Nonlinearity(fn=f, name="gravity-projectile", monotone_in_y=True)
    return HammersteinProblem(kernel, nl, p, space, name="gravity-projectile",
                              params={"g": g, "R": R, "v0": v0})


PROBLEM_BUILDERS = {
    "boosted-projectile": boosted_projectile_problem,
    "gravity-projectile": gravity_projectile_problem,
}


def register_problem(name: str, builder) -> None:
    """Register a scenario-addressable builder(space, **params) -> problem."""
    PROBLEM_BUILDERS[name] = builder
