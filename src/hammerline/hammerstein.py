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
from .errors import DomainError, IntegralPartError, QuadratureError, TailLimitError
from .quadrature import (DEFAULT_QUAD, RULE_W, QuadratureConfig, _integral_parts,
                         integrate_compact, integrate_panels, panel_nodes, splice,
                         sup_on_grid)
from .weights import Weight, read_ends, tail_limit
from .weighted_space import Space, WeightedFunction, from_tilde, spaces_compatible

VOLTERRA = "volterra"
FULL = "full"
MODULUS_DELTA_MIN = 1e-9    # the smallest delta the modulus check tries
MODULUS_S_COUNT = 24        # s points of the modulus check's lattice
DOMINATOR_Y_COUNT = 33      # y points of the dominator check in [-r, r]
DOMINATOR_TOL = 1e-12       # relative slack of the sampled domination


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

    A ``VOLTERRA`` kernel's ``fn`` (and ``tilde_slice``) vanishes for
    t < s. The operator integrates a row at t over s <= t, and the slice
    functionals search the sup of a slice k(., s) on t >= s only.
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
    """Kernel, nonlinearity and forcing on one space, with its operator per config."""

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
    finite point, a tail extrapolation otherwise; a tail without a certified
    limit raises TailLimitError."""
    if kernel.slice_endpoints is not None:
        lo, hi = kernel.slice_endpoints(s)
        if isinstance(s, np.ndarray):
            return lo, hi
        return float(lo), float(hi)
    lo_end, _ = cmap.interval()
    ends = [slice_tilde(kernel, weight, lo_end, s)] if math.isfinite(lo_end) else []
    s_col = np.asarray(s, dtype=float)[..., None]
    for side, (kind, value) in read_ends(lambda t: slice_tilde(kernel, weight, t, s_col),
                                         cmap, s_col.shape[:-1]).items():
        if (kind != "limit").any():
            raise TailLimitError(
                f"no finite limit toward {'+inf' if side > 0 else '-inf'} "
                f"(trend: {kind.flat[np.argmax(kind != 'limit')]})")
        ends.append(value if isinstance(s, np.ndarray) else float(value))
    return tuple(ends)


class KernelLimits(NamedTuple):
    """Endpoint values of the rescaled slice and the sup of its absolute
    value over the t-grid with golden refinement."""

    z_lo: float
    z_hi: float
    sup: float


def kernel_limits(kernel: Kernel, phi: Weight, s, *, grid: Grid) -> KernelLimits:
    """Endpoint values and sup of the rescaled slices at s (a float, or an
    array of s searched in one batch, with array fields). The sup search
    cuts each slice's brackets at its diagonal t = s (the kink of a Volterra
    kernel, the peak of a Green's function), and reads a Volterra slice,
    zero for t < s, on t >= s only."""
    cmap = grid.map
    z_lo, z_hi = slice_endpoint_values(kernel, phi, s, cmap)
    bad = ~(np.isfinite(z_lo) & np.isfinite(z_hi))
    if bad.any():
        r = int(np.argmax(bad))
        name = "left" if not np.isfinite(np.ravel(z_lo)[r]) else "right"
        raise DomainError(f"slice at s={np.ravel(s)[r].item()} unbounded toward "
                          f"the {name} end")
    s_row = np.ravel(np.asarray(s, dtype=float))
    x_s = cmap.to_compact(s_row)

    def fn_x(x, r):
        return np.abs(slice_tilde(kernel, phi, cmap.from_compact(x), s_row[r]))

    ends = {x: np.ravel(np.abs(z_lo if x < 0 else z_hi)) for x in cmap.infinite_ends()}
    sup = sup_on_grid(fn_x, grid, ends, x_s[:, None],
                      x_s if kernel.support == VOLTERRA else None).reshape(np.shape(s))
    return KernelLimits(z_lo, z_hi, sup if sup.ndim else float(sup))


# ---------------------------------------------------------------------------
# operator evaluation

class NystromOperator:
    """The integral operator of a problem, discretised for one quadrature
    config (Nystrom method, Atkinson 1997, ch. 4).

    The compact interval is cut into panels at the grid nodes and at every
    kernel kink; a Volterra row at a finite node x_i uses the panels left of
    x_i. The operator keeps the kernel matrix ``G`` (row by quadrature node:
    k(t_i,s) eta(s) dt/dx for a finite node, z(s) dt/dx for an infinite
    one, d^j/dt^j slice times dt/dx in derivative row j) and the barycentric
    matrix ``B`` (quadrature node by grid node, a node's exact row where a
    query hits it), both indexed by panel first and node within the panel.
    An application evaluates f once per quadrature node, between B and G. A
    row whose estimate exceeds max(tol, rel_tol * |value|) splits its worst
    panel, and the operator keeps the split: the rule, the refinement and
    its refusals are ``quadrature.integrate_panels``.
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
        [lo, hi], each indexed by panel first."""
        sp, kern = self.problem.space, self.problem.kernel
        grid, cmap, w = sp.grid, sp.map, sp.weight
        x, _ = panel_nodes(lo, hi)
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
            n = x.shape[1] * int(np.count_nonzero(hi <= self.row_end[i]))
            g[0, i, :n] = kern.fn(ti, ts[:n]) * eta_jac[:n]
            for j, dslice in enumerate(kern.dt_slices[:sp.order], start=1):
                g[j, i, :n] = dslice(ti, ts[:n]) * jac[:n]
        b = barycentric_matrix(grid.x, grid.bary_w, xs)
        shape = x.shape
        return (ts.reshape(shape), w(ts).reshape(shape),
                np.ascontiguousarray(g.reshape((-1,) + shape).transpose(1, 0, 2)),
                b.reshape(shape + (sp.m,)))

    def _node_of_row(self, r: int) -> float:
        return float(self.problem.space.grid.t[r % self.problem.space.m])

    def apply(self, u: WeightedFunction) -> WeightedFunction:
        """Image of u, refining the panels until every row estimate passes."""
        sp = self.problem.space
        if not spaces_compatible(u.space, sp):
            raise DomainError("operand does not live in the problem space")
        v = u.samples[0]

        def parts(lo, hi, owner, keep, fresh):
            t, w_at, g, b = self.t, self.w_at, self.G, self.B
            if keep.size:    # a refinement: the fresh panels are built and kept
                t, w_at, g, b = self._panels(lo[fresh], hi[fresh])
                self.t, self.w_at, self.G, self.B = (
                    splice(old, new, keep, fresh) for old, new in
                    ((self.t, t), (self.w_at, w_at), (self.G, g), (self.B, b)))
                self.lo, self.hi = lo, hi
            # f(s, u(s)) at the nodes of the fresh panels, in one call of f
            y = (b.reshape(-1, v.size) @ v) * w_at.ravel()
            f = self.problem.nonlinearity.fn(t.ravel(), y).reshape(t.shape)
            nan_panels = np.flatnonzero(np.isnan(f).any(axis=1))
            if nan_panels.size:
                i = np.argmax(self.row_end >= hi[fresh][nan_panels[0]])
                raise QuadratureError("integration returned nan",
                                      node=self._node_of_row(i), estimate=math.nan)
            half = 0.5 * (hi - lo)[fresh, None, None]
            return g @ (half * f[:, :, None] * RULE_W)

        # the rows are the integrals of one owner: they share the panels
        raw, est = integrate_panels(parts, self.lo, self.hi, np.zeros(self.lo.size, int),
                                    self.cfg, self._node_of_row)
        self.last_error = float(est.max())
        rows = raw.reshape(self.div.shape) / self.div + self.problem.forcing.samples
        return WeightedFunction(sp, rows)


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
    """Result of ``kernel_modulus_check``: the largest passing delta per eps."""

    passed: bool
    eps_grid: tuple
    delta_by_eps: dict
    worst: dict | None = None


def kernel_modulus_check(kernel: Kernel, phi: Weight, omega: Callable[[float], float],
                         grid: Grid, *,
                         eps_grid: tuple = (1e-1, 1e-2, 1e-3)) -> ModulusReport:
    """Translation equicontinuity of the rescaled slice against omega.

    For each eps, searches the largest delta (descending decades down to
    ``MODULUS_DELTA_MIN``) such that |slice(t + step, s) - slice(t, s)|
    stays below eps * omega(s) for steps of 0.5*delta and 0.999*delta across
    a (t, s) lattice, one array call of the slice per (eps, delta); ``omega``
    takes a float or an array (see ``elementwise``). Fails when some eps
    admits no delta >= MODULUS_DELTA_MIN; the witness is the first largest
    excess in the lattice's (t, step, s) order.
    """
    cmap = grid.map
    # the (t1, theta, s) lattice, in the order the witness is searched
    t1 = grid.t[grid.finite_mask()][::2, None, None]
    theta = np.array([0.5, 0.999])[:, None]
    s = cmap.from_compact(np.linspace(-0.999, 0.999, MODULUS_S_COUNT))
    omega_s = elementwise(omega)(s)
    base = slice_tilde(kernel, phi, t1, s)
    deltas = [10.0 ** (-j) for j in range(0, 10)]
    deltas = [d for d in deltas if d >= MODULUS_DELTA_MIN]

    def ok_for(eps: float, delta: float):
        t2 = t1 + theta * delta
        gap = np.abs(slice_tilde(kernel, phi, t2, s) - base)
        bound = np.broadcast_to(eps * omega_s, gap.shape)
        excess = np.where(gap > bound, gap - bound, -np.inf)
        k = np.unravel_index(np.argmax(excess), gap.shape)
        if excess[k] == -np.inf:
            return None
        return {"t1": float(t1[k[0], 0, 0]), "t2": float(t2[k[0], k[1], 0]), "s": float(s[k[2]]),
                "gap": float(gap[k]), "bound": float(bound[k]), "excess": float(excess[k])}

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
        return lambda r: elementwise(nl.dominator(r, phi))
    if nl.monotone_in_y:
        return lambda r: (lambda t: nl.fn(t, r * phi(t)))
    return None


@dataclass(frozen=True)
class DominatorReport:
    """Result of ``dominator_check`` at one radius, with its worst point."""

    passed: bool
    r: float
    worst: dict | None = None


def dominator_check(nl: Nonlinearity, phi: Weight, r: float, grid: Grid) -> DominatorReport:
    """Sampled domination f(t, y*phi(t)) <= phi_r(t) over y in [-r, r]."""
    if r <= 0:
        raise DomainError("radius must be positive")
    dom = resolve_dominator(nl, phi)
    if dom is None:
        raise DomainError(
            f"nonlinearity {nl.name!r} has no dominator and is not marked monotone")
    ts, ys = grid.t[grid.finite_mask()], np.linspace(-r, r, DOMINATOR_Y_COUNT)
    bound = np.broadcast_to(dom(r)(ts), ts.shape)[:, None]
    vals = nl.fn(ts[:, None], ys * phi(ts)[:, None])
    with np.errstate(invalid="ignore"):
        excess = vals - bound - DOMINATOR_TOL * np.maximum(1.0, np.abs(bound))
    # a nan value or bound fails at its first point in (t, y) order; else
    # the worst point is the first largest excess
    nan = np.isnan(excess)
    i, j = divmod(int(np.argmax(nan if nan.any() else excess)), ys.size)
    worst = {"t": float(ts[i]), "y": float(ys[j]), "value": float(vals[i, j]),
             "bound": float(bound[i, 0])}
    if not nan.any():
        worst["excess"] = float(excess[i, j])
    return DominatorReport(not (nan.any() or (excess > 0.0).any()), r, worst)


@dataclass(frozen=True)
class BoundProfile:
    """Result of ``c3_bound_profile``: the weighted image bound and its scalars."""

    ok: bool
    r: float
    values: tuple           # aligned with the grid nodes (endpoint columns too)
    sup: float
    scalars: dict
    failure: str | None = None


def c3_bound_profile(problem: HammersteinProblem, r: float = 1.0,
                     quad: QuadratureConfig | None = None) -> BoundProfile:
    """Weighted image bound of the kernel against the dominated nonlinearity.

    At a finite node t the profile is (1/phi(t)) * integral of
    |k(t,s)eta(s)| * |phi_r(s)| ds over the kernel support; at an infinite
    node it is the integral of |z(s)| * |phi_r(s)|. Scalars collect the
    integrals of omega*|phi_r|, |z_lo|*|phi_r|, |z_hi|*|phi_r|, and
    sup|slice|*|phi_r| that certify integrable tails. With |phi_r| the
    profile and the scalars are nonnegative whatever the sign of f.

    The finite nodes are one integral with a row per node, cut at the
    node's kinks (a row padded by repeating its last edge); a refusal names
    its node. The three scalars over the whole interval are another, whose
    tails are decided before it runs (see ``quadrature._integral_parts``),
    and an infinite node's value is the |z| scalar of its end. A divergent
    integral yields a fail report with no values (a refused scalar's
    failure names it), and so does a
    sup|slice|*|phi_r| tail without a certified |s|^-3/2 bound: a sup
    search resolves a slice only so far out.
    """
    quad = quad or DEFAULT_QUAD
    sp = problem.space
    grid, w, cmap = sp.grid, sp.weight, sp.map
    kern = problem.kernel
    dom = resolve_dominator(problem.nonlinearity, w)
    if dom is None:
        raise DomainError("bound profile needs a dominator (see dominator_check)")
    dom_r = dom(r)

    def phi_r(s):
        return np.abs(dom_r(s))

    finite = grid.finite_mask()
    t_nodes = grid.t[finite]
    a, b = cmap.interval()
    rows = []   # each node's panel edges, in the original coordinate
    for ti in t_nodes.tolist():
        hi = ti if kern.support == VOLTERRA else b
        kinks = kern.kink_locator(ti) if kern.kink_locator else ()
        rows.append([a, *(k for k in kinks if a < k < hi), hi])
    width = max(map(len, rows))
    edges = cmap.to_compact(np.array([row + row[-1:] * (width - len(row)) for row in rows]))

    def node_integrand(s, x, row):
        return np.abs(kern.fn(t_nodes[row], s) * kern.eta(s)) * phi_r(s)

    factors = {}   # each scalar's integrand is its factor times |phi_r|
    if kern.modulus_weight is not None:
        factors["modulus_dominator_integral"] = elementwise(kern.modulus_weight)
    factors["abs_z_lo_integral"] = lambda s: np.abs(slice_endpoint_values(kern, w, s, cmap)[0])
    factors["abs_z_hi_integral"] = lambda s: np.abs(slice_endpoint_values(kern, w, s, cmap)[1])

    def scalar_integrand(s, x, row):   # row broadcasts against s at the tail probes
        s, row = np.broadcast_arrays(s, row)
        out = np.empty(s.shape)
        for k, factor in enumerate(factors.values()):
            at = row == k
            if at.any():
                out[at] = factor(s[at])
        return out * phi_r(s)

    try:
        raw = integrate_compact(node_integrand, cmap, quad, edges, node=t_nodes)
        scalars = dict(zip(factors, _integral_parts(scalar_integrand, cmap, quad,
                                                    np.empty((len(factors), 0))).tolist()))
        values = np.empty(grid.m)
        values[finite] = raw / w(t_nodes)
        values[grid.t == -math.inf] = scalars["abs_z_lo_integral"]
        values[grid.t == math.inf] = scalars["abs_z_hi_integral"]

        def sup_slice(s: np.ndarray) -> np.ndarray:
            return kernel_limits(kern, w, s, grid=grid).sup * phi_r(s)

        tails = read_ends(lambda s: np.abs(sup_slice(s)) * np.abs(s) ** 1.5, cmap).values()
        if any(kind != "limit" for kind, _ in tails):
            raise DomainError("sup|slice| * phi_r has no certified integrable tail")
        scalars["sup_slice_integral"] = integrate_compact(
            lambda s, x, row: sup_slice(s), cmap, quad, [-1.0, 1.0])
    except (QuadratureError, DomainError) as e:
        failure = (f"{list(factors)[e.row]} {e.detail}" if isinstance(e, IntegralPartError)
                   else str(e))
        return BoundProfile(False, r, (), math.inf, {}, failure=failure)

    values = tuple(values.tolist())
    sup = max(values)
    ok = all(math.isfinite(v) for v in values) and \
        all(math.isfinite(v) for v in scalars.values())
    return BoundProfile(ok, r, values, sup, scalars,
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
