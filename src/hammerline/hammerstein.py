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

from .compactline import CompactMap, Grid
from .errors import DomainError, QuadratureError
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate_interval, sup_on_grid
from .weights import Weight, tail_limit
from .weighted_space import Space, WeightedFunction, from_tilde, spaces_compatible

VOLTERRA = "volterra"
FULL = "full"


@dataclass(frozen=True)
class Kernel:
    """Kernel k(t,s) with density eta and optional closed-form accelerators.

    ``tilde_slice`` evaluates k(t,s)eta(s)/phi(t) for the weight it was
    built against; ``slice_endpoints`` maps s to the endpoint values of that
    rescaled slice; ``dt_slices`` holds d^j/dt^j of the rescaled slice for
    j = 1, 2, ... and gates derivative-row support; ``modulus_weight`` is
    the comparison function the translation-equicontinuity check runs
    against; ``kink_locator`` lists interior s-kinks of t -> k(t,s).
    """

    fn: Callable[[float, float], float]
    eta: Callable[[float], float] = lambda s: 1.0
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


@dataclass(frozen=True)
class Nonlinearity:
    """Nonnegative integrand factor f(t,y) with optional growth data.

    ``dominator`` maps a radius r to a callable bounding f(t, y*phi(t)) over
    |y| <= r; when absent and ``monotone_in_y`` is set, the bound
    f(t, r*phi(t)) is used. ``upper_envelope`` / ``lower_envelope`` are the
    radius envelopes F(t, rho), G(t, rho) consumed by the index checks.
    """

    fn: Callable[[float, float], float]
    name: str = "custom"
    dominator: Callable[[float, Weight], Callable[[float], float]] | None = None
    monotone_in_y: bool = False
    upper_envelope: Callable[[float, float], float] | None = None
    lower_envelope: Callable[[float, float], float] | None = None


@dataclass(frozen=True, eq=False)
class HammersteinProblem:
    kernel: Kernel
    nonlinearity: Nonlinearity
    forcing: WeightedFunction
    space: Space
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not spaces_compatible(self.forcing.space, self.space):
            raise DomainError("forcing does not live in the problem space")


# ---------------------------------------------------------------------------
# slice helpers

def slice_tilde(kernel: Kernel, weight: Weight, t: float, s: float) -> float:
    """Rescaled kernel slice k(t,s)eta(s)/phi(t) at a finite t."""
    if kernel.tilde_slice is not None:
        return float(kernel.tilde_slice(t, s))
    return float(kernel.fn(t, s)) * float(kernel.eta(s)) / weight(t)


def slice_endpoint_values(kernel: Kernel, weight: Weight, s: float,
                          cmap: CompactMap) -> tuple:
    """Endpoint values (left, right) of the rescaled slice t -> slice(t,s).

    The left value is a direct evaluation when the interval starts at a
    finite point, a tail extrapolation otherwise; divergence raises."""
    if kernel.slice_endpoints is not None:
        lo, hi = kernel.slice_endpoints(s)
        return float(lo), float(hi)
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

    def fn_x(x: float) -> float:
        return abs(slice_tilde(kernel, phi, cmap.from_compact(x), s))

    ends = {x: abs(z_lo) if x < 0 else abs(z_hi) for x in cmap.infinite_ends()}
    return KernelLimits(z_lo, z_hi, sup_on_grid(fn_x, grid, ends))


# ---------------------------------------------------------------------------
# operator evaluation

def _raw_evaluator(u: WeightedFunction):
    grid = u.space.grid
    cmap = grid.map
    w = u.space.weight
    interp = grid.interpolant(u.samples[0])

    def u_raw(s: float) -> float:
        return interp(cmap.to_compact(s)) * w(s)

    return u_raw


def apply_T(problem: HammersteinProblem, u: WeightedFunction,
            quad: QuadratureConfig | None = None) -> WeightedFunction:
    """Image of u under the integral operator, sampled on the problem grid.

    Finite rows integrate the weighted slice against f(s, u(s)); rows at
    infinite nodes use the endpoint slices, integral of z(s) f(s, u(s)) plus
    the forcing endpoint. Derivative rows require the kernel's ``dt_slices``
    evaluators and inherit the forcing's endpoint convention (zero).
    """
    quad = quad or DEFAULT_QUAD
    sp = problem.space
    if not spaces_compatible(u.space, sp):
        raise DomainError("operand does not live in the problem space")
    grid, w, cmap = sp.grid, sp.weight, sp.map
    a_end, _ = cmap.interval()
    u_raw = _raw_evaluator(u)
    f = problem.nonlinearity.fn
    kern = problem.kernel

    def fu(s: float) -> float:
        return float(f(s, u_raw(s)))

    rows = sp.order + 1
    if rows > 1 and len(kern.dt_slices) < rows - 1:
        raise DomainError(
            "derivative rows need kernel derivative slice evaluators (dt_slices)")

    out = np.zeros((rows, sp.m))
    p = problem.forcing.samples

    def node_integral(slice_at, ti: float) -> float:
        kinks = tuple(kern.kink_locator(ti)) if kern.kink_locator else ()
        if kern.support == VOLTERRA:
            return integrate_interval(lambda s: slice_at(s) * fu(s), cmap, quad,
                                      hi=ti, breakpoints=kinks, node=ti)
        return integrate_interval(lambda s: slice_at(s) * fu(s), cmap, quad,
                                  breakpoints=kinks, node=ti)

    for i, ti in enumerate(grid.t):
        if math.isinf(ti):
            side = 0 if ti < 0 else 1

            def z_f(s: float, _side=side) -> float:
                z = slice_endpoint_values(kern, w, s, cmap)[_side]
                return z * fu(s)

            out[0, i] = integrate_interval(z_f, cmap, quad, node=ti) + p[0, i]
            for j in range(1, rows):
                out[j, i] = p[j, i]
        else:
            raw = node_integral(lambda s: float(kern.fn(ti, s)) * float(kern.eta(s)), ti)
            out[0, i] = raw / w(ti) + p[0, i]
            for j in range(1, rows):
                dslice = kern.dt_slices[j - 1]
                out[j, i] = node_integral(lambda s: float(dslice(ti, s)), ti) + p[j, i]

    return WeightedFunction(sp, out)


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

    def k(t: float, s: float) -> float:
        return max(t - s, 0.0)

    dt_slices: tuple = ()
    if w.derivs:
        def d1(t: float, s: float) -> float:
            if t <= s:
                return 0.0
            wt = w(t)
            return (wt - (t - s) * w.derivative(t)) / (wt * wt)

        dt_slices = (d1,)

    kernel = Kernel(
        fn=k,
        support=VOLTERRA,
        name="second-order-ivp",
        tilde_slice=lambda t, s: max(t - s, 0.0) / w(t),
        slice_endpoints=lambda s: (max(a - s, 0.0) / w(a), slope_ratio),
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

    def f(t: float, y: float) -> float:
        return max(y, 0.0) * math.exp(-t)

    nl = Nonlinearity(
        fn=f,
        name="boosted-projectile",
        monotone_in_y=True,
        upper_envelope=lambda t, rho: rho,
        lower_envelope=lambda t, rho: 0.0,
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

    def f(t: float, y: float) -> float:
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
