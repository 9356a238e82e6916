"""Picard iteration, residual diagnostics, an independent Runge-Kutta
oracle for problems of initial-value type, and launch asymptotics.

The iteration and the oracle are deliberately separate code paths with no
shared numerics: agreement between them is the cross-validation evidence
that either one is right.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowupError, DomainError
from .quadrature import QuadratureConfig
from .weighted_space import WeightedFunction, norm
from .hammerstein import HammersteinProblem, Nonlinearity, apply_T

STATE_CAP = 1e12  # |u| or |u'| beyond this is treated as blow-up


# ---------------------------------------------------------------------------
# Picard iteration

@dataclass(frozen=True)
class Solution:
    """Outcome of a Picard run: the best iterate seen, its residual, the
    per-iteration update-norm trace (one entry per iteration), and the
    worst row error estimate the operator accepted during the run."""

    u: WeightedFunction
    iterations: int
    residual: float
    converged: bool
    slope: float                    # weighted value at the +inf end
    trace: tuple
    relaxation: float               # final relaxation after any auto-halving
    quad_error: float
    iterates: tuple | None = None


def picard_solve(problem: HammersteinProblem, u0: WeightedFunction | None = None,
                 tol: float = 1e-10, max_iters: int = 200,
                 relaxation: float = 1.0, *,
                 quad: QuadratureConfig | None = None,
                 keep_iterates: bool = False) -> Solution:
    """Iterate u <- (1-theta)u + theta*Tu until the residual ||Tu - u||
    of an iterate is at most tol.

    Starts from the forcing term when no u0 is given. When the update norm
    grows for 3 consecutive iterations the relaxation is halved. Returns
    the iterate with the smallest observed residual whether or not the
    tolerance was reached; ``converged`` says whether that residual is at
    most tol.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if not (0.0 < relaxation <= 1.0):
        raise DomainError("relaxation must lie in (0, 1]")
    if max_iters < 1:
        raise DomainError("max_iters must be at least 1")
    u = problem.forcing if u0 is None else u0
    theta = relaxation
    trace: list = []
    iterates = [u] if keep_iterates else None
    best_u, best_res = u, math.inf
    growth = 0
    iterations = 0
    quad_error = 0.0
    for _ in range(max_iters):
        Tu = apply_T(problem, u, quad)
        quad_error = max(quad_error, problem.operator(quad).last_error)
        res = norm(Tu - u)
        if res < best_res:
            best_u, best_res = u, res
        u_next = u + theta * (Tu - u)
        upd = norm(u_next - u)
        if trace and upd > trace[-1]:
            growth += 1
            if growth >= 3:
                theta *= 0.5
                growth = 0
        else:
            growth = 0
        trace.append(upd)
        iterations += 1
        u = u_next
        if keep_iterates:
            iterates.append(u)
        if res <= tol:
            break
    converged = bool(best_res <= tol)
    slope = float(best_u.samples[0, -1])
    return Solution(u=best_u, iterations=iterations, residual=best_res,
                    converged=converged, slope=slope, trace=tuple(trace),
                    relaxation=theta, quad_error=quad_error,
                    iterates=tuple(iterates) if keep_iterates else None)


def residual_norm(problem: HammersteinProblem, u: WeightedFunction,
                  quad: QuadratureConfig | None = None) -> float:
    """Weighted norm of u - Tu (one operator application)."""
    return norm(apply_T(problem, u, quad) - u)


# ---------------------------------------------------------------------------
# Runge-Kutta oracle

def _rk4_step(fn, t, u, v, h):
    k1u = v
    k1v = fn(t, u)
    k2u = v + 0.5 * h * k1v
    k2v = fn(t + 0.5 * h, u + 0.5 * h * k1u)
    k3u = v + 0.5 * h * k2v
    k3v = fn(t + 0.5 * h, u + 0.5 * h * k2u)
    k4u = v + h * k3v
    k4v = fn(t + h, u + h * k3u)
    return (u + h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0,
            v + h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0)


@dataclass(frozen=True, eq=False)
class OdeTrajectory:
    """Accepted-step trajectory of u'' = f(t, u) with cubic dense output."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    T_max: float
    err_u: float            # accumulated local-extrapolation error estimate
    rel_err: float          # err_u relative to the final displacement
    steps: int
    rejected: int

    def _segments(self, tq):
        tq = np.asarray(tq, dtype=float)
        if np.any(tq < self.t[0] - 1e-12) or np.any(tq > self.t[-1] + 1e-12):
            raise DomainError("query time outside the integrated range")
        i = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(self.t) - 2)
        h = self.t[i + 1] - self.t[i]
        tau = np.clip((tq - self.t[i]) / h, 0.0, 1.0)
        return i, h, tau

    @staticmethod
    def _hermite(y0, d0, y1, d1, h, tau):
        t2, t3 = tau * tau, tau * tau * tau
        return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + tau) * h * d0
                + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * d1)

    def u_at(self, tq):
        i, h, tau = self._segments(tq)
        out = self._hermite(self.u[i], self.v[i], self.u[i + 1], self.v[i + 1],
                            h, tau)
        return float(out) if np.isscalar(tq) or np.ndim(tq) == 0 else out

    def v_at(self, tq):
        i, h, tau = self._segments(tq)
        out = self._hermite(self.v[i], self.a[i], self.v[i + 1], self.a[i + 1],
                            h, tau)
        return float(out) if np.isscalar(tq) or np.ndim(tq) == 0 else out

    __call__ = u_at


def ode_oracle(f, v0: float, T_max: float, h: float | None = None, *,
               rtol: float = 1e-12, atol: float = 1e-12,
               u0: float = 0.0) -> OdeTrajectory:
    """Integrate u'' = f(t, u), u(0) = u0, u'(0) = v0 on [0, T_max].

    Classical 4th-order steps with step-doubling error control; accepted
    values take the local extrapolation (two half steps plus the pairwise
    difference over 15), and the conservative sum of |difference|/15 terms
    is reported as the error estimate. Raises BlowupError when the state
    leaves [-1e12, 1e12], turns non-finite, or the step size underflows.
    """
    fn = f.fn if isinstance(f, Nonlinearity) else f
    if T_max <= 0:
        raise DomainError("T_max must be positive")
    step = h if h is not None else min(1.0, T_max / 100.0)
    if step <= 0:
        raise DomainError("step must be positive")
    t, u, v = 0.0, float(u0), float(v0)
    ts, us, vs, accs = [t], [u], [v], [float(fn(t, u))]
    err_acc = 0.0
    steps = rejected = 0
    while t < T_max:
        step = min(step, T_max - t)
        u1, v1 = _rk4_step(fn, t, u, v, step)
        um, vm = _rk4_step(fn, t, u, v, 0.5 * step)
        u2, v2 = _rk4_step(fn, t + 0.5 * step, um, vm, 0.5 * step)
        du, dv = u2 - u1, v2 - v1
        scale_u = atol + rtol * max(abs(u), abs(u2))
        scale_v = atol + rtol * max(abs(v), abs(v2))
        err = max(abs(du) / (15.0 * scale_u), abs(dv) / (15.0 * scale_v))
        if not math.isfinite(err):
            raise BlowupError("state became non-finite", t=t)
        if err <= 1.0:
            t += step
            u = u2 + du / 15.0
            v = v2 + dv / 15.0
            if not (math.isfinite(u) and math.isfinite(v)) \
                    or abs(u) > STATE_CAP or abs(v) > STATE_CAP:
                raise BlowupError("trajectory left the admissible range", t=t)
            err_acc += abs(du) / 15.0
            ts.append(t)
            us.append(u)
            vs.append(v)
            accs.append(float(fn(t, u)))
            steps += 1
        else:
            rejected += 1
            if step <= 1e-13 * max(1.0, abs(t)):
                raise BlowupError("step size underflow", t=t)
        factor = 0.9 * max(err, 1e-16) ** -0.2
        step *= min(4.0, max(0.2, factor))
    rel = err_acc / max(abs(us[-1]), atol, 1e-300)
    return OdeTrajectory(t=np.array(ts), u=np.array(us), v=np.array(vs),
                         a=np.array(accs), T_max=T_max, err_u=err_acc,
                         rel_err=rel, steps=steps, rejected=rejected)


def gravity_energy_drift(traj: OdeTrajectory, g: float, R: float,
                         v0: float) -> float:
    """Largest violation of the launch-problem first integral
    (u'^2 - v0^2)/2 = g R^2 (1/(R+u) - 1/R) along the accepted steps."""
    lhs = 0.5 * (traj.v ** 2 - v0 ** 2)
    rhs = g * R * R * (1.0 / (R + traj.u) - 1.0 / R)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# asymptotics

@dataclass(frozen=True)
class SlopeEstimate:
    value: float
    error_bar: float
    probes: tuple
    ratios: tuple
    method: str


def _richardson_pair(t1, r1, t2, r2):
    # eliminate a B/t correction: fit r(t) = s + B/t through two probes
    return (t2 * r2 - t1 * r1) / (t2 - t1)


def asymptotic_slope(source, probe_times: Sequence[float] | None = None, *,
                     weight=None) -> SlopeEstimate:
    """Estimated limit of u(t)/weight(t) toward +inf with an error bar.

    A weighted-space element with no probe times reads its endpoint sample
    directly (exact). Otherwise ratios at increasing probe times (default
    t, 2t, 4t with t = T_max/4 for a trajectory) are Richardson-combined
    to remove a B/t correction; the error bar is the spread of successive
    extrapolants.
    """
    if isinstance(source, WeightedFunction):
        if probe_times is None:
            val = float(source.samples[0, -1])
            return SlopeEstimate(val, 0.0, (math.inf,), (val,), "endpoint")
        u_eval = source.raw
        w = weight if weight is not None else source.space.weight
    elif isinstance(source, OdeTrajectory):
        if probe_times is None:
            t0 = source.T_max / 4.0
            probe_times = (t0, 2.0 * t0, 4.0 * t0)
        u_eval = source.u_at
        w = weight if weight is not None else (lambda t: t)
    elif callable(source):
        if probe_times is None:
            raise DomainError("probe times are required for a bare callable")
        u_eval = source
        w = weight if weight is not None else (lambda t: t)
    else:
        raise DomainError(f"cannot estimate a slope from {type(source).__name__}")
    probes = tuple(float(t) for t in probe_times)
    if len(probes) < 2:
        raise DomainError("need at least two probe times")
    if any(b <= a for a, b in zip(probes, probes[1:])) or probes[0] <= 0:
        raise DomainError("probe times must be positive and increasing")
    ratios = tuple(float(u_eval(t)) / float(w(t)) for t in probes)
    if any(not math.isfinite(r) for r in ratios):
        raise DomainError("non-finite ratio at a probe time")
    extraps = [_richardson_pair(t1, r1, t2, r2)
               for (t1, r1), (t2, r2) in zip(zip(probes, ratios),
                                             zip(probes[1:], ratios[1:]))]
    value = extraps[-1]
    if len(extraps) >= 2:
        error_bar = abs(extraps[-1] - extraps[-2])
    else:
        error_bar = abs(extraps[-1] - ratios[-1])
    return SlopeEstimate(value, error_bar, probes, ratios, "richardson")


@dataclass(frozen=True)
class EscapeConstants:
    """Launch-problem constants: threshold speed, surplus drift speed
    (None below the threshold, by design not NaN), and the marginal-case
    two-thirds-power constant."""

    v_s: float
    v_inf: float | None
    two_thirds_constant: float


def escape_constants(g: float, R: float, v0: float) -> EscapeConstants:
    if g <= 0 or R <= 0:
        raise DomainError("g and R must be positive")
    v_s = math.sqrt(2.0 * g * R)
    v_inf = math.sqrt(v0 * v0 - 2.0 * g * R) if v0 >= v_s else None
    c = (1.5) ** (2.0 / 3.0) * (2.0 * g * R * R) ** (1.0 / 3.0)
    return EscapeConstants(v_s=v_s, v_inf=v_inf, two_thirds_constant=c)


# ---------------------------------------------------------------------------
# cross-validation and serialization

@dataclass(frozen=True)
class OracleComparison:
    max_rel_diff: float
    sup_diff: float
    sup_ref: float
    T_max: float
    n_probes: int


def compare_with_oracle(problem: HammersteinProblem, u: WeightedFunction,
                        T_max: float | None = None, n_probes: int = 201,
                        h: float | None = None) -> tuple:
    """Relative sup distance between a candidate fixed point and the
    independently integrated initial-value trajectory.

    Returns (comparison, trajectory). The problem must carry a launch
    speed in params['v0']; the right-hand side is eta(t)*f(t, u)."""
    if "v0" not in problem.params:
        raise DomainError("problem has no 'v0' parameter; oracle comparison "
                          "needs the initial slope")
    v0 = float(problem.params["v0"])
    cmap = problem.space.map
    a, _ = cmap.interval()
    if not math.isfinite(a):
        raise DomainError("oracle comparison needs a half-line problem")
    if T_max is None:
        T_max = cmap.from_compact(0.999) - a
    nl, eta = problem.nonlinearity, problem.kernel.eta

    def rhs(t, y):
        return float(eta(a + t)) * float(nl.fn(a + t, y))

    traj = ode_oracle(rhs, v0, T_max, h)
    probes = np.linspace(0.0, T_max, n_probes)
    ref = traj.u_at(probes)
    cand = np.array([u.raw(a + t) for t in probes])
    sup_ref = float(np.max(np.abs(ref)))
    sup_diff = float(np.max(np.abs(cand - ref)))
    comparison = OracleComparison(max_rel_diff=sup_diff / max(sup_ref, 1e-300),
                                  sup_diff=sup_diff, sup_ref=sup_ref,
                                  T_max=T_max, n_probes=n_probes)
    return comparison, traj


def solution_to_csv(problem: HammersteinProblem, sol: Solution, path, *,
                    quad: QuadratureConfig | None = None) -> None:
    """Write the solution as CSV rows (t, weighted value, raw value,
    weighted residual) with %.17g formatting and UNIX newlines."""
    u = sol.u
    Tu = apply_T(problem, u, quad)
    res_rows = np.abs(Tu.samples[0] - u.samples[0])
    grid, w = problem.space.grid, problem.space.weight

    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["t", "u_weighted", "u_raw", "residual_weighted"])
        for i, t in enumerate(grid.t):
            tilde = float(u.samples[0, i])
            if math.isfinite(t):
                raw = tilde * w(t)
            elif tilde == 0.0:
                raw = 0.0
            else:
                try:
                    raw = tilde * w(t)
                except (OverflowError, ValueError):
                    raw = math.copysign(math.inf, tilde)
            out.writerow([fmt(t), fmt(tilde), fmt(raw), fmt(res_rows[i])])
