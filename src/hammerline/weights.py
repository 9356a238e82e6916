"""Weight functions and comparability of weights on an unbounded interval.

A weight is a positive continuous function used to rescale unbounded
functions; two weights generate the same rescaled space exactly when their
ratio stays pinned between positive bounds out to the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compactline import CompactMap, Grid, refining_tail_x
from .elementwise import elementwise, exp, filled, scalar_fn
from .errors import DomainError


@dataclass(frozen=True)
class Weight:
    """Positive weight with an optional stack of derivative evaluators.

    ``fn`` must accept any point of the interval closure; evaluation at an
    infinite endpoint may return ``inf`` (the weight diverges there). ``fn``
    and the derivative evaluators take a float or an array (see
    ``elementwise``); float-only ones are wrapped at construction.
    """

    fn: Callable[[float], float]
    label: str = "custom"
    params: dict = field(default_factory=dict)
    derivs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "fn", elementwise(self.fn))
        object.__setattr__(self, "derivs", tuple(elementwise(d) for d in self.derivs))

    def __call__(self, t):
        v = self.fn(t)
        return v if isinstance(v, np.ndarray) else float(v)

    def derivative(self, t: float, order: int = 1) -> float:
        if order < 1 or order > len(self.derivs):
            raise DomainError(f"weight {self.label!r} has no derivative of order {order}")
        return float(self.derivs[order - 1](t))


def affine(b: float = 1.0, scale: float = 1.0) -> Weight:
    """scale * (t + b); the standard linear-growth weight on a half-line."""
    return Weight(
        fn=lambda t: scale * (t + b),
        label="affine",
        params={"b": b, "scale": scale},
        derivs=(lambda t: filled(scale, t),),
    )


def exponential(c: float = 1.0, rate: float = 1.0) -> Weight:
    """c * exp(rate * t)."""
    return Weight(
        fn=lambda t: c * exp(rate * t),
        label="exponential",
        params={"c": c, "rate": rate},
        derivs=(lambda t: c * rate * exp(rate * t),),
    )


def power(q: float, scale: float = 1.0) -> Weight:
    """scale * t**q; positive on (0, inf)."""
    return Weight(
        fn=lambda t: scale * t ** q,
        label="power",
        params={"q": q, "scale": scale},
        derivs=(lambda t: scale * q * t ** (q - 1.0),),
    )


def custom(fn: Callable[[float], float], derivs: tuple = (), label: str = "custom") -> Weight:
    return Weight(fn=fn, label=label, params={}, derivs=derivs)


_BUILDER_PARAMS = {"affine": ("b", "scale"), "exponential": ("c", "rate"),
                   "power": ("q", "scale")}


def weight_key(w: Weight) -> tuple:
    """Hashable name of the function a weight evaluates.

    A builder weight (``affine``, ``exponential``, ``power``) is named by its
    label and params; any other weight only by its ``fn`` object, whatever
    its label. Weights with equal keys are the same function.
    """
    names = _BUILDER_PARAMS.get(w.label)
    if names is not None and sorted(w.params) == sorted(names):
        return (w.label,) + tuple(w.params[n] for n in names)
    return ("fn", scalar_fn(w.fn))


def same_weight(a: Weight, b: Weight) -> bool:
    return weight_key(a) == weight_key(b)


def check_weight(w: Weight, grid: Grid, fd_rel_tol: float = 1e-6) -> None:
    """Validate positivity at the finite nodes and, when derivative
    evaluators are present, their agreement with central differences."""
    for t in grid.t[grid.finite_mask()]:
        v = w(t)
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"weight {w.label!r} not positive finite at t={t}")
    if not w.derivs:
        return
    for t in grid.t[grid.finite_mask()]:
        h = 1e-5 * max(1.0, abs(t))
        fd = (w(t + h) - w(t - h)) / (2.0 * h)
        an = w.derivative(t)
        if abs(fd - an) > fd_rel_tol * max(1.0, abs(an)):
            raise DomainError(
                f"weight {w.label!r} derivative mismatch at t={t}: fd={fd} analytic={an}")


# ---------------------------------------------------------------------------
# tail behavior

def tail_trend(fn: Callable[[float], float], cmap: CompactMap, side: int = +1,
               agree_rel: float = 1e-9, k_hi: int = 12):
    """Classify the endpoint behavior of fn along the refining tail grid.

    Returns one of
      ("limit", L)      the values settle (after one Richardson elimination
                        of the 1/t term) to the finite value L,
      ("diverges", s)   certified monotone escape, s = +-inf,
      ("unknown", None) no decision (oscillation, evaluation failure).
    """
    xs = refining_tail_x(4, k_hi)
    ts, vals = [], []
    for x in xs:
        t = cmap.from_compact(side * x)
        try:
            v = float(fn(t))
        except (OverflowError, ValueError, ZeroDivisionError):
            return ("unknown", None)
        if math.isnan(v):
            return ("unknown", None)
        ts.append(t)
        vals.append(v)
    finite = [v for v in vals if math.isfinite(v)]
    if len(finite) < len(vals):
        tail = vals[-3:]
        if all(not math.isfinite(v) or abs(v) >= abs(u)
               for u, v in zip(vals, vals[1:])) and not math.isfinite(tail[-1]):
            return ("diverges", math.copysign(math.inf, tail[-1]))
        return ("unknown", None)
    # Richardson: r(t) = A + B/t + o(1/t); pairwise elimination of B
    rich = []
    for (t1, v1), (t2, v2) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
        rich.append((v2 * t2 - v1 * t1) / (t2 - t1))
    last = rich[-3:]
    scale = max(abs(v) for v in last)
    if all(abs(a - b) <= agree_rel * scale + 1e-300 for a, b in zip(last, last[1:])):
        return ("limit", last[-1])
    # raw values may settle even when extrapolation is noisy
    lastv = vals[-3:]
    scale = max(abs(v) for v in lastv)
    if all(abs(a - b) <= agree_rel * scale + 1e-300 for a, b in zip(lastv, lastv[1:])):
        return ("limit", lastv[-1])
    mono_up = all(b >= a for a, b in zip(vals, vals[1:]))
    mono_dn = all(b <= a for a, b in zip(vals, vals[1:]))
    if mono_up and vals[-1] > 1e12:
        return ("diverges", math.inf)
    if mono_dn and vals[-1] < -1e12:
        return ("diverges", -math.inf)
    return ("unknown", None)


def tail_limit(fn: Callable[[float], float], cmap: CompactMap, side: int = +1,
               agree_rel: float = 1e-9) -> float:
    """Finite endpoint limit of fn, or TailLimitError if it does not settle."""
    from .errors import TailLimitError

    kind, val = tail_trend(fn, cmap, side, agree_rel)
    if kind != "limit":
        raise TailLimitError(
            f"no finite limit toward {'+inf' if side > 0 else '-inf'} (trend: {kind})")
    return val


# ---------------------------------------------------------------------------
# equivalence

RATIO_BAND = (1e-8, 1e8)


@dataclass(frozen=True)
class WeightEquivalence:
    verdict: str                 # 'equivalent' | 'not-equivalent' | 'inconclusive'
    left: float | None           # endpoint ratio value/limit (None when unknown)
    right: float | None
    detail: str = ""


def weights_equivalent(w1: Weight, w2: Weight, cmap: CompactMap,
                       grid=None) -> WeightEquivalence:
    """Decide whether two weights pin each other between positive bounds.

    The ratio w1/w2 is examined at the finite grid nodes and at both
    endpoints (tail extrapolation toward infinite ends, direct evaluation at
    a finite end). Certified two-sided boundedness gives 'equivalent';
    a certified escape of the ratio (limit 0, divergence, or a limit outside
    the admissible band) gives 'not-equivalent'; anything else is
    'inconclusive'. Zero-order spaces only.

    ``grid`` may be a GridSpec (a grid is built on ``cmap``), a built Grid,
    or None for the default node count.
    """
    from .compactline import GridSpec, build_grid

    if grid is None:
        grid = build_grid(cmap, GridSpec(33))
    elif isinstance(grid, GridSpec):
        grid = build_grid(cmap, grid)
    elif grid.map != cmap:
        raise DomainError("grid was built on a different interval map")
    lo_band, hi_band = RATIO_BAND

    def ratio(t: float) -> float:
        return w1(t) / w2(t)

    for t in grid.t[grid.finite_mask()]:
        try:
            r = ratio(t)
        except (OverflowError, ZeroDivisionError, ValueError):
            return WeightEquivalence("inconclusive", None, None,
                                     f"ratio evaluation failed at t={t}")
        if math.isnan(r):
            return WeightEquivalence("inconclusive", None, None,
                                     f"ratio undefined at t={t}")
        if not (lo_band <= r <= hi_band):
            return WeightEquivalence("not-equivalent", None, None,
                                     f"ratio {r:g} outside band at t={t}")

    ends = []
    lo_end, _ = cmap.interval()
    for side, finite_end in ((-1, lo_end), (+1, None)):
        if side == -1 and math.isfinite(lo_end):
            ends.append(("limit", ratio(lo_end)))
            continue
        ends.append(tail_trend(ratio, cmap, side))

    vals = []
    for kind, val in ends:
        if kind == "unknown":
            return WeightEquivalence("inconclusive", None, None,
                                     "endpoint ratio trend undecided")
        vals.append(val)
    left, right = vals
    for v in vals:
        if math.isinf(v) or not (lo_band <= v <= hi_band):
            return WeightEquivalence("not-equivalent", left, right,
                                     "endpoint ratio escapes the admissible band")
    return WeightEquivalence("equivalent", left, right)
