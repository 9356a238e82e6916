"""Weighted function spaces on unbounded intervals.

A function u on the interval is represented through its rescaling
u~ = u / phi sampled on a compactified grid, together with the finite
endpoint values of the rescaling. The space norm is the maximum over
derivative rows of the sup of |row|; with exact endpoint values this makes
the sampled representation an isometric copy of the continuous object up to
interpolation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compactline import CompactMap, Grid
from .errors import DomainError
from .weights import Weight, check_positive, same_weight, tail_limit

NORM_KINDS = ("phi", "sup-tilde")


@dataclass(frozen=True, eq=False)
class Space:
    """A weighted space: grid on a compactified interval, weight, order."""

    grid: Grid
    weight: Weight
    order: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise DomainError("order must be nonnegative")
        check_positive(self.weight, self.grid)

    @property
    def map(self) -> CompactMap:
        return self.grid.map

    @property
    def m(self) -> int:
        return self.grid.m


def spaces_compatible(a: Space, b: Space) -> bool:
    return a is b or (a.grid.map == b.grid.map and a.grid.m == b.grid.m
                      and a.order == b.order and same_weight(a.weight, b.weight))


@dataclass(frozen=True, eq=False)
class WeightedFunction:
    """Samples of the rescaled function and its derivative rows on the grid.

    ``samples`` has shape (order + 1, m); row j holds the j-th derivative of
    the rescaling at the grid nodes, endpoint columns included. All entries
    must be finite: membership in the space is exactly finiteness of the
    extended rescaling.
    """

    space: Space
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape != (self.space.order + 1, self.space.m):
            raise DomainError(
                f"samples shape {arr.shape} does not match "
                f"(order+1, m) = {(self.space.order + 1, self.space.m)}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("samples must be finite (rescaled extension exists)")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    # -- pointwise queries ---------------------------------------------------
    def tilde(self, t):
        """Value of the rescaled extension at t, a float or an array of
        points (endpoints allowed). A float is a one-point query."""
        if not isinstance(t, np.ndarray):
            return float(self.tilde(np.array([t], dtype=float))[0])
        x = self.space.map.to_compact(t)
        return self.space.grid.interpolate(self.samples[0], x)

    def raw(self, t):
        """Value of the function itself at t, a float or an array of points;
        raises where the weight diverges."""
        if not isinstance(t, np.ndarray):
            return float(self.raw(np.array([t], dtype=float))[0])
        w = self.space.weight(t)
        if not np.isfinite(w).all():
            raise DomainError(
                "raw value undefined where the weight diverges; query tilde()")
        return self.tilde(t) * w

    def norm(self, kind: str = "phi") -> float:
        return norm(self, kind)

    # -- vector-space structure ----------------------------------------------
    def _combine(self, other: "WeightedFunction", a: float, b: float):
        if not spaces_compatible(self.space, other.space):
            raise DomainError("operands live in different spaces")
        return WeightedFunction(self.space, a * self.samples + b * other.samples)

    def __add__(self, other):
        return self._combine(other, 1.0, 1.0)

    def __sub__(self, other):
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, c):
        return WeightedFunction(self.space, float(c) * self.samples)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def lift(space: Space, samples) -> WeightedFunction:
    """Wrap explicit rescaled samples (shape (order+1, m) or (m,))."""
    return WeightedFunction(space, np.asarray(samples, dtype=float))


def from_tilde(space: Space, rows, endpoints: dict | None = None) -> WeightedFunction:
    """Build from callables evaluating the rescaling and its derivatives.

    ``rows`` is one callable (order 0) or a sequence of order+1 callables.
    Values at infinite nodes come from ``endpoints`` ({'lo': v, 'hi': v}) or,
    when omitted, from tail extrapolation of row 0. Derivative rows are set
    to zero at infinite nodes: once the rescaling settles to a finite limit,
    its derivatives vanish there.
    """
    if callable(rows):
        rows = (rows,)
    rows = tuple(rows)
    if len(rows) != space.order + 1:
        raise DomainError(f"expected {space.order + 1} row evaluators, got {len(rows)}")
    endpoints = dict(endpoints or {})
    grid = space.grid
    out = np.zeros((space.order + 1, space.m))
    fin = grid.finite_mask()
    for j, fn in enumerate(rows):
        out[j, fin] = [fn(t) for t in grid.t[fin]]
    for i in np.nonzero(~fin)[0]:
        key = "lo" if grid.t[i] < 0 else "hi"
        if key in endpoints:
            out[0, i] = endpoints[key]
        else:
            side = -1 if grid.t[i] < 0 else +1
            out[0, i] = tail_limit(rows[0], grid.map, side)
    return WeightedFunction(space, out)


def from_raw(space: Space, fn: Callable[[float], float],
             endpoints: dict | None = None) -> WeightedFunction:
    """Build an order-0 element from the raw (unrescaled) function."""
    if space.order != 0:
        raise DomainError("from_raw builds order-0 elements; use from_tilde")
    w = space.weight
    return from_tilde(space, lambda t: fn(t) / w(t), endpoints)


def norm(u: WeightedFunction, kind: str = "phi") -> float:
    """Space norm of the sampled representation.

    'sup-tilde' is the sup of |row 0|; 'phi' the max over all rows.
    """
    if kind not in NORM_KINDS:
        raise DomainError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    if kind == "sup-tilde":
        return float(np.max(np.abs(u.samples[0])))
    return float(np.max(np.abs(u.samples)))


def asymptotic_limits(u: WeightedFunction) -> tuple:
    """Row-0 values at the interval ends: (left, right).

    The left entry is the rescaled value at a finite left endpoint or the
    extension value at -inf; the right entry is the extension value at +inf.
    """
    return (float(u.samples[0, 0]), float(u.samples[0, -1]))
