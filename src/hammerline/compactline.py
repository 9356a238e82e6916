"""Compactification of unbounded intervals and grids on them.

An unbounded interval (the whole real line, or a half-line [a, oo)) is pulled
back to the compact coordinate x in [-1, 1] by an algebraic map with scale L.
Infinite endpoints are represented by the IEEE infinities, never by large
finite floats; the compact coordinate of +-inf is exactly +-1.

Maps
----
full line:  t = L * x / sqrt(1 - x^2),      x = t / hypot(L, t)
half line:  t = a + L * (1 + x) / (1 - x),  x = (t - a - L) / (t - a + L)

Both are strictly increasing bijections of (-1, 1) onto the open interval and
extend continuously to the closed ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

INF = math.inf

FULL_LINE = "full-line"
HALF_LINE = "half-line"


@dataclass(frozen=True)
class CompactMap:
    """Algebraic change of variables between an unbounded interval and [-1, 1].

    Parameters
    ----------
    kind : str
        ``"full-line"`` or ``"half-line"``.
    a : float
        Left endpoint of the half-line (ignored for the full line).
    L : float
        Map scale; larger L spreads grid nodes further out. Must be positive.
    """

    kind: str
    a: float = 0.0
    L: float = 1.0

    def __post_init__(self):
        if self.kind not in (FULL_LINE, HALF_LINE):
            raise DomainError(f"unknown map kind {self.kind!r}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise DomainError("map scale L must be a positive finite number")
        if self.kind == HALF_LINE and not math.isfinite(self.a):
            raise DomainError("half-line start must be finite")

    @staticmethod
    def full_line(L: float = 1.0) -> "CompactMap":
        return CompactMap(FULL_LINE, 0.0, L)

    @staticmethod
    def half_line(a: float = 0.0, L: float = 1.0) -> "CompactMap":
        return CompactMap(HALF_LINE, a, L)

    def interval(self) -> tuple[float, float]:
        """Closed extended-real endpoints of the underlying interval."""
        if self.kind == FULL_LINE:
            return (-INF, INF)
        return (self.a, INF)

    def infinite_ends(self) -> tuple[float, ...]:
        """Compact coordinates (-1.0, 1.0) of the infinite interval ends."""
        if self.kind == FULL_LINE:
            return (-1.0, 1.0)
        return (1.0,)

    def contains(self, t: float) -> bool:
        lo, hi = self.interval()
        return lo <= t <= hi

    def from_compact(self, x):
        """Map x in [-1, 1] (a float or an array) to the closed interval."""
        if isinstance(x, np.ndarray):
            reach = np.abs(x).max(initial=0.0)
            if not reach <= 1.0:
                raise DomainError("compact coordinates outside [-1, 1]")
            if reach < 1.0:
                return self._from_open(x)
            # an end divides by an exact zero and lands on an infinity
            with np.errstate(divide="ignore"):
                return self._from_open(x)
        if not -1.0 <= x <= 1.0:
            raise DomainError(f"compact coordinate {x!r} outside [-1, 1]")
        if self.kind == FULL_LINE:
            if x == -1.0:
                return -INF
            if x == 1.0:
                return INF
            return self.L * x / math.sqrt((1.0 - x) * (1.0 + x))
        if x == 1.0:
            return INF
        return self.a + self.L * (1.0 + x) / (1.0 - x)

    def _from_open(self, x: np.ndarray) -> np.ndarray:
        if self.kind == FULL_LINE:
            return self.L * x / np.sqrt((1.0 - x) * (1.0 + x))
        return self.a + self.L * (1.0 + x) / (1.0 - x)

    def to_compact(self, t: float) -> float:
        """Inverse map; accepts the infinite endpoints."""
        if not self.contains(t):
            raise DomainError(f"point {t!r} outside the interval {self.interval()}")
        if self.kind == FULL_LINE:
            if t == -INF:
                return -1.0
            if t == INF:
                return 1.0
            return t / math.hypot(self.L, t)
        if t == INF:
            return 1.0
        d = t - self.a
        return (d - self.L) / (d + self.L)

    def jacobian(self, x):
        """dt/dx at interior x (a float or an array); diverges toward the
        infinite ends."""
        array = isinstance(x, np.ndarray)
        if not (np.abs(x).max(initial=0.0) < 1.0 if array else -1.0 < x < 1.0):
            raise DomainError("jacobian defined on the open interval (-1, 1)")
        if self.kind == FULL_LINE:
            s = (1.0 - x) * (1.0 + x)
            return self.L / (s * (np.sqrt(s) if array else math.sqrt(s)))
        return 2.0 * self.L / (1.0 - x) ** 2


@dataclass(frozen=True)
class GridSpec:
    """Grid request: m Chebyshev-Lobatto nodes in the compact coordinate."""

    m: int
    placement: str = "chebyshev-lobatto"

    def __post_init__(self):
        if self.m < 8:
            raise DomainError("grid needs at least 8 nodes")
        if self.placement != "chebyshev-lobatto":
            raise DomainError(f"unknown placement {self.placement!r}")


@dataclass(frozen=True)
class Grid:
    """Realized grid: compact nodes x (ascending, with +-1), their images t,
    and barycentric weights for interpolation on the x nodes."""

    map: CompactMap
    x: np.ndarray
    t: np.ndarray
    bary_w: np.ndarray

    @property
    def m(self) -> int:
        return self.x.size

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.t)

    def interpolate(self, values: np.ndarray, xq):
        return barycentric_interpolate(self.x, self.bary_w, values, xq)

    def interpolant(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        return lambda xq: barycentric_interpolate(self.x, self.bary_w, values, xq)


def build_grid(cmap: CompactMap, spec: GridSpec) -> Grid:
    """Chebyshev-Lobatto nodes x_j = -cos(pi j / (m-1)) with exact symmetry.

    The endpoint nodes are exactly -1 and 1, so the node images include the
    interval endpoints (the infinite ones as IEEE infinities).
    """
    m = spec.m
    j = np.arange(m)
    x = -np.cos(np.pi * j / (m - 1))
    # enforce exact endpoints and exact symmetry about 0
    x = 0.5 * (x - x[::-1])
    x[0], x[-1] = -1.0, 1.0
    if m % 2 == 1:
        x[(m - 1) // 2] = 0.0
    t = np.array([cmap.from_compact(v) for v in x])
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    for arr in (x, t, w):
        arr.flags.writeable = False
    return Grid(map=cmap, x=x, t=t, bary_w=w)


def barycentric_interpolate(x_nodes: np.ndarray, weights: np.ndarray,
                            values: np.ndarray, xq):
    """Barycentric interpolation at a query point xq in [-1, 1], or at every
    point of an array of them.

    Exact at the nodes and for polynomials of degree < m on Chebyshev-Lobatto
    nodes with the standard alternating weights. A point of an array gets
    the value a float query gives, whatever the other points.
    """
    if isinstance(xq, np.ndarray):
        if not np.abs(xq).max(initial=0.0) <= 1.0:
            raise DomainError("queries outside [-1, 1]")
        d = xq.reshape(-1, 1) - x_nodes
        row, col = np.nonzero(d == 0.0)
        d[row, col] = 1.0
        c = weights / d
        out = np.einsum("ij,j->i", c, values) / c.sum(axis=1)
        out[row] = values[col]
        return out.reshape(xq.shape)
    if not -1.0 <= xq <= 1.0:
        raise DomainError(f"query {xq!r} outside [-1, 1]")
    d = xq - x_nodes
    hit = np.nonzero(d == 0.0)[0]
    if hit.size:
        return float(values[hit[0]])
    c = weights / d
    return float(np.einsum("j,j->", c, values) / np.sum(c))


def barycentric_matrix(x_nodes: np.ndarray, weights: np.ndarray,
                       xq: np.ndarray) -> np.ndarray:
    """Interpolation matrix, query by node: row k times the node values is
    the interpolant at xq[k]. A query on a node gets that node's exact row."""
    b = xq[:, None] - x_nodes
    row, col = np.nonzero(b == 0.0)
    b[row, col] = 1.0
    np.divide(weights, b, out=b)
    b /= b.sum(axis=1, keepdims=True)
    b[row] = 0.0
    b[row, col] = 1.0
    return b


def refining_tail_x(k_lo: int = 1, k_hi: int = 12):
    """Compact coordinates 1 - 10^-k approaching the right end."""
    return [1.0 - 10.0 ** (-k) for k in range(k_lo, k_hi + 1)]
