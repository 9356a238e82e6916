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
        """Map x in [-1, 1] (a float or an array) to the closed interval. A
        float is mapped as a one-point array, so it gets the bits it gets as
        a point of any array."""
        if not isinstance(x, np.ndarray):
            return float(self.from_compact(np.array([x], dtype=float))[0])
        reach = np.abs(x).max(initial=0.0)
        if not reach <= 1.0:
            raise DomainError("compact coordinates outside [-1, 1]")
        if reach < 1.0:
            return self._from_open(x)
        # an end divides by an exact zero and lands on an infinity
        with np.errstate(divide="ignore"):
            return self._from_open(x)

    def to_angle(self, x):
        """The angles of compact coordinates x (an array), see from_angle."""
        if self.kind == FULL_LINE:
            return np.arcsin(np.arcsin(x) * (2.0 / np.pi))
        return np.arcsin(x)

    def from_angle(self, theta: np.ndarray) -> tuple:
        """(t, x, dt/dtheta) at angles theta in (-pi/2, pi/2): x = sin(theta)
        on a half-line, sin(pi/2 sin(theta)) on the full line, so t grows like
        the angle's distance to an infinite end to the power -2. t and
        dt/dtheta keep their relative accuracy toward the ends."""
        s, c = np.sin(theta), np.cos(theta)
        if self.kind == FULL_LINE:
            g = (0.5 * np.pi) * c * c / (1.0 + np.abs(s))   # x = +-cos(g)
            return (np.copysign(self.L / np.tan(g), s), np.copysign(np.cos(g), s),
                    (0.5 * np.pi) * self.L * c / np.sin(g) ** 2)
        r = np.tan(0.25 * np.pi + 0.5 * theta)     # (1 + x) / (1 - x) = r^2
        return self.a + self.L * r * r, s, self.L * r * (1.0 + r * r)

    def _from_open(self, x: np.ndarray) -> np.ndarray:
        if self.kind == FULL_LINE:
            return self.L * x / np.sqrt((1.0 - x) * (1.0 + x))
        return self.a + self.L * (1.0 + x) / (1.0 - x)

    def to_compact(self, t):
        """Inverse map of a float or an array; accepts the infinite
        endpoints. A float gets the value it has as a point of an array."""
        v = np.asarray(t, dtype=float)
        lo, hi = self.interval()
        inside = (lo <= v) & (v <= hi)
        if not inside.all():
            bad = t if v.ndim == 0 else float(v[~inside][0])
            raise DomainError(f"point {bad!r} outside the interval {self.interval()}")
        # an infinite end gives inf / inf, then its exact coordinate
        with np.errstate(invalid="ignore"):
            if self.kind == FULL_LINE:
                x = v / np.hypot(self.L, v)
            else:
                d = v - self.a
                x = (d - self.L) / (d + self.L)
        x = np.where(np.isinf(v), np.sign(v), x)
        return x if isinstance(t, np.ndarray) else float(x)

    def jacobian(self, x):
        """dt/dx at interior x (a float or an array); diverges toward the
        infinite ends. A float is computed as a one-point array."""
        if not isinstance(x, np.ndarray):
            return float(self.jacobian(np.array([x], dtype=float))[0])
        if not np.abs(x).max(initial=0.0) < 1.0:
            raise DomainError("jacobian defined on the open interval (-1, 1)")
        if self.kind == FULL_LINE:
            s = (1.0 - x) * (1.0 + x)
            return self.L / (s * np.sqrt(s))
        return 2.0 * self.L / (1.0 - x) ** 2


@dataclass(frozen=True)
class GridSpec:
    """Grid request: m Chebyshev-Lobatto nodes in the compact coordinate."""

    m: int

    def __post_init__(self):
        if self.m < 8:
            raise DomainError("grid needs at least 8 nodes")


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
        """The interpolant of node values: xq -> its values at xq for one
        row of them (shape (m,)); (xq, row) -> the values at xq of the
        interpolants of the rows ``row`` for a batch (shape (rows, m)), see
        ``barycentric_interpolate``."""
        values = np.asarray(values, dtype=float)
        return lambda xq, row=0: barycentric_interpolate(self.x, self.bary_w, values,
                                                         xq, row)


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
    t = cmap.from_compact(x)
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    for arr in (x, t, w):
        arr.flags.writeable = False
    return Grid(map=cmap, x=x, t=t, bary_w=w)


def barycentric_interpolate(x_nodes: np.ndarray, weights: np.ndarray,
                            values: np.ndarray, xq, row=0):
    """Barycentric interpolation at a query point xq in [-1, 1], or at every
    point of an array of them.

    Exact at the nodes and for polynomials of degree < m on Chebyshev-Lobatto
    nodes with the standard alternating weights. A float query is computed
    as a one-point array, and a point of an array gets the value it has
    alone, whatever the other points. ``values`` holds one row of node
    values (shape (m,)) or a batch of rows (shape (rows, m)); for a batch,
    ``row`` (an integer array broadcast against xq) tags each query point
    with the row it interpolates, so one call serves a batch of functions,
    each point with the value a query of its row alone gives.
    """
    one = not isinstance(xq, np.ndarray)   # a float query is a one-point query
    if one:
        xq = np.array([xq], dtype=float)
    if not np.abs(xq).max(initial=0.0) <= 1.0:
        raise DomainError("queries outside [-1, 1]")
    table = np.atleast_2d(values)
    shape = np.broadcast(xq, row).shape
    xs = xq.ravel() if xq.shape == shape else np.broadcast_to(xq, shape).ravel()
    rows = np.broadcast_to(0 if table.shape[0] == 1 else row, shape).ravel()
    out = _interpolate(x_nodes, weights, table, xs, rows)
    return float(out[0]) if one and np.ndim(row) == 0 else out.reshape(shape)


_BLOCK = 1024   # query points per (points x nodes) temporary


def _interpolate(x_nodes, weights, table, xs, rows) -> np.ndarray:
    """The interpolants of the rows ``rows`` (one per point) of ``table`` at
    the points xs, in blocks of points: one product per block with the
    rows gathered per point (a one-row table is broadcast, not copied)."""
    out = np.empty(xs.size)
    for a in range(0, xs.size, _BLOCK):
        b = min(a + _BLOCK, xs.size)
        c = xs[a:b, None] - x_nodes
        hit, col = divmod(np.flatnonzero(c == 0.0), x_nodes.size)
        c[hit, col] = 1.0
        np.divide(weights, c, out=c)
        vals = np.broadcast_to(table, c.shape) if table.shape[0] == 1 else table[rows[a:b]]
        np.einsum("ij,ij->i", c, vals, out=out[a:b])
        out[a:b] /= c.sum(axis=1)
        if hit.size:
            out[a + hit] = table[rows[a + hit], col]
    return out


def barycentric_matrix(x_nodes: np.ndarray, weights: np.ndarray,
                       xq: np.ndarray) -> np.ndarray:
    """Interpolation matrix, query by node: row k times the node values is
    the interpolant at xq[k]. A query on a node gets that node's exact row."""
    b = xq[:, None] - x_nodes
    row, col = divmod(np.flatnonzero(b == 0.0), x_nodes.size)
    b[row, col] = 1.0
    np.divide(weights, b, out=b)
    b /= b.sum(axis=1, keepdims=True)
    b[row] = 0.0
    b[row, col] = 1.0
    return b


def refining_tail_x(k_lo: int = 1, k_hi: int = 12):
    """Compact coordinates 1 - 10^-k approaching the right end."""
    return [1.0 - 10.0 ** (-k) for k in range(k_lo, k_hi + 1)]
