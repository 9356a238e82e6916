"""Adaptive quadrature over the compactified interval, plus sup search.

Integrals with an infinite bound are evaluated in the compact coordinate
with the map jacobian folded into the integrand; finite ranges integrate
directly in the original variable. Sup searches combine grid values with
golden-section refinement inside each bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import quad

from .compactline import CompactMap, Grid
from .elementwise import elementwise
from .errors import DomainError, QuadratureError


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10          # absolute tolerance handed to the integrator
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000


DEFAULT_QUAD = QuadratureConfig()


def _run_quad(fn, lo, hi, cfg: QuadratureConfig, points, node):
    kwargs = dict(epsabs=cfg.tol, epsrel=cfg.rel_tol,
                  limit=cfg.max_subdivisions, full_output=1)
    pts = sorted(p for p in points if lo < p < hi)
    if pts:
        kwargs["points"] = pts
    out = quad(fn, lo, hi, **kwargs)
    val, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(f"integration did not converge: {out[3]}",
                              node=node, estimate=abserr)
    if math.isnan(val):
        raise QuadratureError("integration returned nan", node=node, estimate=abserr)
    return float(val)


def integrate_interval(fn: Callable[[float], float], cmap: CompactMap,
                       cfg: QuadratureConfig | None = None, *,
                       lo: float | None = None, hi: float | None = None,
                       breakpoints: Sequence[float] = (),
                       node: float | None = None) -> float:
    """Integral of fn(t) over [lo, hi] (defaults: the full interval).

    Known kink locations go in ``breakpoints`` (original coordinates).
    ``node`` tags any QuadratureError with the operator node being built.
    """
    cfg = cfg or DEFAULT_QUAD
    a, b = cmap.interval()
    lo = a if lo is None else lo
    hi = b if hi is None else hi
    if not lo < hi:
        return 0.0
    if math.isfinite(lo) and math.isfinite(hi):
        return _run_quad(fn, lo, hi, cfg, breakpoints, node)

    def g(x: float) -> float:
        if x <= -1.0 or x >= 1.0:
            return 0.0
        v = fn(cmap.from_compact(x))
        if v == 0.0:
            return 0.0
        return v * cmap.jacobian(x)

    xlo, xhi = cmap.to_compact(lo), cmap.to_compact(hi)
    pts = [cmap.to_compact(p) for p in breakpoints if math.isfinite(p)]
    return _run_quad(g, xlo, xhi, cfg, pts, node)


# ---------------------------------------------------------------------------
# sup search in the compact coordinate

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _values(fn, x: np.ndarray) -> np.ndarray:
    """fn at every point of the 1-d array x, in one call; a nan is refused."""
    v = np.asarray(fn(x), dtype=float)
    if v.shape != x.shape:
        raise DomainError(f"sup search: fn_x returned shape {v.shape} "
                          f"for {x.size} points")
    if math.isnan(np.maximum.reduce(v)):
        first = float(x[np.isnan(v)][0])
        raise DomainError(f"sup search: fn_x is nan at x={first!r}")
    return v


def golden_section_max(fn: Callable, lo, hi, xtol: float = 1e-8,
                       prescan: int = 4) -> tuple:
    """Approximate max of fn on every bracket [lo[k], hi[k]]: a coarse
    prescan, then a golden search around the best prescan cell.

    The brackets run in lockstep: each step calls fn once, on an array
    with one point per bracket still wider than ``xtol``, and each bracket
    visits the points a search of it alone would visit. Returns the
    arrays (argmax, max); a tie goes to the larger x.
    """
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    rows = np.arange(lo.size)
    xs = lo[:, None] + (hi - lo)[:, None] * np.arange(prescan + 2) / (prescan + 1)
    # an overflow to inf is a value: floating-point warnings stay quiet
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = _values(fn, xs.ravel()).reshape(xs.shape)
        i = np.argmax(vals, axis=1)
        a = xs[rows, np.maximum(i - 1, 0)]
        b = xs[rows, np.minimum(i + 1, prescan + 1)]
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = np.split(_values(fn, np.concatenate((c, d))), 2)
        # the final (c, fc, d, fd) of every bracket; the live ones are searched
        out = [c.copy(), fc.copy(), d.copy(), fd.copy()]
        live = (b - a) > xtol
        idx = rows[live]
        a, b, c, d, fc, fd = (v[live] for v in (a, b, c, d, fc, fd))
        while idx.size:
            # fc >= fd keeps [a, d] and probes a new c, else [c, b] and a new d
            left = fc >= fd
            a = np.where(left, a, c)
            b = np.where(left, d, b)
            width = b - a
            h = _INVPHI * width
            x = np.where(left, b - h, a + h)
            fx = _values(fn, x)
            c, d = np.where(left, x, d), np.where(left, c, x)
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
            live = width > xtol
            if np.count_nonzero(live) < live.size:
                for o, v in zip(out, (c, fc, d, fd)):
                    o[idx] = v
                idx = idx[live]
                a, b, c, d, fc, fd = (v[live] for v in (a, b, c, d, fc, fd))
    c, fc, d, fd = out
    cand_v = np.stack((vals[rows, i], fc, fd), axis=1)
    cand_x = np.stack((xs[rows, i], c, d), axis=1)
    best = cand_v.max(axis=1)
    arg = np.where(cand_v == best[:, None], cand_x, -np.inf).max(axis=1)
    return arg, best


def sup_on_grid(fn_x: Callable, grid: Grid,
                end_vals: Mapping[float, float] | None = None,
                xtol: float = 1e-8, edge: float = 1e-12) -> float:
    """Sup of fn_x over [-1, 1]: node values, endpoint values, and a golden
    refinement inside every bracket (endpoint brackets clipped inward).

    fn_x takes an array of compact coordinates and returns an array of the
    same shape (a float-only fn_x is wrapped, see ``elementwise``); one call
    covers every node, then one every bracket's next point (see
    ``golden_section_max``). A nan value raises DomainError. ``end_vals``
    holds the values at the infinite ends, keyed by their compact
    coordinate -1.0 / 1.0; fn_x is never called at those points.
    """
    end_vals = end_vals or {}
    xs = grid.x
    fn_x = elementwise(fn_x, at=xs[1:3])
    at_end = np.array([x in end_vals for x in xs.tolist()])
    lo = np.maximum(xs[:-1], -1.0 + edge)
    hi = np.minimum(xs[1:], 1.0 - edge)
    open_ = hi > lo
    vals = [end_vals[x] for x in xs[at_end].tolist()]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals += _values(fn_x, xs[~at_end]).tolist()
    if open_.any():
        _, best = golden_section_max(fn_x, lo[open_], hi[open_], xtol=xtol)
        vals.append(best.max())
    return float(max(vals))


def inf_on_grid(fn_x: Callable, grid: Grid,
                end_vals: Mapping[float, float] | None = None,
                xtol: float = 1e-8) -> float:
    """Inf of fn_x over [-1, 1], with the conventions of sup_on_grid."""
    neg_ends = {x: -v for x, v in (end_vals or {}).items()}
    return -sup_on_grid(lambda x: -fn_x(x), grid, neg_ends, xtol=xtol)
