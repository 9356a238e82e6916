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

from scipy.integrate import quad

from .compactline import CompactMap, Grid
from .errors import QuadratureError


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


def golden_section_max(fn: Callable[[float], float], lo: float, hi: float,
                       xtol: float = 1e-8, prescan: int = 4) -> tuple:
    """Approximate max of fn on [lo, hi]: coarse prescan, then golden search
    around the best prescan cell. Returns (argmax, max)."""
    xs = [lo + (hi - lo) * i / (prescan + 1) for i in range(prescan + 2)]
    vals = [fn(x) for x in xs]
    i = max(range(len(vals)), key=lambda j: vals[j])
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    best = max((vals[i], xs[i]), (fc, c), (fd, d))
    return best[1], best[0]


def sup_on_grid(fn_x: Callable[[float], float], grid: Grid,
                end_vals: Mapping[float, float] | None = None,
                xtol: float = 1e-8, edge: float = 1e-12) -> float:
    """Sup of fn_x over [-1, 1]: node values, endpoint values, and a golden
    refinement inside every bracket (endpoint brackets clipped inward).

    ``end_vals`` holds the values at the infinite ends, keyed by their
    compact coordinate -1.0 / 1.0; fn_x is never called at those points.
    """
    end_vals = end_vals or {}
    xs = grid.x
    best = max(end_vals[x] if x in end_vals else fn_x(x) for x in xs)
    for a, b in zip(xs, xs[1:]):
        a = max(a, -1.0 + edge)
        b = min(b, 1.0 - edge)
        if b <= a:
            continue
        _, v = golden_section_max(fn_x, a, b, xtol=xtol)
        if v > best:
            best = v
    return float(best)


def inf_on_grid(fn_x: Callable[[float], float], grid: Grid,
                end_vals: Mapping[float, float] | None = None,
                xtol: float = 1e-8) -> float:
    """Inf of fn_x over [-1, 1], with the end convention of sup_on_grid."""
    neg_ends = {x: -v for x, v in (end_vals or {}).items()}
    return -sup_on_grid(lambda x: -fn_x(x), grid, neg_ends, xtol=xtol)
