"""One adaptive panel quadrature for every integral, plus sup search.

Every integral, the rows of the Nystrom operator included, sums a
Gauss-Kronrod 10/21 rule over panels and bisects the worst panel until its
estimate passes. Integrals over the interval run in the angle of
``CompactMap.from_angle``, with the map's jacobian folded into the
integrand. Sup searches combine grid values with golden-section refinement
inside each bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .compactline import CompactMap, Grid
from .elementwise import elementwise
from .errors import DomainError, QuadratureError


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10          # absolute tolerance of an integral
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000   # panels an integral may use


DEFAULT_QUAD = QuadratureConfig()


def _gauss_kronrod() -> tuple:
    """Nodes on [-1, 1]; weight columns Kronrod (a panel's value) and Kronrod
    minus Gauss (its estimate, in absolute value). The Kronrod nodes between
    the Gauss ones are QUADPACK's qk21 (Piessens et al., 1983)."""
    gx, gw = np.polynomial.legendre.leggauss(10)
    kx = np.array([0.99565716302580808, 0.93015749135570823, 0.78081772658641690,
                   0.56275713466860468, 0.29439286270146020])
    x = np.sort(np.concatenate((gx, kx, -kx, [0.0])))
    # the Kronrod weights integrate the Legendre polynomials of degree <= 20
    wk = np.linalg.solve(np.polynomial.legendre.legvander(x, 20).T, 2.0 * np.eye(21)[0])
    wg = np.where(np.isin(x, gx), np.interp(x, gx, gw), 0.0)
    return x, np.stack((wk, wk - wg), axis=1)


RULE_X, RULE_W = _gauss_kronrod()


def panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The rule's nodes on the panels [lo, hi] (a row each), half widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * RULE_X, half


def splice(old: np.ndarray, new: np.ndarray, keep: np.ndarray,
           fresh: np.ndarray) -> np.ndarray:
    """Array by panel (first axis): the kept old panels, the fresh ones."""
    out = np.empty((fresh.size,) + old.shape[1:])
    out[~fresh] = old[keep]
    out[fresh] = new
    return out


def integrate_panels(parts: Callable, lo: np.ndarray, hi: np.ndarray,
                     cfg: QuadratureConfig, node_of: Callable[[int], float]) -> tuple:
    """Integrals over the panels [lo, hi]; returns their values and estimates.

    Once a round, parts(lo, hi, keep, fresh) gives the sums of the rule's
    weight columns (last axis) on each fresh panel (first axis) for each
    integral; ``keep`` marks the panels of the last round that stay. While
    an integral's estimate exceeds max(tol, rel_tol * |value|), its worst
    panel is bisected. Past ``cfg.max_subdivisions`` panels, or when a panel
    to split is within 100 ulps of its midpoint, QuadratureError is raised
    with the node (``node_of(integral)``) and estimate of the worst one.
    """
    keep, fresh = np.zeros(0, bool), np.ones(lo.size, bool)
    while True:
        new = parts(lo, hi, keep, fresh)
        sums = splice(sums, new, keep, fresh) if keep.size else new
        value, err = sums[..., 0].sum(axis=0), np.abs(sums[..., 1])
        est = err.sum(axis=0)
        over = ~(est <= np.maximum(cfg.tol, cfg.rel_tol * np.abs(value)))
        if not over.any():
            return value, est
        split = np.zeros(lo.size, bool)
        split[np.argmax(err[:, over], axis=0)] = True
        n = lo.size + split.sum()
        narrow = split & (hi - lo <= 200.0 * np.finfo(float).eps * np.maximum(-lo, hi))
        if n > cfg.max_subdivisions or narrow.any():
            why = (f"{n} panels would pass the limit of {cfg.max_subdivisions}"
                   if n > cfg.max_subdivisions else "a panel is too narrow to split")
            r = int(np.argmax(np.where(over, est, -1.0)))
            raise QuadratureError(f"integration did not converge: {why}",
                                  node=node_of(r), estimate=float(est[r]))
        at = np.flatnonzero(split)
        mid = 0.5 * (lo[at] + hi[at])
        lo, hi = np.insert(lo, at + 1, mid), np.insert(hi, at, mid)
        keep, fresh = ~split, np.repeat(split, 1 + split)


def integrate_compact(fn: Callable, cmap: CompactMap, cfg: QuadratureConfig | None,
                      edges: Sequence[float], node: float | None = None) -> float:
    """Integral of fn from the least to the greatest of the compact
    coordinates ``edges``, with panels starting between consecutive ones.

    fn(t, x) is an integrand of t that is also given the compact coordinate
    x of t, for 1-d arrays of both, called once a round. The integral runs in
    the angle of ``CompactMap.from_angle``, where a tail as slow as |t|^-3/2
    is bounded. A nan value raises QuadratureError; refusals carry ``node``.
    """
    edges = np.unique(cmap.to_angle(np.asarray(edges, dtype=float)))

    def parts(lo, hi, keep, fresh):
        theta, half = panel_nodes(lo[fresh], hi[fresh])
        t, x, jac = cmap.from_angle(theta.ravel())
        # an overflow to inf is a value, refined or refused like any other
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            f = (np.asarray(fn(t, x), dtype=float) * jac).reshape(theta.shape)
            if np.isnan(f).any():
                raise QuadratureError("integration returned nan", node=node,
                                      estimate=math.nan)
            return (half[:, None] * (f @ RULE_W))[:, None]

    values, _ = integrate_panels(parts, edges[:-1], edges[1:], cfg or DEFAULT_QUAD,
                                 lambda r: node)
    return float(values[0])


def integrate_interval(fn: Callable[[float], float], cmap: CompactMap,
                       cfg: QuadratureConfig | None = None, *,
                       lo: float | None = None, hi: float | None = None,
                       breakpoints: Sequence[float] = (),
                       node: float | None = None) -> float:
    """Integral of fn(t) over [lo, hi] (defaults: the full interval).

    fn takes a float or an array (a float-only fn is wrapped, see
    ``elementwise``). Known kink locations go in ``breakpoints`` (original
    coordinates). ``node`` tags any QuadratureError with the operator node
    being built.
    """
    a, b = cmap.interval()
    lo = a if lo is None else lo
    hi = b if hi is None else hi
    if not lo < hi:
        return 0.0
    xlo, xhi = cmap.to_compact(lo), cmap.to_compact(hi)
    # a float-only fn is told by a probe at two points inside [lo, hi]
    at = cmap.from_compact(np.array([3.0 * xlo + xhi, xlo + 3.0 * xhi]) / 4.0)
    fn = elementwise(fn, at=at)
    cuts = [cmap.to_compact(p) for p in breakpoints if lo < p < hi]
    return integrate_compact(lambda t, x: fn(t), cmap, cfg, [xlo, *cuts, xhi], node)


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
