"""One adaptive panel quadrature for every integral, plus sup search.

Every integral, the rows of the Nystrom operator included, sums a
Gauss-Kronrod 10/21 rule over panels and bisects the worst panel until its
estimate passes. Integrals over the interval run in the angle of
``CompactMap.from_angle``, with the map's jacobian folded into the
integrand; ``_integral_parts`` refuses one over the whole interval whose
tail the tail model decides divergent before it runs. Sup searches combine
grid values with golden-section refinement inside each bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .compactline import CompactMap, Grid
from .elementwise import elementwise
from .errors import DomainError, IntegralPartError, QuadratureError
from .weights import read_ends


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy and panel budget of every adaptive integral."""

    tol: float = 1e-10          # absolute tolerance of an integral
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000   # panels an integral may use


DEFAULT_QUAD = QuadratureConfig()


# The Gauss-Kronrod 10/21 rule on [-1, 1], a row per node: the node, its
# Kronrod weight (a panel's value) and Kronrod minus Gauss weight (its
# estimate, in absolute value). The Kronrod nodes between the Gauss ones are
# QUADPACK's qk21 (Piessens et al., 1983); the Kronrod weights solve the
# Legendre moment equations up to degree 20, which
# tests/test_quadrature.py recomputes with numpy.polynomial.legendre.
_RULE = np.array([
    (-0.9956571630258081, 0.011694638867372348, 0.011694638867372348),
    (-0.9739065285171717, 0.03255816230796454, -0.0341131820007236),
    (-0.9301574913557082, 0.054755896574352265, 0.054755896574352265),
    (-0.8650633666889845, 0.07503967481091997, -0.07441167433966042),
    (-0.7808177265864169, 0.09312545458369738, 0.09312545458369738),
    (-0.6794095682990244, 0.10938715880229767, -0.10969920371368434),
    (-0.5627571346686047, 0.12349197626206587, 0.12349197626206587),
    (-0.4333953941292472, 0.1347092173114735, -0.134557501998523),
    (-0.2943928627014602, 0.14277593857705975, 0.14277593857705975),
    (-0.14887433898163122, 0.1477391049013385, -0.1477851198134143),
    (0.0, 0.14944555400291695, 0.14944555400291695),
    (0.14887433898163122, 0.14773910490133846, -0.14778511981341436),
    (0.2943928627014602, 0.14277593857706017, 0.14277593857706017),
    (0.4333953941292472, 0.1347092173114733, -0.1345575019985232),
    (0.5627571346686047, 0.12349197626206587, 0.12349197626206587),
    (0.6794095682990244, 0.10938715880229766, -0.10969920371368436),
    (0.7808177265864169, 0.09312545458369757, 0.09312545458369757),
    (0.8650633666889845, 0.07503967481091993, -0.07441167433966046),
    (0.9301574913557082, 0.054755896574352016, 0.054755896574352016),
    (0.9739065285171717, 0.03255816230796473, -0.034113182000723406),
    (0.9956571630258081, 0.011694638867371876, 0.011694638867371876),
])
RULE_X, RULE_W = _RULE[:, 0].copy(), _RULE[:, 1:].copy()
_RULE_ROWS = np.ascontiguousarray(RULE_W.T)   # einsum's fast layout of the weights


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


def _worst_panels(err: np.ndarray, starts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The worst panel of every integral (column) of every owner, as
    ``np.argmax`` picks it among the owner's panels: the first nan, else
    the first largest estimate."""
    at = np.arange(owner.size) - starts[owner]
    padded = np.full((starts.size, at.max() + 1) + err.shape[1:], -math.inf)
    padded[owner, at] = err
    return starts[:, None] + np.argmax(padded, axis=1)


def integrate_panels(parts: Callable, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray,
                     cfg: QuadratureConfig, node_of: Callable[[int], float]) -> tuple:
    """Integrals over the panels [lo, hi]; returns their values and
    estimates, an (owner, integral) array each.

    Panel p belongs to owner ``owner[p]`` (ascending, every owner from 0
    on holds a panel); the integrals of an owner share its panels (the
    operator's rows are the integrals of one owner). Once a round,
    parts(lo, hi, owner, keep, fresh) gives the sums of the rule's weight
    columns (last axis) on each fresh panel (first axis) for each integral
    of its owner; ``keep`` marks the panels of the last round that stay.
    While an integral's estimate exceeds max(tol, rel_tol * |value|), the
    worst panel of its owner is bisected. When an owner would pass
    ``cfg.max_subdivisions`` panels, or a panel to split is within 100 ulps
    of its midpoint, QuadratureError is raised with the node
    (``node_of(owner * integrals + integral)``) and estimate of the worst
    integral of such an owner.
    """
    keep, fresh = np.zeros(0, bool), np.ones(lo.size, bool)
    while True:
        new = parts(lo, hi, owner, keep, fresh)
        sums = splice(sums, new, keep, fresh) if keep.size else new
        first = np.ones(owner.size, bool)   # the first panel of each owner
        np.not_equal(owner[1:], owner[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        err = np.abs(sums[..., 1])
        # one reduction per owner, over its own panels only: an integral
        # gets the same bits alone and in any batch
        value = np.add.reduceat(sums[..., 0], starts, axis=0)
        est = np.add.reduceat(err, starts, axis=0)
        over = ~(est <= np.maximum(cfg.tol, cfg.rel_tol * np.abs(value)))
        if not over.any():
            return value, est
        split = np.zeros(lo.size, bool)
        split[_worst_panels(err, starts, owner)[over]] = True
        n = np.add.reduceat(1 + split, starts)
        narrow = split & (hi - lo <= 200.0 * np.finfo(float).eps * np.maximum(-lo, hi))
        refused = (n > cfg.max_subdivisions) | np.logical_or.reduceat(narrow, starts)
        if refused.any():
            r = int(np.argmax(np.where(over & refused[:, None], est, -1.0)))
            g = r // est.shape[1]
            why = (f"{n[g]} panels would pass the limit of {cfg.max_subdivisions}"
                   if n[g] > cfg.max_subdivisions else "a panel is too narrow to split")
            raise QuadratureError(f"integration did not converge: {why}",
                                  node=node_of(r), estimate=float(est.flat[r]))
        at = np.flatnonzero(split)
        mid = 0.5 * (lo[at] + hi[at])
        lo, hi = np.insert(lo, at + 1, mid), np.insert(hi, at, mid)
        owner = np.insert(owner, at + 1, owner[at])
        keep, fresh = ~split, np.repeat(split, 1 + split)


def integrate_compact(fn: Callable, cmap: CompactMap, cfg: QuadratureConfig | None,
                      edges, node: float | np.ndarray | None = None):
    """Integrals of fn, one per row of the compact coordinates ``edges``
    (shape batch + (k,)): from the least to the greatest of the row, with
    panels starting between consecutive ones, 0.0 for a row whose edges are
    all equal. A float for one row of edges, an array of the batch's shape
    otherwise.

    fn(t, x, row) is the integrand of t, also given the compact coordinate
    x of t and the row (in the flattened batch) whose integral it belongs
    to, for 1-d arrays of all three, called once a round for every row.
    Each row keeps its own panels, refined as if it were integrated alone.
    The integrals run in the angle of ``CompactMap.from_angle``, where a
    tail as slow as |t|^-3/2 is bounded. A nan value raises
    QuadratureError; a refusal carries the ``node`` of its row (a float for
    every row, or an array of the batch's shape).
    """
    edges = np.asarray(edges, dtype=float)
    angles = np.sort(cmap.to_angle(edges.reshape(-1, edges.shape[-1])), axis=1)
    cut = np.diff(angles, axis=1) > 0.0
    # the rows that hold a panel, and each panel's owner among them
    held, owner = np.unique(np.nonzero(cut)[0], return_inverse=True)
    values = np.zeros(angles.shape[0])

    def node_of(r: int):
        return node if np.ndim(node) == 0 else float(np.ravel(node)[held[r]])

    def parts(lo, hi, owner, keep, fresh):
        theta, half = panel_nodes(lo[fresh], hi[fresh])
        t, x, jac = cmap.from_angle(theta.ravel())
        row = np.repeat(held[owner[fresh]], RULE_X.size)
        # an overflow to inf is a value, refined or refused like any other
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            f = (np.asarray(fn(t, x, row), dtype=float) * jac).reshape(theta.shape)
            nan = np.isnan(f).any(axis=1)
            if nan.any():
                raise QuadratureError("integration returned nan",
                                      node=node_of(owner[fresh][np.argmax(nan)]),
                                      estimate=math.nan)
            # einsum sums each panel in one order whatever the panel count
            # (a matrix product switches BLAS routines with it)
            return (half[:, None] * np.einsum("pk,ck->pc", f, _RULE_ROWS))[:, None]

    if held.size:
        values[held] = integrate_panels(parts, angles[:, :-1][cut], angles[:, 1:][cut],
                                        owner, cfg or DEFAULT_QUAD, node_of)[0][:, 0]
    values = values.reshape(edges.shape[:-1])
    return values if values.ndim else float(values)


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
    return integrate_compact(lambda t, x, row: fn(t), cmap, cfg, [xlo, *cuts, xhi], node)


def _integral_parts(g: Callable, cmap: CompactMap, cfg: QuadratureConfig,
                    cuts: np.ndarray) -> np.ndarray:
    """Integrals of g(t, x, row) over the interval, one per row of the
    compact coordinates ``cuts`` (shape (rows, k), panel edges inside the
    interval), refused as divergent when |g||t| grows or settles above 0 at
    a tail, before any integration; of several refused rows, the first
    one's IntegralPartError is raised, its ``row`` that row. A quadrature
    refusal (its ``row`` the worst integral's) names the tail
    when |g||t|^(3/2) has no limit there, the decay below which the angle
    map leaves the integrand unbounded."""
    col = np.arange(cuts.shape[0])[:, None]

    def first_refused_end(power: float, refuses) -> tuple:
        """(row, end) of the first row whose tail verdicts (kind, limit) of
        |g||t|^power ``refuses``, and its first such end, '+' or '-';
        (None, '') for none."""
        ends = read_ends(lambda t: np.abs(g(t, cmap.to_compact(t), col)) * np.abs(t) ** power,
                         cmap, (col.size,))
        refused = np.stack([refuses(*verdict) for verdict in ends.values()], axis=1)
        if not refused.any():
            return None, ""
        row = int(np.argmax(refused.any(axis=1)))
        return row, "+" if list(ends)[int(np.argmax(refused[row]))] > 0 else "-"

    row, side = first_refused_end(1.0, lambda kind, lim: np.abs(lim) > 0.0)   # nan: undecided
    if side:
        detail, cause = f"diverges: integrand decays no faster than 1/|t| toward {side}inf", None
    else:
        ends = np.broadcast_to([-1.0, 1.0], (col.size, 2))
        try:
            return integrate_compact(g, cmap, cfg, np.concatenate((ends, cuts), axis=1),
                                     node=col[:, 0].astype(float))
        except QuadratureError as e:
            side = first_refused_end(1.5, lambda kind, lim: kind != "limit")[1]
            slow = f"integrand decays slower than |t|^-3/2 toward {side}inf; " if side else ""
            detail, row, cause = f"did not converge: {slow}{e}", int(e.node), e
    raise IntegralPartError(detail, row) from cause


# ---------------------------------------------------------------------------
# sup search in the compact coordinate

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
XTOL = 1e-8       # a golden bracket narrower than this stops
PRESCAN = 4       # prescan points inside each bracket
EDGE = 1e-12      # the endpoint brackets are clipped this far inward


def _values(fn, x: np.ndarray, row: np.ndarray) -> np.ndarray:
    """fn(x, row) at every point of the 1-d array x, in one call; a nan is
    refused. An empty x is not evaluated."""
    if not x.size:
        return np.empty(0)
    v = np.asarray(fn(x, row), dtype=float)
    if v.shape != x.shape:
        raise DomainError(f"sup search: fn_x returned shape {v.shape} "
                          f"for {x.size} points")
    if math.isnan(v.max(initial=-math.inf)):
        first = float(x[np.isnan(v)][0])
        raise DomainError(f"sup search: fn_x is nan at x={first!r}")
    return v


def _lockstep(fn, lo: np.ndarray, hi: np.ndarray, row: np.ndarray,
              also: tuple) -> tuple:
    """``golden_section_max`` of the brackets [lo, hi] of the rows ``row``
    (1-d arrays), for fn(x, row); the points of ``also`` (x, row) are
    evaluated in the prescan's call, after every bracket's first point lo
    and before its others. Returns (argmax, max, the values at ``also``)."""
    xs = lo[:, None] + (hi - lo)[:, None] * np.arange(PRESCAN + 2) / (PRESCAN + 1)
    k = np.arange(lo.size)
    # an overflow to inf is a value: floating-point warnings stay quiet
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = _values(fn, np.concatenate((xs[:, 0], also[0], xs[:, 1:].T.ravel())),
                    np.concatenate((row, also[1], np.tile(row, PRESCAN + 1))))
        also_v = v[lo.size:lo.size + also[0].size]
        vals = np.concatenate((v[:lo.size], v[lo.size + also[0].size:])).reshape(
            PRESCAN + 2, lo.size).T
        i = np.argmax(vals, axis=1)
        a = xs[k, np.maximum(i - 1, 0)]
        b = xs[k, np.minimum(i + 1, PRESCAN + 1)]
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = np.split(_values(fn, np.concatenate((c, d)), np.concatenate((row, row))), 2)
        # the final (c, fc, d, fd) of every bracket, kept when it stops; only
        # the live brackets are stepped and evaluated
        out = [c.copy(), fc.copy(), d.copy(), fd.copy()]
        live = np.flatnonzero((b - a) > XTOL)
        a, b, c, d, fc, fd = (u[live] for u in (a, b, c, d, fc, fd))
        while live.size:
            # fc >= fd keeps [a, d] and probes a new c, else [c, b] and a new d
            left = fc >= fd
            a = np.where(left, a, c)
            b = np.where(left, d, b)
            width = b - a
            h = _INVPHI * width
            x = np.where(left, b - h, a + h)
            fx = _values(fn, x, row[live])
            c, d = np.where(left, x, d), np.where(left, c, x)
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
            stop = ~(width > XTOL)
            if stop.any():
                for o, u in zip(out, (c, fc, d, fd)):
                    o[live[stop]] = u[stop]
                go = ~stop
                live = live[go]
                a, b, c, d, fc, fd = (u[go] for u in (a, b, c, d, fc, fd))
    c, fc, d, fd = out
    cand_v = np.stack((vals[k, i], fc, fd), axis=-1)
    cand_x = np.stack((xs[k, i], c, d), axis=-1)
    best = cand_v.max(axis=-1)
    arg = np.where(cand_v == best[:, None], cand_x, -np.inf).max(axis=-1)
    return arg, best, also_v


_NO_POINTS = (np.empty(0), np.empty(0, int))


def golden_section_max(fn: Callable, lo, hi, row=None) -> tuple:
    """Approximate max of fn on every bracket [lo[k], hi[k]]: a coarse
    prescan, then a golden search around the best prescan cell.

    lo and hi are floats or 1-d arrays, one entry a bracket. Without
    ``row`` the brackets belong to one function, fn(x) of a 1-d array x.
    With ``row`` (an int per bracket) they form one flat list over a batch
    of functions: fn(x, row) gives, for 1-d arrays x and row, the value of
    function row[j] at x[j]. All brackets run in lockstep: each step calls
    fn once, with one point per bracket still wider than ``XTOL``, so each
    bracket visits the points a search of it alone would visit. Returns the
    1-d arrays (argmax, max), one entry a bracket; a tie goes to the larger
    x.
    """
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    if row is None:
        f, row = (lambda x, r: fn(x)), np.zeros(lo.size, int)
    else:
        f, row = fn, np.asarray(row)
    return _lockstep(f, lo, hi, row, _NO_POINTS)[:2]


def sup_on_grid(fn_x: Callable, grid: Grid,
                end_vals: Mapping[float, float] | None = None, kinks=(), start=None):
    """Sup of fn_x over [-1, 1]: node values, endpoint values, and a golden
    refinement inside every bracket between nodes and ``kinks`` (endpoint
    brackets clipped inward).

    ``kinks`` holds compact coordinates of shape batch + (k,): ``(k,)`` for
    one function, a row each for a batch of functions (k may be 0); the sup
    is a float for one function and an array of the batch's shape for a
    batch (empty for an empty batch, which never calls fn_x). One function
    is fn_x(x) of a 1-d array x (a float-only one is wrapped, see
    ``elementwise``); a batch is fn_x(x, row), the value of function
    ``row[j]`` (in the flattened batch) at x[j], for 1-d arrays x and row.
    The brackets of all functions are one flat list (see
    ``golden_section_max``): one call covers every bracket's prescan, whose
    first point is the bracket's lo, so the nodes inside (-1, 1) are read
    there and only the two end nodes need a point of their own; then one
    call a step covers every live bracket's next point. A nan value raises
    DomainError, naming the first nan of a call (the los come first).
    ``end_vals`` holds the values at the infinite ends (a float, or one per
    function), keyed by their compact coordinate -1.0 / 1.0; fn_x is never
    called at those points.

    ``start`` (a compact coordinate per function, of the batch's shape)
    searches each function on [start, 1] only: its brackets are cut at the
    start, and no node, end or bracket left of it is read. A zero-width
    bracket is dropped when a bracket starts at its point.
    """
    end_vals = end_vals or {}
    kinks = np.asarray(kinks, dtype=float)
    batch = kinks.shape[:-1]
    if 0 in batch:
        return np.empty(batch)
    xs = grid.x
    if batch:
        f = fn_x
    else:
        one = elementwise(fn_x, at=xs[1:3])
        f = lambda x, row: one(x)   # noqa: E731
    n = math.prod(batch)
    first = np.full(n, -1.0) if start is None else np.broadcast_to(start, batch).ravel()
    cuts = [np.broadcast_to(xs, (n, xs.size)), kinks.reshape(n, -1)]
    if start is not None:
        cuts.append(first[:, None])
    edges = np.clip(np.concatenate(cuts, axis=1), -1.0 + EDGE, 1.0 - EDGE)
    edges.sort(axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    # a zero-width bracket's point starts the next bracket, unless it is last
    keep = (lo >= np.clip(first, -1.0 + EDGE, 1.0 - EDGE)[:, None]) & (
        (hi > lo) | (lo == edges[:, -1:]))
    row = np.nonzero(keep)[0]
    at_end = np.array([x in end_vals for x in xs.tolist()])
    # a node inside the clipped interval is the lo of a bracket of its row
    own = ~at_end & (np.abs(xs) > 1.0 - EDGE)
    node_row, node = np.nonzero(own & (xs >= first[:, None]))
    _, best, node_v = _lockstep(f, lo[keep], hi[keep], row, (xs[node], node_row))
    sup = np.full(n, -math.inf)
    for x, v in end_vals.items():
        np.maximum(sup, np.broadcast_to(v, batch).ravel(), out=sup, where=x >= first)
    np.maximum.at(sup, node_row, node_v)
    np.maximum.at(sup, row, best)
    return sup.reshape(batch) if batch else float(sup[0])

