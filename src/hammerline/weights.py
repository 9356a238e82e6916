"""Weight functions, the reading of functions at +-inf, and comparability
of weights on an unbounded interval.

A weight is a positive continuous function used to rescale unbounded
functions; two weights generate the same rescaled space exactly when their
ratio stays pinned between positive bounds out to the endpoints. Every
value or refusal at an infinite end is a ``read_ends`` reading (a batch of
rows evaluated in one array call at each end's tail points and classified
by one tail model, ``classify_tail``), but ``classify_asymptotic``'s, which
checks f and g apart before it classifies their ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .compactline import CompactMap, Grid, GridSpec, build_grid, refining_tail_x
from .elementwise import elementwise, exp, filled, scalar_fn
from .errors import DomainError, TailLimitError

FD_REL_TOL = 1e-6        # allowed relative gap of a derivative to central differences
TAIL_K_HI = 12           # the tail grid ends at the compact coordinate 1 - 10^-12
TAIL_AGREE_REL = 1e-9    # relative spread of tail values that counts as settled
TAIL_EXP_MARGIN = 0.25   # |alpha| a fitted power tail r ~ A + B|t|^-alpha must pass
TAIL_EXP_AGREE = 0.05    # allowed gap of the fit's two exponent estimates


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

    def derivative(self, t: float) -> float:
        """The first derivative (order 1) at t, from the first evaluator of
        ``derivs``."""
        if not self.derivs:
            raise DomainError(f"weight {self.label!r} has no derivative evaluator")
        return float(self.derivs[0](t))


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


def check_positive(w: Weight, grid: Grid) -> None:
    """Raise unless w is positive and finite at every finite node."""
    ts = grid.t[grid.finite_mask()]
    with np.errstate(all="ignore"):
        v = np.broadcast_to(w(ts), ts.shape)
        bad = ~((v > 0.0) & np.isfinite(v))
    if bad.any():
        raise DomainError(
            f"weight {w.label!r} not positive finite at node t={ts[np.argmax(bad)]}")


def check_weight(w: Weight, grid: Grid) -> None:
    """Validate positivity at the finite nodes and, when derivative
    evaluators are present, their agreement with central differences."""
    check_positive(w, grid)
    if not w.derivs:
        return
    for t in grid.t[grid.finite_mask()]:
        h = 1e-5 * max(1.0, abs(t))
        fd = (w(t + h) - w(t - h)) / (2.0 * h)
        an = w.derivative(t)
        if abs(fd - an) > FD_REL_TOL * max(1.0, abs(an)):
            raise DomainError(
                f"weight {w.label!r} derivative mismatch at t={t}: fd={fd} analytic={an}")


# ---------------------------------------------------------------------------
# tail behavior

def tail_points(cmap: CompactMap, side: int = +1) -> np.ndarray:
    """The points of the refining tail grid toward the end ``side``."""
    return cmap.from_compact(side * np.array(refining_tail_x(4, TAIL_K_HI)))


def tail_values(fn: Callable, ts: np.ndarray, shape: tuple) -> np.ndarray:
    """fn(ts) as an array of ``shape``, a batch of rows of values at the
    tail points ts; an evaluation that raises gives nan, the unknown."""
    try:
        with np.errstate(all="ignore"):
            return np.broadcast_to(np.asarray(fn(ts), dtype=float), shape)
    except (OverflowError, ValueError, ZeroDivisionError):
        return np.full(shape, math.nan)


_KINDS = np.array(["unknown", "limit", "diverges"])


def classify_tail(ts: np.ndarray, vals: np.ndarray) -> tuple:
    """The ``tail_trend`` verdicts of rows of values (last axis) at the tail
    points ts, in one pass: arrays (kind, value) of the rows' shape, with
    value nan where the kind is "unknown". Finite rows that the rules below
    leave undecided, and only those, go to the exponent fit ``_power_tail``."""
    vals = np.asarray(vals, dtype=float)
    last = vals[..., -1]
    with np.errstate(all="ignore"):
        prev, succ = vals[..., :-1], vals[..., 1:]
        # Richardson: r(t) = A + B/t + o(1/t); pairwise elimination of B
        rich = (succ * ts[1:] - prev * ts[:-1]) / (ts[1:] - ts[:-1])
        tails = np.stack((rich[..., -3:], vals[..., -3:]))
        scale = np.abs(tails).max(axis=-1, keepdims=True)
        settled = (np.abs(np.diff(tails, axis=-1)) <= TAIL_AGREE_REL * scale + 1e-300).all(axis=-1)
        # the rules from the weakest up, each overriding the ones before:
        # certified monotone escape, settled raw values (they may settle
        # even when extrapolation is noisy), settled extrapolation, and a
        # non-finite value, a certified escape only when |v| never falls and
        # the last value is infinite; a nan is never decided
        code = np.zeros(last.shape, int)
        value = np.full(last.shape, math.nan)
        up = (succ >= prev).all(axis=-1) & (last > 1e12)
        down = (succ <= prev).all(axis=-1) & (last < -1e12)
        infinite = ~np.isfinite(vals).all(axis=-1)
        grows = ((np.abs(succ) >= np.abs(prev)) | ~np.isfinite(succ)).all(axis=-1)
        escape = grows & ~np.isfinite(last) & ~np.isnan(vals).any(axis=-1)
        for hit, kind, v in ((up | down, 2, np.where(up, math.inf, -math.inf)),
                             (settled[1], 1, last), (settled[0], 1, rich[..., -1]),
                             (infinite, 0, math.nan), (escape, 2, last)):
            code = np.where(hit, kind, code)
            value = np.where(hit, v, value)
        # what these rules leave undecided, of finite rows, goes to the fit
        todo = (code == 0) & ~infinite
        if todo.any():
            code[todo], value[todo] = _power_tail(ts[-4:], vals[todo][:, -4:])
    return _KINDS[code.ravel()].reshape(code.shape), value


def _power_tail(ts: np.ndarray, r: np.ndarray) -> tuple:
    """Codes and values of rows r (shape (n, 4)) of the last four tail
    values at the points ts, from the fit r ~ A + B|t|^-alpha by Aitken's
    delta^2: two exponent estimates from the differences d and the probe
    ratios, two extrapolants A = r - d^2 / (d - d_before). With estimates
    that agree, alpha > margin gives the limit A if the extrapolants agree,
    else 0 if |A| is below the last difference and within a few times the
    extrapolants' spread, the fit's own noise; alpha < -margin diverges."""
    d = np.diff(r, axis=-1)
    # a difference ratio <= 0 (values not strictly monotone) has no finite log
    alpha = -np.log(d[:, 1:] / d[:, :-1]) / np.log(np.abs(ts[2:] / ts[1:-1]))
    ext = r[:, 2:] - d[:, 1:] ** 2 / (d[:, 1:] - d[:, :-1])
    spread = np.abs(ext[:, 0] - ext[:, 1])
    agree = np.abs(alpha[:, 0] - alpha[:, 1]) <= TAIL_EXP_AGREE
    decays = agree & (alpha.min(axis=-1) > TAIL_EXP_MARGIN)
    hits = (decays & (spread <= TAIL_AGREE_REL * np.abs(ext).max(axis=-1)),
            decays & (np.abs(ext[:, 1]) <= np.minimum(np.abs(d[:, -1]), 4.0 * spread)),
            agree & (alpha.max(axis=-1) < -TAIL_EXP_MARGIN))
    return (np.select(hits, (1, 1, 2), 0),
            np.select(hits, (ext[:, 1], 0.0, np.copysign(math.inf, d[:, -1])), math.nan))


def read_ends(fn: Callable, cmap: CompactMap, shape: tuple = (), sides=None) -> dict:
    """{end: (kind, value)} for each infinite end of cmap (or each of
    ``sides``), in order: the ``classify_tail`` verdicts, arrays of the row
    shape ``shape``, of fn at that end. fn takes one end's tail points (a
    1-d array) and gives every row's values there (shape ``shape`` +
    (points,)); an evaluation that raises reads "unknown" (``tail_values``).
    """
    out = {}
    for side in cmap.infinite_ends() if sides is None else sides:
        ts = tail_points(cmap, side)
        out[side] = classify_tail(ts, tail_values(fn, ts, shape + ts.shape))
    return out


def tail_trend(fn: Callable[[float], float], cmap: CompactMap, side: int = +1):
    """Classify the endpoint behavior of fn along the refining tail grid.

    A reading of one row at one end (``read_ends``): fn gets the tail points
    as one array (a float-only fn is wrapped, see ``elementwise``). Returns
    one of
      ("limit", L)      the values settle (after one Richardson elimination
                        of the 1/t term, or by the exponent fit of a power
                        tail) to the finite value L,
      ("diverges", s)   certified monotone escape, s = +-inf,
      ("unknown", None) no decision (oscillation, slower than any power,
                        evaluation failure).
    """
    kind, value = (x.item() for x in read_ends(elementwise(fn), cmap, sides=(side,))[side])
    return (kind, None if kind == "unknown" else value)


def tail_limit(fn: Callable[[float], float], cmap: CompactMap, side: int = +1) -> float:
    """Finite endpoint limit of fn, or TailLimitError if it does not settle."""
    kind, val = tail_trend(fn, cmap, side)
    if kind != "limit":
        raise TailLimitError(
            f"no finite limit toward {'+inf' if side > 0 else '-inf'} (trend: {kind})")
    return val


# ---------------------------------------------------------------------------
# equivalence

RATIO_BAND = (1e-8, 1e8)
EQUIV_NODES = 33         # grid size of the finite-node scan of weights_equivalent


@dataclass(frozen=True)
class WeightEquivalence:
    """Verdict of ``weights_equivalent`` with the endpoint ratios behind it."""

    verdict: str                 # 'equivalent' | 'not-equivalent' | 'inconclusive'
    left: float | None           # endpoint ratio value/limit (None when unknown)
    right: float | None
    detail: str = ""


def weights_equivalent(w1: Weight, w2: Weight, cmap: CompactMap) -> WeightEquivalence:
    """Decide whether two weights pin each other between positive bounds.

    The ratio w1/w2 is examined at the finite grid nodes and at both
    endpoints (tail extrapolation toward infinite ends, direct evaluation at
    a finite end). Certified two-sided boundedness gives 'equivalent';
    a certified escape of the ratio (limit 0, divergence, or a limit outside
    the admissible band) gives 'not-equivalent'; anything else is
    'inconclusive'. Zero-order spaces only. The finite nodes are those of
    the ``EQUIV_NODES``-point grid on ``cmap``.
    """
    grid = build_grid(cmap, GridSpec(EQUIV_NODES))
    lo_band, hi_band = RATIO_BAND

    def ratio(t):
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

    lo_end, _ = cmap.interval()
    ends = [("limit", ratio(lo_end))] if math.isfinite(lo_end) else []
    ends += [(k.item(), v.item()) for k, v in read_ends(ratio, cmap).values()]
    if any(kind == "unknown" for kind, _ in ends):
        return WeightEquivalence("inconclusive", None, None,
                                 "endpoint ratio trend undecided")
    left, right = vals = [v for _, v in ends]
    for v in vals:
        if math.isinf(v) or not (lo_band <= v <= hi_band):
            return WeightEquivalence("not-equivalent", left, right,
                                     "endpoint ratio escapes the admissible band")
    return WeightEquivalence("equivalent", left, right)


# ---------------------------------------------------------------------------
# growth comparison of positive functions

TAGS = ("greater", "less", "comparable", "comparable-with-limit",
        "equivalent", "lower-bounded", "upper-bounded", "undetermined")
# the decision thresholds of classify_asymptotic (see there)
CLASSIFY_AGREE_REL, CLASSIFY_BIG, CLASSIFY_SMALL = 1e-4, 1e6, 1e-6


@dataclass(frozen=True)
class AsymptoticRelation:
    """Outcome of the tail comparison of two positive functions.

    tag meanings for r = f/g along the refining tail:
      'greater'               r certified to escape to +inf
      'less'                  r certified to settle to 0
      'comparable'            r stayed inside the band at every probe
      'comparable-with-limit' r settles to a finite positive limit
      'equivalent'            r settles to 1
      'lower-bounded'         r nondecreasing (inf certified positive)
      'upper-bounded'         r nonincreasing (sup certified finite)
      'undetermined'          none of the above could be certified
    """

    tag: str
    limit: float | None = None
    ratios: tuple = ()
    probes: tuple = ()
    detail: str = ""


def classify_asymptotic(f: Callable[[float], float], g: Callable[[float], float],
                        cmap: CompactMap, *, side: int = +1) -> AsymptoticRelation:
    """Compare the tail growth of two positive functions along the map.

    f and g (floats or arrays, see ``elementwise``) are evaluated once at
    the tail points; a value that is nan, negative (or 0 for g) or fails to
    evaluate raises. ``classify_tail`` decides the ratio f/g: an escape to
    +inf is 'greater', a limit 0 'less', a limit within
    ``CLASSIFY_AGREE_REL`` of 1 'equivalent' and any other limit
    'comparable-with-limit'. An undecided ratio is graded to 'comparable'
    (every probe inside [``CLASSIFY_SMALL``, ``CLASSIFY_BIG``]), one-sided
    bounds, or 'undetermined'.
    """
    ts = tail_points(cmap, side)
    fv, gv = (tail_values(elementwise(h), ts, ts.shape) for h in (f, g))
    for name, v in (("f", fv), ("g", gv)):
        bad = np.isnan(v) | (v < 0.0) | ((v == 0.0) & (name == "g"))
        if bad.any():
            raise DomainError(f"{name}(t)={v[bad][0]} at t={ts[bad][0]}: "
                              "comparison needs positive functions")
    with np.errstate(all="ignore"):
        ratios = fv / gv   # nan for inf / inf
    kind, value = (x.item() for x in classify_tail(ts, ratios))
    rel = partial(AsymptoticRelation, ratios=tuple(ratios.tolist()), probes=tuple(ts.tolist()))
    if kind == "diverges":
        return rel("greater" if value > 0 else "less")
    if kind == "limit":
        tag = ("less" if value == 0.0 else "equivalent" if abs(value - 1.0) <= CLASSIFY_AGREE_REL
               else "comparable-with-limit")
        return rel(tag, value)
    if np.isnan(ratios).any():
        return rel("undetermined", detail="ratio of two overflowing values")
    if ((CLASSIFY_SMALL <= ratios) & (ratios <= CLASSIFY_BIG)).all():
        return rel("comparable")
    if (np.diff(ratios) >= 0.0).all():
        return rel("lower-bounded")
    if (np.diff(ratios) <= 0.0).all():
        return rel("upper-bounded")
    return rel("undetermined")
