"""The float-or-array calling convention of the problem callables.

Every callable of a problem (kernel, density, weight, nonlinearity,
envelopes, raw slices, sup-search integrands) takes floats or numpy arrays
and returns the broadcast shape of its arguments: a float for floats, an
array for arrays. The bundled builders are written that way, with a plain
``math`` path for floats, since scipy ``quad`` calls them one point at a
time. A callable written for floats only is wrapped once by
``elementwise``, which calls it point by point on arrays and directly on
floats, so it gives the values of the scalar calls.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

_PROBE = np.array([0.5, 2.0])


def _is_array(*args) -> bool:
    for a in args:
        if isinstance(a, np.ndarray):
            return True
    return False


def _maps_arrays(fn: Callable, nargs: int, outputs: int, at: np.ndarray) -> bool:
    """Whether fn returns arrays of the probe's shape when any one argument
    is the probe array and the others are floats."""
    for i in range(nargs):
        args = [float(at[0])] * nargs
        args[i] = at
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                out = fn(*args)
        except Exception:
            # whatever the failure, it only selects the point-by-point
            # path, where the same call raises again at its real arguments
            return False
        if outputs > 1:
            if not isinstance(out, tuple) or len(out) != outputs:
                return False
        else:
            out = (out,)
        if not all(isinstance(o, np.ndarray) and o.shape == at.shape for o in out):
            return False
    return True


def _column(a, shape: tuple) -> list:
    """The values of a float or an array broadcast to shape, as a list."""
    if not isinstance(a, np.ndarray):
        return [a] * math.prod(shape)
    if a.shape != shape:
        a = np.broadcast_to(a, shape)
    return a.ravel().tolist()


def elementwise(fn: Callable | None, nargs: int = 1, *, outputs: int = 1,
                at=None) -> Callable | None:
    """``fn`` itself when it already maps arrays, else a wrapper that calls it
    once per point of its (broadcast) array arguments.

    The probe calls fn once per argument, with that argument a 2-element
    array (``at``, default (0.5, 2.0)) and the others its first entry; fn
    maps arrays when every probe returns arrays of that shape (a tuple of
    ``outputs`` of them); an exception in a probe makes it float-only, and
    warnings in a probe are silenced. The wrapper passes floats straight
    through and keeps the original callable as ``scalar_fn``.
    """
    if fn is None or hasattr(fn, "scalar_fn"):
        return fn
    at = _PROBE if at is None else np.asarray(at, dtype=float)
    if _maps_arrays(fn, nargs, outputs, at):
        return fn

    def pointwise(*args):
        if not _is_array(*args):
            return fn(*args)
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        vals = list(map(fn, *(_column(a, shape) for a in args)))
        if outputs == 1:
            return np.array(vals, dtype=float).reshape(shape)
        if not vals:
            return tuple(np.empty(shape) for _ in range(outputs))
        return tuple(np.array(col, dtype=float).reshape(shape) for col in zip(*vals))

    pointwise.scalar_fn = fn
    return pointwise


def scalar_fn(fn: Callable) -> Callable:
    """The callable that ``elementwise`` wrapped, or fn itself."""
    return getattr(fn, "scalar_fn", fn)


def filled(value, *like):
    """``value`` in the broadcast shape of ``like`` and itself: the value
    for floats, a filled array when any of them is an array."""
    if not _is_array(value, *like):
        return value
    shape = np.broadcast_shapes(np.shape(value), *(np.shape(a) for a in like))
    return np.full(shape, value, dtype=float)


def exp(x):
    """e**x, inf on overflow, for a float or an array."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def positive_part(x):
    """max(x, 0) for a float or an array."""
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0.0)
    return max(x, 0.0)
