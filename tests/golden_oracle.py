"""Scalar golden-section search, the reference that the lockstep search in
``hammerline.quadrature`` is tested against.

One bracket at a time, one point per call: a coarse prescan, then a golden
search around the best prescan cell, as hammerline searched before its
brackets ran in lockstep. No part of the lockstep search is shared.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_section_max(fn, lo, hi, xtol=1e-8, prescan=4):
    """Approximate max of the float function fn on [lo, hi]; returns
    (argmax, max), a tie going to the larger x."""
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


def one_point_at_a_time(fn_x):
    """The float function x -> fn_x(array([x]))[0]."""
    return lambda x: float(np.asarray(fn_x(np.array([x])))[0])


def sup_brackets(grid, kinks=(), start=None, edge=1e-12):
    """The brackets ``sup_on_grid`` searches for one function: the cells
    between the grid nodes, the ``kinks`` and the ``start``, all clipped
    ``edge`` inside [-1, 1], from the start on; a zero-width cell is left
    out unless it is the last, since the next cell starts at its point."""
    first = -1.0 if start is None else start
    cuts = list(grid.x) + list(kinks) + ([] if start is None else [start])
    edges = sorted(min(max(x, -1.0 + edge), 1.0 - edge) for x in cuts)
    lo_min = min(max(first, -1.0 + edge), 1.0 - edge)
    kept = [(a, b) for a, b in zip(edges, edges[1:])
            if a >= lo_min and (b > a or a == edges[-1])]
    return np.array([a for a, _ in kept]), np.array([b for _, b in kept])
