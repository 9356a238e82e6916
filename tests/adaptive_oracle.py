"""Adaptive-quadrature images of the integral operator, the reference that
the Nystrom operator in ``hammerline.hammerstein`` is tested against.

Every row is one adaptive scipy ``quad`` in the compact coordinate x, with
the grid nodes and the kernel kinks passed as breakpoints, and the operand
interpolated by scalar barycentric calls. Finite Volterra rows end at their
node x_i. No part of the Nystrom discretisation (panels, rule, matrices) is
shared.
"""

import math

import numpy as np
from scipy.integrate import quad

import hammerline as hl

ORACLE_QUAD = hl.QuadratureConfig(tol=1e-13, rel_tol=1e-13, max_subdivisions=5000)


def adaptive_apply_T(problem, u, cfg=ORACLE_QUAD):
    """Samples of the image of u, shape (order + 1, m)."""
    sp, kern = problem.space, problem.kernel
    grid, cmap, w = sp.grid, sp.map, sp.weight
    interp = grid.interpolant(u.samples[0])
    at_cache = {}

    def at(x):
        # s, the operand term and dt/dx are the same for every row: evaluate
        # them once per x
        if x not in at_cache:
            s = cmap.from_compact(x)
            at_cache[x] = (s, float(problem.nonlinearity.fn(s, interp(x) * w(s))),
                           cmap.jacobian(x))
        return at_cache[x]

    def row_integral(slice_at, x_hi, ti, kinks=()):
        def g(x):
            s, f, jac = at(x)
            return slice_at(s) * f * jac

        pts = sorted({*grid.x.tolist(),
                      *(cmap.to_compact(k) for k in kinks if cmap.contains(k))})
        out = quad(g, -1.0, x_hi, epsabs=cfg.tol, epsrel=cfg.rel_tol,
                   limit=cfg.max_subdivisions, full_output=1,
                   points=[p for p in pts if -1.0 < p < x_hi] or None)
        if len(out) > 3 or math.isnan(out[0]):
            raise hl.QuadratureError("oracle integration did not converge",
                                     node=ti, estimate=out[1])
        return out[0]

    rows = sp.order + 1
    img = np.array(problem.forcing.samples, dtype=float)
    for i, (xi, ti) in enumerate(zip(grid.x, grid.t)):
        if math.isinf(ti):
            side = 0 if ti < 0 else 1
            img[0, i] += row_integral(
                lambda s: hl.slice_endpoint_values(kern, w, s, cmap)[side],
                1.0, ti)
            continue
        kinks = tuple(kern.kink_locator(ti)) if kern.kink_locator else ()
        x_hi = xi if kern.support == hl.VOLTERRA else 1.0
        img[0, i] += row_integral(
            lambda s: float(kern.fn(ti, s)) * float(kern.eta(s)),
            x_hi, ti, kinks) / w(ti)
        for j in range(1, rows):
            dslice = kern.dt_slices[j - 1]
            img[j, i] += row_integral(lambda s: float(dslice(ti, s)),
                                      x_hi, ti, kinks)
    return img
