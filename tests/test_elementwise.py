"""The float-or-array contract of the problem callables: bundled callables
map arrays as they map floats, and float-only user callables are wrapped
once and give the values of the bundled ones."""

import dataclasses
import math

import numpy as np
import pytest

import hammerline as hl
from hammerline.cone import (DEFAULT_LOWER_ENVELOPE, DEFAULT_UPPER_ENVELOPE,
                             report_to_jsonable)
from hammerline.elementwise import elementwise
from hammerline.scenario import build_envelope

from conftest import make_space

HALF = hl.CompactMap.half_line(a=0.0, L=1.0)
FULL = hl.CompactMap.full_line(L=2.0)
X = np.linspace(-0.999, 0.999, 37)
T = HALF.from_compact(X)                   # (0, ~2000): exp overflows at the top
S = T[::-1].copy()
Y = np.linspace(-3.0, 3.0, 37)             # crosses gravity's y <= -R refusal


def _assert_within_ulp(got, want, ulps=1):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        gap = np.abs(got - want)
    close = gap <= ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(same | close), np.flatnonzero(~(same | close))


def _pointwise(fn, *args):
    cols = np.broadcast_arrays(*args)
    out = [fn(*(float(c[k]) for c in cols)) for k in range(cols[0].size)]
    if isinstance(out[0], tuple):
        return tuple(np.array(col, dtype=float) for col in zip(*out))
    return np.array(out, dtype=float)


def _bundled_cases():
    space0 = make_space(m=17)
    space1 = make_space(m=17, order=1)
    c2 = hl.boosted_projectile_problem(space1, v0=1.0)
    grav = hl.gravity_projectile_problem(space0, g=1.0, R=1.0, v0=2.0)
    kern, nl = c2.kernel, c2.nonlinearity
    cases = []
    for w in (hl.affine(b=1.0, scale=2.0), hl.exponential(c=2.0, rate=1.0),
              hl.power(q=1.5, scale=0.5)):
        cases += [(f"{w.label}.fn", w.fn, (T,)), (f"{w.label}.deriv", w.derivs[0], (T,))]
    cases += [
        ("kernel.fn(t[], s)", kern.fn, (T, 3.0)),
        ("kernel.fn(t, s[])", kern.fn, (3.0, S)),
        ("kernel.fn(t[], s[])", kern.fn, (T, S)),
        ("kernel.eta", kern.eta, (S,)),
        ("kernel.tilde_slice", kern.tilde_slice, (T, S)),
        ("kernel.slice_endpoints", kern.slice_endpoints, (S,)),
        ("kernel.dt_slices[0](t, s[])", kern.dt_slices[0], (3.0, S)),
        ("kernel.dt_slices[0](t[], s[])", kern.dt_slices[0], (T, S)),
        ("boosted f", nl.fn, (T, Y)),
        ("boosted f(t[], y)", nl.fn, (T, 0.5)),
        ("boosted upper envelope", nl.upper_envelope, (T, 0.7)),
        ("boosted lower envelope", nl.lower_envelope, (T, 0.7)),
        ("gravity f", grav.nonlinearity.fn, (T, Y)),
        ("gravity f(t[], y)", grav.nonlinearity.fn, (T, 0.5)),
        ("default upper envelope", DEFAULT_UPPER_ENVELOPE, (T, 0.7)),
        ("default lower envelope", DEFAULT_LOWER_ENVELOPE, (T, 0.7)),
        ("proportional envelope",
         build_envelope({"kind": "proportional", "coefficient": 3.0}), (T, 0.7)),
        ("constant envelope",
         build_envelope({"kind": "constant", "value": 0.25}), (T, 0.7)),
        ("slice_tilde", lambda t, s: hl.slice_tilde(kern, space1.weight, t, s), (T, 1.5)),
        ("slice_endpoint_values",
         lambda s: hl.slice_endpoint_values(kern, space1.weight, s, HALF), (S,)),
    ]
    for cmap in (HALF, FULL):
        cases += [(f"{cmap.kind} from_compact", cmap.from_compact,
                   (np.append(X, [-1.0, 1.0]),)),
                  (f"{cmap.kind} jacobian", cmap.jacobian, (X,))]
    grid = space0.grid
    vals = np.cos(3.0 * grid.x)
    cases.append(("barycentric_interpolate",
                  lambda x: hl.barycentric_interpolate(grid.x, grid.bary_w, vals, x),
                  (np.append(X, grid.x[:5]),)))
    return cases


CASES = _bundled_cases()


@pytest.mark.parametrize("name,fn,args", CASES, ids=[c[0] for c in CASES])
def test_bundled_callables_map_arrays_as_floats(name, fn, args):
    # a numpy ufunc may differ from libm (math.exp, float ** 2) by one ulp;
    # an overflow to inf raises no floating-point warning
    got = fn(*args)
    want = _pointwise(fn, *args)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_within_ulp(np.broadcast_to(g, w.shape), w)
    else:
        assert isinstance(got, np.ndarray)
        _assert_within_ulp(got, want)


def test_float_only_callables_are_wrapped_once():
    native = lambda t: 2.0 * t  # noqa: E731
    assert elementwise(native) is native

    def step(t):
        return 1.0 if t > 1.0 else 0.0

    wrapped = elementwise(step)
    assert wrapped is not step and wrapped.scalar_fn is step
    assert elementwise(wrapped) is wrapped
    assert wrapped(2.0) == 1.0 and isinstance(wrapped(2.0), float)
    np.testing.assert_array_equal(wrapped(np.array([[0.5, 1.5], [2.0, 1.0]])),
                                  [[0.0, 1.0], [1.0, 0.0]])
    # two weights on one float-only fn are the same weight
    a, b = hl.custom(step, label="a"), hl.custom(step, label="b")
    assert a.fn is not b.fn and hl.weights.same_weight(a, b)
    # a constant written for floats is wrapped, since its arrays lose the shape
    env = elementwise(lambda t, rho: 0.25, 2)
    np.testing.assert_array_equal(env(np.ones(3), 0.5), [0.25] * 3)


def _exp_weight(c):
    def w(t):                                    # float-only: math.exp
        try:
            return c * math.exp(t)
        except OverflowError:
            return math.inf
    return hl.custom(w, label=f"float-exp-{c:g}")


def _float_only_problem(problem):
    """The problem with float-only kernel and nonlinearity callables."""
    w = problem.space.weight
    kernel = dataclasses.replace(
        problem.kernel, fn=lambda t, s: max(t - s, 0.0),
        tilde_slice=lambda t, s: max(t - s, 0.0) / w(t))
    if problem.name == "gravity-projectile":
        R, g = problem.params["R"], problem.params["g"]

        def f(t, y):
            if y <= -R:
                return math.nan
            return -g * R * R / (y + R) ** 2
    else:
        def f(t, y):
            return max(y, 0.0) * math.exp(-t)
    nl = dataclasses.replace(problem.nonlinearity, fn=f)
    return hl.HammersteinProblem(kernel, nl, problem.forcing, problem.space,
                                 name=problem.name, params=problem.params)


def _assert_same_numbers(a, b, path=""):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_same_numbers(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same_numbers(x, y, f"{path}[{k}]")
    elif isinstance(a, float) and not isinstance(a, bool):
        assert (math.isnan(a) and math.isnan(b)) or \
            abs(a - b) <= 1e-12 * max(1.0, abs(a)), (path, a, b)
    else:
        assert a == b, (path, a, b)


def test_float_only_callables_give_the_bundled_c2_report(problem_c2, report_c2):
    exp1, exp2 = _exp_weight(1.0), _exp_weight(2.0)
    system = hl.ConeSystem(
        cone=hl.FunctionalSpec("difference", integral_weight=exp2, sup_weight=exp1),
        upper=hl.FunctionalSpec("weighted-sup", sup_weight=exp1),
        lower=hl.FunctionalSpec("weighted-integral", integral_weight=exp1))
    problem = _float_only_problem(problem_c2)
    assert hasattr(problem.kernel.fn, "scalar_fn")
    assert hasattr(problem.nonlinearity.fn, "scalar_fn")
    assert hasattr(exp1.fn, "scalar_fn")
    report = hl.verify_cone_hypotheses(problem, system.cone, system.upper,
                                       system.lower, samples=6, seed=0)
    _assert_same_numbers(report_to_jsonable(report), report_to_jsonable(report_c2))


def test_float_only_callables_give_the_bundled_gravity_solve():
    base = hl.gravity_projectile_problem(make_space(m=41), g=1.0, R=1.0, v0=2.0)
    problem = _float_only_problem(base)
    solves = [hl.picard_solve(p, tol=1e-8, max_iters=300, relaxation=0.5)
              for p in (base, problem)]
    assert solves[0].iterations == solves[1].iterations
    np.testing.assert_allclose(solves[1].u.samples, solves[0].u.samples,
                               rtol=0.0, atol=1e-12)
    assert solves[1].residual == pytest.approx(solves[0].residual, rel=1e-9, abs=1e-15)
    # the float-only f is refused below the surface like the bundled one
    below = hl.lift(problem.space, -2.0 * np.ones(problem.space.m))
    with pytest.raises(hl.QuadratureError, match="integration returned nan"):
        hl.apply_T(problem, below)
