"""The lockstep sup search against the scalar golden-section oracle, its
call count, and its refusal of nan values."""

import math

import numpy as np
import pytest

import hammerline as hl
from hammerline.errors import DomainError

from conftest import kernel_slice, make_space, make_system
from golden_oracle import one_point_at_a_time, scalar_golden_section_max, sup_brackets

HALF = hl.CompactMap.half_line(a=0.0, L=1.0)


def _patch_sup_searches(monkeypatch, wrap):
    """Route every sup search (the cone, hammerstein and quadrature
    bindings, so inf_on_grid too) through wrap(real)."""
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod
    import hammerline.quadrature as quadrature_mod

    real = quadrature_mod.sup_on_grid
    for mod in (cone_mod, hammerstein_mod, quadrature_mod):
        monkeypatch.setattr(mod, "sup_on_grid", wrap(real))


def _searched_callables(monkeypatch, problem, system):
    """The fn_x of slice, element and kernel_limits sups of a problem."""
    seen = []

    def wrap(real):
        def capture(fn_x, grid, *args, **kwargs):
            seen.append((fn_x, grid))
            return real(fn_x, grid, *args, **kwargs)
        return capture

    _patch_sup_searches(monkeypatch, wrap)
    space, kern = problem.space, problem.kernel
    for s in (0.3, 2.0):
        fn, kinks = kernel_slice(kern, s)
        hl.eval_functional_raw(system.upper, fn, space, kinks=kinks)
        hl.kernel_limits(kern, space.weight, s, grid=space.grid)
    hl.eval_functional(system.cone, problem.forcing)
    monkeypatch.undo()
    return seen


def _assert_matches_oracle(fn_x, grid):
    lo, hi = sup_brackets(grid)
    arg, best = hl.golden_section_max(fn_x, lo, hi)
    one = one_point_at_a_time(fn_x)
    with np.errstate(all="ignore"):
        for k in range(lo.size):
            o_arg, o_max = scalar_golden_section_max(one, lo[k], hi[k])
            assert best[k] == o_max, (k, best[k], o_max)
            assert arg[k] == o_arg, (k, arg[k], o_arg)


@pytest.mark.parametrize("name", ["c2", "gravity"])
def test_lockstep_brackets_equal_the_scalar_oracle(name, monkeypatch):
    space = make_space(m=41)
    problem = (hl.boosted_projectile_problem(space, v0=1.0) if name == "c2" else
               hl.gravity_projectile_problem(space, g=1.0, R=1.0, v0=2.0))
    searched = _searched_callables(monkeypatch, problem, make_system())
    # two slices (upper sup and kernel_limits each) and the cone's sup part
    assert len(searched) == 5
    for fn_x, grid in searched:
        _assert_matches_oracle(fn_x, grid)


def test_a_batch_of_functions_visits_each_bracket_as_a_search_alone():
    # rows of slices (t-s)+ e^-t of the c2 kernel at several s, with their
    # diagonal as a bracket edge: each row's search equals that row alone and
    # the scalar oracle bit for bit, whatever the other rows
    grid = hl.build_grid(HALF, hl.GridSpec(m=41))
    s = np.array([0.0, 0.5, 3.0, 40.0, 1e3])

    def slice_at(v):
        return lambda x: np.maximum(HALF.from_compact(x) - v, 0.0) * np.exp(
            -HALF.from_compact(x))

    def rows(x):
        return slice_at(s[:, None])(x)

    edge = 1.0 - 1e-12
    edges = np.sort(np.concatenate((np.broadcast_to(np.clip(grid.x, -edge, edge), (5, 41)),
                                    HALF.to_compact(s)[:, None]), axis=1), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    arg, best = hl.golden_section_max(rows, lo, hi)
    assert arg.shape == best.shape == lo.shape
    with np.errstate(all="ignore"):
        for r, v in enumerate(s.tolist()):
            alone = hl.golden_section_max(slice_at(v), lo[r], hi[r])
            assert np.array_equal(alone[0], arg[r]) and np.array_equal(alone[1], best[r])
            one = one_point_at_a_time(slice_at(v))
            for k in range(0, lo.shape[1], 5):
                assert scalar_golden_section_max(one, lo[r, k], hi[r, k]) == (arg[r, k],
                                                                               best[r, k])
    sups = hl.sup_on_grid(rows, grid, {1.0: 0.0}, HALF.to_compact(s)[:, None])
    assert sups == pytest.approx(np.exp(-(s + 1.0)), rel=1e-12, abs=0.0)


def test_an_empty_batch_is_an_empty_array_without_a_call():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))

    def never(x):
        raise AssertionError("an empty batch calls fn_x")

    for kinks in (np.empty((0, 0)), np.empty((0, 2)), np.empty((3, 0, 1))):
        sups = hl.sup_on_grid(never, grid, {1.0: 0.0}, kinks)
        assert isinstance(sups, np.ndarray) and sups.shape == kinks.shape[:-1]


def test_lockstep_brackets_equal_the_scalar_oracle_on_kinks():
    grid = hl.build_grid(HALF, hl.GridSpec(m=41))
    def kinked(x):
        return 1.0 - np.abs(np.sin(9.0 * x)) - 0.3 * np.abs(x - 0.123)

    _assert_matches_oracle(kinked, grid)
    assert hl.sup_on_grid(kinked, grid) == pytest.approx(1.0 - 0.3 * 0.123, abs=1e-8)


def test_each_sup_search_makes_at_most_40_calls(problem_c2, system_c2, monkeypatch):
    # host-independent cost guard at m=41: one call for the nodes, one for
    # the prescan of every bracket, one per lockstep golden step (and one
    # probe of fn_x); the scalar search made about 1,500 calls
    from hammerline.cone import _envelope_extreme

    per_sup = []

    def wrap(real):
        def counting(fn_x, grid, *args, **kwargs):
            calls = [0]

            def counted(x):
                calls[0] += 1
                return fn_x(x)

            try:
                return real(counted, grid, *args, **kwargs)
            finally:
                per_sup.append(calls[0])
        return counting

    _patch_sup_searches(monkeypatch, wrap)
    space, kern = problem_c2.space, problem_c2.kernel
    assert space.m == 41
    for s in (0.0, 0.5, 4.0):
        fn, kinks = kernel_slice(kern, s)
        hl.eval_functional_raw(system_c2.upper, fn, space, kinks=kinks)
        hl.kernel_limits(kern, space.weight, s, grid=space.grid)
    for spec in (system_c2.cone, system_c2.upper):
        hl.eval_functional(spec, problem_c2.forcing)
    _envelope_extreme(problem_c2.nonlinearity.upper_envelope, np.array([0.5]), space, "sup")
    _envelope_extreme(lambda t, rho: 2.0 + math.tanh(t), np.array([0.5]), space, "inf")
    assert len(per_sup) == 10
    # a batch of slices is one search, in as many calls as its slowest row
    hl.kernel_limits(kern, space.weight, np.geomspace(1e-3, 1e4, 64), grid=space.grid)
    hl.kernel_functional_integral(system_c2.upper, kern, space=space)
    assert len(per_sup) > 12
    assert max(per_sup) <= 40, per_sup


def test_a_nan_in_a_sup_search_is_refused():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))
    # a nan on grid nodes: the first nan node is named
    high = lambda x: np.where(x > 0.5, np.nan, 1.0 - x * x)  # noqa: E731
    first = float(grid.x[grid.x > 0.5][0])
    with pytest.raises(DomainError, match=f"nan at x={first!r}"):
        hl.sup_on_grid(high, grid)
    with pytest.raises(DomainError, match=f"nan at x={first!r}"):
        hl.inf_on_grid(high, grid)
    # a nan inside one bracket only, where its prescan lands
    lo, hi = float(grid.x[3]), float(grid.x[4])
    cell = lo + (hi - lo) * 2 / 5
    inside = lambda x: np.where(np.abs(x - cell) < 1e-3 * (hi - lo),  # noqa: E731
                                np.nan, 1.0 - x * x)
    with pytest.raises(DomainError, match=f"nan at x={cell!r}"):
        hl.sup_on_grid(inside, grid)
    # a float-only fn_x goes through the same refusal
    scalar = lambda x: math.nan if x > 0.5 else 1.0 - x * x  # noqa: E731
    with pytest.raises(DomainError, match=f"nan at x={first!r}"):
        hl.sup_on_grid(scalar, grid)


def test_a_nan_functional_is_refused_not_dropped(problem_c2):
    # a sup weight that is nan on part of the interval once made the sup
    # search keep or drop the nan by comparison order
    holed = hl.custom(lambda t: math.nan if 1.0 < t < 2.0 else 2.0 + t,
                      label="holed")
    spec = hl.FunctionalSpec("weighted-sup", sup_weight=holed)
    with pytest.raises(DomainError, match="nan at x="):
        hl.eval_functional(spec, problem_c2.forcing)
