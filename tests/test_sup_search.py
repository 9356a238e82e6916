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
    """Route every sup search (the cone and hammerstein bindings, the only
    callers of sup_on_grid) through wrap(real)."""
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod
    import hammerline.quadrature as quadrature_mod

    real = quadrature_mod.sup_on_grid
    for mod in (cone_mod, hammerstein_mod):
        monkeypatch.setattr(mod, "sup_on_grid", wrap(real))


def _searched_callables(monkeypatch, problem, system):
    """The arguments of the slice, element and kernel_limits sups of a
    problem: (fn_x, grid, end_vals, kinks, start) each."""
    import inspect

    import hammerline.quadrature as quadrature_mod

    signature = inspect.signature(quadrature_mod.sup_on_grid)
    seen = []

    def wrap(real):
        def capture(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(tuple(bound.arguments.values()))
            return real(*args, **kwargs)
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


def _flat_brackets(grid, kinks, start):
    """The flat bracket list of a batch (kinks of shape (rows, k), start a
    compact coordinate per row or None), from the oracle's brackets of each
    row: (lo, hi, row)."""
    per_row = [sup_brackets(grid, k, None if start is None else start[r])
               for r, k in enumerate(kinks)]
    row = np.concatenate([np.full(lo.size, r) for r, (lo, _) in enumerate(per_row)])
    return (np.concatenate([lo for lo, _ in per_row]),
            np.concatenate([hi for _, hi in per_row]), row)


def _assert_matches_oracle(fn_x, grid, end_vals=None, kinks=np.empty((1, 0)), start=None):
    """The flat lockstep search of a batch fn_x(x, row) equals the scalar
    oracle on every bracket it keeps, bit for bit, and sup_on_grid gives
    each row the max of the oracle's brackets, its nodes from its start on
    and its end values."""
    lo, hi, row = _flat_brackets(grid, kinks, start)
    arg, best = hl.golden_section_max(fn_x, lo, hi, row)
    first = np.full(len(kinks), -1.0) if start is None else start
    want = []
    with np.errstate(all="ignore"):
        for r in range(len(kinks)):
            one = one_point_at_a_time(lambda x, r=r: fn_x(x, np.full(np.shape(x), r)))
            values = []
            for k in np.flatnonzero(row == r):
                o_arg, o_max = scalar_golden_section_max(one, lo[k], hi[k])
                assert best[k] == o_max, (r, k, best[k], o_max)
                assert arg[k] == o_arg, (r, k, arg[k], o_arg)
                values.append(o_max)
            for x in grid.x.tolist():
                if x < first[r]:
                    continue
                ends = end_vals or {}
                values.append(float(np.broadcast_to(ends[x], len(kinks))[r]) if x in ends
                              else one(x))
            want.append(max(values))
    sups = hl.sup_on_grid(fn_x, grid, end_vals, kinks, start)
    assert sups.tolist() == want


@pytest.mark.parametrize("name", ["c2", "gravity"])
def test_lockstep_brackets_equal_the_scalar_oracle(name, monkeypatch):
    space = make_space(m=41)
    problem = (hl.boosted_projectile_problem(space, v0=1.0) if name == "c2" else
               hl.gravity_projectile_problem(space, g=1.0, R=1.0, v0=2.0))
    searched = _searched_callables(monkeypatch, problem, make_system())
    # two slices (upper sup and kernel_limits each) and the cone's sup part
    assert len(searched) == 5
    # kernel_limits reads the Volterra slice from its diagonal on
    assert [start is not None for *_, start in searched] == [False, True, False, True, False]
    for fn_x, grid, end_vals, kinks, start in searched:
        _assert_matches_oracle(fn_x, grid, end_vals, kinks, start)


def _slices(s):
    """Rows of slices (t-s)+ e^-t of the c2 kernel at the points s, a batch
    fn_x(x, row), and each alone, a function of x."""
    def slice_at(v):
        return lambda x: np.maximum(HALF.from_compact(x) - v, 0.0) * np.exp(
            -HALF.from_compact(x))

    return (lambda x, row: slice_at(s[row])(x)), slice_at


def test_a_batch_of_functions_visits_each_bracket_as_a_search_alone():
    # rows of slices with their diagonal as a bracket edge, one flat list of
    # brackets: each bracket's search equals that bracket alone and the
    # scalar oracle bit for bit, whatever the other rows
    grid = hl.build_grid(HALF, hl.GridSpec(m=41))
    s = np.array([0.0, 0.5, 3.0, 40.0, 1e3])
    rows, slice_at = _slices(s)
    lo, hi, row = _flat_brackets(grid, HALF.to_compact(s)[:, None], None)
    arg, best = hl.golden_section_max(rows, lo, hi, row)
    assert arg.shape == best.shape == lo.shape
    with np.errstate(all="ignore"):
        for r, v in enumerate(s.tolist()):
            at = row == r
            alone = hl.golden_section_max(slice_at(v), lo[at], hi[at])
            assert np.array_equal(alone[0], arg[at]) and np.array_equal(alone[1], best[at])
            one = one_point_at_a_time(slice_at(v))
            for k in np.flatnonzero(at)[::5]:
                assert scalar_golden_section_max(one, lo[k], hi[k]) == (arg[k], best[k])
    sups = hl.sup_on_grid(rows, grid, {1.0: 0.0}, HALF.to_compact(s)[:, None])
    assert sups == pytest.approx(np.exp(-(s + 1.0)), rel=1e-12, abs=0.0)
    _assert_matches_oracle(rows, grid, {1.0: 0.0}, HALF.to_compact(s)[:, None])


def test_a_start_trims_each_row_and_a_zero_width_bracket_is_dropped():
    # the slice at s = 0 has its diagonal on the node x = -1, a zero-width
    # bracket after clipping; row 2 starts between two nodes, so its start
    # cuts a bracket; the rows with a start at their diagonal search t >= s
    # only, and never evaluate a point left of it
    grid = hl.build_grid(HALF, hl.GridSpec(m=41))
    s = np.array([0.0, 0.5, 3.0, 40.0])
    x_s = HALF.to_compact(s)
    start = x_s.copy()
    start[2] = 0.5 * (grid.x[30] + grid.x[31])
    rows, _ = _slices(s)
    seen = []

    def recorded(x, row):
        seen.append((x.copy(), row.copy()))
        return rows(x, row)

    kinks = x_s[:, None]
    trimmed = hl.sup_on_grid(recorded, grid, {1.0: 0.0}, kinks, start)
    x, row = (np.concatenate(c) for c in zip(*seen))
    assert (x >= start[row]).all()
    whole = hl.sup_on_grid(rows, grid, {1.0: 0.0}, kinks)
    at_diagonal = start == x_s
    assert at_diagonal.tolist() == [True, True, False, True]
    assert np.array_equal(trimmed[at_diagonal], whole[at_diagonal])
    assert trimmed[2] < whole[2]   # row 2 starts right of its peak at t = 4
    _assert_matches_oracle(rows, grid, {1.0: 0.0}, kinks, start)
    # the zero-width bracket at x = -1 + 1e-12 is dropped, and the start of
    # row 2 cuts the bracket between nodes 30 and 31 in two
    lo, hi = sup_brackets(grid, kinks[0])
    assert (hi > lo).all() and lo.size == grid.m - 1
    lo, hi = sup_brackets(grid, kinks[2], start[2])
    assert lo[0] == start[2] and hi[0] == grid.x[31]
    # a trimmed row makes fewer evaluations than the whole row
    untrimmed = []
    hl.sup_on_grid(lambda x, r: untrimmed.append(x.size) or rows(x, r), grid, {1.0: 0.0},
                   kinks)
    assert x.size < 0.6 * sum(untrimmed)


def test_an_empty_batch_is_an_empty_array_without_a_call():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))

    def never(x, row):
        raise AssertionError("an empty batch calls fn_x")

    for kinks in (np.empty((0, 0)), np.empty((0, 2)), np.empty((3, 0, 1))):
        sups = hl.sup_on_grid(never, grid, {1.0: 0.0}, kinks)
        assert isinstance(sups, np.ndarray) and sups.shape == kinks.shape[:-1]


def test_lockstep_brackets_equal_the_scalar_oracle_on_kinks():
    grid = hl.build_grid(HALF, hl.GridSpec(m=41))
    def kinked(x):
        return 1.0 - np.abs(np.sin(9.0 * x)) - 0.3 * np.abs(x - 0.123)

    lo, hi = sup_brackets(grid)
    arg, best = hl.golden_section_max(kinked, lo, hi)
    one = one_point_at_a_time(kinked)
    for k in range(lo.size):
        assert scalar_golden_section_max(one, lo[k], hi[k]) == (arg[k], best[k])
    _assert_matches_oracle(lambda x, row: kinked(x), grid)
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

            def counted(*x_row):
                calls[0] += 1
                return fn_x(*x_row)

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
