import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hammerline as hl
from hammerline.errors import DomainError

from conftest import make_space
from hardy_cases import CASES


def test_space_rejects_weight_that_dies_on_a_node():
    cmap = hl.CompactMap.full_line(L=1.0)
    grid = hl.build_grid(cmap, hl.GridSpec(m=17))
    with pytest.raises(DomainError):
        hl.Space(grid=grid, weight=hl.affine(b=1.0))  # t + 1 <= 0 at nodes


def test_membership_is_finiteness_of_samples(space):
    good = hl.lift(space, np.ones(space.m))
    assert good.norm() == 1.0
    bad = np.ones(space.m)
    bad[3] = math.inf
    with pytest.raises(DomainError):
        hl.lift(space, bad)


def test_linear_function_has_unit_norm(space):
    # u(t) = t against the weight t + 1: the sup is approached at infinity
    u = hl.from_raw(space, lambda t: t)
    assert u.norm() == pytest.approx(1.0, abs=1e-12)
    left, right = hl.asymptotic_limits(u)
    assert left == 0.0
    assert right == pytest.approx(1.0, abs=1e-12)


def test_norm_kinds_and_isometry(space):
    rng = np.random.default_rng(11)
    rows = rng.normal(size=space.m)
    u = hl.lift(space, rows)
    expected = float(np.max(np.abs(rows)))
    assert u.norm("phi") == expected
    assert u.norm("sup-tilde") == expected
    with pytest.raises(DomainError):
        u.norm("L2")


def test_order_one_norm_takes_all_rows(space_order1):
    rows = np.zeros((2, space_order1.m))
    rows[1, 4] = -7.0
    u = hl.lift(space_order1, rows)
    assert u.norm("phi") == 7.0
    assert u.norm("sup-tilde") == 0.0


def test_raw_and_tilde_queries(space):
    u = hl.from_raw(space, lambda t: t)
    assert u.raw(1.0) == pytest.approx(1.0, abs=1e-10)
    assert u.tilde(1.0) == pytest.approx(0.5, abs=1e-10)
    assert u.tilde(math.inf) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        u.raw(math.inf)


def test_array_queries_equal_the_float_loop(space):
    u = hl.from_raw(space, lambda t: t * math.exp(-t))
    t = np.concatenate([np.linspace(0.0, 20.0, 201), space.grid.t[:-1]])
    assert np.array_equal(u.raw(t), np.array([u.raw(s) for s in t]))
    assert np.array_equal(u.tilde(t), np.array([u.tilde(s) for s in t]))
    with pytest.raises(DomainError):
        u.raw(np.array([1.0, math.inf]))


def test_from_tilde_endpoint_override(space):
    u = hl.from_tilde(space, lambda t: 1.0 / (1.0 + t), endpoints={"hi": 0.25})
    assert u.samples[0, -1] == 0.25


def test_from_tilde_row_count_checked(space_order1):
    with pytest.raises(DomainError):
        hl.from_tilde(space_order1, lambda t: 0.0)


def test_from_tilde_interpolates_smooth_decay(space_order1):
    u = hl.from_tilde(
        space_order1,
        (lambda t: math.exp(-t * t), lambda t: -2.0 * t * math.exp(-t * t)),
        endpoints={"hi": 0.0},
    )
    for t in (0.3, 1.7, 4.2):
        assert u.tilde(t) == pytest.approx(math.exp(-t * t), abs=1e-5)
    assert u.norm() == pytest.approx(1.0, abs=1e-9)


def test_vector_arithmetic(space):
    rng = np.random.default_rng(5)
    a = hl.lift(space, rng.normal(size=space.m))
    b = hl.lift(space, rng.normal(size=space.m))
    s = a + b
    d = a - b
    assert np.array_equal(s.samples, a.samples + b.samples)
    assert np.array_equal(d.samples, a.samples - b.samples)
    assert np.array_equal((2.5 * a).samples, 2.5 * a.samples)
    assert np.array_equal((-a).samples, -a.samples)


def test_arithmetic_rejects_mismatched_spaces(space):
    other = make_space(m=17)
    a = hl.lift(space, np.zeros(space.m))
    b = hl.lift(other, np.zeros(other.m))
    with pytest.raises(DomainError):
        a + b


def test_spaces_compatible_checks_weight_and_grid(space):
    assert hl.spaces_compatible(space, make_space())
    assert not hl.spaces_compatible(space, make_space(m=17))
    other_weight = hl.Space(grid=space.grid, weight=hl.affine(b=2.0))
    assert not hl.spaces_compatible(space, other_weight)
    # weights outside the builders are the same only when their fn is the
    # same object, whatever their labels say
    mine = hl.Space(grid=space.grid, weight=hl.custom(lambda t: 1.0 + t, label="mine"))
    exp_mine = hl.Space(grid=space.grid, weight=hl.custom(math.exp, label="mine"))
    assert not hl.spaces_compatible(mine, exp_mine)
    relabeled = hl.Space(grid=space.grid, weight=hl.custom(math.exp, label="other"))
    assert hl.spaces_compatible(exp_mine, relabeled)


@given(data=st.data())
def test_norm_isometry_is_bitwise(data, space):
    vals = data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=space.m, max_size=space.m))
    rows = np.asarray(vals)
    u = hl.lift(space, rows)
    assert u.norm("phi") == float(np.max(np.abs(rows)))


@given(data=st.data())
def test_module_bound_order_zero(data, space):
    # multiplying the rescaled rows by a bounded plain function keeps the
    # norm below the product of the sups (order 0: factor 2^0 = 1)
    f_rows = np.asarray(data.draw(st.lists(
        st.floats(-100.0, 100.0), min_size=space.m, max_size=space.m)))
    g_rows = np.asarray(data.draw(st.lists(
        st.floats(-100.0, 100.0), min_size=space.m, max_size=space.m)))
    prod = hl.lift(space, f_rows * g_rows)
    bound = hl.lift(space, f_rows).norm() * float(np.max(np.abs(g_rows)))
    assert prod.norm() <= bound * (1.0 + 1e-15) + 1e-300


@given(data=st.data())
def test_module_bound_order_one(data, space_order1):
    # Leibniz rows for the product with a C^1 multiplier: factor 2^1 = 2
    m = space_order1.m
    draw_rows = lambda: np.asarray(data.draw(st.lists(
        st.floats(-10.0, 10.0), min_size=2 * m, max_size=2 * m))).reshape(2, m)
    f = draw_rows()
    g = draw_rows()
    prod = np.stack([f[0] * g[0], f[0] * g[1] + f[1] * g[0]])
    lhs = hl.lift(space_order1, prod).norm()
    rhs = 2.0 * hl.lift(space_order1, f).norm() * float(np.max(np.abs(g)))
    assert lhs <= rhs * (1.0 + 1e-15) + 1e-300


def test_classifier_matches_labeled_corpus():
    for case in CASES:
        rel = hl.classify_asymptotic(case.f, case.g, case.cmap, side=case.side)
        assert rel.tag == case.expected, case.name
        assert rel.tag in hl.TAGS


def test_classifier_calls_array_functions_twice_each():
    # the elementwise probe and one call at all the tail points
    calls = []

    def counted(fn):
        return lambda t: calls.append(fn) or fn(t)

    f, g = (lambda t: t * t + 1.0), (lambda t: t + 1.0)
    rel = hl.classify_asymptotic(counted(f), counted(g), hl.CompactMap.half_line())
    assert rel.tag == "greater"
    assert calls.count(f) <= 2 and calls.count(g) <= 2



def test_classifier_does_not_read_a_small_limit_as_less():
    # f/g = 1e-4 + |t|^-1/2 tends to 1e-4, not to 0
    for cmap in (hl.CompactMap.half_line(), hl.CompactMap.full_line()):
        rel = hl.classify_asymptotic(lambda t: (np.abs(t) + 1.0) * (1e-4 + np.abs(t) ** -0.5),
                                     lambda t: np.abs(t) + 1.0, cmap)
        assert rel.tag == "comparable"

def test_classifier_equivalent_reports_limit_near_one():
    rel = hl.classify_asymptotic(
        lambda t: t + 1.0, lambda t: t, hl.CompactMap.half_line())
    assert rel.tag == "equivalent"
    assert rel.limit == pytest.approx(1.0, abs=1e-4)


def test_classifier_rejects_vanishing_denominator():
    cmap = hl.CompactMap.half_line()
    with pytest.raises(DomainError):
        hl.classify_asymptotic(lambda t: 1.0, lambda t: 0.0, cmap)


def test_classifier_overflow_pair_is_undetermined():
    # both sides overflow at the deep probes: ratio of two IEEE infinities
    import hardy_cases
    cmap = hl.CompactMap.half_line()
    rel = hl.classify_asymptotic(
        lambda t: hardy_cases.expv(2.0 * t), hardy_cases.expv, cmap)
    assert rel.tag == "undetermined"
