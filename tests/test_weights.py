import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hammerline as hl
from hammerline.errors import DomainError, TailLimitError

HALF = hl.CompactMap.half_line(a=0.0, L=1.0)
FULL = hl.CompactMap.full_line(L=1.0)


def test_builtin_weight_values_and_derivatives():
    w = hl.affine(b=3.0, scale=2.0)
    assert w(1.0) == 2.0 * (1.0 + 3.0)
    assert w.derivative(5.0) == 2.0
    e = hl.exponential(c=2.0, rate=0.5)
    assert e(2.0) == pytest.approx(2.0 * math.e, rel=1e-15)
    assert e.derivative(2.0) == pytest.approx(math.e, rel=1e-15)
    p = hl.power(q=2.0)
    assert p(3.0) == 9.0
    assert p.derivative(3.0) == pytest.approx(6.0, rel=1e-12)


def test_custom_weight_uses_given_derivatives():
    w = hl.custom(lambda t: math.cosh(t), derivs=(lambda t: math.sinh(t),),
                  label="cosh")
    assert w.label == "cosh"
    assert w(0.0) == 1.0
    assert w.derivative(1.0) == math.sinh(1.0)


def test_check_weight_accepts_positive_smooth_weight():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))
    hl.check_weight(hl.affine(b=1.0), grid)
    hl.check_weight(hl.exponential(c=1.0, rate=1.0), grid)


def test_check_weight_rejects_nonpositive_weight():
    grid = hl.build_grid(FULL, hl.GridSpec(m=17))
    with pytest.raises(DomainError):
        hl.check_weight(hl.affine(b=1.0), grid)  # t + 1 <= 0 left of t = -1


def test_check_weight_rejects_wrong_derivative():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))
    lying = hl.custom(lambda t: t + 1.0, derivs=(lambda t: 5.0,), label="bad")
    with pytest.raises(DomainError):
        hl.check_weight(lying, grid)


def test_tail_trend_finite_limit():
    kind, val = hl.tail_trend(lambda t: (t + 3.0) / (t + 1.0), HALF)
    assert kind == "limit"
    assert val == pytest.approx(1.0, abs=1e-9)


def test_tail_trend_certified_divergence():
    kind, val = hl.tail_trend(lambda t: t * t, HALF)
    assert kind == "diverges"
    assert val == math.inf
    kind, val = hl.tail_trend(lambda t: -t * t, HALF)
    assert kind == "diverges"
    assert val == -math.inf


def test_tail_trend_oscillation_is_unknown():
    kind, val = hl.tail_trend(lambda t: math.sin(t), HALF)
    assert kind == "unknown"
    assert val is None


def test_tail_limit_value_and_error():
    assert hl.tail_limit(lambda t: t / (t + 1.0), HALF) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TailLimitError):
        hl.tail_limit(lambda t: t, HALF)


def test_tail_trend_left_side_of_full_line():
    kind, val = hl.tail_trend(lambda t: (t * t + 3.0) / (t * t + 1.0), FULL, side=-1)
    assert kind == "limit"
    assert val == pytest.approx(1.0, abs=1e-9)


def test_tail_trend_algebraic_decay_to_zero_stays_unknown():
    # relative agreement cannot fire on a scale that keeps shrinking, so the
    # protocol declines to certify the zero limit rather than guessing
    kind, val = hl.tail_trend(lambda t: 1.0 / (1.0 + t * t), FULL, side=-1)
    assert kind == "unknown"
    assert val is None


def test_tail_classification_of_a_batch_gives_each_row_the_scalar_verdict():
    from hammerline.weights import classify_tail, tail_points

    cases = [lambda t: (t + 3.0) / (t + 1.0), lambda t: t * t, lambda t: -t * t,
             lambda t: math.sin(t), lambda t: 1.0 / (1.0 + t * t),
             lambda t: math.inf if t > 1e6 else t, lambda t: -math.inf if t > 1e3 else -t,
             lambda t: math.nan if t > 1e8 else 1.0, lambda t: 1e300 * t,
             lambda t: 2.0 - math.tanh(t), lambda t: 3.0 + abs(t) ** -0.5,
             lambda t: 1.0 / (t - 1e5)]
    for cmap in (HALF, FULL):
        for side in cmap.infinite_ends():
            ts = tail_points(cmap, side)
            vals = [[fn(t) for t in ts.tolist()] for fn in cases]
            kind, value = classify_tail(ts, np.array(vals))
            assert kind.shape == value.shape == (len(cases),)
            for fn, k, v in zip(cases, kind.tolist(), value.tolist()):
                assert hl.tail_trend(fn, cmap, side) == (k, None if k == "unknown" else v)


def test_weights_equivalent_affine_shifts():
    out = hl.weights_equivalent(hl.affine(b=1.0), hl.affine(b=7.0), HALF)
    assert out.verdict == "equivalent"


def test_weights_not_equivalent_affine_vs_exponential():
    out = hl.weights_equivalent(hl.affine(b=1.0), hl.exponential(c=1.0, rate=1.0), HALF)
    assert out.verdict == "not-equivalent"


def test_weights_equivalent_is_symmetric_for_powers():
    # start the half-line at 1 so the pure power stays positive on the nodes
    half1 = hl.CompactMap.half_line(a=1.0, L=1.0)
    a = hl.power(q=2.0, scale=1.0)
    b = hl.custom(lambda t: 3.0 * t * t + t, label="mixed")
    lhs = hl.weights_equivalent(a, b, half1)
    rhs = hl.weights_equivalent(b, a, half1)
    assert lhs.verdict == rhs.verdict == "equivalent"


@given(b1=st.floats(0.5, 20.0), b2=st.floats(0.5, 20.0))
def test_affine_equivalence_property(b1, b2):
    out = hl.weights_equivalent(hl.affine(b=b1), hl.affine(b=b2), HALF)
    assert out.verdict == "equivalent"


@given(r1=st.floats(0.2, 2.0), r2=st.floats(0.2, 2.0))
def test_exponential_rate_gap_never_certifies_equivalent(r1, r2):
    # gap wide enough that the ratio exits the band at a pre-overflow node
    if abs(r1 - r2) < 0.25:
        r2 = r1 + 0.25
    out = hl.weights_equivalent(
        hl.exponential(c=1.0, rate=r1), hl.exponential(c=1.0, rate=r2), HALF)
    assert out.verdict == "not-equivalent"


def test_same_rate_exponentials_are_honestly_inconclusive():
    # both weights overflow at the tail probes, so the ratio is inf/inf and
    # the check reports the indecision instead of asserting equivalence
    out = hl.weights_equivalent(
        hl.exponential(c=1.0, rate=1.0), hl.exponential(c=1.0, rate=1.0), HALF)
    assert out.verdict == "inconclusive"


def test_weight_derivative_matches_finite_differences():
    h = 1e-6
    for w in (hl.affine(b=2.0), hl.exponential(c=1.0, rate=0.7), hl.power(q=1.5)):
        for t in (0.5, 1.0, 4.0):
            fd = (w(t + h) - w(t - h)) / (2.0 * h)
            assert w.derivative(t) == pytest.approx(fd, rel=1e-6)
