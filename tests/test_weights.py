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


def test_tail_trend_algebraic_decay_to_zero_is_certified():
    # relative agreement cannot fire on a scale that keeps shrinking; the
    # exponent fit of the last probes certifies the zero limit
    assert hl.tail_trend(lambda t: 1.0 / (1.0 + t * t), FULL, side=-1) == ("limit", 0.0)


def _ends():
    return [(cmap, side) for cmap in (HALF, FULL) for side in cmap.infinite_ends()]


def test_slow_power_tails_are_decided_by_the_exponent_fit():
    # gravity's sup|slice| * phi_r decays like |s|^-2, so C3's tail
    # certificate reads |s|^-2 * |s|^(3/2); a slowly divergent integrand
    # (c2's forcing against (t+1)^2, about 1/t) reads |t|^(1/2)
    for cmap, side in _ends():
        assert hl.tail_trend(lambda s: abs(s) ** -2 * abs(s) ** 1.5, cmap, side) == ("limit", 0.0)
        assert hl.tail_trend(lambda t: abs(t) ** 0.5, cmap, side) == ("diverges", math.inf)
        assert hl.tail_trend(lambda t: -abs(t) ** 0.5, cmap, side) == ("diverges", -math.inf)
    assert hl.tail_trend(lambda t: 3.0 + t ** -0.5, HALF) == ("limit", pytest.approx(3.0, rel=1e-9))


def test_tails_without_a_power_law_stay_unknown():
    # 1/log and log change by less than any power; sin has no trend
    for fn in (lambda t: 1.0 / math.log(abs(t)), lambda t: math.log(abs(t)),
               lambda t: math.sin(t)):
        for cmap, side in _ends():
            assert hl.tail_trend(fn, cmap, side) == ("unknown", None)



def test_a_small_limit_of_a_slow_tail_is_not_read_as_zero():
    # on the full line the limit +-1e-4 lies below the last difference of
    # |t|^-1/2 (about 9e-4) but far outside the spread of the fit's two
    # extrapolants, so it is no limit 0; too noisy to certify, it stays unknown
    for c in (1e-4, -1e-4):
        for cmap, side in _ends():
            kind, val = hl.tail_trend(lambda t: c + abs(t) ** -0.5, cmap, side)
            assert kind == "unknown" or val == pytest.approx(c, rel=1e-9)

CORPUS = [lambda t: (t + 3.0) / (t + 1.0), lambda t: t * t, lambda t: -t * t,
          lambda t: math.sin(t), lambda t: 1.0 / (1.0 + t * t),
          lambda t: math.inf if t > 1e6 else t, lambda t: -math.inf if t > 1e3 else -t,
          lambda t: math.nan if t > 1e8 else 1.0, lambda t: 1e300 * t,
          lambda t: 2.0 - math.tanh(t), lambda t: 3.0 + abs(t) ** -0.5,
          lambda t: 1.0 / (t - 1e5)]

# the corpus rows decided before the exponent fit, by (case, map, side)
DECIDED_BEFORE_THE_FIT = {
    (0, "half-line", 1): ("limit", 1.0000000000000002),
    (1, "half-line", 1): ("diverges", math.inf),
    (2, "half-line", 1): ("diverges", -math.inf),
    (5, "half-line", 1): ("diverges", math.inf),
    (6, "half-line", 1): ("diverges", -math.inf),
    (6, "full-line", 1): ("diverges", -math.inf),
    (7, "full-line", -1): ("limit", 1.0),
    (7, "full-line", 1): ("limit", 1.0),
    (8, "half-line", 1): ("diverges", math.inf),
    (8, "full-line", -1): ("diverges", -math.inf),
    (8, "full-line", 1): ("diverges", math.inf),
    (9, "half-line", 1): ("limit", 1.0),
    (9, "full-line", -1): ("limit", 3.0000000000000004),
    (9, "full-line", 1): ("limit", 1.0),
}


def test_the_fit_keeps_every_verdict_decided_without_it():
    for (i, kind, side), verdict in DECIDED_BEFORE_THE_FIT.items():
        cmap = HALF if kind == "half-line" else FULL
        assert hl.tail_trend(CORPUS[i], cmap, side) == verdict, (i, kind, side)


def test_tail_classification_of_a_batch_gives_each_row_the_scalar_verdict():
    from hammerline.weights import classify_tail, tail_points

    for cmap, side in _ends():
        ts = tail_points(cmap, side)
        vals = [[fn(t) for t in ts.tolist()] for fn in CORPUS]
        kind, value = classify_tail(ts, np.array(vals))
        assert kind.shape == value.shape == (len(CORPUS),)
        for fn, k, v in zip(CORPUS, kind.tolist(), value.tolist()):
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


def test_weights_equivalent_names_the_first_node_whose_ratio_fails():
    # a float-only weight that raises, or a zero denominator, fails the
    # scan at the first such node, and the detail names it
    nodes = hl.build_grid(HALF, hl.GridSpec(m=33)).t
    first = next(t for t in nodes.tolist() if t >= 10.0)
    raising = hl.custom(lambda t: 1.0 if t < 10.0 else math.log(-1.0), label="raising")
    zero_late = hl.custom(lambda t: max(t - first, 0.0) + (t < first), label="zero-late")
    for w1, w2 in ((raising, hl.affine()), (hl.affine(), zero_late)):
        out = hl.weights_equivalent(w1, w2, HALF)
        assert (out.verdict, out.detail) == ("inconclusive",
                                             f"ratio evaluation failed at t={first}")


def test_an_underflowing_weight_escapes_at_both_ends_of_the_full_line():
    # e^(0.3 t) underflows to 0 deep in the -inf tail, where the ratio 2 /
    # e^(0.3 t) reads inf, a certified escape, as the settling to 0 toward
    # +inf is
    out = hl.weights_equivalent(hl.exponential(c=2.0, rate=0.0), hl.exponential(rate=0.3), FULL)
    assert (out.verdict, out.left, out.right) == ("not-equivalent", math.inf, 0.0)


def test_weight_derivative_matches_finite_differences():
    h = 1e-6
    for w in (hl.affine(b=2.0), hl.exponential(c=1.0, rate=0.7), hl.power(q=1.5)):
        for t in (0.5, 1.0, 4.0):
            fd = (w(t + h) - w(t - h)) / (2.0 * h)
            assert w.derivative(t) == pytest.approx(fd, rel=1e-6)
