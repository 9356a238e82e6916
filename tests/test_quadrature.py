import math

import numpy as np
import pytest

import hammerline as hl
from hammerline.errors import QuadratureError
from hammerline.quadrature import RULE_W, RULE_X

HALF = hl.CompactMap.half_line(a=0.0, L=1.0)
FULL = hl.CompactMap.full_line(L=1.0)


def _counted(fn, sizes):
    def counted(t):
        sizes.append(np.size(t))
        return fn(t)
    return counted


def _gauss_kronrod() -> tuple:
    """Nodes on [-1, 1]; weight columns Kronrod and Kronrod minus Gauss. The
    Kronrod nodes between the Gauss ones are QUADPACK's qk21, and the
    Kronrod weights integrate the Legendre polynomials of degree <= 20."""
    gx, gw = np.polynomial.legendre.leggauss(10)
    kx = np.array([0.99565716302580808, 0.93015749135570823, 0.78081772658641690,
                   0.56275713466860468, 0.29439286270146020])
    x = np.sort(np.concatenate((gx, kx, -kx, [0.0])))
    wk = np.linalg.solve(np.polynomial.legendre.legvander(x, 20).T, 2.0 * np.eye(21)[0])
    wg = np.where(np.isin(x, gx), np.interp(x, gx, gw), 0.0)
    return x, np.stack((wk, wk - wg), axis=1)


def test_the_rule_table_is_the_legendre_moment_solution():
    x, w = _gauss_kronrod()
    assert RULE_X.shape == (21,) and RULE_W.shape == (21, 2)
    assert np.array_equal(RULE_X, x) and np.array_equal(RULE_W, w)


def test_exponential_decay_integrates_to_one():
    val = hl.integrate_interval(lambda t: math.exp(-t), HALF)
    assert val == pytest.approx(1.0, abs=1e-10)
    # an array integrand is called once per refinement round (and once by
    # the probe); a |t|^-3/2 tail is a bounded integrand in the angle and
    # needs no deep refinement
    for fn, exact, most_calls in ((lambda t: np.exp(-t), 1.0, 8),
                                  (lambda t: (1.0 + t) ** -1.5, 2.0, 4)):
        sizes = []
        val = hl.integrate_interval(_counted(fn, sizes), HALF)
        assert val == pytest.approx(exact, abs=1e-10)
        assert len(sizes) <= most_calls and sum(sizes) <= 21 * most_calls


def test_full_line_lorentzian_integrates_to_pi():
    val = hl.integrate_interval(lambda t: 1.0 / (1.0 + t * t), FULL)
    assert val == pytest.approx(math.pi, abs=1e-9)
    # both tails as slow as |t|^-3/2
    val = hl.integrate_interval(lambda t: (1.0 + abs(t)) ** -1.5, FULL)
    assert val == pytest.approx(4.0, abs=1e-10)


def test_finite_window_is_plain_quadrature():
    val = hl.integrate_interval(lambda t: t * t, HALF, lo=0.0, hi=3.0)
    assert val == pytest.approx(9.0, abs=1e-10)


def test_empty_and_inverted_windows_are_zero():
    assert hl.integrate_interval(lambda t: 1.0, HALF, lo=2.0, hi=2.0) == 0.0
    assert hl.integrate_interval(lambda t: 1.0, HALF, lo=3.0, hi=2.0) == 0.0


def test_breakpoints_resolve_kinks():
    # integral of |t - 5| e^(-t) over [0, inf) = 4 + 2 e^(-5)
    exact = 4.0 + 2.0 * math.exp(-5.0)
    lhs = hl.integrate_interval(lambda t: abs(t - 5.0) * math.exp(-t), HALF,
                                breakpoints=(5.0,))
    assert lhs == pytest.approx(exact, abs=1e-10)


def test_divergent_integral_raises():
    with pytest.raises(QuadratureError):
        hl.integrate_interval(lambda t: 1.0 / (1.0 + t), HALF)
    # an infinite value is refined like any other, then refused
    with pytest.raises(QuadratureError, match="did not converge"):
        hl.integrate_interval(lambda t: np.where(t > 2.0, np.inf, 1.0), HALF)


def test_quadrature_error_carries_node_tag():
    with pytest.raises(QuadratureError) as exc:
        hl.integrate_interval(lambda t: 1.0 / (1.0 + t), HALF, node=7.5)
    assert exc.value.node == 7.5
    # the divergence is refused fast: the stalled end panel is split until
    # it is too narrow, and no other panel is split on its account
    sizes = []
    with pytest.raises(QuadratureError, match="too narrow") as exc:
        hl.integrate_interval(_counted(lambda t: 1.0 / (1.0 + t), sizes), HALF,
                              node=7.5)
    assert exc.value.node == 7.5
    assert sum(sizes) <= 2000


def test_a_batch_of_integrals_keeps_each_row_as_alone():
    # integrals of |t - k| e^(-a t) over [0, inf), a row each, cut at k: each
    # row keeps its own panels, so it gets its value alone bit for bit, in
    # one integrand call per round for all rows
    from hammerline.quadrature import integrate_compact

    a = np.array([0.5, 1.0, 3.0, 10.0])
    k = np.array([0.0, 5.0, 0.3, 40.0])

    def fn(t, x, row):
        calls.append(row.size)
        return np.abs(t - k[row]) * np.exp(-a[row] * t)

    calls = []
    edges = np.stack((np.full(4, -1.0), HALF.to_compact(k), np.ones(4)), axis=1)
    batch = integrate_compact(fn, HALF, None, edges)
    rounds = len(calls)
    assert batch.shape == (4,)
    exact = (k - 1.0 / a + 2.0 * np.exp(-a * k) / a) / a
    assert batch == pytest.approx(exact, rel=1e-10)
    alone = []
    for r in range(4):
        calls.clear()
        one = integrate_compact(lambda t, x, row: fn(t, x, np.full(t.size, r)), HALF, None,
                                edges[r])
        alone.append(len(calls))
        assert isinstance(one, float)
        assert one == batch[r]
    assert rounds == max(alone)
    # a row that diverges refuses the batch
    bad = np.where(np.arange(4) == 2, 0.0, a)
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_compact(lambda t, x, row: np.exp(-bad[row] * t) + 0.0 * t, HALF, None,
                          edges)


def test_a_batch_tags_a_refusal_with_its_rows_node_and_gives_an_empty_row_zero():
    # a row whose edges are all equal holds no panel and integrates to 0.0,
    # beside rows that hold panels; a refused row names its own node
    from hammerline.quadrature import integrate_compact

    edges = np.array([[-1.0, 1.0], [0.5, 0.5], [-1.0, 0.0]])
    got = integrate_compact(lambda t, x, row: np.exp(-t), HALF, None, edges,
                            node=np.array([1.0, 2.0, 3.0]))
    assert got[1] == 0.0
    assert got[0] == integrate_compact(lambda t, x, row: np.exp(-t), HALF, None, edges[0])
    assert got[2] == integrate_compact(lambda t, x, row: np.exp(-t), HALF, None, edges[2])
    assert integrate_compact(lambda t, x, row: t, HALF, None, [[0.2, 0.2]]).tolist() == [0.0]
    nodes = np.array([10.0, 20.0, 30.0])
    for bad, why in ((2, "returned nan"), (0, "did not converge")):
        def fn(t, x, row, bad=bad, why=why):
            if why == "returned nan":
                return np.where(row == bad, np.nan, np.exp(-t))
            return np.where(row == bad, 1.0 / (1.0 + t), np.exp(-t))

        with pytest.raises(QuadratureError, match=why) as exc:
            integrate_compact(fn, HALF, None, np.broadcast_to([-1.0, 1.0], (3, 2)), node=nodes)
        assert exc.value.node == nodes[bad]


def test_tighter_config_is_accepted():
    cfg = hl.QuadratureConfig(tol=1e-12, rel_tol=1e-13)
    val = hl.integrate_interval(lambda t: t * math.exp(-t), HALF, cfg)
    assert val == pytest.approx(1.0, abs=1e-11)


def test_golden_section_max_concave():
    arg, val = hl.golden_section_max(lambda x: -(x - 0.3) ** 2 + 2.0, -1.0, 1.0)
    assert arg == pytest.approx(0.3, abs=1e-6)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_sup_on_grid_interior_peak():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))
    # t e^(-t) in compact coordinates peaks at t = 1 with value 1/e
    def fn_x(x):
        t = HALF.from_compact(x)
        if not math.isfinite(t):
            return 0.0
        return t * math.exp(-t)
    assert hl.sup_on_grid(fn_x, grid) == pytest.approx(1.0 / math.e, abs=1e-9)


def _raising_at_ends(x):
    if abs(x) == 1.0:
        raise AssertionError(f"fn_x called at the end x={x}")
    return 1.0 - x * x


def test_searches_take_given_end_values_without_calling_fn_x():
    grid = hl.build_grid(FULL, hl.GridSpec(m=17))
    # end values inside the interior range (0, 1] leave the sup inside
    ends = {-1.0: 0.5, 1.0: 0.25}
    assert hl.sup_on_grid(_raising_at_ends, grid, ends) == pytest.approx(1.0, abs=1e-12)


def test_searches_return_an_end_value_that_beats_the_interior():
    grid = hl.build_grid(FULL, hl.GridSpec(m=17))
    assert hl.sup_on_grid(_raising_at_ends, grid, {-1.0: 3.0, 1.0: 2.0}) == 3.0
