import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hammerline as hl
from hammerline.errors import DomainError

HALF = hl.CompactMap.half_line(a=0.0, L=1.0)
HALF_A2 = hl.CompactMap.half_line(a=2.0, L=1.0)
FULL = hl.CompactMap.full_line(L=1.0)
FULL_L4 = hl.CompactMap.full_line(L=4.0)

MAPS = [HALF, HALF_A2, FULL, FULL_L4, hl.CompactMap.half_line(a=-1.0, L=4.0)]


@pytest.mark.parametrize("cmap", MAPS)
def test_endpoints_map_to_compact_unit(cmap):
    lo, hi = cmap.interval()
    assert cmap.from_compact(1.0) == math.inf
    assert cmap.to_compact(math.inf) == 1.0
    if cmap.kind == "full-line":
        assert lo == -math.inf and hi == math.inf
        assert cmap.from_compact(-1.0) == -math.inf
        assert cmap.to_compact(-math.inf) == -1.0
    else:
        assert lo == cmap.a and hi == math.inf
        assert cmap.from_compact(-1.0) == cmap.a
        assert cmap.to_compact(cmap.a) == -1.0


@pytest.mark.parametrize("cmap", MAPS)
def test_center_of_compact_interval(cmap):
    t0 = cmap.from_compact(0.0)
    if cmap.kind == "full-line":
        assert t0 == 0.0
    else:
        assert t0 == pytest.approx(cmap.a + cmap.L, abs=1e-15)


@given(x=st.floats(-0.999999, 0.999999))
def test_half_line_round_trip_from_x(x):
    t = HALF.from_compact(x)
    assert abs(HALF.to_compact(t) - x) <= 1e-12


@given(x=st.floats(-0.999999, 0.999999))
def test_full_line_round_trip_from_x(x):
    t = FULL_L4.from_compact(x)
    assert abs(FULL_L4.to_compact(t) - x) <= 1e-12


def _roundtrip_tol(cmap, x):
    # one ulp of the compact coordinate, amplified by dt/dx
    xc = min(max(x, -1.0 + 1e-12), 1.0 - 1e-12)
    return 1e-12 * max(1.0, cmap.jacobian(xc))


@given(t=st.floats(0.0, 1e9))
def test_half_line_round_trip_from_t(t):
    x = HALF.to_compact(t)
    back = HALF.from_compact(x)
    assert abs(back - t) <= _roundtrip_tol(HALF, x)


@given(t=st.floats(-1e6, 1e6))
def test_full_line_round_trip_from_t(t):
    x = FULL.to_compact(t)
    back = FULL.from_compact(x)
    assert abs(back - t) <= _roundtrip_tol(FULL, x)


@pytest.mark.parametrize("cmap", MAPS)
def test_map_is_strictly_monotone(cmap):
    xs = np.linspace(-1.0, 1.0, 201)
    ts = [cmap.from_compact(x) for x in xs]
    assert all(a < b for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("cmap", [HALF, FULL, FULL_L4, HALF_A2])
def test_jacobian_matches_finite_differences(cmap):
    h = 1e-6
    for x in np.linspace(-0.95, 0.95, 9):
        fd = (cmap.from_compact(x + h) - cmap.from_compact(x - h)) / (2.0 * h)
        jac = cmap.jacobian(x)
        assert jac > 0.0
        assert abs(jac - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("cmap", MAPS)
def test_angle_map_is_the_compact_map(cmap):
    # from_angle gives the point t of x(theta), dt/dtheta, and to_angle
    # inverts x(theta); t keeps its relative accuracy toward an infinite end,
    # where from_compact(x) loses about eps / (1 - |x|) of it
    theta = np.linspace(-1.5, 1.5, 13)
    t, x, dt = cmap.from_angle(theta)
    assert np.allclose(cmap.to_angle(x), theta, rtol=0.0, atol=1e-13)
    gap = np.abs(t - cmap.from_compact(x))
    assert np.all(gap <= 1e-15 * np.abs(t) / (1.0 - np.abs(x)) + 1e-13)
    h = 1e-6
    fd = (cmap.from_angle(theta + h)[0] - cmap.from_angle(theta - h)[0]) / (2.0 * h)
    assert np.allclose(dt, fd, rtol=1e-8, atol=0.0)
    # 1e-9 from the end x rounds to 1, while t stays finite
    t_end, x_end, _ = cmap.from_angle(np.array([np.pi / 2 - 1e-9]))
    assert x_end[0] == 1.0 and 1e15 < t_end[0] < np.inf


@pytest.mark.parametrize("cmap", MAPS)
def test_to_compact_of_an_array_is_the_float_map_bit_for_bit(cmap):
    lo, hi = cmap.interval()
    rng = np.random.default_rng(5)
    inner = np.concatenate((rng.standard_normal(400) * 10.0 ** rng.uniform(-8, 14, 400),
                            [0.0, 1e300, -1e300, 2.0, -1.0]))
    t = np.concatenate(([lo, hi], inner[(inner > lo) & (inner < hi)]))
    x = cmap.to_compact(t)
    assert isinstance(x, np.ndarray) and x.shape == t.shape
    assert x.tolist() == [cmap.to_compact(v) for v in t.tolist()]
    assert x[0] == -1.0 and x[1] == 1.0
    assert cmap.to_compact(t.reshape(1, -1)).tolist() == [x.tolist()]
    below = np.array([0.5, lo - 1.0]) if math.isfinite(lo) else np.array([np.nan])
    with pytest.raises(DomainError, match="outside the interval"):
        cmap.to_compact(below)


def test_jacobian_rejects_endpoints():
    with pytest.raises(DomainError):
        HALF.jacobian(1.0)
    with pytest.raises(DomainError):
        FULL.jacobian(-1.0)


def test_contains_respects_interval():
    assert HALF_A2.contains(2.0)
    assert HALF_A2.contains(math.inf)
    assert not HALF_A2.contains(1.999)
    assert FULL.contains(-math.inf)


def test_invalid_map_parameters_rejected():
    with pytest.raises(DomainError):
        hl.CompactMap("circle")
    with pytest.raises(DomainError):
        hl.CompactMap.half_line(a=0.0, L=0.0)
    with pytest.raises(DomainError):
        hl.CompactMap.half_line(a=math.inf, L=1.0)


def test_grid_nodes_symmetric_and_bracketed():
    grid = hl.build_grid(FULL, hl.GridSpec(m=33))
    assert grid.m == 33
    assert grid.x[0] == -1.0 and grid.x[-1] == 1.0
    assert np.allclose(grid.x, -grid.x[::-1], atol=0.0)
    assert grid.x[16] == 0.0
    assert grid.t[0] == -math.inf and grid.t[-1] == math.inf
    assert np.sum(grid.finite_mask()) == 31


def test_grid_rejects_tiny_m():
    with pytest.raises(DomainError):
        hl.build_grid(HALF, hl.GridSpec(m=4))


def test_barycentric_reproduces_polynomials_exactly():
    grid = hl.build_grid(HALF, hl.GridSpec(m=12))
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=8)
    poly = np.polynomial.polynomial.Polynomial(coeffs)
    vals = poly(grid.x)
    for xq in rng.uniform(-1.0, 1.0, size=25):
        assert grid.interpolate(vals, xq) == pytest.approx(poly(xq), abs=1e-12)


def test_barycentric_is_exact_at_nodes():
    grid = hl.build_grid(HALF, hl.GridSpec(m=9))
    vals = np.sin(np.arange(9.0))
    for xj, vj in zip(grid.x, vals):
        assert grid.interpolate(vals, xj) == vj


def test_interpolant_matches_interpolate():
    grid = hl.build_grid(HALF, hl.GridSpec(m=9))
    vals = np.cos(np.arange(9.0))
    f = grid.interpolant(vals)
    for xq in (-0.73, 0.11, 0.98):
        assert f(xq) == grid.interpolate(vals, xq)


def test_row_tagged_interpolation_gives_each_point_its_row_alone():
    # unsorted tags over more than one block of points, node hits included:
    # each point reads its own row, bit for bit
    grid = hl.build_grid(HALF, hl.GridSpec(m=41))
    rng = np.random.default_rng(7)
    table = rng.normal(size=(6, 41))
    xq = np.concatenate((rng.uniform(-1.0, 1.0, 2500), grid.x[::3]))
    row = rng.integers(0, 6, xq.size)
    got = grid.interpolant(table)(xq, row)
    for r in range(6):
        assert np.array_equal(got[row == r], grid.interpolate(table[r], xq[row == r]))
    lines = rng.uniform(-1.0, 1.0, (6, 40))
    got = grid.interpolant(table)(lines, np.arange(6)[:, None])
    assert got.shape == (6, 40)
    for r in range(6):
        assert np.array_equal(got[r], grid.interpolate(table[r], lines[r]))


def test_a_float_query_of_a_batch_interpolant_reads_its_row():
    grid = hl.build_grid(HALF, hl.GridSpec(m=17))
    table = np.random.default_rng(4).normal(size=(3, 17))
    f = grid.interpolant(table)
    for xq in (0.3, float(grid.x[4])):
        got = f(xq, 2)
        assert isinstance(got, float) and got == f(np.array([xq]), 2)[0]
    assert f(float(grid.x[4]), 2) == table[2, 4]


@pytest.mark.parametrize("cmap", [HALF, FULL])
def test_a_float_gets_the_bits_of_a_one_point_array(cmap):
    # seeded points, the grid nodes and +-1: a float query is a batch of one
    grid = hl.build_grid(cmap, hl.GridSpec(m=41))
    interp = grid.interpolant(np.random.default_rng(8).normal(size=41))
    xs = np.concatenate((np.random.default_rng(9).uniform(-1.0, 1.0, 3000), grid.x))
    for x in xs.tolist():
        one = np.array([x])
        t = cmap.from_compact(x)
        assert isinstance(t, float) and t == cmap.from_compact(one)[0]
        assert cmap.to_compact(t) == cmap.to_compact(np.array([t]))[0]
        assert interp(x) == interp(one)[0]
        if abs(x) < 1.0:
            assert cmap.jacobian(x) == cmap.jacobian(one)[0]


def test_refining_tail_x_grows_toward_one():
    xs = hl.refining_tail_x(1, 6)
    assert list(xs) == [1.0 - 10.0 ** (-k) for k in range(1, 7)]
    assert all(0.0 < x < 1.0 for x in xs)
