import math

import numpy as np
import pytest

import hammerline as hl
from hammerline.errors import DomainError

from adaptive_oracle import adaptive_apply_T
from conftest import grid_times, make_space

TIGHT = hl.QuadratureConfig(tol=1e-12, rel_tol=1e-13)


def quadratic_weight_space(m=33, order=0):
    """Half-line space against (t + 1)^2, the weight for the t^2/2 oracle."""
    cmap = hl.CompactMap.half_line(a=0.0, L=1.0)
    grid = hl.build_grid(cmap, hl.GridSpec(m=m))
    w = hl.custom(lambda t: (t + 1.0) ** 2,
                  derivs=(lambda t: 2.0 * (t + 1.0),), label="affine-squared")
    return hl.Space(grid=grid, weight=w, order=order)


def constant_forcing_problem(order=0):
    """u'' = 1, u(0) = u'(0) = 0, whose exact trajectory is t^2/2.

    The quadratic weight makes t / phi(t) decay algebraically to zero, which
    the sampling tail protocol declines to certify, so the slice endpoint
    data is supplied in closed form instead of going through the bundled
    initial-value builder (see test_ivp_kernel_rejects_bad_setups).
    """
    space = quadratic_weight_space(order=order)
    w = space.weight

    def d1(t, s):
        if t <= s:
            return 0.0
        return ((t + 1.0) - 2.0 * (t - s)) / (t + 1.0) ** 3

    kernel = hl.Kernel(
        fn=lambda t, s: max(t - s, 0.0),
        support="volterra",
        name="unit-acceleration",
        tilde_slice=lambda t, s: max(t - s, 0.0) / w(t),
        slice_endpoints=lambda s: (0.0, 0.0),
        dt_slices=(d1,),
        modulus_weight=lambda s: 1.0 + abs(s),
        kink_locator=lambda t: (t,) if t > 0.0 else (),
    )
    p = hl.lift(space, np.zeros((order + 1, space.m)))
    nl = hl.Nonlinearity(fn=lambda t, y: 1.0, name="unit", monotone_in_y=True)
    return hl.HammersteinProblem(kernel, nl, p, space, name="unit-acceleration")


def test_apply_T_reproduces_parabola_at_finite_nodes():
    problem = constant_forcing_problem()
    u0 = hl.lift(problem.space, np.zeros(problem.space.m))
    img = hl.apply_T(problem, u0, quad=TIGHT)
    for t in grid_times(problem.space):
        assert img.raw(t) == pytest.approx(0.5 * t * t, abs=1e-8)


def test_parabola_endpoint_is_the_degenerate_slice_value():
    # (t^2/2) / (t+1)^2 -> 1/2, but the endpoint column is assembled from the
    # endpoint slice z(s) = lim (t-s)/(t+1)^2 = 0, which under-reports when
    # the dominated-tail hypotheses fail (here sup_t slice ~ 1/(4(1+s)) is
    # not integrable). The library keeps the honest slice-based value and
    # the certificate machinery flags the setup instead (see the next test).
    problem = constant_forcing_problem()
    u0 = hl.lift(problem.space, np.zeros(problem.space.m))
    img = hl.apply_T(problem, u0, quad=TIGHT)
    assert img.samples[0, -1] == 0.0


def test_parabola_setup_fails_the_image_bound_honestly():
    # phi_r = 1 for the unit nonlinearity, so both the modulus scalar
    # (weight 1 + s) and the sup-slice scalar (~ 1/(4(1+s))) diverge; the
    # node values themselves are finite
    import dataclasses

    problem = constant_forcing_problem()
    prof = hl.c3_bound_profile(problem, 1.0)
    assert not prof.ok
    assert prof.failure is not None

    no_modulus = hl.HammersteinProblem(
        dataclasses.replace(problem.kernel, modulus_weight=None),
        problem.nonlinearity, problem.forcing, problem.space)
    still_bad = hl.c3_bound_profile(no_modulus, 1.0)
    assert not still_bad.ok
    values_only = hl.c3_bound_profile(no_modulus, 1.0, include_sup_integral=False)
    assert values_only.ok


def test_derivative_row_matches_hand_derivative():
    problem = constant_forcing_problem(order=1)
    m = problem.space.m
    u0 = hl.lift(problem.space, np.zeros((2, m)))
    img = hl.apply_T(problem, u0, quad=TIGHT)
    for i, t in enumerate(problem.space.grid.t):
        if not math.isfinite(t):
            continue
        assert img.samples[0, i] == pytest.approx(
            0.5 * t * t / (t + 1.0) ** 2, abs=1e-9)
        assert img.samples[1, i] == pytest.approx(
            t / (t + 1.0) ** 3, abs=1e-9)


def test_zero_input_maps_to_forcing_exactly(problem_c2):
    u0 = hl.lift(problem_c2.space, np.zeros(problem_c2.space.m))
    img = hl.apply_T(problem_c2, u0)
    assert np.array_equal(img.samples, problem_c2.forcing.samples)


def test_apply_T_rejects_foreign_space(problem_c2):
    other = make_space(m=17)
    with pytest.raises(DomainError):
        hl.apply_T(problem_c2, hl.lift(other, np.zeros(17)))


def test_forcing_of_bundled_problem(problem_c2, space):
    p = problem_c2.forcing
    assert p.raw(1.0) == pytest.approx(1.0, abs=1e-12)   # v0 * t at t = 1
    assert p.samples[0, -1] == pytest.approx(1.0, abs=1e-12)
    assert p.norm() == pytest.approx(1.0, abs=1e-12)


def test_kernel_limits_of_bundled_kernel(problem_c2, space):
    lim = hl.kernel_limits(problem_c2.kernel, space.weight, 1.0,
                           grid=space.grid)
    assert lim.z_lo == 0.0
    assert lim.z_hi == pytest.approx(1.0, abs=1e-12)
    assert lim.sup == pytest.approx(1.0, abs=1e-8)
    zero = hl.Kernel(fn=lambda t, s: 0.0)
    lim0 = hl.kernel_limits(zero, space.weight, 1.0, grid=space.grid)
    assert lim0.z_lo == lim0.z_hi == lim0.sup == 0.0


def test_slice_endpoint_values_match_closed_form(problem_c2, space):
    lo, hi = hl.slice_endpoint_values(problem_c2.kernel, space.weight, 2.5,
                                      space.map)
    assert lo == 0.0
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert hl.slice_tilde(problem_c2.kernel, space.weight, 4.0, 1.0) == \
        pytest.approx(3.0 / 5.0, abs=1e-15)


def test_modulus_check_passes_for_bundled_kernel(problem_c2, space):
    rep = hl.kernel_modulus_check(
        problem_c2.kernel, space.weight, problem_c2.kernel.modulus_weight,
        grid=space.grid, eps_grid=(1e-1, 1e-2))
    assert rep.passed
    assert all(d is not None for d in rep.delta_by_eps.values())


def test_modulus_check_fails_for_jump_kernel(space):
    jump = hl.Kernel(fn=lambda t, s: 1.0 if t > 1.0 else 0.0, name="jump")
    rep = hl.kernel_modulus_check(jump, space.weight, lambda s: 1.0,
                                  grid=space.grid, eps_grid=(1e-2,))
    assert not rep.passed
    assert rep.worst is not None and rep.worst["gap"] > rep.worst["bound"]


def test_dominator_check_monotone_pass(problem_c2, space):
    rep = hl.dominator_check(problem_c2.nonlinearity, space.weight, 1.0,
                             grid=space.grid)
    assert rep.passed


def test_dominator_check_fails_for_lying_dominator(space):
    nl = hl.Nonlinearity(
        fn=lambda t, y: max(y, 0.0) * math.exp(-t),
        dominator=lambda r, phi: (lambda t: 0.5 * r * phi(t) * math.exp(-t)),
        name="halved")
    rep = hl.dominator_check(nl, space.weight, 1.0, grid=space.grid)
    assert not rep.passed
    assert rep.worst["excess"] > 0.0


def test_dominator_check_requires_growth_data(space):
    bare = hl.Nonlinearity(fn=lambda t, y: y)
    with pytest.raises(DomainError):
        hl.dominator_check(bare, space.weight, 1.0, grid=space.grid)
    with pytest.raises(DomainError):
        hl.dominator_check(bare, space.weight, -1.0, grid=space.grid)


def bound_profile_closed_form(t):
    # (1/(t+1)) * integral of (t-s)(1+s)e^(-s) over [0, t]
    return (2.0 * t - 3.0 + math.exp(-t) * (t + 3.0)) / (t + 1.0)


def test_bound_profile_matches_closed_form(problem_c2):
    prof = hl.c3_bound_profile(problem_c2, 1.0)
    assert prof.ok
    ts = problem_c2.space.grid.t
    for t, val in zip(ts, prof.values):
        expected = 2.0 if math.isinf(t) else bound_profile_closed_form(t)
        assert val == pytest.approx(expected, abs=1e-7)
    assert prof.sup == pytest.approx(2.0, abs=1e-7)
    assert prof.scalars["modulus_dominator_integral"] == pytest.approx(5.0, abs=1e-6)
    assert prof.scalars["abs_z_lo_integral"] == 0.0
    assert prof.scalars["abs_z_hi_integral"] == pytest.approx(2.0, abs=1e-7)
    assert prof.scalars["sup_slice_integral"] == pytest.approx(2.0, abs=1e-5)


def test_bound_profile_scales_linearly_in_radius(problem_c2):
    one = hl.c3_bound_profile(problem_c2, 1.0)
    two = hl.c3_bound_profile(problem_c2, 2.0)
    assert two.ok
    assert np.allclose(np.array(two.values), 2.0 * np.array(one.values),
                       rtol=1e-9, atol=1e-12)


def test_ivp_kernel_rejects_bad_setups(space_order1):
    full = hl.CompactMap.full_line(L=1.0)
    grid = hl.build_grid(full, hl.GridSpec(m=17))
    full_space = hl.Space(grid=grid, weight=hl.exponential(c=1.0, rate=0.0))
    with pytest.raises(DomainError):
        hl.second_order_ivp_kernel(1.0, full_space)

    half = hl.CompactMap.half_line(a=0.0, L=1.0)
    hgrid = hl.build_grid(half, hl.GridSpec(m=17))
    decaying = hl.Space(grid=hgrid, weight=hl.exponential(c=1.0, rate=-1.0))
    with pytest.raises(DomainError):
        hl.second_order_ivp_kernel(1.0, decaying)

    # algebraic decay of t / phi(t) to zero is declined, not guessed
    with pytest.raises(DomainError):
        hl.second_order_ivp_kernel(1.0, quadratic_weight_space())


def test_problem_registry_builds_by_name(space):
    builder = hl.PROBLEM_BUILDERS["boosted-projectile"]
    problem = builder(space, v0=2.0)
    assert problem.params["v0"] == 2.0
    assert problem.kernel.support == "volterra"

    def custom_builder(space, k=1.0):
        return hl.boosted_projectile_problem(space, v0=k)

    hl.register_problem("unit-test-problem", custom_builder)
    try:
        assert hl.PROBLEM_BUILDERS["unit-test-problem"](space, k=3.0).params["v0"] == 3.0
    finally:
        del hl.PROBLEM_BUILDERS["unit-test-problem"]


def test_gravity_problem_guards_parameters(space):
    with pytest.raises(DomainError):
        hl.gravity_projectile_problem(space, g=-1.0)
    problem = hl.gravity_projectile_problem(space, g=1.0, R=1.0, v0=2.0)
    assert problem.nonlinearity.fn(0.0, 0.0) == -1.0
    assert math.isnan(problem.nonlinearity.fn(0.0, -1.0))


# -- Nystrom operator against the adaptive oracle ------------------------------

def gated_problem(m=41, max_subdivisions=None, declare_jump=False):
    """Full-support kernel exp(-|t-s|) switched on at s = 0.7, a jump that
    the kernel declares only when asked."""
    space = make_space(m=m)
    kernel = hl.Kernel(
        fn=lambda t, s: math.exp(-abs(t - s)) if s > 0.7 else 0.0,
        slice_endpoints=lambda s: (0.0, 0.0),
        kink_locator=(lambda t: (0.7,)) if declare_jump else None,
        name="gated")
    nl = hl.Nonlinearity(fn=lambda t, y: math.exp(-t) / (1.0 + y * y),
                         name="bump")
    p = hl.lift(space, np.zeros(m))
    return hl.HammersteinProblem(kernel, nl, p, space, name="gated")


@pytest.mark.parametrize("m", [41, 81, 161])
def test_nystrom_images_match_the_adaptive_oracle(m):
    space = make_space(m=m)
    for problem in (hl.boosted_projectile_problem(space, v0=1.0),
                    hl.gravity_projectile_problem(space, g=1.0, R=1.0, v0=2.0)):
        sol = hl.picard_solve(problem, max_iters=2, keep_iterates=True)
        for u in sol.iterates:
            img = hl.apply_T(problem, u).samples
            assert np.max(np.abs(img - adaptive_apply_T(problem, u))) <= 1e-12


def test_volterra_rows_stop_at_their_node():
    # exp(-|t-s|) does not vanish for s > t: only the support cuts the rows
    space = make_space(m=41)
    kernel = hl.Kernel(fn=lambda t, s: math.exp(-abs(t - s)), support="volterra",
                       slice_endpoints=lambda s: (0.0, 0.0),
                       kink_locator=lambda t: (t,), name="two-sided")
    nl = hl.Nonlinearity(fn=lambda t, y: math.exp(-t) * (1.0 + y * y),
                         name="bump")
    problem = hl.HammersteinProblem(kernel, nl, hl.lift(space, np.zeros(41)),
                                    space)
    u = hl.lift(space, np.linspace(0.0, 1.0, 41))
    img = hl.apply_T(problem, u).samples
    assert np.max(np.abs(img - adaptive_apply_T(problem, u))) <= 1e-12


def test_undeclared_jump_is_refined_to_tolerance():
    problem = gated_problem()
    u = hl.lift(problem.space, np.linspace(0.0, 1.0, problem.space.m))
    img = hl.apply_T(problem, u)
    # the reference integrates with the jump as a breakpoint
    ref = adaptive_apply_T(gated_problem(declare_jump=True), u)
    assert np.max(np.abs(img.samples - ref)) <= hl.DEFAULT_QUAD.tol
    op = problem.operator()
    assert op.lo.size > problem.space.m - 1
    assert op.last_error <= hl.DEFAULT_QUAD.tol


def test_refinement_past_the_panel_limit_raises_tagged():
    problem = gated_problem()
    cfg = hl.QuadratureConfig(max_subdivisions=problem.space.m)
    u = hl.lift(problem.space, np.linspace(0.0, 1.0, problem.space.m))
    with pytest.raises(hl.QuadratureError, match="did not converge") as info:
        hl.apply_T(problem, u, quad=cfg)
    assert info.value.node in problem.space.grid.t
    assert info.value.estimate > cfg.tol


def test_gravity_below_the_surface_raises_nan(space):
    problem = hl.gravity_projectile_problem(space, g=1.0, R=1.0, v0=2.0)
    below = hl.lift(space, -2.0 * np.ones(space.m))
    with pytest.raises(hl.QuadratureError, match="integration returned nan") as info:
        hl.apply_T(problem, below)
    assert info.value.node in space.grid.t


def test_operator_is_built_once_per_problem_and_config(monkeypatch):
    # host-independent cost guard: one discretisation per (problem, config),
    # filled with one kernel call per row and panel block, no kernel
    # evaluation once it exists, and one f call per application
    import dataclasses

    import hammerline.hammerstein as hammerstein_mod

    builds, blocks = [], []

    class CountedOperator(hammerstein_mod.NystromOperator):
        def __init__(self, *args):
            builds.append(args[1])
            super().__init__(*args)

        def _panels(self, lo, hi):
            blocks.append(lo.size)
            return super()._panels(lo, hi)

    monkeypatch.setattr(hammerstein_mod, "NystromOperator", CountedOperator)
    calls = {"kernel": 0, "f": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    base = hl.gravity_projectile_problem(make_space(m=81), g=1.0, R=1.0, v0=2.0)
    problem = hl.HammersteinProblem(
        dataclasses.replace(base.kernel, fn=counted("kernel", base.kernel.fn)),
        dataclasses.replace(base.nonlinearity,
                            fn=counted("f", base.nonlinearity.fn)),
        base.forcing, base.space, params=base.params)
    calls.update(kernel=0, f=0)    # the construction probes are not counted
    sol = hl.picard_solve(problem, tol=1e-8, max_iters=300, relaxation=0.5)
    assert len(builds) == 1
    finite_rows = int(np.count_nonzero(problem.space.grid.finite_mask()))
    assert calls["kernel"] <= finite_rows * len(blocks)
    assert calls["f"] == sol.iterations
    calls.update(kernel=0, f=0)
    hl.apply_T(problem, sol.u)
    assert calls == {"kernel": 0, "f": 1}
    hl.apply_T(problem, sol.u, quad=TIGHT)
    assert builds == [hl.DEFAULT_QUAD, TIGHT]
