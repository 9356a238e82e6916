import math
from pathlib import Path

import numpy as np
import pytest

import hammerline as hl
from hammerline.errors import DomainError

from adaptive_oracle import adaptive_apply_T
from conftest import grid_times, make_space

TIGHT = hl.QuadratureConfig(tol=1e-12, rel_tol=1e-13)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def quadratic_weight_space(m=33, order=0):
    """Half-line space against (t + 1)^2, the weight for the t^2/2 oracle."""
    cmap = hl.CompactMap.half_line(a=0.0, L=1.0)
    grid = hl.build_grid(cmap, hl.GridSpec(m=m))
    w = hl.custom(lambda t: (t + 1.0) ** 2,
                  derivs=(lambda t: 2.0 * (t + 1.0),), label="affine-squared")
    return hl.Space(grid=grid, weight=w, order=order)


def constant_forcing_problem(order=0):
    """u'' = 1, u(0) = u'(0) = 0, whose exact trajectory is t^2/2.

    The quadratic weight makes t / phi(t) decay algebraically to zero; the
    slice endpoint data is supplied in closed form, the end value 0 that
    the bundled initial-value builder also certifies (see
    test_ivp_kernel_certifies_an_algebraically_vanishing_slope).
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


def test_parabola_slice_sups_find_the_peak_beside_the_diagonal():
    # the slice (t-s)+/(t+1)^2 peaks at t = 2s+1 with 1/(4(s+1)); past
    # s = 1e4 the peak lies inside the last grid bracket and is narrower than
    # its prescan, which sees only the zero plateau t < s unless the bracket
    # is cut at the diagonal
    problem = constant_forcing_problem()
    space = problem.space
    s = np.array([1e3, 1e5, 1e8, 1e12])
    for v in s:
        lim = hl.kernel_limits(problem.kernel, space.weight, float(v), grid=space.grid)
        assert lim.sup * 4.0 * (v + 1.0) == pytest.approx(1.0, rel=0.02)
    batch = hl.kernel_limits(problem.kernel, space.weight, s, grid=space.grid)
    assert batch.sup.shape == s.shape
    assert np.all(np.abs(batch.sup * 4.0 * (s + 1.0) - 1.0) <= 0.02)


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


def test_kernel_limits_of_a_batch_are_the_scalar_ones(problem_c2, space):
    # a batch of s is one sup search; each row equals its own scalar call,
    # and a kernel without closed-form endpoints classifies its tails in one
    # pass over the batch
    plain = hl.Kernel(fn=lambda t, s: np.maximum(t - s, 0.0), support="volterra")
    s = np.array([0.0, 0.3, 2.0, 40.0])
    for kernel in (problem_c2.kernel, plain):
        batch = hl.kernel_limits(kernel, space.weight, s, grid=space.grid)
        for i, v in enumerate(s.tolist()):
            one = hl.kernel_limits(kernel, space.weight, v, grid=space.grid)
            assert (batch.z_lo[i], batch.z_hi[i], batch.sup[i]) == tuple(one)
    with pytest.raises(DomainError, match="no finite limit toward \\+inf"):
        hl.slice_endpoint_values(hl.Kernel(fn=lambda t, s: t * t), space.weight, s,
                                 space.map)


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


def _modulus_loop(kernel, phi, omega, grid, eps_grid=(1e-1, 1e-2, 1e-3), delta_min=1e-9,
                  s_count=24):
    """The modulus check one lattice point at a time: the reference of the
    lattice's array calls."""
    cmap = grid.map
    t_probes = [t for t in grid.t[grid.finite_mask()]][::2]
    s_probes = [cmap.from_compact(x) for x in np.linspace(-0.999, 0.999, s_count)]
    deltas = [d for d in (10.0 ** (-j) for j in range(0, 10)) if d >= delta_min]

    def ok_for(eps, delta):
        worst = None
        for t1 in t_probes:
            for theta in (0.5, 0.999):
                t2 = t1 + theta * delta
                for s in s_probes:
                    gap = abs(hl.slice_tilde(kernel, phi, t2, s)
                              - hl.slice_tilde(kernel, phi, t1, s))
                    bound = eps * float(omega(s))
                    if gap > bound and (worst is None or gap - bound > worst["excess"]):
                        worst = {"t1": t1, "t2": t2, "s": s, "gap": gap,
                                 "bound": bound, "excess": gap - bound}
        return worst

    table, overall_worst = {}, None
    for eps in eps_grid:
        table[eps] = None
        for delta in deltas:
            worst = ok_for(eps, delta)
            if worst is None:
                table[eps] = delta
                break
            overall_worst = worst
    passed = all(d is not None for d in table.values())
    return passed, table, None if passed else overall_worst


@pytest.mark.parametrize("name", ["boosted_projectile_c2", "gravity_projectile", "jump"])
def test_modulus_check_of_the_lattice_equals_a_loop(name, space):
    # one array call of the slice per (eps, delta) gives the loop's delta
    # table and witness, the first largest excess in (t, step, s) order
    from pathlib import Path

    if name == "jump":
        kernel = hl.Kernel(fn=lambda t, s: 1.0 if t > 1.0 else 0.0, name="jump",
                           modulus_weight=lambda s: 1.0)
    else:
        scn = hl.load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                               / f"{name}.json")
        space = hl.build_space(scn)
        kernel = hl.build_problem(scn, space).kernel
    rep = hl.kernel_modulus_check(kernel, space.weight, kernel.modulus_weight, space.grid)
    passed, table, worst = _modulus_loop(kernel, space.weight, kernel.modulus_weight,
                                         space.grid)
    assert rep.passed == passed == (name != "jump")
    assert rep.delta_by_eps == table
    assert rep.worst == worst


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


def _dominator_loop(nl, phi, r, grid):
    """The sampled domination one (t, y) point at a time: the first nan, or
    the first largest excess."""
    from hammerline.hammerstein import resolve_dominator

    phi_r = resolve_dominator(nl, phi)(r)
    worst, passed = None, True
    for t in grid.t[grid.finite_mask()].tolist():
        bound = float(phi_r(t))
        for y in np.linspace(-r, r, 33).tolist():
            val = float(nl.fn(t, y * phi(t)))
            if math.isnan(val):
                return False, {"t": t, "y": y, "value": val, "bound": bound}
            excess = val - bound - 1e-12 * max(1.0, abs(bound))
            if worst is None or excess > worst["excess"]:
                worst = {"t": t, "y": y, "value": val, "bound": bound, "excess": excess}
            passed = passed and not excess > 0.0
    return passed, worst


def test_dominator_check_is_one_array_call_with_the_loop_witness(problem_c2, space):
    gravity = hl.gravity_projectile_problem(space).nonlinearity
    lying = hl.Nonlinearity(fn=lambda t, y: max(y, 0.0) * math.exp(-t),
                            dominator=lambda r, phi: (lambda t: 0.5 * r * phi(t) * math.exp(-t)))
    calls = []
    for nl in (problem_c2.nonlinearity, gravity, lying):
        counted = hl.Nonlinearity(fn=lambda t, y, f=nl.fn: calls.append(1) or f(t, y),
                                  dominator=nl.dominator, monotone_in_y=nl.monotone_in_y)
        for r in (0.5, 1.0, 2.0):
            calls.clear()
            rep = hl.dominator_check(counted, space.weight, r, grid=space.grid)
            assert len(calls) <= 2   # the lattice, and the monotone bound f(t, r phi)
            passed, worst = _dominator_loop(nl, space.weight, r, space.grid)
            assert rep.passed == passed
            assert str(rep.worst) == str(worst)   # nan == nan as text
    # a nan bound fails at its point, as a nan value does
    broken = hl.Nonlinearity(fn=lambda t, y: 0.0,
                             dominator=lambda r, phi: (lambda t: math.nan if t > 1.0 else 1.0))
    rep = hl.dominator_check(broken, space.weight, 1.0, grid=space.grid)
    assert not rep.passed and rep.worst["t"] > 1.0 and math.isnan(rep.worst["bound"])


def test_gravity_sup_slice_tail_is_certified(space):
    # sup|slice| * phi_r decays like s^-2, which the tail fit certifies;
    # with the modulus scalar (divergent for gravity) left out, C3's
    # |s|^-3/2 tail certificate passes and the sup-slice integral is taken
    import dataclasses

    prob = hl.gravity_projectile_problem(space)
    prob = dataclasses.replace(prob, kernel=dataclasses.replace(prob.kernel,
                                                                modulus_weight=None))
    prof = hl.c3_bound_profile(prob, 1.0)
    assert prof.failure is None and "sup_slice_integral" in prof.scalars


def test_bound_profile_integrates_the_dominator_size_for_negative_f(space):
    # gravity's monotone dominator f(t, r phi) = -gR^2/(r phi + R)^2 is
    # negative; the bound integrates |phi_r|, so the "abs" scalars are the
    # positive 1/2 (phi_r ~ -1/(s+2)^2 against z_hi = 1 and sup|slice| = 1)
    import dataclasses

    prob = hl.gravity_projectile_problem(space)
    prob = dataclasses.replace(prob, kernel=dataclasses.replace(prob.kernel,
                                                                modulus_weight=None))
    prof = hl.c3_bound_profile(prob, 1.0)
    assert prof.scalars["abs_z_hi_integral"] == pytest.approx(0.5, abs=1e-7)
    assert prof.scalars["sup_slice_integral"] == pytest.approx(0.5, abs=1e-5)
    assert min(prof.values) >= 0.0


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


def _bound_profile_loop(problem, r, quad):
    """C3's node values and whole-interval scalars one ``integrate_interval``
    call at a time: the reference of the batched bound profile."""
    from hammerline.hammerstein import resolve_dominator

    sp, kern = problem.space, problem.kernel
    w, cmap = sp.weight, sp.map
    dom_r = resolve_dominator(problem.nonlinearity, w)(r)

    def phi_r(s):
        return np.abs(dom_r(s))

    def z_integral(side):
        return hl.integrate_interval(
            lambda s: abs(hl.slice_endpoint_values(kern, w, s, cmap)[side]) * phi_r(s),
            cmap, quad)

    scalars = {"modulus_dominator_integral": hl.integrate_interval(
                   lambda s: kern.modulus_weight(s) * phi_r(s), cmap, quad),
               "abs_z_lo_integral": z_integral(0), "abs_z_hi_integral": z_integral(1)}
    values = []
    for ti in sp.grid.t.tolist():
        if math.isinf(ti):
            values.append(z_integral(0 if ti < 0 else 1))
            continue
        kinks = tuple(kern.kink_locator(ti)) if kern.kink_locator else ()
        raw = hl.integrate_interval(
            lambda s: abs(kern.fn(ti, s) * kern.eta(s)) * phi_r(s), cmap, quad,
            hi=ti if kern.support == hl.VOLTERRA else None, breakpoints=kinks, node=ti)
        values.append(raw / w(ti))
    return tuple(values), scalars


@pytest.mark.parametrize("name", ["boosted_projectile_c2", "boosted_projectile_c2_L4",
                                  "boosted_projectile_c3"])
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_batched_bound_profile_equals_the_node_loop(name, r):
    # the finite nodes are one integral with a row per node, the scalars
    # another, and an infinite node reads its end's scalar: each value is
    # the one its own integral gives, bit for bit
    scn = hl.load_scenario(SCENARIO_DIR / f"{name}.json")
    problem, quad = hl.build_problem(scn, hl.build_space(scn)), hl.build_quad(scn)
    prof = hl.c3_bound_profile(problem, r, quad)
    values, scalars = _bound_profile_loop(problem, r, quad)
    assert prof.ok
    assert prof.values == values
    assert {k: prof.scalars[k] for k in scalars} == scalars


def test_gravity_bound_profile_refuses_the_divergent_scalar_before_integrating():
    # count guard: omega |phi_r| ~ (1 + s)/(s + 2)^2 is refused by its tail
    # verdict (|g| |t| -> 1) before it is integrated; integrated, it took 109
    # rounds and 3,717 rule nodes down to a panel too narrow to split
    import hammerline.quadrature as quad_mod

    scn = hl.load_scenario(SCENARIO_DIR / "gravity_projectile.json")
    problem, quad = hl.build_problem(scn, hl.build_space(scn)), hl.build_quad(scn)
    rounds = []
    real = quad_mod.panel_nodes

    def counted(lo, hi):
        theta, half = real(lo, hi)
        rounds.append(theta.size)
        return theta, half

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad_mod, "panel_nodes", counted)
        prof = hl.c3_bound_profile(problem, 1.0, quad)
    assert not prof.ok
    assert prof.failure == ("modulus_dominator_integral diverges: integrand decays no "
                            "faster than 1/|t| toward +inf")
    assert len(rounds) <= 10 and sum(rounds) <= 1_800


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


def test_ivp_kernel_certifies_an_algebraically_vanishing_slope():
    # t / phi(t) = t / (t+1)^2 decays like 1/t to zero; the tail fit
    # certifies the limit 0, so the slices and the forcing end at 0
    kernel, p = hl.second_order_ivp_kernel(1.0, quadratic_weight_space())
    assert kernel.slice_endpoints(3.0)[1] == 0.0
    assert p.samples[0, -1] == 0.0


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
