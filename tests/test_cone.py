import dataclasses
import json
import math
import random
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hammerline as hl
from hammerline.errors import DomainError

from conftest import make_space, make_system
from window_oracle import oracle_windows

E = math.e
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


# -- functional evaluation -------------------------------------------------

def test_forcing_functionals_match_closed_forms(problem_c2, system_c2):
    p = problem_c2.forcing
    gamma = hl.eval_functional(system_c2.lower, p)
    beta = hl.eval_functional(system_c2.upper, p)
    alpha = hl.eval_functional(system_c2.cone, p)
    # integral of t e^(-t) = 1; sup of t/e^t = 1/e at t = 1
    assert gamma == pytest.approx(1.0, abs=1e-10)
    assert beta == pytest.approx(1.0 / E, abs=1e-10)
    assert alpha == pytest.approx(0.5 - 1.0 / E, abs=1e-10)


def test_cone_functional_at_c3_is_negative(problem_c2):
    sys3 = make_system(c=3.0)
    alpha = hl.eval_functional(sys3.cone, problem_c2.forcing)
    assert alpha == pytest.approx(1.0 / 3.0 - 1.0 / E, abs=1e-10)
    assert alpha < 0.0


def test_functional_homogeneity_and_additivity(problem_c2, system_c2):
    p = problem_c2.forcing
    for spec in (system_c2.lower, system_c2.upper):
        one = hl.eval_functional(spec, p)
        three = hl.eval_functional(spec, 3.0 * p)
        assert three == pytest.approx(3.0 * one, rel=1e-10)
    g = hl.eval_functional(system_c2.lower, p + p)
    assert g == pytest.approx(2.0 * hl.eval_functional(system_c2.lower, p),
                              rel=1e-10)


def test_kernel_slice_functionals(problem_c2, system_c2, space):
    # gamma of the kernel slice s -> k(.,s) is e^(-s); beta is e^(-(s+1))
    for s in (0.5, 1.0, 2.0):
        g = hl.eval_functional_raw(
            system_c2.lower,
            lambda t, s=s: max(t - s, 0.0), space, kinks=(s,))
        assert g == pytest.approx(math.exp(-s), abs=1e-9)
    b = hl.eval_functional_raw(
        system_c2.upper, lambda t: max(t - 1.0, 0.0), space, kinks=(1.0,))
    assert b == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_functional_spec_validation():
    with pytest.raises(DomainError):
        hl.FunctionalSpec(kind="weighted-integral")  # missing weight
    with pytest.raises(DomainError):
        hl.FunctionalSpec(kind="difference", integral_weight=hl.affine())
    with pytest.raises(DomainError):
        hl.FunctionalSpec(kind="mystery", integral_weight=hl.affine())


def test_divergent_integral_functional_raises(problem_c2):
    # integral weight (t+1): integrand ~ t/(t+1) has a non-integrable tail
    bad = hl.FunctionalSpec(kind="weighted-integral", integral_weight=hl.affine())
    with pytest.raises(DomainError):
        hl.eval_functional(bad, problem_c2.forcing)


def test_sup_functional_with_diverging_ratio_is_refused(problem_c2, space):
    # sup weight 1/(1+t)^2: the ratio phi/phi3 = (1+t)^3 certifiably
    # diverges, which amplifies interpolation wiggle without bound, so the
    # evaluation refuses for every element (vanishing ones included)
    decay = hl.custom(lambda t: 1.0 / (1.0 + t) ** 2, label="inverse-square")
    bad = hl.FunctionalSpec(kind="weighted-sup", sup_weight=decay)
    with pytest.raises(DomainError):
        hl.eval_functional(bad, problem_c2.forcing)
    u = hl.from_raw(space, lambda t: math.exp(-t), endpoints={"hi": 0.0})
    with pytest.raises(DomainError):
        hl.eval_functional(bad, u)
    # a bounded ratio stays well-posed: phi3 = phi gives the plain sup
    flat = hl.FunctionalSpec(kind="weighted-sup", sup_weight=hl.affine(b=1.0))
    assert hl.eval_functional(flat, u) == pytest.approx(1.0, abs=1e-9)


def test_sup_functional_with_underflowing_weight_is_refused(problem_c2):
    # e^(-t) underflows to 0 at the deep tail probes, so the ratio
    # phi / e^(-t) reads inf there, a certified divergence, and the
    # evaluation refuses instead of guessing
    bad = hl.FunctionalSpec(kind="weighted-sup",
                            sup_weight=hl.exponential(c=1.0, rate=-1.0))
    with pytest.raises(DomainError, match="sup part ill-conditioned"):
        hl.eval_functional(bad, problem_c2.forcing)


# -- full line: both infinite ends -----------------------------------------

FLAT = hl.exponential(c=1.0, rate=0.0)
FLAT_SUP = hl.FunctionalSpec(kind="weighted-sup", sup_weight=FLAT)
FLAT_INTEGRAL = hl.FunctionalSpec(kind="weighted-integral", integral_weight=FLAT)


@pytest.fixture(scope="module")
def full_space():
    grid = hl.build_grid(hl.CompactMap.full_line(L=1.0), hl.GridSpec(m=41))
    return hl.Space(grid=grid, weight=FLAT, order=0)


def test_full_line_element_functionals(full_space):
    u = hl.from_raw(full_space, lambda t: 1.0 / (1.0 + t * t),
                    endpoints={"lo": 0.0, "hi": 0.0})
    assert hl.eval_functional(FLAT_SUP, u) == pytest.approx(1.0, abs=1e-12)
    assert hl.eval_functional(FLAT_INTEGRAL, u) == pytest.approx(math.pi, abs=1e-11)


def test_full_line_slice_functionals(full_space):
    peak = lambda t: math.exp(-abs(t - 0.5))  # noqa: E731
    sup = hl.eval_functional_raw(FLAT_SUP, peak, full_space, kinks=(0.5,))
    integral = hl.eval_functional_raw(FLAT_INTEGRAL, peak, full_space, kinks=(0.5,))
    assert sup == pytest.approx(1.0, abs=1e-9)
    assert integral == pytest.approx(2.0, abs=1e-12)
    # sup of 2 - tanh t is its limit 3 at -inf
    falling = lambda t: 2.0 - math.tanh(t)  # noqa: E731
    sup = hl.eval_functional_raw(FLAT_SUP, falling, full_space)
    assert sup == pytest.approx(3.0, abs=1e-12)


def test_full_line_envelope_extremes(full_space):
    from hammerline.cone import _envelope_extreme

    cubic = lambda t, rho: 1.0 + abs(t) ** 3  # noqa: E731
    assert _envelope_extreme(cubic, np.array([1.0]), full_space, "sup") == math.inf
    # inf of 1 + tanh t is its limit 0 at -inf
    step = lambda t, rho: 1.0 + math.tanh(t)  # noqa: E731
    low = _envelope_extreme(step, np.array([1.0]), full_space, "inf")
    assert low == pytest.approx(0.0, abs=1e-12)


def test_full_line_refusals(full_space):
    from hammerline.cone import _envelope_extreme

    with pytest.raises(DomainError, match="sup part unbounded for this slice"):
        hl.eval_functional_raw(FLAT_SUP, lambda t: 1.0 + abs(t) ** 3, full_space)
    wobble = lambda t: 1.0 + 0.5 * math.sin(t)  # noqa: E731
    with pytest.raises(DomainError, match="sup part endpoint behavior undecided"):
        hl.eval_functional_raw(FLAT_SUP, wobble, full_space)
    with pytest.raises(DomainError, match="envelope endpoint behavior undecided"):
        _envelope_extreme(lambda t, rho: wobble(t), np.array([1.0]), full_space, "sup")


def test_profile_integrals(problem_c2, system_c2, space, report_c2):
    low = hl.kernel_functional_integral(system_c2.lower, problem_c2.kernel,
                                        space=space)
    up = hl.kernel_functional_integral(system_c2.upper, problem_c2.kernel,
                                       space=space)
    assert low.integral == pytest.approx(1.0, abs=1e-8)
    assert up.integral == pytest.approx(1.0 / E, abs=1e-8)
    assert low.positive and up.positive
    assert low.min_value >= -1e-12
    mid = len(low.s_values) // 2
    assert low.values[mid] == pytest.approx(math.exp(-low.s_values[mid]), abs=1e-6)
    # the certifier's parts memo returns exactly what standalone calls compute
    ctx = report_c2.context
    for memoized, standalone in ((ctx.upper_profile, up), (ctx.lower_profile, low)):
        assert memoized.values == standalone.values
        assert memoized.integral == standalone.integral


def _count_sup_searches(monkeypatch, *modules):
    """The rows of every sup search, one entry a search: a search over a
    batch of slices counts one row per slice (a row of its ``kinks``)."""
    import inspect

    rows = []
    for mod in modules:
        real = mod.sup_on_grid
        signature = inspect.signature(real)

        def counted(*args, _real=real, **kwargs):
            kinks = signature.bind(*args, **kwargs).arguments.get("kinks", ())
            rows.append(math.prod(np.shape(kinks)[:-1]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, "sup_on_grid", counted)
    return rows


def test_shared_memo_skips_repeated_slice_sups(problem_c2, system_c2, space,
                                               monkeypatch):
    import hammerline.cone as cone_mod

    rows = _count_sup_searches(monkeypatch, cone_mod)
    memo = {}
    first = hl.kernel_functional_integral(system_c2.upper, problem_c2.kernel,
                                          space=space, memo=memo)
    searched = sum(rows)
    assert searched >= len(first.values)
    # an equal builder weight, not the same object, names the same parts
    twin = hl.FunctionalSpec("weighted-sup", sup_weight=hl.exponential(c=1.0, rate=1.0))
    second = hl.kernel_functional_integral(twin, problem_c2.kernel,
                                           space=space, memo=memo)
    assert sum(rows) == searched
    assert second.values == first.values
    assert second.integral == first.integral


def test_memo_never_stores_a_refused_part(problem_c2):
    decay = hl.custom(lambda t: 1.0 / (1.0 + t) ** 2, label="inverse-square")
    bad = hl.FunctionalSpec(kind="weighted-sup", sup_weight=decay)
    memo = {}
    for _ in range(2):
        with pytest.raises(DomainError):
            hl.eval_functional(bad, problem_c2.forcing, memo=memo)
    assert not any(key[0] == "sup" for key in memo)


def test_certifier_sup_search_count(problem_c2, system_c2, monkeypatch):
    # each slice and element sup part is searched once per certification,
    # counted by rows (a batch of slices is one search of many rows): with a
    # 256-point table per kernel profile beside its integral the certifier
    # searched 613 rows here; with the profiles read at the integral's own
    # points, 320
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod

    rows = _count_sup_searches(monkeypatch, cone_mod, hammerstein_mod)
    hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                              system_c2.lower, samples=6, seed=0)
    assert sum(rows) <= 359


def test_certifier_quadrature_node_count(problem_c2, system_c2, monkeypatch):
    # the rule nodes of every integrate_compact call of a certification: with
    # a 256-point table per kernel profile and sampled P1-P3 and C7 structure
    # there were 119,280 here; with the profiles read at the integral's own
    # points and the structure read from the functional kinds, 37,926; with
    # C9's bridges read from the weights instead of the samples, 37,044; with
    # C3's infinite node read from its |z| scalar, not integrated twice, 36,897
    import hammerline.quadrature as quad_mod

    nodes = []
    real = quad_mod.panel_nodes

    def counted(lo, hi):
        theta, half = real(lo, hi)
        nodes.append(theta.size)
        return theta, half

    monkeypatch.setattr(quad_mod, "panel_nodes", counted)
    hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                              system_c2.lower, samples=6, seed=0)
    assert sum(nodes) <= 38_650


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_sup_part_of_the_operator_rhs_matches_the_closed_form_profile(scale, system_c2):
    # the sup part of the upper functional's right-hand side is the integral
    # over s of the slice sup e^(-s-1) times f(s, u(s)) = max(u, 0) e^(-s);
    # read from the 256-point table it was off by 4.4e-4 (c2) and 1.05e-3
    # (c2_L4) relative
    from scipy.integrate import quad

    from conftest import make_space
    from hammerline.cone import _Certification, _draw_elements

    problem = hl.boosted_projectile_problem(make_space(scale=scale), v0=1.0)
    specs = {"cone": system_c2.cone, "upper": system_c2.upper, "lower": system_c2.lower}
    ctx = _Certification(problem, specs, hl.DEFAULT_QUAD)
    ctx.share(_draw_elements(problem.space, 4, random.Random(0)))
    assert ctx.elements
    for u in ctx.elements:
        got = ctx.rhs("upper", u) - ctx.forcing["upper"]
        want, _ = quad(lambda s: math.exp(-2.0 * s - 1.0) * max(u.raw(s), 0.0),
                       0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        assert got == pytest.approx(want, rel=1e-10)


def _certification(problem, system, samples):
    """A fresh certification context, shared up to the sampled images."""
    from hammerline.cone import _Certification, _draw_elements

    specs = {"cone": system.cone, "upper": system.upper, "lower": system.lower}
    ctx = _Certification(problem, specs, hl.DEFAULT_QUAD)
    ctx.share(_draw_elements(problem.space, samples, random.Random(0)))
    return ctx


@pytest.mark.parametrize("name", ["cone", "upper", "lower"])
def test_a_batch_of_right_hand_sides_equals_the_loop(name, problem_c2, system_c2):
    # one outer integral with a row per element: each element's right-hand
    # side equals the one it gets alone, bit for bit, from its own context
    batch_ctx, loop_ctx = (_certification(problem_c2, system_c2, 6) for _ in range(2))
    batch = batch_ctx.rhs(name, batch_ctx.elements)
    alone = [loop_ctx.rhs(name, u) for u in loop_ctx.elements]
    assert all(type(v) is float for v in alone)
    assert batch.shape == (6,)
    assert batch.tolist() == alone


@pytest.mark.parametrize("zeroed", [[1], [2, 5], [0, 3]])
def test_the_first_violating_sample_is_the_witness(zeroed, problem_c2, system_c2):
    # a zero image has cone, upper and lower functional 0, below the
    # positive right-hand sides of the cone and lower inequalities: C6 and
    # C7 fail at the first zeroed sample, also when a later one of the same
    # round fails too
    ctx = _certification(problem_c2, system_c2, 6)
    for k in zeroed:
        ctx.images[k] = 0.0 * ctx.images[k]
    c6, c7 = ctx.c6(), ctx.c7()
    ref = _certification(problem_c2, system_c2, 6)
    rhs = {name: ref.rhs(name, ref.elements[zeroed[0]]) for name in ("cone", "upper", "lower")}
    assert c6.status == c7.status == "fail"
    assert c6.witness == {"lhs": 0.0, "rhs": rhs["cone"], "slack": 0.0 - rhs["cone"]}
    assert c7.witness["operator_witness"] == {"upper_lhs": 0.0, "upper_rhs": rhs["upper"],
                                              "lower_lhs": 0.0, "lower_rhs": rhs["lower"]}


def test_a_check_failing_on_the_first_sample_evaluates_no_other(monkeypatch):
    # verify-gravity fails C6 and C7 on its first sample (the slacks of all
    # 8 are negative): only that sample's right-hand sides are computed
    import hammerline.cone as cone_mod

    scn = hl.load_scenario(SCENARIO_DIR / "gravity_projectile.json")
    space = hl.build_space(scn)
    problem, system = hl.build_problem(scn, space), hl.build_system(scn)
    handed = []

    def counted(self, name, u, _real=cone_mod._Certification.rhs):
        handed.append((name, 1 if isinstance(u, hl.WeightedFunction) else len(u)))
        return _real(self, name, u)

    monkeypatch.setattr(cone_mod._Certification, "rhs", counted)
    report = hl.verify_cone_hypotheses(problem, system.cone, system.upper, system.lower,
                                       samples=scn.samples, quad=hl.build_quad(scn),
                                       seed=scn.seed)
    assert scn.samples == 8
    assert [k for k, e in sorted(report.entries.items()) if e.status != "pass"] == \
        ["C2", "C3", "C6", "C7"]
    assert handed == [("cone", 1), ("upper", 1), ("lower", 1)]


def test_certifier_call_count(problem_c2, system_c2, monkeypatch):
    # count guard: C6 and C7 check their samples in two rounds, each
    # right-hand side part of a round one outer integral, and C7's upper sup
    # parts are memo hits on C6's; with a loop over the 8 samples this
    # certification made 25 sup_on_grid and 113 integrate_compact calls,
    # batched 19 and 75, without the 256-point profile tables 16 and 72,
    # with C9's bridges read from the weights, not the samples, 16 and 71,
    # with C1's probes and C3's node rows and scalars as batches, 14 and 28,
    # and with the three kernel profiles as one integral and the forcing's
    # functionals as one batch, 13 and 20
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod
    import hammerline.quadrature as quad_mod

    calls = {"sup_on_grid": 0, "integrate_compact": 0}
    for name, modules in (("sup_on_grid", (cone_mod, hammerstein_mod)),
                          ("integrate_compact", (cone_mod, hammerstein_mod, quad_mod))):
        for mod in modules:
            def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                              system_c2.lower, samples=8, seed=0)
    assert calls["sup_on_grid"] <= 13
    assert calls["integrate_compact"] <= 20


def test_certifier_sup_search_point_count(problem_c2, system_c2, monkeypatch):
    # host-independent cost guard: the points of every sup search of a c2
    # certification; 527,726 when every bracket was stepped until the last
    # one stopped, every node read apart from its bracket, and a Volterra
    # slice searched on t < s too, 170,673 without
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod

    points = [0]

    def counting(real):
        def sup_on_grid(fn_x, *args, **kwargs):
            def fn(x, *row):
                points[0] += np.size(x)
                return fn_x(x, *row)
            return real(fn, *args, **kwargs)
        return sup_on_grid

    for mod in (cone_mod, hammerstein_mod):
        monkeypatch.setattr(mod, "sup_on_grid", counting(mod.sup_on_grid))
    hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                              system_c2.lower, samples=8, seed=0)
    assert points[0] <= 171_000


@pytest.mark.parametrize("name", ["boosted_projectile_c2.json", "gravity_projectile.json"])
def test_profiles_and_forcing_of_a_certification_equal_separate_calls(name):
    # the certifier computes the three kernel profiles as one integral and
    # the forcing's three functionals as one batch: each equals its own
    # call bit for bit
    from hammerline.cone import _Certification, _draw_elements

    scn = hl.load_scenario(SCENARIO_DIR / name)
    space, system, quad = hl.build_space(scn), hl.build_system(scn), hl.build_quad(scn)
    problem = hl.build_problem(scn, space)
    specs = {"cone": system.cone, "upper": system.upper, "lower": system.lower}
    ctx = _Certification(problem, specs, quad)
    ctx.share(_draw_elements(space, scn.samples, random.Random(scn.seed)))
    fields = ("s_values", "values", "integral", "min_value", "witness_s")
    for key, spec in specs.items():
        alone = hl.kernel_functional_integral(spec, problem.kernel, quad, space=space)
        assert [getattr(ctx.profiles[key], f) for f in fields] == \
            [getattr(alone, f) for f in fields], key
        assert ctx.forcing[key] == hl.eval_functional(spec, problem.forcing, quad), key
    both = hl.kernel_functional_integral([system.upper, system.lower], problem.kernel, quad,
                                         space=space)
    assert both == [ctx.profiles["upper"], ctx.profiles["lower"]]


def test_a_volterra_slice_is_never_searched_left_of_its_diagonal(problem_c2, system_c2):
    # every sup search of a c2 certification (kernel profiles, C1's slice
    # limits, C3's sup|slice| scalar) reads the kernel at t >= s only; the
    # report is that of the kernel's own callables
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod

    kern = problem_c2.kernel
    searching, read = [False], []

    def recorded(fn):
        def at(t, s):
            if searching[0]:
                read.append(np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float)))
            return fn(t, s)
        return at

    def flagged(real):
        def sup_on_grid(fn_x, *args, **kwargs):
            def fn(*x_row):
                searching[0] = True
                try:
                    return fn_x(*x_row)
                finally:
                    searching[0] = False
            return real(fn, *args, **kwargs)
        return sup_on_grid

    watched = dataclasses.replace(kern, fn=recorded(kern.fn),
                                  tilde_slice=recorded(kern.tilde_slice))
    problem = hl.HammersteinProblem(watched, problem_c2.nonlinearity, problem_c2.forcing,
                                    problem_c2.space, name=problem_c2.name)
    with pytest.MonkeyPatch.context() as mp:
        for mod in (cone_mod, hammerstein_mod):
            mp.setattr(mod, "sup_on_grid", flagged(mod.sup_on_grid))
        report = hl.verify_cone_hypotheses(problem, system_c2.cone, system_c2.upper,
                                           system_c2.lower, samples=8, seed=0)
    t, s = (np.concatenate([np.ravel(p[i]) for p in read]) for i in (0, 1))
    assert t.size > 10_000
    # the search starts at the compact coordinate of the diagonal, whose t
    # the map gives back up to rounding
    cmap = problem_c2.space.map
    assert (t >= cmap.from_compact(cmap.to_compact(s))).all()
    plain = hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                                      system_c2.lower, samples=8, seed=0)
    assert report.scalars == plain.scalars
    assert [e.witness for e in report.entries.values()] == \
        [e.witness for e in plain.entries.values()]


def test_a_profile_calls_the_kernel_on_arrays_of_slices(problem_c2, system_c2, space):
    # each refinement round of the profile integral is one batch of slices:
    # the cone profile made 163 array calls of kernel.fn here; evaluated one
    # s at a time, its 148 slices made 5,861
    import dataclasses

    calls = []

    def counted(t, s):
        calls.append(np.size(s))
        return problem_c2.kernel.fn(t, s)

    kernel = dataclasses.replace(problem_c2.kernel, fn=counted)
    calls.clear()   # the construction's float-or-array probe does not count
    prof = hl.kernel_functional_integral(system_c2.cone, kernel, space=space)
    assert prof.integral == pytest.approx(0.5 - 1.0 / E, abs=1e-8)
    assert len(calls) <= 190
    assert max(calls) >= 22   # a call covers the 21 nodes of the first round and s = 0


# -- batched slice functionals against a loop over s -----------------------

def _green_setup():
    """The full-line kernel e^-|t-s|/2 on the space with weight 1 + |t|, a
    sup functional against e^|t| (the profile is e^-|s|/2) and an integral
    functional against cosh t (by Fubini, the profile integrates to pi)."""
    from hammerline.elementwise import exp

    cmap = hl.CompactMap.full_line(L=1.0)
    grid = hl.build_grid(cmap, hl.GridSpec(m=41))
    space = hl.Space(grid=grid, weight=hl.custom(lambda t: 1.0 + abs(t), label="1+|t|"))
    kernel = hl.Kernel(fn=lambda t, s: 0.5 * np.exp(-np.abs(t - s)), support="full",
                       name="green")
    grow = hl.custom(lambda t: exp(abs(t)), label="e^|t|")
    cosh = hl.custom(lambda t: 0.5 * (exp(t) + exp(-t)), label="cosh")
    return (space, kernel, hl.FunctionalSpec("weighted-sup", sup_weight=grow),
            hl.FunctionalSpec("weighted-integral", integral_weight=cosh))


@pytest.mark.parametrize("name", ["c2", "green"])
def test_batched_profiles_equal_a_loop_of_slice_functionals(name, problem_c2,
                                                            system_c2, space):
    # each round of the profile integral is one batch of slices; a loop of
    # scalar calls over the recorded points gives the same values bit for bit
    from conftest import kernel_slice

    if name == "c2":
        kernel, sup_spec, integral_spec = problem_c2.kernel, system_c2.upper, system_c2.lower
        closed = {"weighted-sup": 1.0 / E, "weighted-integral": 1.0}
    else:
        space, kernel, sup_spec, integral_spec = _green_setup()
        closed = {"weighted-sup": 1.0, "weighted-integral": math.pi}
    for spec in (sup_spec, integral_spec):
        prof = hl.kernel_functional_integral(spec, kernel, space=space)
        assert prof.integral == pytest.approx(closed[spec.kind], abs=1e-8)
        assert prof.positive
        assert list(prof.s_values) == sorted(prof.s_values)
        loop = []
        for s in prof.s_values:
            fn, kinks = kernel_slice(kernel, s)
            loop.append(hl.eval_functional_raw(spec, fn, space, kinks=kinks))
        assert np.array_equal(np.array(prof.values), np.array(loop))


def _first_round_nodes(space):
    """The s of the profile integral's first round: the rule's nodes on the
    one panel of the whole interval, in the angle coordinate."""
    from hammerline.quadrature import panel_nodes

    lo, hi = space.map.to_angle(np.array([-1.0, 1.0]))
    theta, _ = panel_nodes(np.array([lo]), np.array([hi]))
    return space.map.from_angle(theta.ravel())[0].tolist()


def test_batched_profile_refuses_as_the_loop_does(space):
    # one slice grows like t^2, so its ratio to the sup weight t + 1 diverges
    from conftest import kernel_slice

    s_vals = _first_round_nodes(space)
    bad_s = s_vals[10]
    kernel = hl.Kernel(fn=lambda t, s: np.maximum(t - s, 0.0) * np.where(s == bad_s, t, 1.0),
                       support="volterra", name="one-bad-slice")
    spec = hl.FunctionalSpec("weighted-sup", sup_weight=hl.affine(b=1.0))
    with pytest.raises(DomainError) as batch:
        hl.kernel_functional_integral(spec, kernel, space=space)
    with pytest.raises(DomainError) as loop:
        for s in s_vals:
            fn, kinks = kernel_slice(kernel, s)
            hl.eval_functional_raw(spec, fn, space, kinks=kinks)
    assert str(batch.value) == str(loop.value) == "sup part unbounded for this slice"
    fn, kinks = kernel_slice(kernel, s_vals[9])
    assert hl.eval_functional_raw(spec, fn, space, kinks=kinks) == pytest.approx(1.0, abs=1e-9)


# -- batched element functionals against a loop over elements ---------------

def _parts_of(spec):
    """The one-part functionals of a spec: its sup part and integral part."""
    out = []
    if spec.sup_weight is not None:
        out.append(hl.FunctionalSpec("weighted-sup", sup_weight=spec.sup_weight))
    if spec.integral_weight is not None:
        out.append(hl.FunctionalSpec("weighted-integral", integral_weight=spec.integral_weight))
    return out


def _random_elements(space, seed, n=9):
    """Nonnegative elements, as the certifier samples them."""
    rng = np.random.default_rng(seed)
    return [hl.lift(space, np.abs(rng.normal(size=space.m))) for _ in range(n)]


@pytest.mark.parametrize("name", ["c2", "green"])
def test_a_batch_of_elements_gives_each_element_its_value_alone(name, problem_c2,
                                                                system_c2, space):
    # one integral and one sup search serve the batch: every part equals
    # the element's alone bit for bit
    if name == "c2":
        specs = [system_c2.cone, system_c2.upper, system_c2.lower]
        elements = _random_elements(space, 5) + [problem_c2.forcing]
    else:
        space, _, sup_spec, integral_spec = _green_setup()
        specs = [sup_spec, integral_spec]
        elements = _random_elements(space, 6)
    for spec in specs:
        for part in _parts_of(spec):
            batch = hl.eval_functional(part, elements)
            alone = np.array([hl.eval_functional(part, u) for u in elements])
            assert batch.shape == (len(elements),)
            assert np.array_equal(batch, alone)
        batch = hl.eval_functional(spec, elements, memo={})
        alone = np.array([hl.eval_functional(spec, u) for u in elements])
        assert np.array_equal(batch, alone)
    assert hl.eval_functional(specs[0], []).shape == (0,)


def test_a_slowly_divergent_integral_part_is_refused_before_quadrature(problem_c2,
                                                                      full_space,
                                                                      monkeypatch):
    # c2's forcing against (t+1)^2 is about 1/t, so |g| |t|^(3/2) grows
    # like t^(1/2), and on the full line an element with end sample 1
    # against a constant weight like |t|^(3/2): both stay far below any fixed
    # escape threshold at the tail probes, and the exponent fit refuses them
    # without a single panel integrated
    import hammerline.quadrature as quad_mod

    calls = []
    real = quad_mod.integrate_panels
    monkeypatch.setattr(quad_mod, "integrate_panels",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    square = hl.custom(lambda t: (t + 1.0) ** 2, label="affine-squared")
    spec = hl.FunctionalSpec("weighted-integral", integral_weight=square)
    with pytest.raises(DomainError, match="integral part diverges"):
        hl.eval_functional(spec, problem_c2.forcing)
    flat = hl.FunctionalSpec("weighted-integral", integral_weight=FLAT)
    end = hl.lift(full_space, np.where(full_space.grid.x == 1.0, 1.0, 0.0))
    with pytest.raises(DomainError, match="integral part diverges"):
        hl.eval_functional(flat, end)
    assert calls == []



def test_an_integrable_slow_tail_is_left_to_the_quadrature(problem_c2):
    # c2's forcing is t, so against (t+1)^q the integrand decays like
    # t^(1-q): integrable for q > 2 although |g| |t|^(3/2) grows for q < 2.5;
    # such a part is integrated, or refused by the quadrature, never as divergent
    def spec(q):
        return hl.FunctionalSpec("weighted-integral",
                                 integral_weight=hl.custom(lambda t: (t + 1.0) ** q,
                                                           label=f"power-{q}"))

    value = hl.eval_functional(spec(2.3), problem_c2.forcing)
    assert value == pytest.approx(math.gamma(0.3) / math.gamma(2.3), rel=1e-8)
    try:   # the integrand |t|^-1.2
        hl.eval_functional(spec(2.2), problem_c2.forcing)
    except DomainError as e:
        assert "diverges" not in str(e)


@pytest.mark.parametrize("kind", ["full", "half"])
def test_a_quadrature_refusal_names_a_tail_slower_than_the_angle_map_bounds(kind):
    # (1+|t|)^-q is integrable for q > 1, but the angle map leaves it
    # unbounded for q < 3/2: at q = 1.2 the panels near the end cannot
    # resolve it and the refusal names the tail, not only the panel; at
    # q = 1.4 the quadrature still converges
    cmap = hl.CompactMap.full_line(L=1.0) if kind == "full" else hl.CompactMap.half_line()
    space = hl.Space(grid=hl.build_grid(cmap, hl.GridSpec(m=41)), weight=FLAT, order=0)
    ends = 2.0 if kind == "full" else 1.0
    with pytest.raises(DomainError, match=r"decays slower than \|t\|\^-3/2 toward [+-]inf; "
                                          r"integration did not converge"):
        hl.eval_functional_raw(FLAT_INTEGRAL, lambda t: (1.0 + np.abs(t)) ** -1.2, space)
    value = hl.eval_functional_raw(FLAT_INTEGRAL, lambda t: (1.0 + np.abs(t)) ** -1.4, space)
    assert value == pytest.approx(ends / 0.4, abs=1e-9)


def test_a_batch_refuses_with_its_first_refusing_element(problem_c2, space, full_space):
    # integral weight t+1, the space weight: an element with a nonzero end
    # sample does not decay at all
    spec = hl.FunctionalSpec("weighted-integral", integral_weight=hl.affine())
    zero = hl.lift(space, np.zeros(space.m))
    assert hl.eval_functional(spec, zero) == 0.0
    with pytest.raises(DomainError) as alone:
        hl.eval_functional(spec, problem_c2.forcing)
    with pytest.raises(DomainError) as batch:
        hl.eval_functional(spec, [zero, problem_c2.forcing, 2.0 * problem_c2.forcing])
    assert "diverges" in str(alone.value) and str(batch.value) == str(alone.value)
    # on the full line, against the integral weight 1/(1+t^2), the element
    # (1 + x*x_end)^2 / 4 with one end sample 1 diverges toward that end
    # only, and the first refusing element names its own end (the element
    # with that end sample alone is (1 +- x)/2 times a polynomial near the
    # other end, so its integrand tends to -1/4 there and diverges too)
    decay = hl.custom(lambda t: 1.0 / (1.0 + t * t), label="lorentzian")
    flat = hl.FunctionalSpec("weighted-integral", integral_weight=decay)
    x = full_space.grid.x
    ends = [hl.lift(full_space, np.zeros(full_space.m))] + [
        hl.lift(full_space, (1.0 + side * x) ** 2 / 4.0) for side in (1.0, -1.0)]
    errors = []
    for u in ends[1:]:
        with pytest.raises(DomainError) as e:
            hl.eval_functional(flat, u)
        errors.append(str(e.value))
    assert errors[0] != errors[1]
    for order in (ends, [ends[0], ends[2], ends[1]]):
        with pytest.raises(DomainError) as batch:
            hl.eval_functional(flat, order)
        assert str(batch.value) == errors[0 if order[1] is ends[1] else 1]
    # a sup weight that the space weight outgrows refuses every batch
    inverse_square = hl.custom(lambda t: 1.0 / (1.0 + t) ** 2, label="inverse-square")
    sup = hl.FunctionalSpec("weighted-sup", sup_weight=inverse_square)
    with pytest.raises(DomainError) as alone:
        hl.eval_functional(sup, zero)
    with pytest.raises(DomainError) as batch:
        hl.eval_functional(sup, [zero, problem_c2.forcing])
    assert "ill-conditioned" in str(alone.value) and str(batch.value) == str(alone.value)


# one weight 1 + |t| on the full line, for the refusal order below
ABS_LINE = hl.custom(lambda t: 1.0 + np.abs(t), label="one-plus-abs")


def test_an_element_sup_part_refuses_its_first_end_diverging_before_the_next_undecided():
    # phi / sup weight is (1 + |t|) e^-t toward -inf, a divergence, and
    # 2 + sin t toward +inf, undecided: the ends are read in order, and at
    # each end "unknown" is checked before "diverges", so the element is
    # refused as ill-conditioned, the verdict of -inf
    sup_weight = hl.custom(lambda t: np.where(t < 0.0, np.exp(np.minimum(t, 0.0)),
                                              (1.0 + np.abs(t)) / (2.0 + np.sin(t))),
                           label="exp-then-wavy")
    line = hl.CompactMap.full_line(L=1.0)
    assert hl.tail_trend(lambda t: 2.0 + math.sin(t), line, +1) == ("unknown", None)
    grid = hl.build_grid(line, hl.GridSpec(m=17))
    u = hl.lift(hl.Space(grid=grid, weight=ABS_LINE, order=0), np.ones(grid.m))
    with pytest.raises(DomainError, match="sup part ill-conditioned"):
        hl.eval_functional(hl.FunctionalSpec("weighted-sup", sup_weight=sup_weight), u)


def test_a_raw_batch_refuses_with_its_first_row_before_its_first_end():
    # row 0 over the sup weight is 2 + sin t toward +inf (undecided) and 1
    # toward -inf; row 1 is |t| toward -inf (unbounded) and 1 toward +inf:
    # the first refused row wins, although row 1 refuses at the first end
    from hammerline.cone import _raw_parts

    def fn(t, r):
        bump = np.where(r == 0, np.where(t > 0.0, 2.0 + np.sin(t), 1.0),
                        np.where(t < 0.0, np.abs(t), 1.0))
        return (1.0 + np.abs(t)) * bump

    grid = hl.build_grid(hl.CompactMap.full_line(L=1.0), hl.GridSpec(m=17))
    space = hl.Space(grid=grid, weight=ABS_LINE, order=0)
    _, sup = _raw_parts(fn, space, hl.DEFAULT_QUAD, np.empty((2, 0)))
    with pytest.raises(DomainError) as both:
        sup(ABS_LINE, np.arange(2))
    assert str(both.value) == "sup part endpoint behavior undecided"
    with pytest.raises(DomainError, match="sup part unbounded for this slice"):
        sup(ABS_LINE, np.arange(1, 2))


def _properties_loop(spec, space, n_pairs, seed):
    """P1-P3 one element at a time: the reference of the batched checks."""
    from hammerline.cone import PROP_TOL, _nonneg_elements

    rng = random.Random(seed)
    p1, p2, p3 = -math.inf, 0.0, 0
    for u, v in zip(_nonneg_elements(space, rng, n_pairs),
                    _nonneg_elements(space, rng, n_pairs)):
        fu, fv = hl.eval_functional(spec, u), hl.eval_functional(spec, v)
        p1 = max(p1, fu + fv - hl.eval_functional(spec, u + v))
        lam = rng.uniform(0.0, 3.0)
        p2 = max(p2, abs(hl.eval_functional(spec, lam * u) - lam * fu) / max(1.0, abs(fu)))
        if fu >= 0.0 and hl.norm(u) > 0.0 and hl.eval_functional(spec, -1.0 * u) >= 0.0:
            p3 += 1
    return p1, p2, p3, p1 <= PROP_TOL and p2 <= PROP_TOL and p3 == 0


@pytest.mark.parametrize("seed", range(4))
def test_batched_property_checks_equal_the_loop(seed, system_c2, space):
    # the sup functional is two-sided nonnegative on every pair, the others
    # on none
    for spec in (system_c2.cone, system_c2.upper, system_c2.lower):
        out = hl.check_functional_properties(spec, space, n_pairs=8, seed=seed)
        p1, p2, p3, passed = _properties_loop(spec, space, 8, seed)
        assert (out.p3_counterexamples, out.passed) == (p3, passed)
        assert out.p3_counterexamples == (8 if spec.kind == "weighted-sup" else 0)
        assert (out.p1_worst, out.p2_worst) == (p1, p2)


def test_a_negative_seed_is_refused(problem_c2, system_c2, space):
    # random.Random seeds with |seed|, so -1 would repeat the draws of 1
    with pytest.raises(DomainError, match="sampling seed must be nonnegative, got -1"):
        hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                                  system_c2.lower, seed=-1)
    with pytest.raises(DomainError, match="sampling seed must be nonnegative, got -1"):
        hl.check_functional_properties(system_c2.cone, space, seed=-1)


def test_property_checks_evaluate_batches(system_c2, space, monkeypatch):
    # u, v, u+v and lam*u are one batch, and f(-u) is read from the parts of
    # u: one sup search and one integral per part of the functional, where a
    # loop over the 8 pairs made about 40 of each (the sup functional is
    # two-sided nonnegative on every pair, so its f(-u) is read 8 times);
    # the integral parts run in quadrature._integral_parts
    import hammerline.cone as cone_mod
    import hammerline.quadrature as quad_mod

    calls = {"sup_on_grid": 0, "integrate_compact": 0}
    for name, mod in (("sup_on_grid", cone_mod), ("integrate_compact", quad_mod)):
        def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    for spec, parts in ((system_c2.cone, (1, 1)), (system_c2.upper, (1, 0)),
                        (system_c2.lower, (0, 1))):
        calls.update(sup_on_grid=0, integrate_compact=0)
        out = hl.check_functional_properties(spec, space, n_pairs=8, seed=0)
        assert out.passed == (spec is not system_c2.upper)
        assert (calls["sup_on_grid"], calls["integrate_compact"]) == parts


@pytest.mark.parametrize("name", ["boosted_projectile_c2.json", "boosted_projectile_c3.json",
                                  "gravity_projectile.json"])
def test_f_of_minus_u_from_the_parts_of_u_equals_the_direct_value(name):
    # P3's f(-u) is read from the memoized parts of u, for signed and
    # nonnegative elements alike
    from hammerline.cone import _at_negated

    scn = hl.load_scenario(SCENARIO_DIR / name)
    space, system, quad = hl.build_space(scn), hl.build_system(scn), hl.build_quad(scn)
    rng = np.random.default_rng(2)
    elements = ([hl.lift(space, rng.normal(size=space.m)) for _ in range(4)]
                + _random_elements(space, 3, n=4))
    for spec in (system.cone, system.upper, system.lower):
        memo = {}
        hl.eval_functional(spec, elements, quad, memo=memo)
        direct = hl.eval_functional(spec, [-1.0 * u for u in elements], quad)
        assert np.array_equal(_at_negated(spec, elements, quad, memo), direct)


def _draw_loop(space, n, rng):
    """The certifier's draw one element at a time: the reference of
    ``_draw_elements``."""
    q = (1.0 + space.grid.x) / 2.0
    out = []
    for _ in range(n):
        c0, c1, c2, c3 = (rng.uniform(0.0, 1.0) for _ in range(4))
        scale = rng.uniform(0.2, 2.0)
        out.append(hl.lift(space, scale * (c0 + c1 * q + c2 * q ** 2 + c3 * q ** 3)))
    return out


@pytest.mark.parametrize("seed, n", [(0, 8), (1, 3)])
def test_the_draw_is_five_uniforms_per_element(seed, n, space):
    # the elements are the loop's, bit for bit, and the stream is left
    # where the loop leaves it
    from hammerline.cone import _draw_elements

    rng, ref = random.Random(seed), random.Random(seed)
    got, want = _draw_elements(space, n, rng), _draw_loop(space, n, ref)
    assert [u.samples.tobytes() for u in got] == [u.samples.tobytes() for u in want]
    assert rng.getstate() == ref.getstate()


def test_c3_draws_elements_outside_the_cone_and_its_inequalities_pass():
    # f >= 0 (C2) makes the C6/C7 inequalities hold on the whole space, so
    # the draw keeps elements whose cone functional is negative, and the
    # sampled cross-check passes on them
    from hammerline.cone import POS_TOL, _draw_elements

    scn = hl.load_scenario(SCENARIO_DIR / "boosted_projectile_c3.json")
    space, system, quad = hl.build_space(scn), hl.build_system(scn), hl.build_quad(scn)
    elements = _draw_elements(space, scn.samples, random.Random(scn.seed))
    assert (hl.eval_functional(system.cone, elements, quad) < -POS_TOL).any()
    report = hl.verify_cone_hypotheses(hl.build_problem(scn, space), system.cone,
                                       system.upper, system.lower, samples=scn.samples,
                                       quad=quad, seed=scn.seed)
    assert report.entry("C2").status == "pass"
    assert report.entry("C6").status == report.entry("C7").status == "pass"


@pytest.mark.parametrize("name", ["boosted_projectile_c2.json", "gravity_projectile.json"])
def test_the_seed_picks_the_elements_not_the_verdicts(name):
    from hammerline.cone import _draw_elements

    scn = hl.load_scenario(SCENARIO_DIR / name)
    space, system, quad = hl.build_space(scn), hl.build_system(scn), hl.build_quad(scn)
    problem = hl.build_problem(scn, space)
    first, second = ([u.samples.tobytes() for u in
                      _draw_elements(space, scn.samples, random.Random(seed))]
                     for seed in (0, 1))
    assert all(a != b for a, b in zip(first, second))
    reports = [hl.verify_cone_hypotheses(problem, system.cone, system.upper, system.lower,
                                         samples=scn.samples, quad=quad, seed=seed)
               for seed in (0, 1)]
    verdicts = [{k: e.status for k, e in {**r.entries, **r.properties}.items()}
                for r in reports]
    assert verdicts[0] == verdicts[1]
    assert [r.meta["seed"] for r in reports] == [0, 1]


@pytest.mark.parametrize("samples", [0, -2])
def test_fewer_than_one_sample_is_refused_before_any_check(samples, problem_c2, system_c2,
                                                           monkeypatch):
    # no sample would pass C6 and C7 without checking anything
    import hammerline.cone as cone_mod

    def c1(self):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cone_mod._Certification, "c1", c1)
    with pytest.raises(DomainError, match=f"need at least 1 sample, got {samples}"):
        hl.verify_cone_hypotheses(problem_c2, system_c2.cone, system_c2.upper,
                                  system_c2.lower, samples=samples)


# -- certification report ---------------------------------------------------

def test_report_is_fully_certified(report_c2):
    assert report_c2.certified
    for key in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"):
        assert report_c2.entry(key).status == "pass", key
    for key in ("P1", "P2", "P3"):
        assert report_c2.properties[key].status == "pass", key


def _c1_probe_loop(problem, quad):
    """C1's slice integrals and slice limits one probe at a time, each
    refusal named by its probe: the reference of the batched probes."""
    sp, kern = problem.space, problem.kernel
    integrals, limits, detail = {}, {}, []
    ts = sp.grid.t[sp.grid.finite_mask()]
    for t in ts[np.linspace(1, ts.size - 1, 3).astype(int)]:
        try:
            integrals[f"t={t:.6g}"] = hl.integrate_interval(
                lambda s: abs(kern.fn(t, s) * kern.eta(s)), sp.map, quad,
                hi=t if kern.support == hl.VOLTERRA else None, node=t)
        except hl.QuadratureError as e:
            detail.append(f"slice integral failed at t={t:.6g}: {e}")
    for s in (sp.map.from_compact(x) for x in (-0.5, 0.0, 0.7)):
        try:
            lim = hl.kernel_limits(kern, sp.weight, s, grid=sp.grid)
            limits[f"s={s:.6g}"] = {"z_lo": lim.z_lo, "z_hi": lim.z_hi, "sup": lim.sup}
        except DomainError as e:
            detail.append(f"slice at s={s:.6g} not in the space: {e}")
    return integrals, limits, detail


def _c1(problem, quad):
    from hammerline.cone import _Certification

    system = make_system()
    specs = {"cone": system.cone, "upper": system.upper, "lower": system.lower}
    return _Certification(problem, specs, quad).c1()


@pytest.mark.parametrize("name", ["boosted_projectile_c2.json", "gravity_projectile.json"])
def test_batched_c1_probes_equal_the_probe_loop(name):
    # the three slice integrals are one batch and the three slice limits
    # another: each value is the one its own call gives, bit for bit
    scn = hl.load_scenario(SCENARIO_DIR / name)
    problem, quad = hl.build_problem(scn, hl.build_space(scn)), hl.build_quad(scn)
    entry = _c1(problem, quad)
    integrals, limits, detail = _c1_probe_loop(problem, quad)
    assert entry.status == "pass" and detail == []
    assert entry.witness["slice_integrals"] == integrals
    assert entry.witness["slice_limits"] == limits


def test_a_refused_c1_batch_names_each_refused_probe():
    # the slice integral at the last probe t (about 648) meets a nan, and
    # the slice at the last probe s (17/3) is unbounded toward +inf: each
    # batch refuses, its probes run alone, and C1 names the refused ones
    # and keeps the others' values, as the probe loop does
    space = make_space()

    def k(t, s):
        return np.where(t > 100.0, np.nan, 1.0) * np.exp(-s)

    kernel = hl.Kernel(fn=k, name="refusing",
                       tilde_slice=lambda t, s: np.exp(-s) / (t + 1.0),
                       slice_endpoints=lambda s: (np.exp(-s), np.where(s > 3.0, np.inf, 0.0)))
    nl = hl.Nonlinearity(fn=lambda t, y: np.maximum(y, 0.0) * np.exp(-t), monotone_in_y=True)
    forcing = hl.from_tilde(space, [lambda t: np.exp(-t)], endpoints={"hi": 0.0})
    problem = hl.HammersteinProblem(kernel, nl, forcing, space)
    entry = _c1(problem, hl.DEFAULT_QUAD)
    integrals, limits, detail = _c1_probe_loop(problem, hl.DEFAULT_QUAD)
    assert entry.status == "fail"
    assert len(integrals) == 2 and len(limits) == 2 and len(detail) == 2
    assert entry.detail == "; ".join(detail)
    assert entry.witness["slice_integrals"] == integrals
    assert entry.witness["slice_limits"] == limits


def test_report_scalars_match_closed_forms(report_c2):
    s = report_c2.scalars
    assert s["lower_profile_integral"] == pytest.approx(1.0, abs=1e-8)
    assert s["upper_profile_integral"] == pytest.approx(1.0 / E, abs=1e-8)
    assert s["cone_profile_integral"] == pytest.approx(0.5 - 1.0 / E, abs=1e-8)
    assert s["lower_of_forcing"] == pytest.approx(1.0, abs=1e-10)
    assert s["upper_of_forcing"] == pytest.approx(1.0 / E, abs=1e-10)
    assert s["cone_of_forcing"] == pytest.approx(0.5 - 1.0 / E, abs=1e-10)


def test_report_has_closed_bridge_with_cone_coefficient(report_c2):
    b = report_c2.bridges["b"]
    assert b["form"] == "closed"
    assert b["coefficient"] == pytest.approx(2.0, abs=1e-12)
    assert hl.bridge_b(report_c2, 0.9) == pytest.approx(0.45, abs=1e-12)
    # upper sup weight and lower integral weight are both e^t: no bridge c
    assert "c" not in report_c2.bridges
    assert report_c2.entry("C9").detail.startswith(
        "no bridge c: the upper sup weight is the lower integral weight")
    with pytest.raises(DomainError):
        hl.bridge_c(report_c2, 1.0)


def _sup(w):
    return hl.FunctionalSpec("weighted-sup", sup_weight=w)


def _integral(w):
    return hl.FunctionalSpec("weighted-integral", integral_weight=w)


def test_closed_bridge_c_on_the_half_line(report_c2, space):
    # integral over [0, oo) of (t + 1) e^(-t) = 2
    from hammerline.cone import _detect_bridge_c

    info, reason = _detect_bridge_c(_sup(hl.affine(b=1.0)), _integral(hl.exponential()),
                                    space, hl.DEFAULT_QUAD)
    assert reason == ""
    assert info["form"] == "closed"
    assert info["coefficient"] == pytest.approx(2.0, abs=1e-10)
    report = dataclasses.replace(report_c2, bridges={"c": info})
    for rho in (0.35, 0.7, 2.0):
        assert hl.bridge_c(report, rho) == pytest.approx(2.0 * rho, abs=1e-10)


def test_closed_bridge_c_on_the_full_line():
    # integral over the line of 1 / (1 + t^2) = pi
    from hammerline.cone import _detect_bridge_c

    grid = hl.build_grid(hl.CompactMap.full_line(L=1.0), hl.GridSpec(41))
    space = hl.Space(grid, hl.exponential(rate=0.0))
    info, reason = _detect_bridge_c(_sup(hl.exponential(rate=0.0)),
                                    _integral(hl.custom(lambda t: 1.0 + t * t)),
                                    space, hl.DEFAULT_QUAD)
    assert reason == ""
    assert info["coefficient"] == pytest.approx(math.pi, abs=1e-10)


def test_closed_bridge_c_for_two_exponential_weights(space):
    # integral over [0, oo) of e^(t/2) / e^t = 2: both weights overflow to
    # inf at the tail probes, where the quotient read inf/inf = nan and the
    # bridge was refused; the pair is one exponential
    from hammerline.cone import _detect_bridge_c

    info, reason = _detect_bridge_c(_sup(hl.exponential(rate=0.5)),
                                    _integral(hl.exponential()), space, hl.DEFAULT_QUAD)
    assert reason == ""
    assert info["coefficient"] == pytest.approx(2.0, abs=1e-10)
    # 3 e^(t/4) against 2 e^(t/2) integrates to 3/2 * 4 = 6; the reverse diverges
    info, _ = _detect_bridge_c(_sup(hl.exponential(c=3.0, rate=0.25)),
                               _integral(hl.exponential(c=2.0, rate=0.5)), space,
                               hl.DEFAULT_QUAD)
    assert info["coefficient"] == pytest.approx(6.0, abs=1e-10)
    info, reason = _detect_bridge_c(_sup(hl.exponential()),
                                    _integral(hl.exponential(rate=0.5)), space,
                                    hl.DEFAULT_QUAD)
    assert info is None and "diverges" in reason


def test_no_bridge_c_for_a_divergent_weight_ratio(space):
    # e^t / (t + 1) grows: the refusal of the integral is the reason
    from hammerline.cone import _detect_bridge_c

    info, reason = _detect_bridge_c(_sup(hl.exponential()), _integral(hl.affine(b=1.0)),
                                    space, hl.DEFAULT_QUAD)
    assert info is None
    assert reason.startswith("no bridge c: ") and "diverges" in reason


def test_no_bridge_c_for_the_bundled_weights():
    # the scenario's one radius weight is both the upper sup weight and the
    # lower integral weight, decided without an integral
    from hammerline.cone import _detect_bridge_c

    scn = hl.load_scenario(SCENARIO_DIR / "boosted_projectile_c2.json")
    system = hl.build_system(scn)
    info, reason = _detect_bridge_c(system.upper, system.lower, hl.build_space(scn),
                                    hl.build_quad(scn))
    assert info is None
    assert reason == ("no bridge c: the upper sup weight is the lower integral weight, "
                      "and their ratio 1 has no finite integral over an unbounded interval")


def test_cone_elements_beat_every_finite_bridge_c(space, system_c2):
    # u_T(t) = e^t / (1 + e^(2(t - T))) is in the c2 cone, and its ratio
    # lower/upper grows with T (about T), so no c with gamma <= c * beta
    # exists; 3.066 was the largest ratio that 8 random cone elements gave
    ratios = []
    for T in (2.0, 4.0, 6.0):
        u = hl.from_raw(space, lambda t: 1.0 / (math.exp(-t) + math.exp(t - 2.0 * T)),
                        {"hi": 0.0})
        assert hl.eval_functional(system_c2.cone, u) >= 0.0
        ratios.append(hl.eval_functional(system_c2.lower, u)
                      / hl.eval_functional(system_c2.upper, u))
    assert ratios[1] > 3.066264205653987
    assert ratios[0] < ratios[1] < ratios[2]


@pytest.mark.parametrize("name, failing", [
    ("boosted_projectile_c2.json", []),
    ("boosted_projectile_c2_L4.json", []),
    ("boosted_projectile_c3.json", ["C5", "C8"]),
    ("gravity_projectile.json", ["C2", "C3", "C6", "C7"]),
])
def test_bundled_scenarios_fail_exactly_their_entries(name, failing):
    scn = hl.load_scenario(SCENARIO_DIR / name)
    space = hl.build_space(scn)
    problem, system = hl.build_problem(scn, space), hl.build_system(scn)
    report = hl.verify_cone_hypotheses(problem, system.cone, system.upper, system.lower,
                                       samples=scn.samples, quad=hl.build_quad(scn),
                                       seed=scn.seed)
    assert [k for k, e in sorted(report.entries.items()) if e.status != "pass"] == failing
    assert all(e.status == "pass" for e in report.properties.values())
    assert set(report.bridges) == {"b"}
    if "C5" in failing:
        # the slice at the finite end s = 0, which no quadrature node reaches
        assert report.entry("C5").witness["profile_witness_s"] == 0.0


def test_negative_cone_functional_fails_c5(report_c3):
    assert not report_c3.certified
    assert report_c3.entry("C5").status == "fail"
    witness = report_c3.entry("C5").witness
    assert witness is not None


def test_report_meta_records_setup(report_c2):
    meta = report_c2.meta
    assert meta["problem"] == "boosted-projectile"
    assert meta["params"] == {"v0": 1.0}
    assert meta["interval"]["kind"] == "half-line"
    assert meta["samples"] == 6


def test_report_json_round_trip(report_c2):
    data = report_to_data = hl.report_to_jsonable(report_c2)
    jsonschema.validate(data, hl.REPORT_SCHEMA)
    text = json.dumps(data)
    back = hl.report_from_json(json.loads(text))
    assert back.certified == report_c2.certified
    assert set(back.entries) == set(report_c2.entries)
    for k in report_c2.entries:
        assert back.entry(k).status == report_c2.entry(k).status
    assert back.scalars == pytest.approx(report_c2.scalars)
    assert back.bridges == report_c2.bridges
    assert back.context is None
    with pytest.raises(DomainError):
        back.require_context()
    del report_to_data


def test_report_schema_rejects_corrupted_payload(report_c2):
    data = hl.report_to_jsonable(report_c2)
    data["entries"]["C1"]["status"] = "maybe"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, hl.REPORT_SCHEMA)
    with pytest.raises((DomainError, jsonschema.ValidationError)):
        hl.report_from_json(data)


def test_property_checks_on_the_cone_functional(system_c2, space):
    out = hl.check_functional_properties(system_c2.cone, space, n_pairs=40,
                                         seed=3)
    assert out.passed
    assert out.p1_worst <= 1e-10
    assert out.p2_worst <= 1e-10
    assert out.p3_counterexamples == 0
    assert out.pairs == 40


@pytest.mark.parametrize("kind", ["difference", "weighted-integral", "weighted-sup"])
def test_the_kind_table_holds_where_it_says_so(kind, system_c2, space):
    # the certifier reads P1-P3 and C7's structure from KIND_LEMMAS; on
    # random elements the sampled oracle and eval_functional agree with it
    from hammerline.cone import KIND_LEMMAS, PROP_TOL

    spec = {"difference": system_c2.cone, "weighted-sup": system_c2.upper,
            "weighted-integral": system_c2.lower}[kind]
    holds = {prop: KIND_LEMMAS[prop][kind][0] for prop in KIND_LEMMAS}
    out = hl.check_functional_properties(spec, space, n_pairs=8, seed=5)
    assert holds["homogeneous"] and out.p2_worst <= PROP_TOL
    if holds["superadditive"]:
        assert out.p1_worst <= PROP_TOL
    if holds["definite"]:
        assert out.p3_counterexamples == 0
    if holds["additive"]:
        us, vs = _random_elements(space, 6, n=4), _random_elements(space, 7, n=4)
        fu, fv, fuv = np.split(hl.eval_functional(
            spec, us + vs + [u + v for u, v in zip(us, vs)]), 3)
        assert np.abs(fuv - fu - fv).max() <= PROP_TOL * np.abs(fuv).max()


def test_the_kind_table_fails_where_a_counterexample_exists(problem_c2, system_c2, space):
    from hammerline.cone import KIND_LEMMAS, POS_TOL, _Certification

    def fails(prop, kind):
        return not KIND_LEMMAS[prop][kind][0]

    sup, integral = system_c2.upper, system_c2.lower
    x = space.grid.x
    u, v = (hl.lift(space, np.exp(-((x - c) / 0.1) ** 2)) for c in (-0.5, 0.5))
    # a weighted sup is not superadditive: two separated bumps
    assert fails("superadditive", "weighted-sup")
    fu, fv, fuv = hl.eval_functional(sup, [u, v, u + v])
    assert fu + fv > fuv + 0.5 * min(fu, fv)
    # a weighted integral is not definite: a sign-changing u with zero
    # integral is two-sided nonnegative
    assert fails("definite", "weighted-integral")
    gu, gv = hl.eval_functional(integral, [u, v])
    w = gv * u - gu * v
    assert w.norm() > 0.1
    assert hl.eval_functional(integral, [w, -1.0 * w]).min() >= -POS_TOL
    # a weighted sup is not definite: any nonzero u
    assert fails("definite", "weighted-sup")
    assert hl.eval_functional(sup, u) > 0.0 and hl.eval_functional(sup, -1.0 * u) > 0.0
    # a cone functional of such a kind gets failing entries that give the reason
    specs = {"cone": sup, "upper": sup, "lower": integral}
    props = _Certification(problem_c2, specs, hl.DEFAULT_QUAD).properties()
    assert {k: e.status for k, e in props.items()} == {"P1": "fail", "P2": "pass",
                                                       "P3": "fail"}
    assert props["P1"].detail == "weighted-sup functional: " \
        + KIND_LEMMAS["superadditive"]["weighted-sup"][1]
    assert all(e.tolerance is None and e.witness is None for e in props.values())


# -- index checks ------------------------------------------------------------

def test_index_one_golden_values(report_c2):
    fail = hl.check_index_one(report_c2, 0.5)
    hold = hl.check_index_one(report_c2, 0.6)
    assert not fail.holds
    assert fail.lhs == pytest.approx(3.0 / E, abs=1e-9)
    assert hold.holds
    assert hold.lhs == pytest.approx((1.0 / E) * (1.0 + 1.0 / 0.6), abs=1e-9)
    assert hold.margin == pytest.approx(1.0 - hold.lhs, abs=1e-15)
    assert hold.envelope_source == "problem"
    assert hold.positivity_ok


def test_index_zero_golden_values(report_c2):
    hold = hl.check_index_zero(report_c2, 0.9)
    fail = hl.check_index_zero(report_c2, 1.1)
    assert hold.holds and hold.lhs == pytest.approx(1.0 / 0.9, abs=1e-10)
    assert not fail.holds and fail.lhs == pytest.approx(1.0 / 1.1, abs=1e-10)


def test_index_checks_reject_nonpositive_radius(report_c2):
    with pytest.raises(DomainError):
        hl.check_index_one(report_c2, 0.0)
    with pytest.raises(DomainError):
        hl.check_index_zero(report_c2, -1.0)


def test_explicit_envelope_overrides_problem(report_c2):
    # doubling the envelope doubles the contraction term
    check = hl.check_index_one(report_c2, 0.6,
                               envelope=lambda t, rho: 2.0 * rho)
    assert check.envelope_source == "explicit"
    assert check.lhs == pytest.approx(2.0 / E + (1.0 / E) / 0.6, abs=1e-9)


def test_flip_location_brackets_the_threshold(report_c2):
    lo, hi = hl.locate_index_one_flip(report_c2, 0.5, 0.6)
    rho_star = 1.0 / (E - 1.0)
    assert hi - lo <= 1e-3
    assert lo <= rho_star <= hi
    assert 0.58 <= lo and hi <= 0.584
    assert not hl.check_index_one(report_c2, lo).holds
    assert hl.check_index_one(report_c2, hi).holds


def test_flip_location_requires_a_straddle(report_c2):
    with pytest.raises(DomainError):
        hl.locate_index_one_flip(report_c2, 0.7, 0.9)   # holds at both
    with pytest.raises(DomainError):
        hl.locate_index_one_flip(report_c2, 0.1, 0.2)   # fails at both


def _flip_loop(report, lo, hi):
    """The sequential bisection of ``locate_index_one_flip``, one
    ``check_index_one`` per radius: the reference of the tree search."""
    from hammerline.cone import FLIP_TOL

    assert hl.check_index_one(report, hi).holds and not hl.check_index_one(report, lo).holds
    while hi - lo > FLIP_TOL:
        mid = 0.5 * (lo + hi)
        if hl.check_index_one(report, mid).holds:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize("which", ["c2", "c2_L4"])
@pytest.mark.parametrize("lo, hi", [(0.5, 0.6), (0.05, 5.0)])
def test_flip_search_equals_the_sequential_bisection(which, lo, hi, report_c2, report_L4):
    # the reachable midpoints are evaluated ahead, 4 levels per call (7
    # bisection steps for the narrow bracket, 13 for the wide one), and the
    # walk reads them: the bracket is the sequential one, bit for bit
    report = report_c2 if which == "c2" else report_L4
    assert hl.locate_index_one_flip(report, lo, hi) == _flip_loop(report, lo, hi)


def test_flip_search_is_two_lockstep_searches(report_c2, monkeypatch):
    # count guard: a 7-step bisection is two sup_on_grid calls, hi, lo and
    # 15 midpoints, then 7 midpoints, where the sequential bisection made 9
    import hammerline.cone as cone_mod

    rows = []
    real = cone_mod.sup_on_grid

    def counted(fn_x, grid, end_vals, kinks):
        rows.append(len(kinks))
        return real(fn_x, grid, end_vals, kinks)

    monkeypatch.setattr(cone_mod, "sup_on_grid", counted)
    hl.locate_index_one_flip(report_c2, 0.5, 0.6)
    assert rows == [17, 7]


# -- solution windows ---------------------------------------------------------

def test_s1_window_at_golden_radii(report_c2):
    wins = hl.find_solution_windows(report_c2, rho_values=[0.7, 0.9])
    assert wins, "no windows found"
    assert all(w.pattern == "S1" for w in wins)
    match = [w for w in wins if w.radii == (0.9, 0.7)]
    assert len(match) == 1
    w = match[0]
    assert w.expected_solutions == 1
    assert w.bridge_form == "closed"
    assert w.min_margin == pytest.approx(0.1066, abs=5e-4)
    assert w.margins["bridge"] == pytest.approx((0.7 - 0.45) / 0.9, abs=1e-9)
    # sorted by best margin first
    mins = [w.min_margin for w in wins]
    assert mins == sorted(mins, reverse=True)


def test_windows_scan_respects_bridge_inequality(report_c2):
    # rho2 must clear b(rho1) = rho1 / 2: (0.9, 0.4) fails the bridge
    wins = hl.find_solution_windows(report_c2, rho_values=[0.4, 0.9])
    assert all(w.radii != (0.9, 0.4) for w in wins)


def test_windows_refuse_uncertified_report(report_c3):
    with pytest.raises(hl.CertificateNotPassing) as exc:
        hl.find_solution_windows(report_c3)
    assert "C5" in str(exc.value)


def test_windows_jsonable_shape(report_c2):
    wins = hl.find_solution_windows(report_c2, rho_values=[0.7, 0.9])
    data = hl.windows_to_jsonable(wins)
    assert len(data) == len(wins)
    assert data[0]["pattern"] == "S1"
    assert json.dumps(data)   # serializable


def _scenario_scan(name):
    return hl.rho_grid(hl.load_scenario(SCENARIO_DIR / name))


# float-only envelopes under which contraction holds on [0.6, 3] and
# expansion below 1 and above 2, so that every pattern S1-S4 has windows
BANDED = (lambda t, rho: rho * (10.0 if rho > 3.0 else 0.5),
          lambda t, rho: rho * (1.0 if rho > 2.0 else 0.0))


@pytest.mark.parametrize("which", ["c2", "c2_L4"])
def test_without_bridge_c_only_s1_windows(which, report_c2, report_L4):
    # the envelopes under which S2-S4 have windows once a bridge c exists
    report = report_c2 if which == "c2" else report_L4
    scan = _scenario_scan(f"boosted_projectile_{which}.json")
    wins = hl.find_solution_windows(report, BANDED, scan)
    assert wins
    assert {w.pattern for w in wins} == {"S1"}


@pytest.mark.parametrize("which", ["c2", "c2_L4"])
def test_window_table_matches_the_four_loop_enumerator(which, report_c2, report_L4):
    report = report_c2 if which == "c2" else report_L4
    # the c2 weights have no bridge c; this coefficient only drives the
    # enumerator through S2-S4
    report = dataclasses.replace(report, bridges={
        **report.bridges, "c": {"form": "closed", "coefficient": 3.066264205653987}})
    scan = _scenario_scan(f"boosted_projectile_{which}.json")
    for envelopes in ((None, None), BANDED):
        for radii in (scan, [0.4, 0.7, 0.9]):
            got = hl.find_solution_windows(report, envelopes, radii)
            want = oracle_windows(report, envelopes, radii)
            assert want, (which, radii)
            # every field of every window, margins bit for bit
            assert [dataclasses.asdict(w) for w in got] == \
                [dataclasses.asdict(w) for w in want]
    patterns = {w.pattern for w in hl.find_solution_windows(report, BANDED, scan)}
    assert patterns == {"S1", "S2", "S3", "S4"}


@pytest.mark.parametrize("envelope", [None, lambda t, rho: 2.0 * rho],
                         ids=["problem", "float-only"])
def test_a_batch_of_radii_gives_each_radius_its_own_check(report_c2, envelope):
    from hammerline.cone import _index_checks

    radii = _scenario_scan("boosted_projectile_c2.json") + [0.5, 0.6]
    for kind, alone in (("index-one", hl.check_index_one),
                        ("index-zero", hl.check_index_zero)):
        batch = _index_checks(report_c2, kind, radii, envelope)
        assert [dataclasses.asdict(c) for c in batch] == \
            [dataclasses.asdict(alone(report_c2, r, envelope)) for r in radii]


def test_no_radii_give_no_checks_and_no_windows(report_c2):
    from hammerline.cone import _index_checks

    for kind in ("index-one", "index-zero"):
        assert _index_checks(report_c2, kind, []) == []
    assert hl.find_solution_windows(report_c2, rho_values=[]) == []


def test_a_window_scan_is_one_sup_search_per_condition(report_c2, monkeypatch):
    # host-independent cost guard: checked one radius at a time, the 27
    # radii of the c2 scan made 54 searches
    import hammerline.cone as cone_mod
    import hammerline.hammerstein as hammerstein_mod
    import hammerline.quadrature as quadrature_mod

    scan = _scenario_scan("boosted_projectile_c2.json")
    rows = _count_sup_searches(monkeypatch, cone_mod, hammerstein_mod, quadrature_mod)
    assert hl.find_solution_windows(report_c2, rho_values=scan)
    assert rows == [len(scan), len(scan)]


# -- sampled cone inequalities on the operator image -------------------------

def test_operator_preserves_cone_on_samples(report_c2, problem_c2, system_c2):
    # replay the C6 inequality once on an independent sample
    rng = np.random.default_rng(123)
    q = (1.0 + problem_c2.space.grid.x) / 2.0
    tilde = 0.3 * (0.5 + q * (1.0 - q))
    u = hl.lift(problem_c2.space, tilde)
    alpha_u = hl.eval_functional(system_c2.cone, u)
    assert alpha_u >= -1e-12
    img = hl.apply_T(problem_c2, u)
    alpha_img = hl.eval_functional(system_c2.cone, img)
    alpha_p = hl.eval_functional(system_c2.cone, problem_c2.forcing)
    assert alpha_img >= alpha_p - 1e-9
    del rng
