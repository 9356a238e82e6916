import csv
import math

import numpy as np
import pytest

import hammerline as hl
from hammerline.errors import BlowupError, DomainError


def inert_problem(space):
    """f identically zero: the operator is constant at the forcing."""
    kernel, p = hl.second_order_ivp_kernel(1.0, space)
    nl = hl.Nonlinearity(fn=lambda t, y: 0.0, name="inert")
    return hl.HammersteinProblem(kernel, nl, p, space, name="inert",
                                 params={"v0": 1.0})


# -- fixed-point iteration ----------------------------------------------------

def test_inert_problem_converges_to_forcing_immediately(space):
    problem = inert_problem(space)
    sol = hl.picard_solve(problem, tol=1e-12)
    assert sol.converged
    assert sol.iterations == 1
    assert sol.residual == 0.0
    assert np.array_equal(sol.u.samples, problem.forcing.samples)


def test_picard_solves_the_bundled_problem(problem_c2, solution_c2):
    sol = solution_c2
    assert sol.converged
    assert sol.residual <= 1e-10
    assert sol.iterations <= 20
    assert sol.relaxation == 1.0
    # the added mass is strictly positive, so the slope exceeds the launch speed
    assert sol.slope > 1.0
    assert sol.slope == float(sol.u.samples[0, -1])
    assert sol.trace[-1] < 1e-10


def test_solution_records_the_worst_accepted_quadrature_error(problem_c2,
                                                              solution_c2):
    assert 0.0 < solution_c2.quad_error <= hl.DEFAULT_QUAD.tol
    inert = hl.picard_solve(inert_problem(problem_c2.space), tol=1e-12)
    assert inert.quad_error == 0.0


def test_converged_residual_replays_under_tighter_quadrature(problem_c2,
                                                             solution_c2):
    # the iterate is a fixed point of the default-quadrature operator, so a
    # tighter quadrature exposes the discretization floor rather than the
    # Picard tolerance; it must still be small
    tight = hl.QuadratureConfig(tol=1e-12, rel_tol=1e-13)
    replay = hl.residual_norm(problem_c2, solution_c2.u, quad=tight)
    assert replay <= 1e-8


def test_residual_of_zero_candidate_is_the_forcing_norm(problem_c2):
    zero = hl.lift(problem_c2.space, np.zeros(problem_c2.space.m))
    assert hl.residual_norm(problem_c2, zero) == pytest.approx(1.0, abs=1e-12)


def test_iterates_grow_monotonically_from_the_forcing(problem_c2):
    sol = hl.picard_solve(problem_c2, tol=1e-8, keep_iterates=True)
    assert sol.iterates is not None
    assert len(sol.iterates) == sol.iterations + 1
    for prev, nxt in zip(sol.iterates, sol.iterates[1:]):
        assert np.all(nxt.samples[0] - prev.samples[0] >= -1e-12)


def test_far_start_trace_eventually_decreases(problem_c2):
    u0 = 50.0 * problem_c2.forcing
    sol = hl.picard_solve(problem_c2, u0=u0, tol=1e-10, max_iters=60)
    assert sol.converged
    tail = sol.trace[-3:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert sol.trace[-1] < sol.trace[0]


def test_picard_parameter_validation(problem_c2):
    with pytest.raises(DomainError):
        hl.picard_solve(problem_c2, tol=0.0)
    with pytest.raises(DomainError):
        hl.picard_solve(problem_c2, relaxation=0.0)
    with pytest.raises(DomainError):
        hl.picard_solve(problem_c2, relaxation=1.5)
    with pytest.raises(DomainError):
        hl.picard_solve(problem_c2, max_iters=0)


def test_picard_stops_on_the_residual():
    # gravity at m=81 with relaxation 0.5: the relaxed update 0.5*||Tu - u||
    # fell below tol one iteration before the residual did, and stopping on
    # it left a residual of 1.65e-8 > tol, reported as not converged
    from conftest import make_space

    problem = hl.gravity_projectile_problem(make_space(m=81), g=1.0, R=1.0, v0=2.0)
    tol = 1e-8
    sol = hl.picard_solve(problem, tol=tol, max_iters=300, relaxation=0.5,
                          keep_iterates=True)
    assert sol.converged
    assert sol.residual <= tol
    assert sol.iterations == len(sol.trace) == 31
    assert sol.u is sol.iterates[-2]
    assert sol.trace[-2] < tol < hl.residual_norm(problem, sol.iterates[-3])
    assert sol.residual == pytest.approx(8.78e-9, rel=1e-3)


def test_single_iteration_budget_is_honest(problem_c2):
    sol = hl.picard_solve(problem_c2, tol=1e-14, max_iters=1)
    assert sol.iterations == 1
    assert not sol.converged
    assert len(sol.trace) == 1


# -- trajectory oracle ---------------------------------------------------------

def test_oracle_free_motion_is_exact():
    traj = hl.ode_oracle(lambda t, y: 0.0, v0=3.0, T_max=50.0)
    for t in (0.0, 1.7, 23.4, 50.0):
        assert traj.u_at(t) == pytest.approx(3.0 * t, abs=1e-10)
        assert traj.v_at(t) == pytest.approx(3.0, abs=1e-12)
    assert traj(2.0) == traj.u_at(2.0)
    assert traj.rejected == 0


def test_oracle_constant_acceleration_dense_output():
    traj = hl.ode_oracle(lambda t, y: 1.0, v0=0.0, T_max=10.0)
    for t in np.linspace(0.0, 10.0, 23):
        assert traj.u_at(t) == pytest.approx(0.5 * t * t, abs=1e-10)
        assert traj.v_at(t) == pytest.approx(t, abs=1e-10)


def test_oracle_accepts_nonlinearity_and_validates_inputs(problem_c2):
    traj = hl.ode_oracle(problem_c2.nonlinearity, v0=0.0, T_max=1.0)
    assert traj.steps >= 1
    with pytest.raises(DomainError):
        hl.ode_oracle(lambda t, y: 0.0, v0=1.0, T_max=0.0)
    with pytest.raises(DomainError):
        hl.ode_oracle(lambda t, y: 0.0, v0=1.0, T_max=1.0, h=0.0)


def test_oracle_query_outside_range_raises():
    traj = hl.ode_oracle(lambda t, y: 0.0, v0=1.0, T_max=1.0)
    with pytest.raises(DomainError):
        traj.u_at(2.0)


def test_oracle_detects_finite_time_blowup():
    with pytest.raises(BlowupError) as exc:
        hl.ode_oracle(lambda t, y: 1.0 + y * y, v0=0.0, T_max=10.0)
    assert exc.value.t is not None and 0.0 < exc.value.t < 10.0


def test_suborbital_launch_blows_up_at_the_crash():
    # launch below the threshold speed: the trajectory falls back and the
    # acceleration splits at u = -R
    problem_params = dict(g=1.0, R=1.0, v0=1.0)
    def rhs(t, y):
        return -problem_params["g"] / (y + 1.0) ** 2
    with pytest.raises(BlowupError):
        hl.ode_oracle(rhs, v0=1.0, T_max=100.0)


def test_energy_identity_along_escape():
    g, R, v0 = 2.0, 1.0, 2.0
    traj = hl.ode_oracle(lambda t, y: -g * R * R / (y + R) ** 2, v0=v0,
                         T_max=100.0)
    assert hl.gravity_energy_drift(traj, g, R, v0) <= 1e-7
    assert traj.rel_err <= 1e-9


# -- slope estimation -----------------------------------------------------------

def test_endpoint_slope_of_weighted_element(solution_c2):
    est = hl.asymptotic_slope(solution_c2.u)
    assert est.method == "endpoint"
    assert est.error_bar == 0.0
    assert est.value == float(solution_c2.u.samples[0, -1])


def test_richardson_slope_removes_reciprocal_correction():
    est = hl.asymptotic_slope(lambda t: 3.0 * t + math.log1p(t),
                              probe_times=(1e5, 2e5, 4e5))
    assert est.method == "richardson"
    assert est.value == pytest.approx(3.0, abs=5e-6)
    assert 0.0 < est.error_bar < 1e-4


def test_slope_probe_validation():
    with pytest.raises(DomainError):
        hl.asymptotic_slope(lambda t: t)
    with pytest.raises(DomainError):
        hl.asymptotic_slope(lambda t: t, probe_times=(10.0,))
    with pytest.raises(DomainError):
        hl.asymptotic_slope(lambda t: t, probe_times=(10.0, 5.0))
    with pytest.raises(DomainError):
        hl.asymptotic_slope(42)


def test_trajectory_slope_uses_default_probes():
    traj = hl.ode_oracle(lambda t, y: 0.0, v0=2.0, T_max=40.0)
    est = hl.asymptotic_slope(traj)
    assert est.probes == (10.0, 20.0, 40.0)
    assert est.value == pytest.approx(2.0, abs=1e-10)


# -- launch constants ------------------------------------------------------------

def test_escape_constants_closed_forms():
    out = hl.escape_constants(g=2.0, R=1.0, v0=math.sqrt(8.0))
    assert out.v_s == pytest.approx(2.0, rel=1e-15)
    assert out.v_inf == pytest.approx(2.0, rel=1e-12)
    below = hl.escape_constants(g=2.0, R=1.0, v0=1.0)
    assert below.v_inf is None
    unit = hl.escape_constants(g=1.0, R=1.0, v0=1.0)
    assert unit.two_thirds_constant == pytest.approx(1.6509636244473134,
                                                     rel=1e-14)
    assert unit.two_thirds_constant == pytest.approx(1.65107, rel=1e-3)
    with pytest.raises(DomainError):
        hl.escape_constants(g=0.0, R=1.0, v0=1.0)


# -- cross-validation -------------------------------------------------------------

def test_solution_matches_independent_trajectory(problem_c2, solution_c2):
    comparison, traj = hl.compare_with_oracle(problem_c2, solution_c2.u,
                                              T_max=20.0)
    assert comparison.max_rel_diff <= 1e-6
    assert comparison.T_max == 20.0
    assert traj.T_max == 20.0


def test_oracle_comparison_requires_launch_data(space):
    kernel, p = hl.second_order_ivp_kernel(1.0, space)
    nl = hl.Nonlinearity(fn=lambda t, y: 0.0)
    bare = hl.HammersteinProblem(kernel, nl, p, space)  # params empty
    zero = hl.lift(space, np.zeros(space.m))
    with pytest.raises(DomainError):
        hl.compare_with_oracle(bare, zero)


# -- serialization -----------------------------------------------------------------

def test_solution_csv_format(problem_c2, solution_c2, tmp_path):
    path = tmp_path / "solution.csv"
    hl.solution_to_csv(problem_c2, solution_c2, path)
    text = path.read_text()
    assert "\r" not in text
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["t", "u_weighted", "u_raw", "residual_weighted"]
    assert len(rows) == problem_c2.space.m + 1
    ts = [float(r[0]) for r in rows[1:]]
    assert ts == sorted(ts)
    assert ts[0] == 0.0 and math.isinf(ts[-1])
    # %.17g survives a float round trip
    tilde = [float(r[1]) for r in rows[1:]]
    assert tilde == [float(format(v, ".17g")) for v in tilde]
    assert all(float(r[3]) <= 1e-9 for r in rows[1:])


def test_solution_csv_is_deterministic(problem_c2, solution_c2, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    hl.solution_to_csv(problem_c2, solution_c2, p1)
    hl.solution_to_csv(problem_c2, solution_c2, p2)
    assert p1.read_bytes() == p2.read_bytes()
