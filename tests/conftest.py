"""Shared fixtures for the hammerline test suite.

Session-scoped fixtures build the medium-cost certificate reports once and
share them across test modules; everything downstream reads from those.
"""

import numpy as np
import pytest
from hypothesis import settings

import hammerline as hl

settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("ci")


def make_space(m=41, scale=1.0, order=0):
    """Half-line [0, oo) space with the affine weight t + 1."""
    cmap = hl.CompactMap.half_line(a=0.0, L=scale)
    grid = hl.build_grid(cmap, hl.GridSpec(m=m))
    return hl.Space(grid=grid, weight=hl.affine(b=1.0), order=order)


def make_system(c=2.0):
    """Cone triple for the boosted-projectile setup.

    cone   alpha(u) = integral of u / (c e^t) - sup |u| / e^t
    upper  beta(u)  = sup |u| / e^t
    lower  gamma(u) = integral of u * e^(-t)
    """
    exp_up = hl.exponential(c=1.0, rate=1.0)
    cone = hl.FunctionalSpec(
        kind="difference",
        integral_weight=hl.exponential(c=c, rate=1.0),
        sup_weight=exp_up,
        name="alpha",
    )
    upper = hl.FunctionalSpec(kind="weighted-sup", sup_weight=exp_up, name="beta")
    lower = hl.FunctionalSpec(
        kind="weighted-integral",
        integral_weight=hl.exponential(c=1.0, rate=1.0),
        name="gamma",
    )
    return hl.ConeSystem(cone=cone, upper=upper, lower=lower)


@pytest.fixture(scope="session")
def space():
    return make_space()


@pytest.fixture(scope="session")
def space_order1():
    return make_space(order=1)


@pytest.fixture(scope="session")
def problem_c2(space):
    return hl.boosted_projectile_problem(space, v0=1.0)


@pytest.fixture(scope="session")
def system_c2():
    return make_system(c=2.0)


@pytest.fixture(scope="session")
def report_c2(problem_c2, system_c2):
    return hl.verify_cone_hypotheses(
        problem_c2, system_c2.cone, system_c2.upper, system_c2.lower,
        samples=6, seed=0,
    )


@pytest.fixture(scope="session")
def report_c3(problem_c2):
    sys3 = make_system(c=3.0)
    return hl.verify_cone_hypotheses(
        problem_c2, sys3.cone, sys3.upper, sys3.lower, samples=4, seed=0,
    )


@pytest.fixture(scope="session")
def space_L4():
    return make_space(scale=4.0)


@pytest.fixture(scope="session")
def report_L4(space_L4, system_c2):
    problem = hl.boosted_projectile_problem(space_L4, v0=1.0)
    return hl.verify_cone_hypotheses(
        problem, system_c2.cone, system_c2.upper, system_c2.lower,
        samples=4, seed=0,
    )


@pytest.fixture(scope="session")
def solution_c2(problem_c2):
    return hl.picard_solve(problem_c2, tol=1e-10, max_iters=100)


def kernel_slice(kernel, s):
    """The slice t -> k(t,s)eta(s) at a float s and its kink, the diagonal,
    as one raw callable for ``eval_functional_raw``."""
    eta = kernel.eta(s)
    return (lambda t: kernel.fn(t, s) * eta), (s,)


def grid_times(space):
    """Finite node times of a space's grid."""
    t = space.grid.t
    return t[np.isfinite(t)]
