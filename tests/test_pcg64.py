import numpy as np
import pytest

from hammerline._pcg64 import Generator

SEEDS = [*range(101), 2**32, 2**64 + 3, 2**130 + 11]


def test_draws_equal_numpys_default_generator():
    # the certifier's draw patterns: a float, 4 coefficients, a row of m
    # samples; numpy.random is the reference only
    for seed in SEEDS:
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for low, high, size in ((0.0, 1.0, 4), (0.2, 2.0, None), (0.0, 1.0, 41),
                                (0.0, 3.0, 8), (0.0, 1.0, 81)):
            a, b = ours.uniform(low, high, size), ref.uniform(low, high, size)
            assert type(a) is type(b)
            assert np.array_equal(a, b), (seed, low, high, size)


def test_a_negative_seed_raises_as_numpy_does():
    with pytest.raises(ValueError, match="non-negative") as ours:
        Generator(-1)
    with pytest.raises(ValueError) as ref:
        np.random.default_rng(-1)
    assert str(ours.value) == str(ref.value)
