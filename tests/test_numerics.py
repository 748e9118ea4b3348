import numpy as np

from growprune.numerics import make_rng


def test_gaussian_seed_determinism():
    a = make_rng(11).normal(size=(6, 6))
    b = make_rng(11).normal(size=(6, 6))
    assert np.array_equal(a, b)
    c = make_rng(12).normal(size=(6, 6))
    assert not np.array_equal(a, c)


def test_rng_streams_are_stable_functions_of_seed():
    r1, r2 = make_rng(99), make_rng(99)
    assert np.array_equal(r1.random(50), r2.random(50))
    assert np.array_equal(r1.integers(0, 1000, 20), r2.integers(0, 1000, 20))
