import math

import numpy as np
import pytest

from growprune.data import Dataset, make_blobs, split
from growprune.dimreduce import (
    Reducer,
    apply_normalization,
    fit_reducer,
    normalize,
    reduce_dataset,
    shrink_architecture,
    transform,
)
from growprune.numerics import make_rng
from oracles import pairwise_sq_dists


def column_dataset(cols):
    feats = np.asarray(cols, dtype=np.float64).T
    n = feats.shape[0]
    return Dataset(
        features=feats,
        labels=np.zeros(n, dtype=np.int64),
        splits={"train": np.arange(n), "val": np.arange(0), "test": np.arange(0)},
        n_classes=1,
        label_map={"0": 0},
    )


def test_normalize_minmax_column():
    ds = normalize(column_dataset([[0.0, 5.0, 10.0]]))
    assert np.array_equal(ds.features[:, 0], [0.0, 0.5, 1.0])


def test_normalize_constant_column_maps_to_zero():
    ds = normalize(column_dataset([[4.0, 4.0, 4.0], [0.0, 1.0, 2.0]]))
    assert np.array_equal(ds.features[:, 0], [0.0, 0.0, 0.0])


def test_normalize_out_of_range_passes_unclamped():
    base = column_dataset([[0.0, 1.0, 2.0, 10.0]])
    # training split covers only the first three rows
    base.splits = {"train": np.arange(3), "val": np.arange(0), "test": np.array([3])}
    ds = normalize(base)
    assert ds.features[3, 0] == 5.0  # (10 - 0) / 2, outside [0, 1]
    # stored params replay identically, and leave the caller's array alone
    before = base.features.copy()
    again = apply_normalization(ds.normalization, base.features)
    assert np.array_equal(again, ds.features)
    assert np.array_equal(base.features, before)


def test_rp_sign_frequency():
    phi = fit_reducer("rp_sign", np.zeros((2, 1000)), 100, make_rng(0)).matrix
    assert set(np.unique(phi)) == {-1.0, 1.0}
    assert abs((phi == 1.0).mean() - 0.5) < 0.01


def test_achlioptas_frequencies_and_values():
    k = 100
    phi = fit_reducer("rp_achlioptas_sparse", np.zeros((2, 1000)), k, make_rng(1)).matrix
    scale = math.sqrt(3.0 / k)
    vals = set(np.unique(np.round(phi, 12)))
    assert vals == {round(-scale, 12), 0.0, round(scale, 12)}
    assert abs((phi == 0).mean() - 2 / 3) < 0.01
    assert abs((phi > 0).mean() - 1 / 6) < 0.01


def test_pca_recovers_planar_data():
    rng = make_rng(2)
    basis = rng.normal(size=(2, 6))
    coords = rng.normal(size=(300, 2))
    x = coords @ basis + 3.0
    red = fit_reducer("pca", x, 2, rng)
    z = transform(red, x)
    recon = z @ red.components.T + red.mean
    assert np.max(np.abs(recon - x)) < 1e-9


def test_pca_components_orthonormal():
    rng = make_rng(3)
    x = rng.normal(size=(200, 8))
    red = fit_reducer("pca", x, 5, rng)
    gram = red.components.T @ red.components
    assert np.allclose(gram, np.eye(5), atol=1e-9)


def test_pca_reconstruction_error_non_increasing_in_k():
    rng = make_rng(4)
    x = rng.normal(size=(150, 10)) @ rng.normal(size=(10, 10))
    errs = []
    for k in (1, 3, 5, 7, 9):
        red = fit_reducer("pca", x, k, rng)
        z = transform(red, x)
        recon = z @ red.components.T + red.mean
        errs.append(float(((recon - x) ** 2).sum()))
    assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))


def test_pca_near_full_rank_preserves_distances():
    rng = make_rng(5)
    x = rng.normal(size=(40, 6))
    x[:, 5] = 0.0  # one trivial null direction
    red = fit_reducer("pca", x, 5, rng)
    z = transform(red, x)
    orig = pairwise_sq_dists(x)
    proj = pairwise_sq_dists(z)
    for key in orig:
        assert abs(orig[key] - proj[key]) < 1e-9


def test_transform_zero_matrix_and_width_check():
    rng = make_rng(6)
    red = fit_reducer("rp_gauss_scaled", np.zeros((3, 50)), 10, rng)
    assert np.array_equal(transform(red, np.zeros((4, 50))), np.zeros((4, 10)))
    with pytest.raises(ValueError, match="expected 50"):
        transform(red, np.zeros((4, 49)))


def test_fit_rejects_k_not_below_d():
    with pytest.raises(ValueError, match="k"):
        fit_reducer("rp_sign", np.zeros((2, 10)), 10, make_rng(0))
    with pytest.raises(ValueError, match="unknown reducer"):
        fit_reducer("tsne", np.zeros((2, 10)), 2, make_rng(0))


def test_jl_distance_preservation_single_seed():
    rng = make_rng(7)
    pts = rng.normal(size=(50, 1000))
    red = fit_reducer("rp_gauss_scaled", pts, 200, rng)
    proj = transform(red, pts)
    orig = pairwise_sq_dists(pts)
    new = pairwise_sq_dists(proj)
    ratios = np.array([new[k] / orig[k] for k in orig])
    assert np.mean((ratios > 0.65) & (ratios < 1.35)) >= 0.99


def test_transform_is_linear():
    rng = make_rng(8)
    for kind in ("rp_gauss_scaled", "rp_sign", "rp_achlioptas_sparse"):
        red = fit_reducer(kind, rng.normal(size=(5, 30)), 6, rng)
        x = rng.normal(size=(4, 30))
        y = rng.normal(size=(4, 30))
        lhs = transform(red, 2.0 * x + 3.0 * y)
        rhs = 2.0 * transform(red, x) + 3.0 * transform(red, y)
        assert np.allclose(lhs, rhs, atol=1e-9)
    # pca is affine; linear after mean removal
    red = fit_reducer("pca", rng.normal(size=(50, 12)), 4, rng)
    x = rng.normal(size=(3, 12))
    y = rng.normal(size=(3, 12))
    lhs = transform(red, 2.0 * x + 3.0 * y) - transform(red, np.zeros((3, 12)))
    rhs = (
        2.0 * (transform(red, x) - transform(red, np.zeros((3, 12))))
        + 3.0 * (transform(red, y) - transform(red, np.zeros((3, 12))))
    )
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_rp_reducers_are_data_independent():
    a = fit_reducer("rp_gauss_unit", np.zeros((5, 20)), 4, make_rng(42)).matrix
    b = fit_reducer("rp_gauss_unit", np.ones((99, 20)) * 7, 4, make_rng(42)).matrix
    assert np.array_equal(a, b)


def test_shrink_architecture_cases():
    assert shrink_architecture([784, 500, 10], 2.0) == [392, 250, 10]
    assert shrink_architecture([48, 40, 11], 4.0) == [12, 10, 11]
    assert shrink_architecture([8, 3, 5], 6.0) == [1, 1, 5]  # floors at 1
    with pytest.raises(ValueError):
        shrink_architecture([8, 3, 5], 1.0)


def test_shrink_preserves_output_width(rng):
    for _ in range(20):
        sizes = [int(rng.integers(2, 900)) for _ in range(int(rng.integers(2, 5)))]
        r = float(rng.uniform(1.1, 16.0))
        out = shrink_architecture(sizes, r)
        assert out[-1] == sizes[-1]
        assert all(v >= 1 for v in out)


def test_shrink_input_becomes_exactly_k(rng):
    for _ in range(20):
        d = int(rng.integers(8, 1200))
        k = int(rng.integers(1, d))
        if k == d:
            continue
        if d / k <= 1.0:
            continue
        out = shrink_architecture([d, 64, 10], d / k)
        assert out[0] == k


def test_reducer_serialization_roundtrip():
    rng = make_rng(9)
    x = rng.normal(size=(60, 14))
    for kind in ("rp_gauss_scaled", "rp_sign", "rp_achlioptas_sparse", "pca"):
        red = fit_reducer(kind, x, 5, rng)
        back = Reducer.from_dict(red.to_dict())
        assert np.array_equal(transform(red, x), transform(back, x))


def test_reduce_dataset_applies_to_all_splits():
    rng = make_rng(10)
    ds = split(make_blobs(30, np.eye(4), 0.2, rng), (0.7, 0.15), rng)
    red = fit_reducer("rp_gauss_scaled", ds.train_xy()[0], 2, rng)
    out = reduce_dataset(red, ds)
    assert out.n_features == 2
    assert np.array_equal(out.splits["train"], ds.splits["train"])
