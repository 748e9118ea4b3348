import struct

import numpy as np
import pytest

from growprune.data import (
    CsvSchema,
    DataError,
    Dataset,
    load_csv,
    load_dataset,
    load_idx,
    make_blobs,
    make_embedded_clusters,
    make_moons,
    save_dataset,
    split,
    split_from_files,
)
from growprune.numerics import make_rng


def write_csv(path, rows, header=None):
    with open(path, "w") as f:
        if header:
            f.write(header + "\n")
        for r in rows:
            f.write(",".join(str(c) for c in r) + "\n")


def test_load_csv_toy(tmp_path):
    p = tmp_path / "toy.csv"
    write_csv(p, [[1.0, 2.0, "a"], [3.0, 4.0, "b"], [5.0, 6.0, "a"]])
    ds = load_csv(p)
    assert ds.features.shape == (3, 2)
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.n_classes == 2
    assert ds.label_map == {"a": 0, "b": 1}


def test_load_csv_header_and_named_label(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, [[0.5, "x", 1.5], [0.25, "y", 2.5]], header="f1,target,f2")
    ds = load_csv(p, CsvSchema(label_column="target", header=True))
    assert ds.features.shape == (2, 2)
    assert ds.label_map == {"x": 0, "y": 1}


def test_load_csv_pendigits_shape(tmp_path):
    # file shaped like the pen-digit table: 16 features, 10 classes
    rng = make_rng(0)
    p = tmp_path / "pen.csv"
    rows = []
    for k in range(200):
        rows.append(list(np.round(rng.random(16), 3)) + [k % 10])
    write_csv(p, rows)
    ds = load_csv(p)
    assert ds.n_features == 16
    assert ds.n_classes == 10


def test_load_csv_malformed_row_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, [[1.0, 2.0, "a"], ["oops", 4.0, "b"]])
    with pytest.raises(DataError, match="row 1, column 0"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    with open(p, "w") as f:
        f.write("1,2,a\n1,2\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(p)


def test_label_map_is_bijection(tmp_path):
    p = tmp_path / "l.csv"
    write_csv(p, [[i, f"c{i % 4}"] for i in range(20)])
    ds = load_csv(p)
    assert sorted(ds.label_map.values()) == list(range(ds.n_classes))
    assert len(set(ds.label_map.keys())) == ds.n_classes


def test_split_fractions_exact():
    rng = make_rng(5)
    ds = make_blobs(50, np.eye(2), 0.3, rng)  # 100 rows, 2 classes
    out = split(ds, (0.8, 0.1, 0.1), rng)
    assert len(out.splits["train"]) == 80
    assert len(out.splits["val"]) == 10
    assert len(out.splits["test"]) == 10
    out.validate()


def test_split_same_seed_identical():
    ds = make_blobs(40, np.eye(3), 0.3, make_rng(6))
    a = split(ds, (0.7, 0.15), make_rng(9))
    b = split(ds, (0.7, 0.15), make_rng(9))
    for k in ("train", "val", "test"):
        assert np.array_equal(a.splits[k], b.splits[k])


def test_split_stratification_within_one_row():
    rng = make_rng(7)
    # unbalanced classes
    feats = rng.normal(size=(37 + 83 + 60, 3))
    labels = np.array([0] * 37 + [1] * 83 + [2] * 60)
    ds = Dataset(
        features=feats,
        labels=labels,
        splits={"train": np.arange(180), "val": np.arange(0), "test": np.arange(0)},
        n_classes=3,
        label_map={},
    )
    out = split(ds, (0.6, 0.2), rng)
    for c, n_c in ((0, 37), (1, 83), (2, 60)):
        got = int(np.sum(labels[out.splits["train"]] == c))
        assert abs(got - 0.6 * n_c) <= 1.0  # counting oracle
    out.validate()


def test_split_rejects_empty_training_class():
    ds = make_blobs(1, np.eye(3), 0.1, make_rng(1))  # one row per class
    with pytest.raises(DataError):
        split(ds, (0.0, 0.5), make_rng(1))


def test_split_from_files_verbatim(tmp_path):
    ds = make_blobs(10, np.eye(2), 0.2, make_rng(3))
    (tmp_path / "tr.txt").write_text("\n".join(str(i) for i in range(16)))
    (tmp_path / "va.txt").write_text("16\n17\n")
    (tmp_path / "te.txt").write_text("18\n19\n")
    out = split_from_files(ds, tmp_path / "tr.txt", tmp_path / "va.txt", tmp_path / "te.txt")
    assert out.splits["train"].tolist() == list(range(16))
    assert out.splits["test"].tolist() == [18, 19]


def write_idx_pair(tmp_path, images, labels):
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    n, r, c = images.shape
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, r, c))
        f.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return ip, lp


def test_load_idx_mnist_shape(tmp_path):
    rng = make_rng(0)
    images = rng.integers(0, 256, size=(60000, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=60000, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.n_rows == 60000
    assert ds.n_features == 784
    assert 0.0 <= ds.features.min() and ds.features.max() <= 1.0


def test_load_idx_zero_image_scales_to_zero_row(tmp_path):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    images[1] = 255
    labels = np.array([0, 1, 0], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert np.array_equal(ds.features[0], np.zeros(16))
    assert np.array_equal(ds.features[1], np.ones(16))


def test_load_idx_truncated_rejected(tmp_path):
    images = np.zeros((5, 4, 4), dtype=np.uint8)
    labels = np.zeros(5, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    raw = ip.read_bytes()
    ip.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(DataError, match="truncated"):
        load_idx(ip, lp)


def test_load_idx_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(struct.pack(">iiii", 0x00000899, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataError, match="magic"):
        load_idx(p, p)


def test_dataset_roundtrip_via_npz(tmp_path):
    rng = make_rng(12)
    ds = split(make_embedded_clusters(120, 8, 3, 2, rng), (0.7, 0.15), rng)
    path = tmp_path / "ds.npz"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    for k in ("train", "val", "test"):
        assert np.array_equal(back.splits[k], ds.splits[k])
    assert back.label_map == ds.label_map
    assert back.n_classes == ds.n_classes


def test_validate_names_the_label_range():
    rng = make_rng(12)
    ds = split(make_moons(40, 0.1, rng), (0.7, 0.15), rng)
    ds.validate()
    ds.labels[ds.splits["val"][0]] = 2
    with pytest.raises(DataError, match=r"labels must lie in \[0, 2\) for 2 classes, found 0\.\.2"):
        ds.validate()


def test_moons_and_clusters_are_learnable_shapes():
    rng = make_rng(1)
    moons = make_moons(100, 0.05, rng)
    assert moons.features.shape == (100, 2)
    assert set(moons.labels.tolist()) == {0, 1}
    emb = make_embedded_clusters(200, 16, 10, 4, rng)
    assert emb.features.shape == (200, 16)
    assert emb.n_classes == 10
    # balanced within one row
    counts = np.bincount(emb.labels)
    assert counts.max() - counts.min() <= 1
