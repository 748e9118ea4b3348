"""Dataset ingestion and splitting: CSV tables, IDX image files, npz bundles,
plus synthetic generators for demos and tests.

A Dataset is an immutable bundle of a float64 feature matrix, dense integer
labels, and disjoint train/validation/test index sets covering every row.
"""

from __future__ import annotations

import json
import struct
import zipfile
import zlib
from dataclasses import dataclass, field, replace

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass
class CsvSchema:
    label_column: int | str = -1
    delimiter: str = ","
    header: bool = False


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray  # (N,) int64 in [0, n_classes)
    splits: dict  # name -> index array
    n_classes: int
    label_map: dict  # raw label string -> dense int
    provenance: dict = field(default_factory=dict)
    normalization: dict | None = None  # {"min": [...], "scale": [...]}

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def _xy(self, split: str):
        idx = self.splits[split]
        return self.features[idx], self.labels[idx]

    def train_xy(self):
        return self._xy("train")

    def val_xy(self):
        return self._xy("val")

    def test_xy(self):
        return self._xy("test")

    def validate(self) -> None:
        if np.ndim(self.features) != 2:
            raise DataError(f"features must be a 2-D matrix, got shape {np.shape(self.features)}")
        n = self.n_rows
        labels = np.asarray(self.labels)
        if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
            raise DataError(f"labels must be {n} integers, one per row")
        if n and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise DataError(
                f"labels must lie in [0, {self.n_classes}) for {self.n_classes} classes, "
                f"found {labels.min()}..{labels.max()}"
            )
        for name in ("train", "val", "test"):
            idx = np.asarray(self.splits[name])
            if not np.issubdtype(idx.dtype, np.integer) or (idx.size and (idx.min() < 0 or idx.max() >= n)):
                raise DataError(f"{name} split: row indices must be integers in [0, {n})")
        allidx = np.concatenate([self.splits[k] for k in ("train", "val", "test")])
        if len(allidx) != n or len(np.unique(allidx)) != n:
            raise DataError("splits must be disjoint and cover every row")
        train_classes = set(self.labels[self.splits["train"]].tolist())
        if train_classes != set(range(self.n_classes)):
            missing = sorted(set(range(self.n_classes)) - train_classes)
            raise DataError(f"classes missing from training split: {missing}")


def _dense_labels(raw: list[str]):
    uniq = sorted(set(raw))
    label_map = {lab: i for i, lab in enumerate(uniq)}
    return np.array([label_map[v] for v in raw], dtype=np.int64), label_map


def load_csv(path, schema: CsvSchema | None = None) -> Dataset:
    """Numeric-feature CSV with one label column; labels become dense ints.

    The initial split is all-train; call split() afterwards.
    """
    schema = schema or CsvSchema()
    try:
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")
    header_names = None
    if schema.header:
        header_names = [c.strip() for c in lines[0].split(schema.delimiter)]
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path} has a header but no rows")
    first = lines[0].split(schema.delimiter)
    ncols = len(first)
    if isinstance(schema.label_column, str):
        if header_names is None or schema.label_column not in header_names:
            raise DataError(f"label column {schema.label_column!r} not in header")
        label_idx = header_names.index(schema.label_column)
    else:
        label_idx = schema.label_column % ncols
    feats = []
    raw_labels = []
    for rownum, line in enumerate(lines):
        cells = line.split(schema.delimiter)
        if len(cells) != ncols:
            raise DataError(f"row {rownum}: expected {ncols} cells, got {len(cells)}")
        row = []
        for colnum, cell in enumerate(cells):
            if colnum == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                row.append(float(cell))
            except ValueError:
                raise DataError(f"row {rownum}, column {colnum}: non-numeric cell {cell!r}")
        feats.append(row)
    features = np.asarray(feats, dtype=np.float64)
    labels, label_map = _dense_labels(raw_labels)
    n = features.shape[0]
    return Dataset(
        features=features,
        labels=labels,
        splits={
            "train": np.arange(n),
            "val": np.arange(0),
            "test": np.arange(0),
        },
        n_classes=len(label_map),
        label_map=label_map,
        provenance={"source": str(path), "format": "csv"},
    )


def _read_idx(path, expect_magic):
    try:
        raw = open(path, "rb").read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 4:
        raise DataError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expect_magic:
        raise DataError(f"{path}: bad IDX magic {magic:#x}, expected {expect_magic:#x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) - header < count:
        raise DataError(f"{path}: truncated IDX payload ({len(raw) - header} < {count})")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header)
    return data.reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """IDX image/label pair (big-endian). Pixels scale to [0, 1], images flatten."""
    images = _read_idx(images_path, 0x00000803)
    labels = _read_idx(labels_path, 0x00000801)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    n = images.shape[0]
    features = images.reshape(n, -1).astype(np.float64) / 255.0
    dense, label_map = _dense_labels([str(int(v)) for v in labels])
    return Dataset(
        features=features,
        labels=dense,
        splits={"train": np.arange(n), "val": np.arange(0), "test": np.arange(0)},
        n_classes=len(label_map),
        label_map=label_map,
        provenance={"source": str(images_path), "format": "idx"},
    )


def split(dataset: Dataset, fractions, rng: np.random.Generator) -> Dataset:
    """Stratified random split; fractions = (train, val) or (train, val, test).

    Rows not claimed by train/val become test. Every class must land in the
    training split.
    """
    fracs = tuple(float(f) for f in fractions)
    if len(fracs) not in (2, 3) or sum(fracs) > 1.0 + 1e-12 or any(f < 0 for f in fracs):
        raise DataError(f"bad split fractions {fractions}")
    f_train, f_val = fracs[0], fracs[1]
    train_idx, val_idx, test_idx = [], [], []
    for c in range(dataset.n_classes):
        rows = np.flatnonzero(dataset.labels == c)
        rows = rows[rng.permutation(len(rows))]
        n_c = len(rows)
        n_train = int(np.floor(f_train * n_c + 0.5))
        n_val = int(np.floor(f_val * n_c + 0.5))
        if n_train == 0:
            raise DataError(f"class {c} has no rows in the training split")
        train_idx.append(rows[:n_train])
        val_idx.append(rows[n_train : n_train + n_val])
        test_idx.append(rows[n_train + n_val :])
    splits = {
        "train": np.sort(np.concatenate(train_idx)),
        "val": np.sort(np.concatenate(val_idx)),
        "test": np.sort(np.concatenate(test_idx)),
    }
    out = replace(dataset, splits=splits, provenance=dict(dataset.provenance))
    out.validate()
    return out


def split_from_files(dataset: Dataset, train_file, val_file, test_file) -> Dataset:
    """Explicit newline-separated row-index files, honored verbatim."""
    def read(path):
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read split file {path}: {exc}") from exc
        rows = []
        for no, ln in enumerate(lines, 1):
            if ln.strip():
                try:
                    rows.append(int(ln))
                except ValueError:
                    raise DataError(f"split file {path} line {no}: not a row index: {ln.strip()!r}") from None
        return np.array(rows, dtype=np.int64)

    out = replace(
        dataset,
        splits={"train": read(train_file), "val": read(val_file), "test": read(test_file)},
        provenance=dict(dataset.provenance),
    )
    out.validate()
    return out


def save_dataset(dataset: Dataset, path) -> None:
    meta = {
        "n_classes": dataset.n_classes,
        "label_map": dataset.label_map,
        "provenance": dataset.provenance,
        "normalization": dataset.normalization,
    }
    np.savez(
        path,
        features=dataset.features,
        labels=dataset.labels,
        train=dataset.splits["train"],
        val=dataset.splits["val"],
        test=dataset.splits["test"],
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )


_NPZ_MEMBERS = ("features", "labels", "train", "val", "test", "meta")
_META_KEYS = ("n_classes", "label_map", "provenance", "normalization")


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset; raises DataError unless the
    file is an npz archive holding every member and meta key."""
    try:
        z = np.load(path)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not an npz archive")
        with z:
            missing = [k for k in _NPZ_MEMBERS if k not in z.files]
            if missing:
                raise DataError(f"{path} lacks the npz members {missing}")
            members = {k: z[k] for k in _NPZ_MEMBERS}
        meta = json.loads(bytes(members.pop("meta")).decode())
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        # a corrupt archive raises BadZipFile or zlib.error, not OSError
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(meta, dict) or any(k not in meta for k in _META_KEYS):
        raise DataError(f"{path}: meta must hold the keys {list(_META_KEYS)}")
    if type(meta["n_classes"]) is not int:
        raise DataError(f"{path}: n_classes must be an integer, got {meta['n_classes']!r}")
    return Dataset(
        features=members["features"],
        labels=members["labels"],
        splits={k: members[k] for k in ("train", "val", "test")},
        **{k: meta[k] for k in _META_KEYS},
    )


# --- synthetic generators -------------------------------------------------

def make_blobs(n_per_class, centers, std, rng: np.random.Generator) -> Dataset:
    """Gaussian class clusters around the given center rows."""
    centers = np.asarray(centers, dtype=np.float64)
    feats, labels = [], []
    for c, mu in enumerate(centers):
        feats.append(mu + rng.normal(0.0, std, size=(n_per_class, centers.shape[1])))
        labels.extend([c] * n_per_class)
    features = np.vstack(feats)
    labels = np.array(labels, dtype=np.int64)
    n = len(labels)
    ds = Dataset(
        features=features,
        labels=labels,
        splits={"train": np.arange(n), "val": np.arange(0), "test": np.arange(0)},
        n_classes=centers.shape[0],
        label_map={str(c): c for c in range(centers.shape[0])},
        provenance={"format": "synthetic", "generator": "blobs"},
    )
    return ds


def make_moons(n, noise, rng: np.random.Generator) -> Dataset:
    """Two interleaved half-circles, the classic nonlinear 2-D benchmark."""
    half = n // 2
    t = rng.random(half) * np.pi
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    t2 = rng.random(n - half) * np.pi
    lower = np.stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)], axis=1)
    features = np.vstack([upper, lower]) + rng.normal(0.0, noise, size=(n, 2))
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    ds = Dataset(
        features=features,
        labels=labels,
        splits={"train": np.arange(n), "val": np.arange(0), "test": np.arange(0)},
        n_classes=2,
        label_map={"0": 0, "1": 1},
        provenance={"format": "synthetic", "generator": "moons"},
    )
    return ds


def make_embedded_clusters(
    n_rows: int,
    n_features: int,
    n_classes: int,
    latent_dim: int,
    rng: np.random.Generator,
    separation: float = 3.0,
    cluster_std: float = 1.0,
    ambient_noise: float = 0.1,
) -> Dataset:
    """Class clusters in a low-dimensional latent space, embedded linearly
    into a higher-dimensional feature space with ambient noise.

    The intrinsic dimensionality stays at latent_dim, so aggressive feature
    reduction loses little information; class overlap is controlled by the
    separation / cluster_std ratio.
    """
    means = rng.normal(0.0, 1.0, size=(n_classes, latent_dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    embed = rng.normal(0.0, 1.0 / np.sqrt(latent_dim), size=(latent_dim, n_features))
    labels = np.arange(n_rows, dtype=np.int64) % n_classes
    labels = labels[rng.permutation(n_rows)]
    z = means[labels] + rng.normal(0.0, cluster_std, size=(n_rows, latent_dim))
    features = z @ embed + rng.normal(0.0, ambient_noise, size=(n_rows, n_features))
    ds = Dataset(
        features=features,
        labels=labels,
        splits={"train": np.arange(n_rows), "val": np.arange(0), "test": np.arange(0)},
        n_classes=n_classes,
        label_map={str(c): c for c in range(n_classes)},
        provenance={
            "format": "synthetic",
            "generator": "embedded_clusters",
            "latent_dim": latent_dim,
        },
    )
    return ds
