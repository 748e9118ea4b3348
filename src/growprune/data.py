"""Dataset ingestion and splitting: CSV tables, IDX image files, npz bundles,
plus synthetic generators for demos and tests.

A Dataset is an immutable bundle of a float64 feature matrix, dense integer
labels, and disjoint train/validation/test index sets covering every row.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zipfile
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass
class CsvSchema:
    label_column: int | str = -1
    delimiter: str = ","
    header: bool = False

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or not self.delimiter:
            raise ValueError(f"delimiter must be a non-empty string, got {self.delimiter!r}")
        if type(self.label_column) is not int and not isinstance(self.label_column, str):
            raise ValueError(f"label_column must be an integer or a column name, got {self.label_column!r}")
        if type(self.header) is not bool:
            raise ValueError(f"header must be true or false, got {self.header!r}")


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
        features = np.asarray(self.features)
        if features.ndim != 2 or features.dtype.kind not in "iuf":
            raise DataError(f"features must be a 2-D matrix of real numbers, got {features.dtype} {features.shape}")
        _check_finite(features)
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


def _unsplit(features, labels, label_map: dict, provenance: dict) -> Dataset:
    """A Dataset whose rows all lie in the training split; call split() next."""
    splits = {"train": np.arange(len(labels)), "val": np.arange(0), "test": np.arange(0)}
    return Dataset(features, labels, splits, len(label_map), label_map, provenance)


def _check_finite(features: np.ndarray, error: type[Exception] = DataError) -> None:
    """Raise `error` naming the first row of `features` that holds a NaN or
    an infinity."""
    finite = np.isfinite(features)
    if not finite.all():  # a flat all() is ~3x faster than all(axis=1) on 16 columns
        raise error(f"features row {int(np.argmin(finite.all(axis=1)))}: non-finite value")


def _loadtxt(lines: list[str], delimiter: str) -> np.ndarray | None:
    """`lines` read by numpy's float64 reader; None where numpy fails or
    drops a line (it skips empty ones)."""
    try:
        x = np.loadtxt(lines, dtype=np.float64, delimiter=delimiter, ndmin=2, comments=None)
    except (ValueError, TypeError, OverflowError):
        return None
    return x if len(x) == len(lines) else None


def _float_rows(lines: list[str], delimiter: str) -> np.ndarray:
    """The rows through float(), which takes a few spellings numpy does not
    (1_0, non-ASCII digits) and any delimiter; names the first bad row."""
    rows = [line.split(delimiter) for line in lines]
    for i, cells in enumerate(rows):
        if len(cells) != len(rows[0]):
            raise DataError(f"features row {i}: {len(cells)} values, row 0 has {len(rows[0])}")
        for j, cell in enumerate(cells):
            try:
                cells[j] = float(cell)
            except ValueError:
                raise DataError(f"features row {i}, column {j}: non-numeric value {cell!r}") from None
    return np.asarray(rows, dtype=np.float64)


_BLOCK_BYTES = 1 << 21  # text per task of the digit-row reader
_DIGIT_LIMIT = 10**18  # strtoll clamps larger values to 2**63 - 1 without a word


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _in_order(fn, items: list):
    """fn of each item, yielded in order. Given two or more items and usable
    CPUs, a thread per usable CPU, but no more than there are items, runs
    them with at most two per thread in flight; otherwise the calling thread
    does. Closing the generator cancels the rest. The threads may call only
    private functions, because perfbench's tracer keeps one span stack per
    process."""
    workers = min(_usable_cpus(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _digit_block_rows(block: np.ndarray, sep: int, ncols: int) -> int | None:
    """The row count of `block`, the bytes of whole rows joined by newlines,
    if each row holds `ncols` non-empty fields of ASCII digits between `sep`
    bytes; None otherwise."""
    if not block.size:
        return None
    nondigit = (block - np.uint8(48)) > 9  # bytes below '0' wrap around
    seps, newlines = np.flatnonzero(block == sep), np.flatnonzero(block == 10)
    rows = len(newlines) + 1
    if (
        nondigit[0]
        or nondigit[-1]
        or np.count_nonzero(nondigit) != len(seps) + len(newlines)  # a byte of another kind
        or (nondigit[1:] & nondigit[:-1]).any()  # an empty field or a blank line
        or len(seps) != rows * (ncols - 1)
        or not np.array_equal(np.searchsorted(seps, newlines), (ncols - 1) * np.arange(1, rows))
    ):
        return None
    return rows


def _parse_digit_block(block: np.ndarray, out: np.ndarray, delimiter: str) -> bool:
    """Parse a block `_digit_block_rows` accepted into `out`, its rows of the
    result; False if numpy reads other than out.size values or one reaches
    `_DIGIT_LIMIT`."""
    text = block.tobytes().replace(b"\n", delimiter.encode())
    try:
        # numpy releases the GIL while it parses; numpy 1.x stops at the
        # first field it cannot read and returns the values before it with
        # a DeprecationWarning, which a warnings filter may raise
        values = np.fromstring(text, np.int64, sep=delimiter)
    except (ValueError, DeprecationWarning):
        return False
    if values.size != out.size or values.max() >= _DIGIT_LIMIT:
        return False
    out[...] = values.reshape(out.shape)  # int64 -> float64 rounds to nearest-even, as float() does
    return True


def _digit_blocks(data: bytes, delimiter: str) -> tuple[list[np.ndarray], int, int] | None:
    """`data` cut at row ends into blocks of about _BLOCK_BYTES for the
    digit-row reader, with the field count of its first row and the row
    count of its first block; None for a delimiter that reader does not take
    or a first block it refuses, so that other text costs one block."""
    if len(delimiter) != 1 or delimiter.isdigit() or not (delimiter == "\t" or " " <= delimiter <= "~"):
        return None
    end = len(data) - data.endswith(b"\n")
    first_end = data.find(b"\n", 0, end)
    ncols = data.count(delimiter.encode(), 0, end if first_end < 0 else first_end) + 1
    blocks, start = [], 0
    view = np.frombuffer(data, np.uint8)
    while True:
        stop = data.find(b"\n", start + _BLOCK_BYTES, end)
        blocks.append(view[start : end if stop < 0 else stop])
        if stop < 0:
            break
        start = stop + 1
    rows = _digit_block_rows(blocks[0], ord(delimiter), ncols)
    return None if rows is None else (blocks, ncols, rows)


def _digit_rows(data: bytes, delimiter: str) -> np.ndarray | None:
    """`data` as a float64 matrix if it holds only rows of non-negative
    decimal integers below 10**18, fields split by a one-byte `delimiter`
    and rows by newlines (the last one optional), every row as wide as the
    first; None for any other text. `_in_order` checks the blocks of
    `_digit_blocks` after the first, then parses each into its rows of one
    matrix."""
    cut = _digit_blocks(data, delimiter)
    if cut is None:
        return None
    blocks, ncols, first = cut
    rows = [first]
    with closing(_in_order(partial(_digit_block_rows, sep=ord(delimiter), ncols=ncols), blocks[1:])) as checked:
        for n in checked:
            if n is None:
                return None
            rows.append(n)
    x = np.empty((sum(rows), ncols))
    bounds = np.cumsum([0, *rows]).tolist()
    jobs = [(block, x[a:b]) for block, a, b in zip(blocks, bounds, bounds[1:])]
    with closing(_in_order(lambda job: _parse_digit_block(*job, delimiter), jobs)) as parsed:
        return x if all(parsed) else None


def _digit_block_matrix(block: np.ndarray, rows: int | None, ncols: int, delimiter: str) -> np.ndarray | None:
    """One block of `_digit_blocks` checked, unless its row count `rows` is
    known, and parsed; None where the digit-row reader refuses it."""
    if rows is None:
        rows = _digit_block_rows(block, ord(delimiter), ncols)
        if rows is None:
            return None
    x = np.empty((rows, ncols))
    return x if _parse_digit_block(block, x, delimiter) else None


def _digit_tasks(data: bytes, delimiter: str) -> tuple[int, list] | None:
    """What the digit-row reader would read of `data`, as its column count and
    one function per block that returns the block's rows as a float64 matrix,
    or None where the reader refuses that block; None if the reader refuses
    the first block."""
    cut = _digit_blocks(data, delimiter)
    if cut is None:
        return None
    blocks, ncols, first = cut
    return ncols, [partial(_digit_block_matrix, b, first if i == 0 else None, ncols, delimiter) for i, b in enumerate(blocks)]


def _row_blocks(x: np.ndarray) -> list:
    """One function per block of about _BLOCK_BYTES of the rows of the matrix
    `x` that returns those rows."""
    step = max(1, _BLOCK_BYTES // (x.itemsize * max(1, x.shape[1])))
    return [partial(x.__getitem__, slice(a, a + step)) for a in range(0, len(x), step)]


def _parse_rows(lines: list[str], delimiter: str) -> np.ndarray:
    """The text reader behind the digit-row reader of both loaders: `lines`
    of `delimiter`-separated numbers as a float64 matrix whose bits equal
    float() of each field; a malformed, ragged or non-finite row is a
    DataError naming it."""
    x = _loadtxt(lines, delimiter)
    if x is None:
        x = _float_rows(lines, delimiter)
    _check_finite(x)
    return x


def _read_features(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise DataError(f"cannot read features file {path}: {exc}") from exc


def _text_rows(data: bytes, path, delimiter: str) -> np.ndarray:
    """The text readers' matrix of the features file `path`, whose bytes
    `data` the digit-row reader refused: one row per non-blank line, 0 x 0
    for a file without rows."""
    try:  # decoded as open(path) in text mode does
        with io.TextIOWrapper(io.BytesIO(data)) as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read features file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    del text
    return _parse_rows(lines, delimiter) if lines else np.zeros((0, 0))


def load_features_csv(path, delimiter: str = ",") -> np.ndarray:
    """Feature rows, one per non-blank line, as a float64 matrix (0 x 0 for
    a file without rows)."""
    data = _read_features(path)
    x = _digit_rows(data, delimiter)
    return _text_rows(data, path, delimiter) if x is None else x


def load_csv(path, schema: CsvSchema | None = None) -> Dataset:
    """Numeric-feature CSV with one label column; labels become dense ints.

    The initial split is all-train; call split() afterwards.
    """
    schema = schema or CsvSchema()
    delimiter = schema.delimiter
    try:
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")
    header_names = None
    if schema.header:
        header_names = [c.strip() for c in lines[0].split(delimiter)]
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path} has a header but no rows")
    ncols = len(lines[0].split(delimiter))
    if isinstance(schema.label_column, str):
        if header_names is None or schema.label_column not in header_names:
            raise DataError(f"label column {schema.label_column!r} not in header")
        label_idx = header_names.index(schema.label_column)
    else:
        label_idx = schema.label_column
    if ncols < 2 or not -ncols <= label_idx < ncols:
        raise DataError(f"row 0 has {ncols} cells, too few for label column {schema.label_column!r} and a feature")
    label_idx %= ncols
    rows, raw_labels = [], []
    for rownum, line in enumerate(lines):
        cells = line.split(delimiter)
        if len(cells) != ncols:
            raise DataError(f"row {rownum}: expected {ncols} cells, got {len(cells)}")
        raw_labels.append(cells.pop(label_idx).strip())
        rows.append(delimiter.join(cells))
    # a newline after every row, so that an empty last row is not dropped
    features = _digit_rows(("\n".join(rows) + "\n").encode("ascii", "replace"), delimiter)
    if features is None:
        features = _parse_rows(rows, delimiter)
    labels, label_map = _dense_labels(raw_labels)
    return _unsplit(features, labels, label_map, {"source": str(path), "format": "csv"})


def _read_idx(path, expect_magic):
    try:
        with open(path, "rb") as f:
            raw = f.read()
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
    if min(dims) < 0:
        raise DataError(f"{path}: negative IDX dimension in {dims}")
    count, payload = math.prod(dims), len(raw) - header
    # an IDX file holds exactly the counted bytes, so more means a wrong header
    if payload != count:
        what = "truncated" if payload < count else "overlong"
        raise DataError(f"{path}: {what} IDX payload: {payload} bytes, header {dims} counts {count}")
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
    return _unsplit(features, dense, label_map, {"source": str(images_path), "format": "idx"})


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


def finite_numbers(values) -> np.ndarray | None:
    """`values`, nested lists of JSON numbers, as a float64 array; None unless
    every entry is a finite int or float (numpy would take bools and strings)."""
    try:
        a = np.asarray(values, dtype=object)
        if not all(type(v) in (int, float) for v in a.flat):
            return None
        a = a.astype(np.float64)
    except (ValueError, OverflowError):  # ragged lists, ints beyond float64
        return None
    return a if np.all(np.isfinite(a)) else None


def _check_meta(path, meta: dict, features: np.ndarray) -> None:
    n_classes = meta["n_classes"]
    if type(n_classes) is not int:
        raise DataError(f"{path}: n_classes must be an integer, got {n_classes!r}")
    label_map = meta["label_map"]
    if not (
        isinstance(label_map, dict)
        and all(type(v) is int for v in label_map.values())
        and sorted(label_map.values()) == list(range(n_classes))
    ):
        raise DataError(f"{path}: label_map must map label strings one-to-one onto 0..{n_classes - 1}")
    if not isinstance(meta["provenance"], dict):
        raise DataError(f"{path}: provenance must be a dict, got {type(meta['provenance']).__name__}")
    norm = meta["normalization"]
    if norm is not None:
        # a features member that is not 2-D fails Dataset.validate
        width = features.shape[-1] if features.ndim else 0
        arrays = [finite_numbers(norm.get(k)) for k in ("min", "scale")] if isinstance(norm, dict) else [None]
        if not all(a is not None and a.shape == (width,) for a in arrays):
            raise DataError(f"{path}: normalization must be null or hold {width} finite min and scale values each")


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset; raises DataError unless the
    file is an npz archive holding every member and meta key, and the meta
    values have the types and sizes save_dataset writes."""
    try:
        # np.load leaks the handle of a path whose archive is corrupt
        with open(path, "rb") as f:
            z = np.load(f)
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
    _check_meta(path, meta, members["features"])
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
    labels = np.array(labels, dtype=np.int64)
    label_map = {str(c): c for c in range(centers.shape[0])}
    return _unsplit(np.vstack(feats), labels, label_map, {"format": "synthetic", "generator": "blobs"})


def make_moons(n, noise, rng: np.random.Generator) -> Dataset:
    """Two interleaved half-circles, the classic nonlinear 2-D benchmark."""
    half = n // 2
    t = rng.random(half) * np.pi
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    t2 = rng.random(n - half) * np.pi
    lower = np.stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)], axis=1)
    features = np.vstack([upper, lower]) + rng.normal(0.0, noise, size=(n, 2))
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    return _unsplit(features, labels, {"0": 0, "1": 1}, {"format": "synthetic", "generator": "moons"})


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
    provenance = {"format": "synthetic", "generator": "embedded_clusters", "latent_dim": latent_dim}
    return _unsplit(features, labels, {str(c): c for c in range(n_classes)}, provenance)
