"""Dataset modification: [0, 1] normalization, random-projection and PCA
reducers, and proportional shrinking of a seed MLP by the feature
compression ratio d / k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset

REDUCER_KINDS = ("rp_gauss_scaled", "rp_gauss_unit", "rp_sign", "rp_achlioptas_sparse", "pca")


def normalize(dataset: Dataset) -> Dataset:
    """Per-feature min-max scaling fit on the training split only.

    Constant features map to 0. Values outside the training range pass
    through unclamped, so validation/test features may leave [0, 1].
    """
    x_train, _ = dataset.train_xy()
    if x_train.shape[0] == 0:
        raise ValueError("training split is empty")
    lo = x_train.min(axis=0)
    span = x_train.max(axis=0) - lo
    scale = np.where(span > 0, 1.0 / np.where(span > 0, span, 1.0), 0.0)
    return replace(
        dataset,
        features=(dataset.features - lo) * scale,
        provenance=dict(dataset.provenance),
        normalization={"min": lo.tolist(), "scale": scale.tolist()},
    )


def apply_normalization(params: dict, features: np.ndarray) -> np.ndarray:
    lo = np.asarray(params["min"], dtype=np.float64)
    scale = np.asarray(params["scale"], dtype=np.float64)
    # one new array, scaled in place; the caller's features stay untouched
    out = np.subtract(features, lo)
    out *= scale
    return out


@dataclass
class Reducer:
    """Fitted dimensionality reducer.

    Random projections keep their explicit d x k matrix; PCA keeps the
    training mean and the top-k orthonormal components (d x k).
    """

    kind: str
    d: int
    k: int
    matrix: np.ndarray | None = None
    mean: np.ndarray | None = None
    components: np.ndarray | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "k": self.k,
            "seed": self.seed,
            "matrix": None if self.matrix is None else self.matrix.tolist(),
            "mean": None if self.mean is None else self.mean.tolist(),
            "components": None if self.components is None else self.components.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Reducer":
        return cls(
            kind=d["kind"],
            d=d["d"],
            k=d["k"],
            seed=d.get("seed"),
            matrix=None if d.get("matrix") is None else np.asarray(d["matrix"]),
            mean=None if d.get("mean") is None else np.asarray(d["mean"]),
            components=None if d.get("components") is None else np.asarray(d["components"]),
        )


def _pca_fit(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    centered = x - mean
    denom = max(1, x.shape[0] - 1)
    cov = centered.T @ centered / denom
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    comps = eigvecs[:, order]
    # deterministic sign: the largest-magnitude entry of each component is positive
    for c in range(comps.shape[1]):
        col = comps[:, c]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            comps[:, c] = -col
    return mean, comps


def fit_reducer(kind: str, train_features: np.ndarray, k: int, rng: np.random.Generator) -> Reducer:
    """Sample a random projection or fit PCA on the training features."""
    if kind not in REDUCER_KINDS:
        raise ValueError(f"unknown reducer kind: {kind}")
    x = np.asarray(train_features, dtype=np.float64)
    d = x.shape[1]
    if not (1 <= k < d):
        raise ValueError(f"need 1 <= k < d, got k={k}, d={d}")
    if kind == "pca":
        mean, comps = _pca_fit(x, k)
        return Reducer(kind=kind, d=d, k=k, mean=mean, components=comps)
    if kind == "rp_gauss_scaled":
        phi = rng.normal(0.0, 1.0 / math.sqrt(k), size=(d, k))
    elif kind == "rp_gauss_unit":
        phi = rng.normal(0.0, 1.0, size=(d, k))
    elif kind == "rp_sign":
        phi = rng.choice(np.array([-1.0, 1.0]), size=(d, k))
    else:  # rp_achlioptas_sparse
        u = rng.random(size=(d, k))
        phi = np.where(u < 1 / 6, 1.0, np.where(u < 1 / 3, -1.0, 0.0)) * math.sqrt(3.0 / k)
    return Reducer(kind=kind, d=d, k=k, matrix=phi)


def transform(reducer: Reducer, features: np.ndarray) -> np.ndarray:
    """Project features into the reduced space: X @ phi, or centered PCA scores."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != reducer.d:
        raise ValueError(f"feature width mismatch: expected {reducer.d}, got {x.shape}")
    if reducer.kind == "pca":
        return (x - reducer.mean) @ reducer.components
    return x @ reducer.matrix


def reduce_dataset(reducer: Reducer, dataset: Dataset) -> Dataset:
    """Apply the reducer to every split of a dataset."""
    return replace(
        dataset,
        features=transform(reducer, dataset.features),
        provenance={**dataset.provenance, "reduced_by": reducer.kind, "k": reducer.k},
        normalization=None,
    )


def shrink_architecture(layer_sizes: list[int], ratio: float) -> list[int]:
    """Divide every layer except the output by the compression ratio.

    Half-up rounding, floored at 1; the output layer never changes. With
    ratio = d / k the input layer lands exactly on k.
    """
    r = float(ratio)
    if not r > 1.0:
        raise ValueError(f"compression ratio must exceed 1, got {r}")
    out = [max(1, int(math.floor(s / r + 0.5))) for s in layer_sizes[:-1]]
    return out + [layer_sizes[-1]]
