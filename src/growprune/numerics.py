"""The seedable random source used by every run."""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Seedable random source; identical seed gives an identical stream.

    PCG64 is pinned explicitly so the stream does not depend on numpy's
    default_rng choice.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))
