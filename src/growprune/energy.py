"""Inference-energy estimate from operation counts.

One multiply-accumulate per active connection, two SRAM accesses per MAC, and
one comparison per ReLU evaluation, priced with 130 nm CMOS constants. For a
dense layered network this is exactly the M*N*K matrix-product counting rule
with M = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network

PJ = 1e-12
FJ = 1e-15


@dataclass
class EnergyCostModel:
    e_mac: float = 11.8 * PJ
    e_sram: float = 34.6 * PJ
    e_cmp: float = 6.16 * FJ

    def __post_init__(self):
        if min(self.e_mac, self.e_sram, self.e_cmp) < 0:
            raise ValueError("energy constants must be >= 0")


DEFAULT_COST_MODEL = EnergyCostModel()


@dataclass
class OpCounts:
    macs: int = 0
    sram_accesses: int = 0
    comparisons: int = 0

    def __post_init__(self):
        if min(self.macs, self.sram_accesses, self.comparisons) < 0:
            raise ValueError("operation counts must be >= 0")


def count_ops(net: Network) -> OpCounts:
    """Operation counts for one single-sample inference.

    Each active connection is one MAC and two SRAM accesses; each hidden
    neuron whose value is consumed downstream costs one ReLU comparison.
    """
    macs = int(np.count_nonzero(net.mask))
    consumed = (net.mask != 0).any(axis=1)
    comparisons = int(np.count_nonzero(consumed[net.n_in : net.hidden_end]))
    return OpCounts(macs=macs, sram_accesses=2 * macs, comparisons=comparisons)


def count_reducer_ops(d: int, k: int) -> OpCounts:
    """Cost of applying a d -> k linear projection to one sample."""
    return OpCounts(macs=d * k, sram_accesses=2 * d * k, comparisons=0)


def estimate_energy(counts: OpCounts, model: EnergyCostModel = DEFAULT_COST_MODEL) -> float:
    """Energy in joules for the counted operations."""
    return (
        counts.macs * model.e_mac
        + counts.sram_accesses * model.e_sram
        + counts.comparisons * model.e_cmp
    )


def network_energy(net: Network, model: EnergyCostModel = DEFAULT_COST_MODEL) -> float:
    return estimate_energy(count_ops(net), model)
