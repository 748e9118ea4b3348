import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from growprune.network import Network, legal_pair_mask

ACCEPTANCE_LINES: list[str] = []

# reproducible property tests, with no per-example deadline on a loaded host
settings.register_profile("growprune", derandomize=True, deadline=None)
settings.load_profile("growprune")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


def random_dag(rng, n_in=None, n_hidden=None, n_out=None, density=0.4, weight_scale=0.7):
    """Random legal DAG network with Gaussian weights on active connections."""
    n_in = n_in or int(rng.integers(2, 5))
    n_hidden = n_hidden if n_hidden is not None else int(rng.integers(3, 12))
    n_out = n_out or int(rng.integers(2, 4))
    net = Network(n_in, n_hidden, n_out)
    n = net.n
    net.mask = legal_pair_mask(net) & (rng.random((n, n)) < density)
    net.weights = net.mask * rng.normal(0.0, weight_scale, size=(n, n))
    net.bias = rng.normal(0.0, 0.3, size=n_hidden + n_out)
    return net
