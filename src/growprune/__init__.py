"""growprune: synthesis of compact feed-forward networks by connection
growth, neuron growth, and magnitude pruning over a general DAG, with
optional dataset dimensionality reduction and inference-energy estimates.
"""

from .archops import (
    GrowthPolicy,
    NeuronGrowthPolicy,
    PrunePolicy,
    grow_connections,
    grow_neuron,
    prune_connections,
)
from .data import CsvSchema, DataError, Dataset, load_csv, load_dataset, load_idx, save_dataset, split
from .dimreduce import Reducer, fit_reducer, normalize, shrink_architecture, transform
from .energy import EnergyCostModel, OpCounts, count_ops, estimate_energy
from .network import (
    ForwardTrace,
    Network,
    UnreachableOutputError,
    accuracy,
    connection_count,
    depth,
    forward,
    from_mlp,
    load_checkpoint,
    loss_and_gradients,
    predict,
    prune_isolated_neurons,
    save_checkpoint,
)
from .numerics import make_rng
from .pipeline import (
    BaselineSearchConfig,
    PipelineConfig,
    bundle_predict,
    compress_per_layer,
    find_baseline,
    load_bundle,
    run_pipeline,
    save_bundle,
    synthesize_from_candidates,
)
from .schemes import (
    OptimizerConfig,
    SchemeConfig,
    SynthesisResult,
    TrainingDiverged,
    mnist_scheme_a_config,
    mnist_scheme_b_config,
    mnist_scheme_c_config,
    run_scheme,
    train_weights,
)

__version__ = "0.1.0"
