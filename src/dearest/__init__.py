"""dearest: decentralized nonconvex finite-sum optimization simulator.

Implements a single-loop decentralized stochastic optimizer combining a
probabilistic recursive gradient estimator (full refresh with probability p,
mini-batch correction otherwise), gradient tracking, and Chebyshev-
accelerated multi-consensus over configurable gossip topologies, with full
telemetry of the estimation, consensus, and Lyapunov diagnostics plus exact
oracle/communication cost counters.
"""

from .datasets import Partition, SampleSet, parse_libsvm, partition, shard_matrices, write_libsvm
from .metrics import TelemetryRecord, consensus_error
from .mixing import chebyshev_momentum, fastmix
from .objectives import (
    FiniteSumObjective,
    LogisticNCObjective,
    QuadraticObjective,
    make_quadratic,
    make_synthetic_logistic,
)
from .optimizer import (
    AggregateState,
    DivergenceError,
    IterateHistory,
    RunConfig,
    RunResult,
    derive_config,
    estimator_update,
    init,
    run,
    step,
    theorem_config,
)
from .topology import (
    GossipMatrix,
    Graph,
    build_complete,
    build_random,
    build_ring,
    gossip_from_laplacian,
    gossip_from_matrix,
    laplacian,
    read_graph_file,
    spectral_gap,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateState",
    "DivergenceError",
    "FiniteSumObjective",
    "GossipMatrix",
    "Graph",
    "IterateHistory",
    "LogisticNCObjective",
    "Partition",
    "QuadraticObjective",
    "RunConfig",
    "RunResult",
    "SampleSet",
    "TelemetryRecord",
    "build_complete",
    "build_random",
    "build_ring",
    "chebyshev_momentum",
    "consensus_error",
    "derive_config",
    "estimator_update",
    "fastmix",
    "gossip_from_laplacian",
    "gossip_from_matrix",
    "init",
    "laplacian",
    "make_quadratic",
    "make_synthetic_logistic",
    "parse_libsvm",
    "partition",
    "read_graph_file",
    "run",
    "shard_matrices",
    "spectral_gap",
    "step",
    "theorem_config",
    "write_libsvm",
]
