"""Continuous-variable cluster-state engineering toolkit.

Compiles cluster graphs into passive linear-optics networks, simulates
finite-squeezing Gaussian states with loss through them, and certifies
multipartite inseparability via variance-sum criteria.
"""

__version__ = "0.1.0"

from .graphs import Graph, Nullifier, adjacency, linear_chain, nullifiers, two_diamond
from .network import (
    NetworkElement,
    assemble_unitary,
    beamsplitter,
    chain8_element_sequence,
    chain8_transmissions,
    compile_cluster_unitary,
    compose_sequence,
    diamond_from_linear,
    element_matrix,
    fourier,
    gram_factor_sequential,
    input_basis_convert,
    inverse_fourier,
    inverse_gram,
    pi_rotation,
)
from .gaussian import (
    GaussianState,
    LossModel,
    SqueezePattern,
    apply_loss,
    combination_vector,
    evolve,
    excess_noise_decomposition,
    input_covariance,
    qnl_variance,
    quadrature_variance,
    squeezing_terms,
    symplectic_from_unitary,
    vacuum_state,
    variance_db,
)
from .criteria import (
    Criterion,
    evaluate,
    full_inseparability_report,
    graph_criteria,
    gram_block,
    lhs_curve,
    optimal_gains_numeric,
    threshold_r,
    unit_gains,
    vlf_bound,
)
from .sampling import (
    SampleBatch,
    estimate_variance,
    estimate_variances,
    sample_quadratures,
)
from .presets import (
    cluster_state,
    nullifier_vectors,
)
from .config import ExperimentConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
