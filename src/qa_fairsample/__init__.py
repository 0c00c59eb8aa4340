"""Fair-sampling analysis of minor-embedded Ising models under quantum annealing.

The package simulates linear-schedule transverse-field annealing on small
Ising instances by direct Schrödinger integration, predicts asymptotic
sampling probabilities with degenerate perturbation theory, and measures how
chain-based minor embeddings redistribute probability across degenerate
ground states.
"""

from .analysis import (
    FairnessPartition,
    GapReport,
    SweepRecord,
    default_partition,
    fairness_ratio,
    gap_ratio,
    inversion_classes,
    project_and_fold,
    sweep_chain_strength,
    sweep_tau,
    write_sweep_csv,
)
from .embed import (
    EmbeddedModel,
    Embedding,
    EmbeddingReport,
    apply_embedding,
    identity_embedding,
    lift_state,
    load_embedding,
    project_state,
    verify_embedding,
)
from .errors import (
    EmbeddingError,
    FairSamplingError,
    IntegrationAccuracyError,
    ModelTooLargeError,
    UndefinedRatioError,
)
from .evolve import (
    AnnealSchedule,
    EvolutionResult,
    accuracy_failure,
    default_steps,
    evolve,
    evolve_many,
    initial_state,
)
from .model import (
    GroundManifold,
    IsingModel,
    ProbabilityVector,
    SpinConfiguration,
    energy_table,
    enumerate_ground_states,
    load_model,
)
from .pt import (
    PerturbationSetup,
    PTResult,
    embedded_toy_reference_matrix,
    find_basis_permutation,
    first_order_matrix,
    perturbative_probabilities,
    second_order_matrix,
    validate_toy_model,
)

__version__ = "0.1.0"
