"""permrec: reconstruct permutations from transposition-corrupted patterns.

Metric machinery for Cayley graphs of the symmetric group under three
transposition families (all swaps, adjacent swaps, prefix swaps), exact
closed-form evaluators with brute-force verification, and a seeded noisy
channel plus reconstructor realizing the pattern-count threshold.
"""

from .cayley import (
    GeneratorSet,
    GraphReport,
    MetricBall,
    ball,
    ball_of_identity,
    build_graph_report,
    complete_bipartite_count,
    diameter,
    distance,
    girth_cycle_check,
    is_distance_regular,
    lambda_mu,
    local_params,
    max_ball_intersection,
    max_ball_intersection_at,
    overlap_of_identity,
    sphere,
)
from .channel import (
    ChannelSpec,
    ExperimentSummary,
    ReconstructionResult,
    ambiguity_witness,
    distort,
    generate_patterns,
    reconstruct,
    run_experiment,
)
from .errors import CacheError, CapacityError
from .perms import (
    CycleType,
    Perm,
    compose,
    conjugacy_class_size,
    cycle_type,
    cycle_types,
    enumerate_class,
    format_cycle_type,
    format_perm,
    identity,
    inverse,
    minimal_factorization_count,
    parse_cycle_type,
    parse_perm,
    rank,
    unrank,
)
from .smallgraphs import (
    SmallGraph,
    SmallGraphReport,
    complete_multipartite_graph,
    hamming_graph,
    johnson_graph,
    lattice_graph,
    parse_edge_list,
    small_graph_is_distance_regular,
    small_graph_report,
    triangular_graph,
)

__version__ = "0.1.0"
