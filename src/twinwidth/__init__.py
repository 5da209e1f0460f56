"""Twin-width, interval-like representation matrices, and their obstructions."""

from .graphs import (
    ContractionStep,
    Graph,
    find_twins,
    graph_from_text,
    graph_to_text,
    inverse_permutation,
    is_isomorphic,
    permutation_graph,
    sequence_width,
)
from .ilrep import (
    ChordDiagram,
    IlMatrix,
    IntervalLikeRep,
    build_ilmatrix,
    condense,
    decode,
    decode_from_matrix,
    rep_from_chords,
    rep_from_intervals,
    unify,
)
from .trimatrix import (
    RED,
    Division,
    MixedMinorWitness,
    TriMatrix,
    adjacency_matrix,
    find_mixed_minor,
    matrix_twinwidth_exact,
    permutation_matrix,
    red_number,
)
from .solver import (
    SolveResult,
    ordering_without_mixed_minor,
    twinwidth_exact,
    twinwidth_greedy,
    verify_sequence,
)
from .obstruction import (
    CirclePermWitness,
    ExposureWitness,
    PermSubmatrixWitness,
    check_exposes,
    circle_permutation_witness,
    extract_perm_submatrix,
    find_exposed_permutations,
    generate_exposer,
    interval_exposure_witness,
    planted_mixed_minor_rep,
)
from .perturb import (
    HomogeneousSet,
    LexPowerOrders,
    apply_perturbation,
    build_circle_gadget,
    build_interval_gadget,
    double_with_complement,
    find_homogeneous_set,
    verify_robustness_circle,
    verify_robustness_interval,
)
from .fologic import (
    Structure,
    evaluate,
    modelcheck_direct,
    modelcheck_pipeline,
    parse_formula,
    rewrite,
    transduce_permutation,
)

__version__ = "0.1.0"
