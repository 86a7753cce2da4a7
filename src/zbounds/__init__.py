"""Exact, Bethe, and mean-field partition functions of discrete
graphical models, plus verification suites for the lower-bound
inequalities that relate them on well-structured model families."""

from .bethe import (
    BPState,
    bethe_gradient,
    bethe_objective,
    maximize_bethe,
    mean_field,
    run_bp,
)
from .covers import (
    CoverSpec,
    LiftedModel,
    bethe_estimate_via_covers,
    build_cover,
    cover_average_exhaustive,
    iter_cover_specs,
    sample_cover,
    validate_cover,
)
from .errors import (
    EnumerationCapError,
    ModelError,
    NumericRangeError,
    UnnormalizableError,
    ZboundsError,
)
from .homs import (
    HomModel,
    check_rank2_lsm,
    edge_partition,
    edge_weight,
    hom_partition,
    hom_to_factor_graph,
    s_count,
)
from .lattice import (
    check_correlation_inequality,
    is_log_supermodular,
    model_is_log_supermodular,
    sorted_stack,
    switch_bipartite,
)
from .matroid import (
    GaloisField,
    GFMatrix,
    check_rank_cover_inequality,
    gf,
    incidence_factor_graph,
    lift_matrix,
    matroid_potts_partition,
    matroid_rc_partition,
    parse_generator_matrix,
    rank,
    weight_enumerator,
)
from .models import (
    Assignment,
    Factor,
    FactorGraph,
    PotentialTable,
    PseudoMarginals,
    evaluate,
    exact_marginals,
    exact_partition,
)
from .potts import (
    PottsModel,
    build_counterexample,
    check_cover_component_inequality,
    count_components,
    potts_partition,
    potts_to_factor_graph,
    rc_partition,
    rc_weight,
)

__version__ = "0.1.0"
