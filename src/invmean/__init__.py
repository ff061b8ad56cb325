"""invmean: mean-type mappings, incidence-graph ergodicity, invariant means.

Build a tuple of means and an index vector into a self-map of I^p whose
coordinates are means of selected arguments, classify its incidence
graph (irreducible / aperiodic / ergodic), certify uniform oscillation
decay, and compute the unique invariant mean as the limit of iterates.
See the module docstrings for the math conventions and `invmean.cli`
for the command-line surface.
"""

from .averaging import (
    CERTIFIED,
    CONTRACTIVE_SAMPLED,
    FALSIFIED,
    UNKNOWN,
    AveragingMapping,
    ComposedMapping,
    ContractivityCertificate,
    IndexVector,
    certify_uniform_weak_contractivity,
    contractivity_samples,
    falsify_contractivity,
    is_constant_vector,
    oscillation,
)
from .digraph import (
    Digraph,
    GraphClassification,
    TgReport,
    TriStateColoring,
    build_incidence_graph,
    in_neighbors,
    is_ergodic,
    is_irreducible,
    period,
    tg_stabilize,
    tg_step,
    uniform_walk_length,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    InvMeanError,
    PreconditionError,
    ShapeError,
    SpecError,
    ValidationError,
)
from .invariant import (
    CheckReport,
    ConvergenceReport,
    ResidueLimit,
    SolveReport,
    SubsequenceLimits,
    Witness,
    check_bracket_dichotomy,
    check_oscillation_monotonicity,
    invariant_mean_eval,
    limit_mapping_eval,
    solve_invariant_equation,
    subsequence_limits,
    verify_invariance,
    verify_mean_properties,
)
from .means import (
    POSITIVE_REALS,
    Interval,
    Mean,
    MeanFlags,
    MeanPropertyReport,
    MeanPropertyViolation,
    PowerMeanSpec,
    check_mean_property,
    make_power_mean,
    power_mean_eval,
    validate_mean,
)
from .specfile import (
    FIXTURES,
    MappingSpec,
    fixture_path,
    load_mapping_spec,
    mapping_spec_from_dict,
    serialize_spec,
)

from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
