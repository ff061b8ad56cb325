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
    CONTRACTIVE,
    FALSIFIED,
    UNKNOWN,
    ComposedMapping,
    ContractivityCertificate,
    IndexVector,
    falsify_contractivity,
    oscillation,
)
from .digraph import (
    Digraph,
    GraphClassification,
    TgReport,
    TriStateColoring,
    build_incidence_graph,
    is_ergodic,
    tg_stabilize,
    tg_step,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    InvMeanError,
    PreconditionError,
    ShapeError,
    SpecError,
    ValidationError,
)
from .invariant import (
    ConvergenceReport,
    check_bracket_dichotomy,
    check_oscillation_monotonicity,
    invariant_mean_eval,
    solve_invariant_equation,
    verify_invariance,
    verify_mean_properties,
)
from .means import (
    POSITIVE_REALS,
    CheckReport,
    Interval,
    Mean,
    MeanFlags,
    PowerMeanSpec,
    Witness,
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
)

from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
