"""invmean: mean-type mappings, incidence-graph ergodicity, invariant means.

Build a tuple of means and an index vector into a self-map of I^p whose
coordinates are means of selected arguments, classify its incidence
graph (irreducible / aperiodic / ergodic), certify uniform oscillation
decay, and compute the unique invariant mean as the limit of iterates.
See the module docstrings for the math conventions and `invmean.cli`
for the command-line surface.

The package exports what each module lists in its `__all__`, and
nothing else besides `__version__`.
"""

from . import averaging, digraph, errors, invariant, means, specfile
from .averaging import *
from .digraph import *
from .errors import *
from .invariant import *
from .means import *
from .specfile import *

__version__ = "0.1.0"

__all__ = [
    *averaging.__all__, *digraph.__all__, *errors.__all__,
    *invariant.__all__, *means.__all__, *specfile.__all__,
]
