"""Eigenvalue counting in spectral gaps of selfadjoint operators on
finite-dimensional indefinite inner-product (Pontryagin) spaces.

The central quantity is ``eig(A, Delta)``: the number of eigenvalues,
with algebraic multiplicities, that a J-selfadjoint matrix has in an
open real interval.  For two operators whose difference has rank n on
a space with kappa negative squares, the counts over any interval
differ by at most ``n + 2 kappa``, and the interval signatures by at
most ``n``; :func:`verify_main_theorem` evaluates both bounds and
:func:`proof_witness` rebuilds the subspaces that force them.
"""

from . import errors
from .gapform import (
    GapCase,
    GapDecomposition,
    GapForm,
    GapLocation,
    build_gap_form,
    decompose_resolvent_gap,
    decompose_spectrum_inside,
    hilbert_gap_check,
)
from .gen import (
    Fixture,
    GenConfig,
    builtin_fixtures,
    random_operator,
    random_pair,
    random_real_spectrum_operator,
    random_space,
)
from .indefinite import (
    IndefiniteSpace,
    Inertia,
    Subspace,
    intersect_subspaces,
    oblique_projection,
    subspace_inertia,
    sum_subspaces,
    validate_space,
)
from .instancefile import InstanceRecord, dumps_instance, parse_instance
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import (
    OperatorPair,
    make_pair,
    resolvent_difference_rank,
    sample_admissible_points,
)
from .spectral import (
    Eigenvalue,
    Interval,
    JSelfadjointOperator,
    Spectrum,
    complement_subspace,
    gap_subspace,
    restrict_operator,
    spectrum,
    validate_operator,
)
from .theorem import (
    GapReport,
    WitnessReport,
    choose_delta_prime,
    proof_witness,
    verify_main_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "Tolerance",
    "DEFAULT_TOL",
    "Inertia",
    "IndefiniteSpace",
    "Subspace",
    "validate_space",
    "subspace_inertia",
    "sum_subspaces",
    "intersect_subspaces",
    "oblique_projection",
    "Interval",
    "Eigenvalue",
    "Spectrum",
    "JSelfadjointOperator",
    "validate_operator",
    "spectrum",
    "gap_subspace",
    "complement_subspace",
    "restrict_operator",
    "GapForm",
    "GapCase",
    "GapDecomposition",
    "GapLocation",
    "build_gap_form",
    "decompose_resolvent_gap",
    "decompose_spectrum_inside",
    "hilbert_gap_check",
    "OperatorPair",
    "make_pair",
    "resolvent_difference_rank",
    "sample_admissible_points",
    "GapReport",
    "WitnessReport",
    "verify_main_theorem",
    "choose_delta_prime",
    "proof_witness",
    "GenConfig",
    "Fixture",
    "random_space",
    "random_operator",
    "random_pair",
    "random_real_spectrum_operator",
    "builtin_fixtures",
    "InstanceRecord",
    "parse_instance",
    "dumps_instance",
]
