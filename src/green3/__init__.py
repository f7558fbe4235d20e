"""Boundary-triple coupling of planar Helmholtz half-problems.

Layer-potential calculus on smooth interface curves, interior/exterior Weyl
(Dirichlet-to-Neumann) maps, Krein-type resolvent formulas, and residual checks
for the transmission identities — plus a 1D two-interval model where everything
has a closed form.
"""

__version__ = "0.1.0"

from .coupling import (
    TransmissionField,
    eigenvalue_indicator,
    jump_brackets,
    probe_ring,
    rellich_quotient,
    third_green_identity_residual,
    transmission_point_sources,
)
from .errors import (
    AccuracyRegionError,
    AnsatzResonanceError,
    ArgumentRangeError,
    BracketingError,
    ConfigurationError,
    EvaluationError,
    SingularityError,
    SpectralPoleError,
)
from .geometry import (
    InterfaceCurve,
    QuadratureGrid,
    curve_from_spec,
    dirichlet_trace,
    make_curve,
    neumann_trace,
)
from .interval_model import (
    IntervalField,
    abstract_identity_suite,
    coupled_eigenvalues,
    krein_formula_check,
    mixed_formula_check,
    scalar_weyl,
    third_green_identity_1d,
)
from .potentials import (
    disk_mode_multipliers,
    eval_double_layer_field,
    eval_single_layer_field,
    jump_relation_residuals,
)
from .reports import CheckResult, ResidualReport, check_row
from .specfun import SpectralPoint, as_spectral_point, fundamental_solution
from .weyl import herglotz_residuals

__all__ = [
    "AccuracyRegionError",
    "AnsatzResonanceError",
    "ArgumentRangeError",
    "BracketingError",
    "CheckResult",
    "ConfigurationError",
    "EvaluationError",
    "IntervalField",
    "InterfaceCurve",
    "QuadratureGrid",
    "ResidualReport",
    "SingularityError",
    "SpectralPoint",
    "SpectralPoleError",
    "TransmissionField",
    "abstract_identity_suite",
    "as_spectral_point",
    "check_row",
    "coupled_eigenvalues",
    "curve_from_spec",
    "dirichlet_trace",
    "disk_mode_multipliers",
    "eigenvalue_indicator",
    "eval_double_layer_field",
    "eval_single_layer_field",
    "fundamental_solution",
    "herglotz_residuals",
    "jump_brackets",
    "jump_relation_residuals",
    "krein_formula_check",
    "make_curve",
    "mixed_formula_check",
    "neumann_trace",
    "probe_ring",
    "rellich_quotient",
    "scalar_weyl",
    "third_green_identity_1d",
    "third_green_identity_residual",
    "transmission_point_sources",
    "__version__",
]
