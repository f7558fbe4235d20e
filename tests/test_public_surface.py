import inspect

import green3

# the declared public surface: a name leaves or joins it only on purpose
PUBLIC = [
    "AccuracyRegionError", "AnsatzResonanceError", "ArgumentRangeError", "BracketingError",
    "CheckResult", "ConfigurationError", "EvaluationError", "InterfaceCurve", "IntervalField",
    "QuadratureGrid", "ResidualReport", "SingularityError", "SpectralPoint", "SpectralPoleError",
    "TransmissionField", "__version__", "abstract_identity_suite", "as_spectral_point",
    "check_row", "coupled_eigenvalues", "curve_from_spec", "dirichlet_trace",
    "disk_mode_multipliers", "eigenvalue_indicator", "fundamental_solution", "herglotz_residuals",
    "jump_brackets", "jump_relation_residuals", "krein_formula_check", "make_curve",
    "mixed_formula_check",
    "neumann_trace", "probe_ring", "rellich_quotient", "scalar_weyl", "third_green_identity_1d",
    "third_green_identity_residual", "transmission_point_sources",
]


def test_public_surface_is_pinned_and_resolves():
    assert sorted(green3.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(green3, name)


def test_no_public_function_takes_both_a_curve_and_a_grid():
    # the grid owns its curve (grid.curve): a second argument could disagree with it
    for name in green3.__all__:
        obj = getattr(green3, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            assert not {"curve", "grid"} <= set(params), name
