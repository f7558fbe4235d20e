import json
import math

import numpy as np
import pytest

import oracles
from green3.coupling import (
    TransmissionField,
    eigenvalue_indicator,
    _ModeScalars,
    jump_brackets,
    probe_ring,
    rellich_quotient,
    third_green_identity_residual,
    transmission_point_sources,
)
from green3.errors import ArgumentRangeError, ConfigurationError, SpectralPoleError
from green3.geometry import make_curve
from green3.specfun import as_spectral_point, fundamental_solution


@pytest.fixture(scope="module")
def disk256():
    return make_curve("disk", 256)


# --------------------------------------------------- per-mode resolvent algebra


@pytest.mark.parametrize("z, m", [(-1.0, 0), (2j, 3), (1 + 1j, 7), (-0.5 + 0.8j, 16)])
def test_krein_formula_per_mode(z, m):
    assert _ModeScalars(z, m, 1.0).krein() <= 1e-10


@pytest.mark.parametrize("z, m", [(-1.0, 0), (1 + 1j, 1), (2j, 5), (-2.0, 12)])
def test_mixed_formula_per_mode(z, m):
    assert _ModeScalars(z, m, 1.0).mixed() <= 1e-10


@pytest.mark.parametrize("m", [0, 2, 9])
def test_dirichlet_neumann_resolvent_difference(m):
    assert _ModeScalars(2j, m, 1.0).difference() <= 1e-10


def test_mode_formulas_reject_spectrum():
    # z on [c, ∞) is exactly where the resolvent set ends
    with pytest.raises(SpectralPoleError):
        _ModeScalars(1.0 + oracles.J0_ZERO_1_SQ, 0, 1.0).krein()
    with pytest.raises(SpectralPoleError):
        _ModeScalars(3.0, 1, 1.0).mixed()


def test_mode_formulas_reject_negative_shift():
    with pytest.raises(ConfigurationError):
        _ModeScalars(-1.0, 0, -0.5).krein()


@pytest.mark.parametrize("formula", ["krein", "mixed", "difference"])
def test_mode_formulas_stop_where_the_bessel_factors_leave_the_double_range(formula):
    # at z − c = −2, K_m(κ)/I_m(κ) overflows and I_m(κ)/K_m(κ) is subnormal from m = 92
    assert getattr(_ModeScalars(-1.0, 91, 1.0), formula)() <= 1e-10
    with pytest.raises(ArgumentRangeError, match="mode 92 leaves the double-precision range"):
        getattr(_ModeScalars(-1.0, 92, 1.0), formula)()


@pytest.mark.parametrize("argv, mode", [
    (["--z", "-1,0", "--modes", "100"], 92),  # used to give NaN rows and exit 1
    (["--z", "-1,0", "--modes", "400"], 92),  # used to report a Dirichlet pole of mode 158
    (["--z", "0.2,0.5", "--c", "0", "--modes", "81"], 81),
])
def test_krein_modes_beyond_the_double_range_are_usage_errors(argv, mode):
    code, stdout, stderr = _cli(["krein", *argv, "--omit-timing"])
    assert code == 2 and stdout == ""
    assert f"mode {mode} leaves the double-precision range" in stderr
    assert "1.8e+308" in stderr and "pole" not in stderr
    code, stdout, _ = _cli(["krein", *argv[:-1], str(mode - 1), "--omit-timing"])
    assert code == 0 and json.loads(stdout)["all_pass"]


def test_krein_at_the_bottom_of_the_spectrum_is_a_usage_error():
    # z − c = 0 used to be reported as I_m(0) leaving the double range
    code, stdout, stderr = _cli(["krein", "--mode", "3", "--c", "2", "--z", "2,0"])
    assert (code, stdout) == (2, "")
    assert stderr == "green3: z - c = 0 lies on [0, ∞), the spectrum of −Δ + c\n"


# ----------------------------------------------------------- eigenvalue criterion


def test_indicator_matches_mode0_closed_form(disk256):
    # discrete M₊+M₋ = −S⁻¹ on the disk, so σ_min = 1/s_0
    curve, grid = disk256
    value = eigenvalue_indicator(-1.0, curve, grid)
    assert abs(value - 1.0 / oracles.DISK_MODES_ZM1[0][0]) <= 1e-10
    assert value >= 0.5


def test_indicator_stable_in_discretization():
    values = []
    for n in (64, 128, 256):
        curve, grid = make_curve("disk", n)
        values.append(eigenvalue_indicator(2j, curve, grid))
    assert min(values) >= 0.5
    assert max(values) - min(values) <= 1e-8


def test_indicator_with_shift(disk256):
    curve, grid = disk256
    shifted = eigenvalue_indicator(-1.0, curve, grid, c=1.0)
    plain = eigenvalue_indicator(-2.0, curve, grid)
    assert abs(shifted - plain) <= 1e-12


@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize("z", [-1.0, -1.0 + 0.5j])
def test_indicator_is_sigma_min_of_the_weyl_pencil(z, c):
    # the indicator takes 1/σ_max(S) for σ_min(M₊+M₋) and the Weyl action solves
    # with S in place of inverting it; both must agree with the plain formulas
    from green3.potentials import _LayerOperators

    curve, grid = make_curve("kite", 128)
    ops = _LayerOperators(grid, z - c)
    s_mat, ks_mat = ops.single_layer, ops.adjoint_double_layer
    half = 0.5 * np.eye(grid.n)
    pencil = 0
    for side, trace in (("interior", half - ks_mat), ("exterior", half + ks_mat)):
        weyl = ops.weyl_action(side, np.eye(grid.n))[0]
        reference = -trace @ np.linalg.inv(s_mat)
        assert np.abs(weyl - reference).max() <= 1e-12 * np.abs(reference).max()
        pencil = pencil + weyl
    smin = np.linalg.svd(pencil, compute_uv=False)[-1]
    assert abs(eigenvalue_indicator(z, curve, grid, c=c) - smin) <= 1e-12 * smin


def test_coupling_pencil_solves_flux_data(disk256):
    # (M₊+M₋)ψ = Γ₁-trace data is solvable with a well-bounded ψ: the range
    # condition behind the coupled resolvent is non-vacuous at matrix level
    from green3.geometry import neumann_trace
    from green3.potentials import _LayerOperators

    curve, grid = disk256
    field = transmission_point_sources(-1.0, (2.3, 0.9), (0.2, -0.1))
    data = neumann_trace(field.gradient_plus, curve, grid, "+")
    ops = _LayerOperators(grid, -1.0)
    pencil = sum(ops.weyl_action(side, np.eye(grid.n))[0] for side in ("interior", "exterior"))
    psi = np.linalg.solve(pencil, data)
    scale = np.linalg.norm(data)
    assert scale > 1e-3  # genuinely nonzero flux data
    assert np.linalg.norm(pencil @ psi - data) <= 1e-10 * scale
    assert np.linalg.norm(psi) <= 10.0 * scale


# ------------------------------------------------------------------ Rellich check


@pytest.mark.parametrize("k, ref", [(1, oracles.J0_ZERO_1_SQ), (2, oracles.J0_ZERO_2_SQ)])
def test_rellich_quotient(k, ref):
    computed, reference = rellich_quotient(k)
    assert abs(reference - ref) <= 1e-10 * ref
    assert abs(computed - reference) <= 1e-10 * reference


# ------------------------------------------------------------------ jump brackets


def test_brackets_vanish_for_global_field(disk256):
    curve, grid = disk256
    tf = transmission_point_sources(-1.0, (3.5, -1.2), (3.5, -1.2))
    jumps = jump_brackets(tf, curve, grid)
    assert np.abs(jumps.bracket0).max() <= 1e-10
    assert np.abs(jumps.bracket1).max() <= 1e-10


def test_brackets_of_constant_one_side(disk256):
    curve, grid = disk256
    one = TransmissionField(
        plus=lambda p: np.ones(len(np.atleast_2d(p))),
        minus=lambda p: np.zeros(len(np.atleast_2d(p))),
        gradient_plus=lambda p: np.zeros_like(np.atleast_2d(p)),
        gradient_minus=lambda p: np.zeros_like(np.atleast_2d(p)),
    )
    jumps = jump_brackets(one, curve, grid)
    assert np.array_equal(jumps.bracket0, np.ones(grid.n))
    assert np.abs(jumps.bracket1).max() == 0.0


def test_brackets_single_sided_kernel_samples(disk256):
    curve, grid = disk256
    z = as_spectral_point(-1.0)
    source = np.array([1.7, 0.9])
    tf = transmission_point_sources(z, source, (0.0, 0.0))
    zero = TransmissionField(
        plus=tf.plus,
        minus=lambda p: np.zeros(len(np.atleast_2d(p))),
        gradient_plus=tf.gradient_plus,
        gradient_minus=lambda p: np.zeros_like(np.atleast_2d(p)),
    )
    jumps = jump_brackets(zero, curve, grid)
    expected = fundamental_solution(2, z, np.linalg.norm(grid.points - source, axis=1))
    assert np.abs(jumps.bracket0 - expected).max() <= 1e-14


# ------------------------------------------------------------ third Green identity

BUMP_R0 = 0.55
BUMP_CENTER = np.array([0.1, 0.05])
BUMP_POWER = 4


def _bump(pts):
    pts = np.atleast_2d(pts)
    u = np.sum((pts - BUMP_CENTER) ** 2, axis=1) / BUMP_R0**2
    return np.where(u < 1.0, (1.0 - np.minimum(u, 1.0)) ** BUMP_POWER, 0.0)


def _bump_gradient(pts):
    pts = np.atleast_2d(pts)
    d = pts - BUMP_CENTER
    u = np.sum(d**2, axis=1) / BUMP_R0**2
    fac = np.where(u < 1.0, -BUMP_POWER * (1.0 - np.minimum(u, 1.0)) ** (BUMP_POWER - 1), 0.0)
    return (fac * 2.0 / BUMP_R0**2)[:, None] * d


def _bump_source(z):
    # (−Δ − z)(1−u)^p with u = |x−x₀|²/R₀²: Δf = (4/R₀²)[p(p−1)u(1−u)^{p−2} − p(1−u)^{p−1}]
    p = BUMP_POWER

    def source(pts):
        pts = np.atleast_2d(pts)
        u = np.sum((pts - BUMP_CENTER) ** 2, axis=1) / BUMP_R0**2
        um = np.minimum(u, 1.0)
        lap = (4.0 * p / BUMP_R0**2) * ((p - 1) * um * (1.0 - um) ** (p - 2) - (1.0 - um) ** (p - 1))
        vals = -lap - complex(z) * (1.0 - um) ** p
        return np.where(u < 1.0, vals, 0.0).astype(complex)

    return source


def _zero_field(pts):
    return np.zeros(len(np.atleast_2d(pts)))


def _zero_gradient(pts):
    return np.zeros_like(np.atleast_2d(pts))


def test_third_green_homogeneous(disk256):
    curve, grid = disk256
    tf = transmission_point_sources(-1.0, (2.5, 0.7), (0.2, -0.3))
    report = third_green_identity_residual(
        tf, -1.0, curve, grid, (probe_ring(0.875, 20), probe_ring(1.125, 20))
    )
    assert report.all_pass
    assert report.max_residual <= 1e-7
    assert {r.check for r in report.checks} == {"green.third.interior", "green.third.exterior"}


def test_third_green_refines_spectrally(disk256):
    curve, grid = disk256
    tf = transmission_point_sources(-1.0, (2.5, 0.7), (0.2, -0.3))
    probes = (probe_ring(0.875, 20), probe_ring(1.125, 20))
    coarse_curve, coarse_grid = make_curve("disk", 64)
    coarse = third_green_identity_residual(
        tf, -1.0, coarse_curve, coarse_grid, probes, enforce_accuracy_region=False
    ).max_residual
    fine = third_green_identity_residual(tf, -1.0, curve, grid, probes).max_residual
    assert coarse / fine >= 1e3


def test_third_green_with_volume_source(disk256):
    curve, grid = disk256
    z = -1.0
    tf = TransmissionField(
        plus=_bump, minus=_zero_field,
        gradient_plus=_bump_gradient, gradient_minus=_zero_gradient,
        source_plus=_bump_source(z),
    )
    report = third_green_identity_residual(
        tf, z, curve, grid, (probe_ring(0.875, 20), probe_ring(1.125, 20))
    )
    assert report.all_pass
    assert report.max_residual <= 1e-5


def test_third_green_zero_field(disk256):
    curve, grid = disk256
    tf = TransmissionField(plus=_zero_field, minus=_zero_field,
                           gradient_plus=_zero_gradient, gradient_minus=_zero_gradient)
    report = third_green_identity_residual(
        tf, 2j, curve, grid, (probe_ring(0.5, 8), probe_ring(1.5, 8))
    )
    assert report.max_residual == 0.0


def test_third_green_source_needs_disk():
    curve, grid = make_curve("kite", 64)
    tf = TransmissionField(plus=_bump, minus=_zero_field,
                           gradient_plus=_bump_gradient, gradient_minus=_zero_gradient,
                           source_plus=_bump_source(-1.0))
    with pytest.raises(ConfigurationError):
        third_green_identity_residual(tf, -1.0, curve, grid, (None, None))


def test_third_green_rejects_exterior_source(disk256):
    curve, grid = disk256
    tf = TransmissionField(plus=_zero_field, minus=_zero_field,
                           gradient_plus=_zero_gradient, gradient_minus=_zero_gradient,
                           source_minus=_bump_source(-1.0))
    with pytest.raises(ConfigurationError):
        third_green_identity_residual(tf, -1.0, curve, grid, (None, None))


@pytest.mark.parametrize("formula", ["krein", "mixed", "difference"])
def test_mode_formulas_propagate_nan(monkeypatch, formula):
    # Python's max(worst, nan) keeps worst, so one NaN sample used to vanish
    import green3.coupling as coupling

    init = coupling._ModeScalars.__init__

    def poisoned(self, *args):  # the free kernel at r = r′ = 2.5
        init(self, *args)
        self.free[-1, -1] = complex("nan")

    monkeypatch.setattr(coupling._ModeScalars, "__init__", poisoned)
    assert math.isnan(getattr(coupling._ModeScalars(2 + 1j, 1, 1.0), formula)())
    code, stdout, _ = _cli(["krein", "--z", "2,1", "--mode", "1"])
    assert code == 1
    assert not any(row["passed"] for row in json.loads(stdout)["checks"])


def _cli(argv):
    import contextlib
    import io

    from green3.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
