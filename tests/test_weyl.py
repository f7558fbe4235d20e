import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from green3.errors import AccuracyRegionError, AnsatzResonanceError, ConfigurationError
from green3.geometry import make_curve
from green3.potentials import _LayerOperators
from green3.weyl import (
    _mode_quotients,
    dtn_map,
    gamma_field,
    herglotz_residuals,
    mode_eigenvalue,
)


@pytest.fixture(scope="module")
def disk256():
    return make_curve("disk", 256)


@pytest.fixture(scope="module")
def disk128():
    return make_curve("disk", 128)


@pytest.fixture(scope="module")
def weyl_pair(disk256):
    curve, grid = disk256
    return (
        dtn_map("interior", curve, grid, -1.0),
        dtn_map("exterior", curve, grid, -1.0),
    )


# ------------------------------------------------------------------ Weyl maps


def test_weyl_symbols_match_bessel_table(weyl_pair):
    """Interior/exterior mode eigenvalues agree with the frozen ratio oracle."""
    mi, me = weyl_pair
    for m, (_, _, mu_plus, mu_minus) in oracles.DISK_MODES_ZM1.items():
        assert abs(mode_eigenvalue(mi, m) - mu_plus) <= 1e-12
        assert abs(mode_eigenvalue(me, m) - mu_minus) <= 1e-12


def test_weyl_mode0_frozen_values(weyl_pair):
    mi, me = weyl_pair
    assert abs(mode_eigenvalue(mi, 0) - oracles.NEG_I1_OVER_I0) <= 1e-12
    # exterior sign comes out negative: -K_1(1)/K_0(1)
    assert abs(mode_eigenvalue(me, 0) + oracles.K1_OVER_K0) <= 1e-12


def test_steklov_limit(disk256):
    # z → 0⁻ proxy: harmonic r^{|m|} gives M₊ ≈ −|m|
    curve, grid = disk256
    weyl = dtn_map("interior", curve, grid, -1e-6)
    for m in (1, 2, 3, 4):
        assert abs(mode_eigenvalue(weyl, m) + m) <= 1e-3


def test_exterior_steklov_mode0(disk256):
    curve, grid = disk256
    weyl = dtn_map("exterior", curve, grid, -1e-6)
    lam = mode_eigenvalue(weyl, 0)
    assert abs(lam - oracles.EXT_STEKLOV_MODE0_K1EM3) <= 1e-6


def test_symbols_saturate_at_coarse_grids():
    # trig-polynomial exactness of the scheme: already at machine floor by N=32
    for n in (32, 128):
        curve, grid = make_curve("disk", n)
        weyl = dtn_map("interior", curve, grid, -1.0)
        assert abs(mode_eigenvalue(weyl, 4) - oracles.DISK_MODES_ZM1[4][2]) <= 1e-12


def test_conjugate_point_gives_weighted_adjoint(disk256):
    curve, grid = disk256
    z = 1.0 + 2.0j
    m_z = dtn_map("interior", curve, grid, z).matrix
    m_zbar = dtn_map("interior", curve, grid, np.conj(z)).matrix
    w = grid.arc_weights
    adjoint = (w[:, None] * m_z).conj().T / w[:, None]
    assert np.abs(m_zbar - adjoint).max() <= 1e-8


def test_rotation_invariance(disk256):
    curve, grid = disk256
    mat = dtn_map("exterior", curve, grid, 1.0 + 2.0j).matrix
    shift = np.roll(np.eye(grid.n), 7, axis=0)
    assert np.abs(mat @ shift - shift @ mat).max() <= 1e-8


def test_side_aliases_and_validation(disk128):
    curve, grid = disk128
    assert np.array_equal(
        dtn_map("+", curve, grid, -1.0).matrix,
        dtn_map("interior", curve, grid, -1.0).matrix,
    )
    with pytest.raises(ConfigurationError):
        dtn_map("inside", curve, grid, -1.0)


def test_weyl_matrix_is_frozen(weyl_pair):
    mi, _ = weyl_pair
    with pytest.raises(ValueError):
        mi.matrix[0, 0] = 0.0


def test_apply_matches_matrix(weyl_pair):
    mi, _ = weyl_pair
    rng = np.random.default_rng(5)
    phi = rng.normal(size=mi.grid.n)
    assert np.allclose(mi.apply(phi), mi.matrix @ phi)


def _bundle_with(single_layer):
    """A layer bundle whose S is ``single_layer``, for its guards alone."""
    ops = _LayerOperators(make_curve("disk", 8)[1], -1.0)
    ops.single_layer = single_layer
    return ops


def test_resonance_guard():
    assert _bundle_with(np.diag([1.0, 1e-11])).single_layer_singular_values[0] == 1.0
    with pytest.raises(AnsatzResonanceError):
        _bundle_with(np.diag([1.0, 1e-13])).single_layer_singular_values


@pytest.mark.parametrize("n", [128, 512])
def test_lu_guard_catches_the_singular_disk_at_zero(n):
    # log capacity 1: S of the unit disk is singular at z = 0, rcond₁ ~ 1e-17
    curve, grid = make_curve("disk", n)
    with pytest.raises(AnsatzResonanceError, match="rcond"):
        dtn_map("interior", curve, grid, 0.0)
    with pytest.raises(AnsatzResonanceError, match="rcond"):
        gamma_field("exterior", curve, grid, 0.0, np.ones(grid.n))


@pytest.mark.parametrize("n", [128, 512])
def test_lu_guard_passes_the_kite_at_zero(n):
    # rcond₁ 2.6e-3 (N=128) and 6.4e-4 (N=512): far above the floor
    curve, grid = make_curve("kite", n)
    assert np.isfinite(dtn_map("interior", curve, grid, 0.0).matrix).all()


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((4, 4)), "pivot 1 of its LU is exactly zero"),
    (np.full((4, 4), np.nan), "rcond₁ = nan"),
])
def test_lu_guard_fails_closed(matrix, message):
    # an exactly zero pivot must raise, not warn; a NaN estimate must not pass
    ops = _bundle_with(matrix.astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnsatzResonanceError, match=message):
            ops.solve(np.eye(4))


# ------------------------------------------------------------------ γ-fields


def test_gamma_interior_point_value(disk256):
    curve, grid = disk256
    field = gamma_field("interior", curve, grid, -1.0, np.ones(grid.n))
    val = field(np.array([[0.5, 0.0]]))[0]
    assert abs(val - oracles.I0_RATIO_HALF) <= 1e-10


def test_gamma_interior_gradient(disk256):
    # d/dr I_0(r)/I_0(1) = I_1(r)/I_0(1); at (0.5, 0) the gradient is radial
    curve, grid = disk256
    field = gamma_field("interior", curve, grid, -1.0, np.ones(grid.n))
    grad = field.gradient(np.array([0.5, 0.0]))
    assert abs(grad[0] - oracles.I1_AT_HALF / oracles.I0_AT_1) <= 1e-10
    assert abs(grad[1]) <= 1e-12


def test_gamma_exterior_decay_profile(disk256):
    curve, grid = disk256
    field = gamma_field("exterior", curve, grid, -1.0, np.ones(grid.n))
    val = field(np.array([[2.0, 0.0]]))[0]
    assert abs(val - oracles.K0_AT_2 / oracles.K0_AT_1) <= 1e-10


def test_gamma_mode_profile(disk256):
    # φ = e^{i3θ} → I_3(r)/I_3(1) e^{i3θ}; check off-axis where the phase bites
    curve, grid = disk256
    field = gamma_field("interior", curve, grid, -1.0, np.exp(3j * grid.nodes))
    r, theta = 0.7, 1.1
    val = field(np.array([[r * np.cos(theta), r * np.sin(theta)]]))[0]
    ref = scipy.special.iv(3, r) / scipy.special.iv(3, 1.0) * np.exp(3j * theta)
    assert abs(val - ref) <= 1e-10


def test_gamma_zero_density(disk128):
    curve, grid = disk128
    field = gamma_field("interior", curve, grid, 2.0j, np.zeros(grid.n))
    assert np.abs(field(np.array([[0.3, 0.1], [0.0, -0.4]]))).max() == 0.0


def test_gamma_near_boundary_guard(disk128):
    curve, grid = disk128
    field = gamma_field("interior", curve, grid, -1.0, np.ones(grid.n))
    with pytest.raises(AccuracyRegionError):
        field(np.array([[0.9999, 0.0]]))
    with pytest.raises(AccuracyRegionError):
        field.gradient(np.array([0.9999, 0.0]))


# ------------------------------------------------------------- Herglotz suite


@pytest.mark.parametrize("z", [1j, 2j, -1 + 0.5j])
def test_herglotz_interior(disk128, z):
    curve, grid = disk128
    report = herglotz_residuals("interior", curve, grid, z, modes=12)
    rows = {row.check: row for row in report.checks}
    assert set(rows) == {"herglotz.psd", "herglotz.identity"}
    assert rows["herglotz.psd"].residual == 0.0
    assert rows["herglotz.identity"].residual <= 1e-6
    assert report.all_pass


def test_herglotz_real_point_degenerates(disk128):
    # z = z̄ collapses the identity to self-adjointness
    curve, grid = disk128
    report = herglotz_residuals("interior", curve, grid, -1.0)
    (row,) = report.checks
    assert row.check == "herglotz.self_adjoint"
    assert row.residual <= 1e-8


def test_herglotz_self_adjoint_on_kite():
    # non-symmetric curve: the skew part is pure discretization error, ~N⁻³;
    # the 1e-8 floor of the disk row is trig-exactness, not a generic promise
    residuals = []
    for n in (128, 256):
        curve, grid = make_curve("kite", n)
        report = herglotz_residuals("interior", curve, grid, -2.0)
        (row,) = report.checks
        assert row.check == "herglotz.self_adjoint"
        residuals.append(row.residual)
    assert residuals[1] <= 2e-5
    assert residuals[1] < residuals[0] / 4.0


def test_herglotz_exterior(disk128):
    # positivity is read on the resolved modes |m| <= modes, as the identity is
    curve, grid = disk128
    report = herglotz_residuals("exterior", curve, grid, 4j, modes=8)
    rows = {row.check: row for row in report.checks}
    assert set(rows) == {"herglotz.psd", "herglotz.identity", "herglotz.tail"}
    assert rows["herglotz.identity"].residual <= 1e-6
    assert rows["herglotz.tail"].residual <= 1e-6
    assert rows["herglotz.psd"].residual == 0.0
    assert rows["herglotz.tail"].details["decay_rate"] == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("n", [64, 128])
def test_herglotz_exterior_positivity_near_the_negative_axis(n):
    # the unresolved mode nearest Nyquist has Im M_m / Im z < 0 here
    curve, grid = make_curve("disk", n)
    report = herglotz_residuals("exterior", curve, grid, -1 + 0.5j)
    rows = {row.check: row for row in report.checks}
    assert rows["herglotz.psd"].residual == 0.0
    assert rows["herglotz.psd"].details["lambda_min"] > 0.0
    assert report.all_pass


def test_herglotz_scalar_identity_mode0(disk128):
    # Im μ_0(z) = Im z · ∫₀¹ |I_0(κ̂r)/I_0(κ̂)|² r dr  (radial quadrature oracle)
    curve, grid = disk128
    z = 2j
    mu0 = mode_eigenvalue(dtn_map("interior", curve, grid, z), 0)
    kap = -1j * np.sqrt(z)
    den = abs(scipy.special.iv(0, kap)) ** 2
    integral, _ = scipy.integrate.quad(
        lambda r: abs(scipy.special.iv(0, kap * r)) ** 2 * r / den, 0.0, 1.0
    )
    assert abs(mu0.imag - z.imag * integral) <= 1e-6


def test_herglotz_identity_needs_disk():
    curve, grid = make_curve("ellipse", 64, a=2.0, b=1.0)
    with pytest.raises(ConfigurationError):
        herglotz_residuals("interior", curve, grid, 1j)


def test_herglotz_positivity_fails_on_nan(monkeypatch):
    # max(0.0, -nan) is 0.0: a NaN spectrum used to read as positive; the
    # Gauss-Legendre nodes come from a real eigenproblem and stay intact
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (
        np.full(len(a), np.nan) if np.iscomplexobj(a) else eigvalsh(a)))
    curve, grid = make_curve("disk", 64)
    report = herglotz_residuals("interior", curve, grid, 1j, modes=2)
    (row,) = [r for r in report.checks if r.check == "herglotz.psd"]
    assert np.isnan(row.residual) and not row.passed


def test_real_z_solve_keeps_complex_densities():
    """S is float64 at real z; complex densities keep their imaginary parts
    (a real getrs would drop them), and the mode table agrees with the dense map."""
    curve, grid = make_curve("kite", 64)
    ops = _LayerOperators(grid, -2.0)
    assert ops.single_layer.dtype == np.float64
    phis = np.exp(1j * np.outer(grid.nodes, np.arange(4)))
    psi = ops.solve(phis)
    assert np.abs(ops.single_layer @ psi - phis).max() <= 1e-12
    quotients, _ = _mode_quotients(_LayerOperators(grid, -2.0), "interior", 3)
    weyl = dtn_map("+", curve, grid, -2.0)
    dense = np.array([mode_eigenvalue(weyl, m) for m in range(4)])
    assert np.abs(quotients - dense).max() <= 1e-12 * np.abs(dense).max()
