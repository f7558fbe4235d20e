import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from green3.errors import AccuracyRegionError, AnsatzResonanceError, ConfigurationError
from green3.geometry import make_curve
from green3.potentials import _LayerOperators, _OffCurve
from green3.weyl import _mode_quotients, herglotz_residuals


@pytest.fixture(scope="module")
def disk256():
    return make_curve("disk", 256)


@pytest.fixture(scope="module")
def disk128():
    return make_curve("disk", 128)


def _quotients(side, grid, z, modes):
    """The mode quotients of M_side(z) for m = 0..modes, as the dtn rows read them."""
    return _mode_quotients(_LayerOperators(grid, z), side, modes)[0]


def _dense(side, grid, z):
    """M_side(z) as a dense matrix: the bundle's Weyl action on the identity."""
    return _LayerOperators(grid, z).weyl_action(side, np.eye(grid.n))[0]


def _gamma(grid, z, density, points):
    """γ(z)·density at off-curve points of either side: the single-layer field
    of S⁻¹·density, which solves on both sides and has the trace density."""
    psi = _LayerOperators(grid, z).solve(density)
    return _OffCurve.layer(grid, z, points, True).single_layer(psi)


# ------------------------------------------------------------------ Weyl maps


def test_weyl_symbols_match_bessel_table(disk256):
    """Interior/exterior mode eigenvalues agree with the frozen ratio oracle."""
    grid = disk256
    mi, me = (_quotients(side, grid, -1.0, max(oracles.DISK_MODES_ZM1))
              for side in ("interior", "exterior"))
    for m, (_, _, mu_plus, mu_minus) in oracles.DISK_MODES_ZM1.items():
        assert abs(mi[m] - mu_plus) <= 1e-12
        assert abs(me[m] - mu_minus) <= 1e-12


def test_weyl_mode0_frozen_values(disk256):
    grid = disk256
    assert abs(_quotients("interior", grid, -1.0, 0)[0] - oracles.NEG_I1_OVER_I0) <= 1e-12
    # exterior sign comes out negative: -K_1(1)/K_0(1)
    assert abs(_quotients("exterior", grid, -1.0, 0)[0] + oracles.K1_OVER_K0) <= 1e-12


def test_steklov_limit(disk256):
    # z → 0⁻ proxy: harmonic r^{|m|} gives M₊ ≈ −|m|
    grid = disk256
    quotients = _quotients("interior", grid, -1e-6, 4)
    for m in (1, 2, 3, 4):
        assert abs(quotients[m] + m) <= 1e-3


def test_exterior_steklov_mode0(disk256):
    grid = disk256
    lam = _quotients("exterior", grid, -1e-6, 0)[0]
    assert abs(lam - oracles.EXT_STEKLOV_MODE0_K1EM3) <= 1e-6


def test_symbols_saturate_at_coarse_grids():
    # trig-polynomial exactness of the scheme: already at machine floor by N=32
    for n in (32, 128):
        grid = make_curve("disk", n)
        assert abs(_quotients("interior", grid, -1.0, 4)[4] - oracles.DISK_MODES_ZM1[4][2]) <= 1e-12


def test_conjugate_point_gives_weighted_adjoint(disk256):
    grid = disk256
    z = 1.0 + 2.0j
    m_z = _dense("interior", grid, z)
    m_zbar = _dense("interior", grid, np.conj(z))
    w = grid.arc_weights
    adjoint = (w[:, None] * m_z).conj().T / w[:, None]
    assert np.abs(m_zbar - adjoint).max() <= 1e-8


def test_apply_matches_matrix(disk256):
    """M applied to one density is the dense map's product with it, on both sides."""
    grid = disk256
    ops = _LayerOperators(grid, -1.0)
    phi = np.random.default_rng(5).normal(size=grid.n)
    for side in ("interior", "exterior"):
        assert np.allclose(ops.weyl_action(side, phi)[0], _dense(side, grid, -1.0) @ phi)


def test_rotation_invariance(disk256):
    grid = disk256
    mat = _dense("exterior", grid, 1.0 + 2.0j)
    shift = np.roll(np.eye(grid.n), 7, axis=0)
    assert np.abs(mat @ shift - shift @ mat).max() <= 1e-8


def test_side_aliases_and_validation(disk128):
    grid = disk128
    plus, interior = (herglotz_residuals(side, grid, -1.0).without_timing()
                      for side in ("+", "interior"))
    assert plus == interior
    with pytest.raises(ConfigurationError):
        herglotz_residuals("inside", grid, -1.0)


def _bundle_with(single_layer):
    """A layer bundle whose S is ``single_layer``, for its guards alone."""
    ops = _LayerOperators(make_curve("disk", 8), -1.0)
    ops.single_layer = single_layer
    return ops


def test_resonance_guard():
    # the bundle's grid has 8 nodes, and S is weighted by their speeds
    assert _bundle_with(np.diag([1.0] * 7 + [1e-11])).single_layer_singular_values[0] == 1.0
    with pytest.raises(AnsatzResonanceError):
        _bundle_with(np.diag([1.0] * 7 + [1e-13])).single_layer_singular_values


@pytest.mark.parametrize("n", [128, 512])
def test_lu_guard_catches_the_singular_disk_at_zero(n):
    # log capacity 1: S of the unit disk is singular at z = 0, rcond₁ ~ 1e-17
    grid = make_curve("disk", n)
    with pytest.raises(AnsatzResonanceError, match="rcond"):
        _dense("interior", grid, 0.0)
    with pytest.raises(AnsatzResonanceError, match="rcond"):
        _gamma(grid, 0.0, np.ones(grid.n), [[2.0, 0.0]])


@pytest.mark.parametrize("n", [128, 512])
def test_lu_guard_passes_the_kite_at_zero(n):
    # rcond₁ 2.6e-3 (N=128) and 6.4e-4 (N=512): far above the floor
    grid = make_curve("kite", n)
    assert np.isfinite(_dense("interior", grid, 0.0)).all()


@pytest.mark.parametrize("spec", ["disk", "kite"])
def test_real_z_solve_is_one_real_lu(spec):
    # S is float64 at real z: complex densities, one column or many, go
    # through one real LU as (N, 2m) real columns, which a complex LU matches
    from scipy.linalg import lu_factor, lu_solve

    ops = _LayerOperators(make_curve(spec, 128), -2.0)
    rng = np.random.default_rng(3)
    phis = rng.normal(size=(128, 5)) + 1j * rng.normal(size=(128, 5))
    reference = lu_solve(lu_factor(ops.single_layer.astype(complex)), phis)
    psi = ops.solve(phis)
    lu = ops.__dict__["_lu"]
    assert lu[0].dtype == np.float64
    assert np.abs(psi - reference).max() <= 1e-13 * np.abs(reference).max()
    column = ops.solve(phis[:, 1])
    assert column.shape == (128,)
    assert np.abs(column - reference[:, 1]).max() <= 1e-13 * np.abs(reference[:, 1]).max()
    assert ops.solve(phis.real).dtype == np.float64
    assert ops.__dict__["_lu"] is lu


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
    grid = disk256
    val = _gamma(grid, -1.0, np.ones(grid.n), np.array([[0.5, 0.0]]))[0]
    assert abs(val - oracles.I0_RATIO_HALF) <= 1e-10


def test_gamma_interior_gradient(disk256):
    # d/dr I_0(r)/I_0(1) = I_1(r)/I_0(1); at (0.5, 0) the gradient is radial
    grid = disk256
    psi = _LayerOperators(grid, -1.0).solve(np.ones(grid.n))
    kernel = _OffCurve.layer(grid, -1.0, np.array([0.5, 0.0]), True)
    grad = np.einsum("j,ijk->ik", psi * grid.arc_weights, kernel.gradient)[0]
    assert abs(grad[0] - oracles.I1_AT_HALF / oracles.I0_AT_1) <= 1e-10
    assert abs(grad[1]) <= 1e-12


def test_gamma_exterior_decay_profile(disk256):
    grid = disk256
    val = _gamma(grid, -1.0, np.ones(grid.n), np.array([[2.0, 0.0]]))[0]
    assert abs(val - oracles.K0_AT_2 / oracles.K0_AT_1) <= 1e-10


def test_gamma_mode_profile(disk256):
    # φ = e^{i3θ} → I_3(r)/I_3(1) e^{i3θ}; check off-axis where the phase bites
    grid = disk256
    r, theta = 0.7, 1.1
    point = np.array([[r * np.cos(theta), r * np.sin(theta)]])
    val = _gamma(grid, -1.0, np.exp(3j * grid.nodes), point)[0]
    ref = scipy.special.iv(3, r) / scipy.special.iv(3, 1.0) * np.exp(3j * theta)
    assert abs(val - ref) <= 1e-10


def test_gamma_zero_density(disk128):
    grid = disk128
    vals = _gamma(grid, 2.0j, np.zeros(grid.n), np.array([[0.3, 0.1], [0.0, -0.4]]))
    assert np.abs(vals).max() == 0.0


def test_gamma_near_boundary_guard(disk128):
    grid = disk128
    near = np.array([[0.9999, 0.0]])
    with pytest.raises(AccuracyRegionError):
        _gamma(grid, -1.0, np.ones(grid.n), near)
    with pytest.raises(AccuracyRegionError):
        _OffCurve.layer(grid, -1.0, near, True).double_layer(np.ones(grid.n))


# ------------------------------------------------------------- Herglotz suite


@pytest.mark.parametrize("z", [1j, 2j, -1 + 0.5j])
def test_herglotz_interior(disk128, z):
    grid = disk128
    report = herglotz_residuals("interior", grid, z, modes=12)
    rows = {row.check: row for row in report.checks}
    assert set(rows) == {"herglotz.psd", "herglotz.identity"}
    assert rows["herglotz.psd"].residual == 0.0
    assert rows["herglotz.identity"].residual <= 1e-6
    assert report.all_pass


def test_herglotz_real_point_degenerates(disk128):
    # z = z̄ collapses the identity to self-adjointness
    grid = disk128
    report = herglotz_residuals("interior", grid, -1.0)
    (row,) = report.checks
    assert row.check == "herglotz.self_adjoint"
    assert row.residual <= 1e-8


def test_herglotz_self_adjoint_on_kite():
    # non-symmetric curve: the skew part is pure discretization error, ~N⁻³;
    # the 1e-8 floor of the disk row is trig-exactness, not a generic promise
    residuals = []
    for n in (128, 256):
        grid = make_curve("kite", n)
        report = herglotz_residuals("interior", grid, -2.0)
        (row,) = report.checks
        assert row.check == "herglotz.self_adjoint"
        residuals.append(row.residual)
    assert residuals[1] <= 2e-5
    assert residuals[1] < residuals[0] / 4.0


def test_herglotz_exterior(disk128):
    # positivity is read on the resolved modes |m| <= modes, as the identity is
    grid = disk128
    report = herglotz_residuals("exterior", grid, 4j, modes=8)
    rows = {row.check: row for row in report.checks}
    assert set(rows) == {"herglotz.psd", "herglotz.identity", "herglotz.tail"}
    assert rows["herglotz.identity"].residual <= 1e-6
    assert rows["herglotz.tail"].residual <= 1e-6
    assert rows["herglotz.psd"].residual == 0.0
    assert rows["herglotz.tail"].details["decay_rate"] == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("n", [64, 128])
def test_herglotz_exterior_positivity_near_the_negative_axis(n):
    # the unresolved mode nearest Nyquist has Im M_m / Im z < 0 here
    grid = make_curve("disk", n)
    report = herglotz_residuals("exterior", grid, -1 + 0.5j)
    rows = {row.check: row for row in report.checks}
    assert rows["herglotz.psd"].residual == 0.0
    assert rows["herglotz.psd"].details["lambda_min"] > 0.0
    assert report.all_pass


def test_herglotz_scalar_identity_mode0(disk128):
    # Im μ_0(z) = Im z · ∫₀¹ |I_0(κ̂r)/I_0(κ̂)|² r dr  (radial quadrature oracle)
    grid = disk128
    z = 2j
    mu0 = _quotients("interior", grid, z, 0)[0]
    kap = -1j * np.sqrt(z)
    den = abs(scipy.special.iv(0, kap)) ** 2
    integral, _ = scipy.integrate.quad(
        lambda r: abs(scipy.special.iv(0, kap * r)) ** 2 * r / den, 0.0, 1.0
    )
    assert abs(mu0.imag - z.imag * integral) <= 1e-6


def test_herglotz_identity_needs_disk():
    grid = make_curve("ellipse", 64, a=2.0, b=1.0)
    with pytest.raises(ConfigurationError):
        herglotz_residuals("interior", grid, 1j)


def test_herglotz_positivity_fails_on_nan(monkeypatch):
    # max(0.0, -nan) is 0.0: a NaN spectrum used to read as positive; the
    # Gauss-Legendre nodes come from a real eigenproblem and stay intact
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (
        np.full(len(a), np.nan) if np.iscomplexobj(a) else eigvalsh(a)))
    grid = make_curve("disk", 64)
    report = herglotz_residuals("interior", grid, 1j, modes=2)
    (row,) = [r for r in report.checks if r.check == "herglotz.psd"]
    assert np.isnan(row.residual) and not row.passed


def test_real_z_solve_keeps_complex_densities():
    """S is float64 at real z; complex densities keep their imaginary parts
    (a real getrs would drop them), and the mode table agrees with the dense map."""
    grid = make_curve("kite", 64)
    ops = _LayerOperators(grid, -2.0)
    assert ops.single_layer.dtype == np.float64
    phis = np.exp(1j * np.outer(grid.nodes, np.arange(4)))
    psi = ops.solve(phis)
    assert np.abs(ops.single_layer @ psi - phis).max() <= 1e-12
    weighted = phis.conj() * grid.arc_weights[:, None]
    dense = np.diag(weighted.T @ _dense("interior", grid, -2.0) @ phis) / np.diag(weighted.T @ phis)
    quotients = _quotients("interior", grid, -2.0, 3)
    assert np.abs(quotients - dense).max() <= 1e-12 * np.abs(dense).max()
