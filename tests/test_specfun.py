import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import oracles
from green3.errors import (
    ArgumentRangeError,
    ConfigurationError,
    SingularityError,
    SpectralPoleError,
)
from green3.potentials import _DiskMode, _OffCurve
from green3.specfun import (
    SpectralPoint,
    as_spectral_point,
    bessel_j,
    bessel_j_zero,
    fundamental_solution,
    hankel1,
    modified_i,
    modified_k,
)


def _random_upper_half(n, rng, lo=0.05, hi=45.0):
    # small, moderate and large |w|, including near-real arguments
    mag = rng.uniform(lo, hi, n)
    arg = rng.uniform(0.0, np.pi, n)
    return mag * np.exp(1j * arg)


# ---------------------------------------------------------------- bessel_j

def test_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0 + 0j
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_j_vanishes_at_first_zero():
    assert abs(bessel_j(0, oracles.J0_ZERO_1)) <= 1e-12


def test_j_point_values():
    assert bessel_j(0, 1.0).real == pytest.approx(oracles.J0_AT_1, abs=1e-14)
    assert bessel_j(1, 1.0).real == pytest.approx(oracles.J1_AT_1, abs=1e-14)


def test_j_accuracy_sweep():
    """Relative error <= 1e-12 across both evaluation regimes, order <= 40."""
    rng = np.random.default_rng(31415)
    w = np.concatenate(
        [
            rng.uniform(0.05, 11.5, 60) * np.exp(1j * rng.uniform(0, 2 * np.pi, 60)),
            rng.uniform(12.5, 49.0, 60) * np.exp(1j * rng.uniform(0, 2 * np.pi, 60)),
        ]
    )
    for m in (0, 1, 2, 7, 16, 40):
        ref = sp.jv(m, w)
        rel = np.abs(bessel_j(m, w) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12


def test_j_on_2d_grid_beyond_radius_12():
    """A 2-D argument with |w| > 12, as in an N x N assembly, keeps its shape."""
    w = np.full((4, 4), 13 + 0j)
    got = bessel_j(0, w)
    assert got.shape == (4, 4)
    assert (np.abs(got - sp.jv(0, w)) / np.abs(sp.jv(0, w))).max() <= 1e-12


def test_j_overflow_guard():
    with pytest.raises(ArgumentRangeError):
        bessel_j(0, 700.0)
    with pytest.raises(ArgumentRangeError):
        bessel_j(0, 500 + 500j)


def test_overflow_guard_rejects_nan():
    for fn in (bessel_j, modified_i):
        with pytest.raises(ArgumentRangeError):
            fn(0, complex(np.nan, 0.0))


def test_hankel_rejects_non_finite_argument():
    for w in (complex(np.nan, 0.0), complex(np.inf, 1.0), complex(1.0, np.nan)):
        with pytest.raises(ArgumentRangeError):
            hankel1(0, w)
    with pytest.raises(ArgumentRangeError):
        hankel1(1, np.array([1.0 + 1j, complex(np.nan, 0.0)]))


def test_hankel_shares_the_bessel_j_radius():
    # H^(1) underflowed to zero at w = 316i·r and lost its phase at w = 316·r
    for w in (700.0, 700j, 1e5 * np.exp(0.3j), np.array([1.0 + 1j, 800j])):
        with pytest.raises(ArgumentRangeError, match="overflow guard"):
            hankel1(0, w)
    assert np.isfinite(hankel1(1, 699.0 + 1.0j))


def test_j_rejects_negative_order():
    with pytest.raises(ArgumentRangeError):
        bessel_j(-1, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=40.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=12),
)
def test_j_parity(w, m):
    """J_m(-w) = (-1)^m J_m(w) regardless of which evaluation branch fires."""
    a, b = bessel_j(m, -w), (-1) ** m * bessel_j(m, w)
    assert abs(a - b) <= 1e-11 * max(abs(a), 1e-280)


def test_first_two_j_zeros():
    assert bessel_j_zero(1) == pytest.approx(oracles.J0_ZERO_1, rel=1e-13)
    assert bessel_j_zero(2) == pytest.approx(oracles.J0_ZERO_2, rel=1e-13)
    with pytest.raises(ArgumentRangeError):
        bessel_j_zero(0)
    with pytest.raises(ArgumentRangeError):
        bessel_j_zero(16)


# ---------------------------------------------------------------- hankel1

def test_hankel_at_i_is_pure_imaginary():
    # H^(1)_0(i) = -(2i/pi) K_0(1), K_0(1) from the integral-representation oracle
    val = hankel1(0, 1j)
    assert val.real == pytest.approx(0.0, abs=1e-16)
    assert val.imag == pytest.approx(oracles.H0_AT_I_IMAG, rel=1e-13)


def test_hankel_at_one():
    val = hankel1(0, 1.0)
    assert val.real == pytest.approx(oracles.J0_AT_1, rel=1e-13)
    assert val.imag == pytest.approx(oracles.Y0_AT_1, rel=1e-12)
    val1 = hankel1(1, 1.0)
    assert val1.real == pytest.approx(oracles.J1_AT_1, rel=1e-13)
    assert val1.imag == pytest.approx(oracles.Y1_AT_1, rel=1e-12)


def test_hankel_singular_at_zero():
    with pytest.raises(SingularityError):
        hankel1(0, 0.0)


def test_hankel_rejects_lower_half_plane():
    with pytest.raises(ArgumentRangeError):
        hankel1(0, 1.0 - 2.0j)


def test_hankel_accuracy_sweep():
    """Relative error <= 1e-10 on 1e-3 <= |w| <= 50 in the closed upper half plane."""
    rng = np.random.default_rng(27182)
    w = np.concatenate(
        [
            _random_upper_half(120, rng, lo=1e-3, hi=11.9),
            _random_upper_half(80, rng, lo=12.1, hi=49.0),
            rng.uniform(0.5, 45.0, 20) + 0j,
            -rng.uniform(0.5, 45.0, 20) + 0j,
        ]
    )
    for m in (0, 1, 2, 5, 11, 23, 40):
        ref = sp.hankel1(m, w)
        rel = np.abs(hankel1(m, w) - ref) / np.abs(ref)
        assert rel.max() <= 1e-10, (m, w[rel.argmax()], rel.max())


def test_hankel_accuracy_band_against_mpmath():
    """|w| ~ 10.5-12, Im w ~ 3-4: relative error <= 1e-12 against frozen mpmath values."""
    for w, h0, h1 in oracles.HANKEL1_BAND:
        for m, ref in ((0, h0), (1, h1)):
            assert abs(hankel1(m, w) - ref) <= 1e-12 * abs(ref), (m, w)


def test_wronskian_on_random_grid():
    """J_m H'_m - J'_m H_m = 2i/(pi w): 100 random upper-half-plane points, m <= 20."""
    rng = np.random.default_rng(977)
    w = _random_upper_half(100, rng)
    target = 2j / (np.pi * w)
    for m in (0, 1, 2, 5, 9, 14, 20):
        lhs = bessel_j(m, w) * sp.h1vp(m, w) - sp.jvp(m, w) * hankel1(m, w)
        assert (np.abs(lhs - target) / np.abs(target)).max() <= 1e-10


def test_wronskian_at_spec_point():
    w = 1.7 + 0.3j
    for m in (0, 3):
        lhs = bessel_j(m, w) * sp.h1vp(m, w) - sp.jvp(m, w) * hankel1(m, w)
        assert abs(lhs - 2j / (np.pi * w)) <= 1e-12 * abs(2j / (np.pi * w))


def test_hankel_recurrence_consistency():
    rng = np.random.default_rng(5150)
    w = _random_upper_half(60, rng, lo=0.01, hi=45.0)
    for m in (1, 4, 12, 19):
        lhs = hankel1(m - 1, w) + hankel1(m + 1, w)
        rhs = (2.0 * m / w) * hankel1(m, w)
        assert (np.abs(lhs - rhs) / np.abs(rhs)).max() <= 1e-9


# ---------------------------------------------------------------- modified I/K

def test_modified_point_values():
    assert modified_i(0, 1.0).real == pytest.approx(oracles.I0_AT_1, rel=1e-14)
    assert modified_i(1, 1.0).real == pytest.approx(oracles.I1_AT_1, rel=1e-14)
    assert modified_k(0, 1.0).real == pytest.approx(oracles.K0_AT_1, rel=1e-13)
    assert modified_k(1, 1.0).real == pytest.approx(oracles.K1_AT_1, rel=1e-13)


def test_modified_real_on_positive_axis():
    assert abs(modified_i(3, 2.2).imag) <= 1e-16
    assert abs(modified_k(3, 2.2).imag) <= 1e-14 * modified_k(3, 2.2).real


def test_modified_k_requires_right_half_plane():
    with pytest.raises(ArgumentRangeError):
        modified_k(0, -1.0)
    with pytest.raises(ArgumentRangeError):
        modified_k(2, 1j)


def test_modified_derivatives_match_scipy():
    # the disk-mode family's I_m′ and K_m′ at κ = w, from z = −w²
    rng = np.random.default_rng(8086)
    w = rng.uniform(0.1, 20.0, 40) * np.exp(1j * rng.uniform(-1.3, 1.3, 40))
    for z in -w * w:
        mode = _DiskMode(z, (0, 1, 6))
        ivp, kvp = sp.ivp(mode.modes, mode.kappa), sp.kvp(mode.modes, mode.kappa)
        assert (np.abs(mode.di_m - ivp) / np.abs(ivp)).max() <= 1e-11
        assert (np.abs(mode.dk_m - kvp) / np.abs(kvp)).max() <= 1e-10


def test_modified_derivatives_are_difference_formulas():
    mode = _DiskMode(-(2.3 + 0.7j) ** 2, (5, 0, 9))
    w = mode.kappa
    assert mode.di_m[1] == modified_i(1, w)
    assert mode.dk_m[1] == -modified_k(1, w)
    for i, m in ((0, 5), (2, 9)):
        assert mode.di_m[i] == (modified_i(m - 1, w) + modified_i(m + 1, w)) / 2
        assert mode.dk_m[i] == -(modified_k(m - 1, w) + modified_k(m + 1, w)) / 2
    assert mode.i_m[0] == modified_i(5, w) and mode.k_m[2] == modified_k(9, w)


@pytest.mark.parametrize("function", [bessel_j, hankel1, modified_i, modified_k])
def test_an_order_array_takes_only_nonnegative_integers(function):
    orders = np.array([2, 0, 1])
    assert np.array_equal(function(orders, 1.5 + 0.5j),
                          [function(int(m), 1.5 + 0.5j) for m in orders])
    for bad in (np.array([3, -1, 0]), np.array([1.0, 2.0])):
        with pytest.raises(ArgumentRangeError, match="order must be a nonnegative integer"):
            function(bad, 1.5 + 0.5j)


# ---------------------------------------------------------------- SpectralPoint

@settings(max_examples=80)
@given(
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False)
)
def test_sqrt_branch(z):
    if z.imag == 0.0 and z.real > 0.0:
        with pytest.raises(SpectralPoleError):
            SpectralPoint(z)
        return
    p = SpectralPoint(z)
    assert p.sqrt_z.imag >= 0.0
    assert abs(p.sqrt_z * p.sqrt_z - p.z) <= 1e-13 * abs(p.z)


def test_negative_real_axis_gives_positive_imaginary_root():
    p = SpectralPoint(-4.0)
    assert p.sqrt_z == 2j


def test_minus_zero_imag_is_normalized():
    p = SpectralPoint(complex(-1.0, -0.0))
    assert p.sqrt_z == 1j


def test_laplace_branch():
    p = SpectralPoint(0.0)
    assert p.is_laplace and p.sqrt_z == 0


def test_as_spectral_point_idempotent():
    p = SpectralPoint(2j)
    assert as_spectral_point(p) is p
    assert as_spectral_point(2j) == p


# ---------------------------------------------------------------- fundamental solution

def test_e2_laplace_unit_distance_vanishes():
    assert fundamental_solution(2, 0.0, 1.0) == 0.0


def test_e3_laplace():
    assert fundamental_solution(3, 0.0, 2.0).real == pytest.approx(oracles.E3_LAPLACE_R2, rel=1e-15)


def test_e3_helmholtz_reduces_to_exponential():
    got = fundamental_solution(3, -1.0, 1.0)
    assert got.real == pytest.approx(oracles.E3_ZM1_R1, rel=1e-14)
    assert abs(got.imag) <= 1e-18


def test_e2_helmholtz_value():
    # (i/4) H_0(i) = -H0_AT_I_IMAG/4, real and positive
    got = fundamental_solution(2, -1.0, 1.0)
    assert got.real == pytest.approx(-oracles.H0_AT_I_IMAG / 4, rel=1e-13)
    assert abs(got.imag) <= 1e-17


def test_fundamental_solution_guards():
    with pytest.raises(SingularityError):
        fundamental_solution(2, -1.0, 0.0)
    with pytest.raises(ConfigurationError):
        fundamental_solution(4, -1.0, 1.0)


def test_pde_residual_five_point_stencil():
    """(-Laplace - z)E = 0 away from the source: stencil residual <= 1e-5 at h = 1e-3."""
    z, h = -1.0, 1e-3
    rng = np.random.default_rng(424242)
    for _ in range(12):
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(0, 2 * np.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        def u(p):
            return fundamental_solution(2, z, math.hypot(p[0], p[1]))
        lap = (
            u(x + [h, 0]) + u(x - [h, 0]) + u(x + [0, h]) + u(x - [0, h]) - 4 * u(x)
        ) / h**2
        assert abs(-lap - z * u(x)) <= 1e-5


# ---------------------------------------------------------------- gradient

def _gradient(z, x):
    """∇E_z at one point x, through the off-curve kernel with a source at 0."""
    return _OffCurve(z, x, [(0, 0)]).gradient[0, 0]


def test_gradient_laplace_point():
    g = _gradient(0.0, np.array([2.0, 0.0]))
    assert g[0] == pytest.approx(-1.0 / (4 * np.pi), rel=1e-15)
    assert g[1] == 0.0


def test_gradient_is_radial():
    g = _gradient(-1.0, np.array([1.0, 0.0]))
    assert abs(g[1]) == 0.0


def test_gradient_matches_finite_difference():
    z, x, h = -1.0, np.array([0.6, 0.8]), 1e-5
    g = _gradient(z, x)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (
            fundamental_solution(2, z, np.hypot(*(x + e)))
            - fundamental_solution(2, z, np.hypot(*(x - e)))
        ) / (2 * h)
        assert abs(g[k] - fd) <= 1e-8 * abs(fd)


@settings(max_examples=40)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_gradient_rotation_equivariance(angle):
    """Rotating the argument rotates the gradient: the kernel is radial."""
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    x = np.array([0.8, -0.45])
    g1 = _gradient(2j, rot @ x)
    g2 = rot @ _gradient(2j, x)
    assert np.abs(g1 - g2).max() <= 1e-14


def test_gradient_guards():
    with pytest.raises(SingularityError):
        _gradient(-1.0, np.array([0.0, 0.0]))
