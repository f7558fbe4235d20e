"""Complex-argument Bessel/Hankel functions and Helmholtz fundamental solutions.

The cylinder functions are thin, guarded wrappers over ``scipy.special``
(``jv``, ``hankel1``, ``iv``, ``kv``, ``jn_zeros``), which deliver about
machine-precision relative accuracy (a few 1e-16) on the whole range the
package uses.  One branch is selected by the input: when every argument lies on
the positive imaginary axis, w = iy with y > 0, and the order is 0 or 1, J and
H^(1) come from the real-argument routines I_0, I_1, K_0, K_1, which are
several times faster than the complex-argument ones.  That is exactly the
kernel argument sqrt(z)·r at real z < 0, where the layer bundles of
:mod:`green3.potentials` read the same guarded helper, ``_modified_real``,
and build their operators in float64.

The guards stay ahead of scipy: a nonnegative integer order, |w| < 700 for J,
I and H^(1) (J and I grow like e^{|Im w|}, H^(1) decays into underflow or
loses its phase to the rounding of w; NaN fails it too), Im w >= 0 and
w != 0 for H^(1), Re w > 0 for K, and 0 < y < 700 for the real I/K helper.
All functions accept scalars or numpy arrays in the argument and are pure
(thread-safe).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .errors import ArgumentRangeError, ConfigurationError, SingularityError, SpectralPoleError

_OVERFLOW_RADIUS = 700.0  # e^{±|Im w|} of J, I and H^(1) must stay in the double range

# at w = iy, y > 0: J_order(iy) = i^order I_order(y), H_order(iy) = i^(1-order)·(-2/pi)·K_order(y)
_K_TO_H = -2.0 / np.pi
_MODIFIED_ROUTINES = ((sp.i0, sp.k0), (sp.i1, sp.k1))  # order -> (I_order, K_order)
_J_IMAGINARY_AXIS = (1.0 + 0j, 1j)                     # order -> factor of I_order
_H_IMAGINARY_AXIS = (_K_TO_H * 1j, _K_TO_H + 0j)       # order -> factor of K_order


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter z together with the branch-consistent square root.

    The branch has Im(sqrt_z) >= 0 (cut along the positive real axis); z on
    (0, inf) is rejected since every formula in the package is used off the
    essential spectrum.  z = 0 is kept as its own (Laplace) branch.
    """

    z: complex
    sqrt_z: complex = field(init=False)

    def __post_init__(self) -> None:
        z = complex(self.z)
        if z.imag == 0.0:
            if z.real > 0.0:
                raise SpectralPoleError(
                    f"z = {z} lies on the positive real axis (branch cut / essential spectrum)"
                )
            z = complex(z.real, 0.0)  # normalize -0.0 imaginary parts
        s = 0j if z == 0 else complex(np.sqrt(complex(z)))
        if s.imag < 0.0:
            s = -s
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "sqrt_z", s)

    @property
    def is_laplace(self) -> bool:
        return self.z == 0


def as_spectral_point(z) -> SpectralPoint:
    """Coerce a plain complex number to a SpectralPoint (no-op if already one)."""
    return z if isinstance(z, SpectralPoint) else SpectralPoint(z)


def _as_complex_array(w):
    arr = np.asarray(w, dtype=np.complex128)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def _check_order(order) -> int:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ArgumentRangeError(f"order must be a nonnegative integer, got {order!r}")
    return int(order)


def _check_overflow(arr: np.ndarray) -> None:
    if not np.all(np.abs(arr) < _OVERFLOW_RADIUS):
        raise ArgumentRangeError(f"|w| must be finite and < {_OVERFLOW_RADIUS:g} (overflow guard)")


def _on_imaginary_axis(order: int, arr: np.ndarray) -> bool:
    """Whether the real-argument I/K forms apply: order <= 1 and every w = iy, y > 0."""
    return order <= 1 and bool(np.all(arr.real == 0.0)) and bool(np.all(arr.imag > 0.0))


def _modified_real(order: int, y):
    """(I_order(y), K_order(y)) for order 0 or 1 and real 0 < y < 700, the
    kernels of J and H^(1) at w = iy.  ``bessel_j`` and ``hankel1`` keep one
    of the two; both together still cost less than one complex routine."""
    y = np.asarray(y, dtype=float)
    _check_overflow(y)
    if not np.all(y > 0.0):
        raise ArgumentRangeError("the real I/K route needs w = iy with y > 0")
    i_fn, k_fn = _MODIFIED_ROUTINES[order]
    return i_fn(y), k_fn(y)


def bessel_j(order, w):
    """Bessel function J_order(w) for complex w, |w| < 700."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w)
    _check_overflow(arr)
    if _on_imaginary_axis(order, arr):
        out = _J_IMAGINARY_AXIS[order] * _modified_real(order, arr.imag)[0]
    else:
        out = sp.jv(order, arr)
    return complex(out[0]) if scalar else out


def _normalize_upper(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    fix = (out.imag < 0.0) & (out.imag >= -1e-9 * (1.0 + np.abs(out)))
    out[fix] = out[fix].real + 0.0j
    return out


def hankel1(order, w):
    """Hankel function of the first kind H^(1)_order(w), Im(w) >= 0, 0 < |w| < 700."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w)
    _check_overflow(arr)
    if np.any(arr == 0):
        raise SingularityError("H^(1) is singular at w = 0")
    if np.any(arr.imag < -1e-9 * (1.0 + np.abs(arr))):
        raise ArgumentRangeError("hankel1 requires Im(w) >= 0")
    arr = _normalize_upper(arr)
    if _on_imaginary_axis(order, arr):
        out = _H_IMAGINARY_AXIS[order] * _modified_real(order, arr.imag)[1]
    else:
        out = sp.hankel1(order, arr)
    return complex(out[0]) if scalar else out


def modified_i(order, w):
    """Modified Bessel I_order(w) = i^{-order} J_order(iw), |w| < 700."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w)
    _check_overflow(arr)
    out = sp.iv(order, arr)
    return complex(out[0]) if scalar else out


def modified_k(order, w):
    """Modified Bessel K_order(w) = (pi/2) i^{order+1} H^(1)_order(iw), Re(w) > 0."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w)
    if np.any(arr.real <= 0):
        raise ArgumentRangeError("modified_k requires Re(w) > 0")
    out = sp.kv(order, arr)
    return complex(out[0]) if scalar else out


def modified_i_derivative(order, w):
    order = _check_order(order)
    if order == 0:
        return modified_i(1, w)
    return (modified_i(order - 1, w) + modified_i(order + 1, w)) / 2.0


def modified_k_derivative(order, w):
    order = _check_order(order)
    if order == 0:
        return -modified_k(1, w)
    return -(modified_k(order - 1, w) + modified_k(order + 1, w)) / 2.0


def bessel_j_zero(k: int) -> float:
    """k-th positive zero of J_0."""
    if not 1 <= k <= 15:
        raise ArgumentRangeError("bessel_j_zero supports 1 <= k <= 15")
    return float(sp.jn_zeros(0, k)[-1])


def fundamental_solution(n: int, z, r):
    """Fundamental solution E of (-Laplace - z) in dimension n at distance r > 0."""
    zp = as_spectral_point(z)
    rr, scalar = _as_complex_array(r)
    rr = rr.real.astype(float)
    if np.any(rr <= 0.0):
        raise SingularityError("fundamental_solution requires r > 0")
    if n == 2:
        if zp.is_laplace:
            out = (-np.log(rr) / (2.0 * np.pi)).astype(np.complex128)
        else:
            out = 0.25j * hankel1(0, zp.sqrt_z * rr)
    elif n == 3:
        if zp.is_laplace:
            out = (1.0 / (4.0 * np.pi * rr)).astype(np.complex128)
        else:
            out = np.exp(1j * zp.sqrt_z * rr) / (4.0 * np.pi * rr)
    else:
        raise ConfigurationError("fundamental_solution supports n in {2, 3}")
    return complex(out[0]) if scalar else out


def fundamental_solution_gradient(n: int, z, x):
    """Gradient of the planar fundamental solution at x != 0 (n = 2 only)."""
    if n != 2:
        raise ConfigurationError("gradient is implemented for n = 2 only")
    zp = as_spectral_point(z)
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    r = np.hypot(pts[..., 0], pts[..., 1])
    if np.any(r == 0.0):
        raise SingularityError("gradient singular at x = 0")
    if zp.is_laplace:
        coef = -1.0 / (2.0 * np.pi * r * r) + 0j
    else:
        k = zp.sqrt_z
        coef = -(0.25j * k) * hankel1(1, k * r) / r
    out = coef[..., None] * pts
    return out[0] if scalar else out
