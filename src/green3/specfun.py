"""Complex-argument Bessel/Hankel functions and Helmholtz fundamental solutions.

The cylinder functions are thin, guarded wrappers over ``scipy.special``
(``jv``, ``hankel1``, ``iv``, ``kv``, ``jn_zeros``), which deliver about
machine-precision relative accuracy (a few 1e-16) on the whole range the
package uses; ``bessel_j``, ``hankel1``, ``modified_i`` and ``modified_k`` are
each a guard and one scipy call.  The planar kernel, E_z and the radial
factor of ∇E_z, has one home, ``_kernel``, and z alone picks its route there:
the logarithm at z = 0, the complex Hankel function at complex z, and at real
z < 0, where the argument √z·r = iκr lies on the positive imaginary axis, the
real-argument K_0 and K_1, several times faster than the complex routines
and real.  The layer bundles of :mod:`green3.potentials` take I and K
together from ``_modified_real`` on the node pairs and hand K to ``_kernel``,
so they build their operators in float64 there; the off-curve fields read
``_kernel`` alone, which evaluates K only.

The guards stay ahead of scipy: a nonnegative integer order, |w| < 700 for J,
I and H^(1) (J and I grow like e^{|Im w|}, H^(1) decays into underflow or
loses its phase to the rounding of w; NaN fails it too), Im w >= 0 and
w != 0 for H^(1), Re w > 0 for K, and 0 < y < 700 for the real I/K route.
All functions accept scalars or numpy arrays in the argument, and the
cylinder functions an integer array of orders too, which scipy broadcasts
against the argument; all are pure (thread-safe).  ``_special`` imports
``scipy.special`` on first use, so a run that calls no cylinder function (the
1D model, a usage error) loads no scipy; Python's import lock makes a first
call from two threads at once safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentRangeError, ConfigurationError, SingularityError, SpectralPoleError

_OVERFLOW_RADIUS = 700.0  # e^{±|Im w|} of J, I and H^(1) must stay in the double range


def _special():  # scipy.special, imported on first use (module docstring)
    from scipy import special
    return special


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


def _as_complex_array(w, order=0):
    """w as a complex array, and whether the result is one Python complex:
    w and ``order`` are both scalars."""
    arr = np.asarray(w, dtype=np.complex128)
    if arr.ndim == 0:
        return arr.reshape(1), np.ndim(order) == 0
    return arr, False


def _check_order(order):
    """``order``, a nonnegative integer or an integer array of them."""
    if isinstance(order, (int, np.integer, np.ndarray)) and np.asarray(order).dtype.kind in "iu":
        if np.all(order >= 0):
            return order if isinstance(order, np.ndarray) else int(order)
    raise ArgumentRangeError(f"order must be a nonnegative integer, got {order!r}")


def _check_overflow(arr: np.ndarray) -> None:
    if not np.all(np.abs(arr) < _OVERFLOW_RADIUS):
        raise ArgumentRangeError(f"|w| must be finite and < {_OVERFLOW_RADIUS:g} (overflow guard)")


def _real_argument(y) -> np.ndarray:
    """y as a float array, guarded for the real I/K route: 0 < y < 700."""
    y = np.asarray(y, dtype=float)
    _check_overflow(y)
    if not np.all(y > 0.0):
        raise ArgumentRangeError("the real I/K route needs w = iy with y > 0")
    return y


def _modified_real(order: int, y):
    """(I_order(y), K_order(y)) for order 0 or 1 and real 0 < y < 700, the
    kernels of J and H^(1) at w = iy: J_order(iy) = i^order·I_order(y) and
    H_order(iy) = i^(1−order)·(−2/π)·K_order(y).  A layer bundle reads both on
    its pairs and hands K to ``_kernel``; both together still cost less than
    one complex routine."""
    y = _real_argument(y)
    sp = _special()
    return (sp.i1(y), sp.k1(y)) if order else (sp.i0(y), sp.k0(y))


def bessel_j(order, w):
    """Bessel function J_order(w) for complex w, |w| < 700."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w, order)
    _check_overflow(arr)
    out = _special().jv(order, arr)
    return complex(out[0]) if scalar else out


def _normalize_upper(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    fix = (out.imag < 0.0) & (out.imag >= -1e-9 * (1.0 + np.abs(out)))
    out[fix] = out[fix].real + 0.0j
    return out


def hankel1(order, w):
    """Hankel function of the first kind H^(1)_order(w), Im(w) >= 0, 0 < |w| < 700."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w, order)
    _check_overflow(arr)
    if np.any(arr == 0):
        raise SingularityError("H^(1) is singular at w = 0")
    if np.any(arr.imag < -1e-9 * (1.0 + np.abs(arr))):
        raise ArgumentRangeError("hankel1 requires Im(w) >= 0")
    out = _special().hankel1(order, _normalize_upper(arr))
    return complex(out[0]) if scalar else out


def modified_i(order, w):
    """Modified Bessel I_order(w) = i^{-order} J_order(iw), |w| < 700."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w, order)
    _check_overflow(arr)
    out = _special().iv(order, arr)
    return complex(out[0]) if scalar else out


def modified_k(order, w):
    """Modified Bessel K_order(w) = (pi/2) i^{order+1} H^(1)_order(iw), Re(w) > 0."""
    order = _check_order(order)
    arr, scalar = _as_complex_array(w, order)
    if np.any(arr.real <= 0):
        raise ArgumentRangeError("modified_k requires Re(w) > 0")
    out = _special().kv(order, arr)
    return complex(out[0]) if scalar else out


def bessel_j_zero(k: int) -> float:
    """k-th positive zero of J_0."""
    if not 1 <= k <= 15:
        raise ArgumentRangeError("bessel_j_zero supports 1 <= k <= 15")
    return float(_special().jn_zeros(0, k)[-1])


def _kernel(z: SpectralPoint, order: int, r, h=None):
    """E_z(r) for order 0; for order 1 the radial factor g of ∇E_z(x) =
    −g(|x|)·x, g = (i/4)k·H_1(kr)/r with k = √z, or 1/(2πr²) at z = 0.
    z alone picks the route: the logarithm at z = 0, float64 K_0 and K_1 at
    real z < 0 (k = iκ), the complex H^(1) elsewhere.
    A caller that holds the Hankel factor passes it as ``h``: H_order(kr),
    or K_order(κr) at real z.  The real route is the complex one's real part
    to the bit, by the same operations in the same order."""
    k = z.sqrt_z
    if z.is_laplace:
        return -np.log(r) / (2.0 * np.pi) if order == 0 else 1.0 / (2.0 * np.pi * r * r)
    if k.real == 0.0:  # H_order(iκr) = i^(1−order)·(−2/π)·K_order(κr)
        if h is None:
            h = (_special().k1 if order else _special().k0)(_real_argument(k.imag * r))
        out = (-2.0 / np.pi) * h
        out *= -0.25 if order == 0 else -0.25 * k.imag  # (i/4)·i or (i/4)·k
        if order:
            out *= 1.0 / r
        return out
    if h is None:
        h = hankel1(order, k * r)
    # out of place: numpy rounds an in-place complex product of one pair differently
    return h * 0.25j if order == 0 else h * (0.25j * k) / r


def fundamental_solution(n: int, z, r):
    """Fundamental solution E of (-Laplace - z) in dimension n at distance r > 0."""
    zp = as_spectral_point(z)
    rr, scalar = _as_complex_array(r)
    rr = rr.real.astype(float)
    if np.any(rr <= 0.0):
        raise SingularityError("fundamental_solution requires r > 0")
    if n == 2:
        out = np.asarray(_kernel(zp, 0, rr), dtype=np.complex128)
    elif n == 3:
        if zp.is_laplace:
            out = (1.0 / (4.0 * np.pi * rr)).astype(np.complex128)
        else:
            out = np.exp(1j * zp.sqrt_z * rr) / (4.0 * np.pi * rr)
    else:
        raise ConfigurationError("fundamental_solution supports n in {2, 3}")
    return complex(out[0]) if scalar else out
