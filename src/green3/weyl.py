"""γ-fields and Dirichlet-to-Neumann (Weyl) maps for both sides of a curve.

The solution operator γ(z): boundary data → (−Δ−z)-solution is realized by a
single-layer ansatz, so M_±(z) = −τ_N^± γ_±(z) becomes −(½I ∓ K*) S⁻¹ with
the signs inherited from the jump relations in :mod:`green3.potentials`.
For Im z > 0 the maps are verified to be Herglotz: positive (weighted)
imaginary part, and M(z) − M(z)* = (z − z̄)·γ(z)*γ(z) with the right-hand
Gram computed by genuine domain quadrature of the fields.

Every solve with S goes through one LU factorization, and only the densities
a caller reads are solved for: a dense map solves for the identity, the CLI's
mode tables for their Fourier columns.  The resonance guard reads LAPACK's
estimate of the 1-norm reciprocal condition number rcond₁ = 1/(‖S‖₁‖S⁻¹‖₁)
on that LU and raises below ``_RCOND_FLOOR`` = 1e-12, the floor that the
σ_min/σ_max guard of the indicator uses.  rcond₁ lies within a factor N of
σ_min/σ_max.  Where S is singular, as on the unit disk at z = 0 (log
capacity 1), rcond₁ is at rounding level: 2.4e-17 at N = 128 and 7.7e-18 at
N = 512, against σ ratios of 2.9e-17 and 1.4e-17.  A regular S keeps it far
above the floor, e.g. 2.6e-3 (N = 128) and 6.4e-4 (N = 512) on the kite at
z = 0; in all four cases the estimate matches the exact rcond₁ to three
digits.  An LU with an exactly zero pivot raises before any estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnsatzResonanceError, ConfigurationError
from .geometry import InterfaceCurve, QuadratureGrid, _leggauss
from .potentials import _LayerOperators, _clearance_check, eval_single_layer_field
from .reports import ResidualReport, timed_check, worst
from .specfun import (
    SpectralPoint,
    as_spectral_point,
    fundamental_solution,
    fundamental_solution_gradient,
)

_SIDES = {"+": "interior", "interior": "interior", "-": "exterior", "exterior": "exterior"}


def _normalize_side(side: str) -> str:
    try:
        return _SIDES[side]
    except KeyError:
        raise ConfigurationError(f"side must be interior/exterior (or +/−), got {side!r}") from None


_RCOND_FLOOR = 1e-12


def _resonance(detail: str) -> AnsatzResonanceError:
    return AnsatzResonanceError(
        f"single-layer boundary matrix is numerically singular ({detail}); "
        f"perturb z slightly or refine the grid"
    )


def _guard_resonance(singular_values: np.ndarray) -> None:
    smin, smax = singular_values[-1], singular_values[0]
    if smin < _RCOND_FLOOR * smax:
        raise _resonance(f"σ_min/σ_max = {smin / smax:.2e}")


def _single_layer_solve(ops: _LayerOperators, densities) -> np.ndarray:
    """S⁻¹Φ for a density or the columns Φ, by one LU of S once its rcond₁ passes the guard."""
    from scipy.linalg.lapack import get_lapack_funcs  # ~50 ms, paid on first use only

    mat = ops.single_layer
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (mat,))
    lu, piv, info = getrf(mat)
    if info > 0:
        raise _resonance(f"pivot {info} of its LU is exactly zero")
    rcond, _ = gecon(lu, np.abs(mat).sum(axis=0).max())
    if not rcond >= _RCOND_FLOOR:  # a NaN estimate fails too
        raise _resonance(f"rcond₁ = {rcond:.2e}")
    psi, _ = getrs(lu, piv, densities)
    return psi


def _weyl_action(ops: _LayerOperators, side: str, densities: np.ndarray):
    """M_side Φ = −(½I ∓ K*) S⁻¹Φ for the columns Φ, with the densities S⁻¹Φ."""
    psi = _single_layer_solve(ops, densities)
    return -ops.apply_trace(f"single.neumann.{side}", psi), psi


class SingleLayerField:
    """Off-boundary field 𝒮_z ψ with an analytic gradient; callable on (k, 2) points."""

    def __init__(self, curve: InterfaceCurve, grid: QuadratureGrid, z: SpectralPoint,
                 density: np.ndarray):
        self.curve, self.grid, self.z = curve, grid, z
        self.density = np.asarray(density, dtype=complex)
        self._weights = self.density * grid.arc_weights

    def __call__(self, points) -> np.ndarray:
        return eval_single_layer_field(self.curve, self.grid, self.z, self.density, points)

    def gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        diff, _ = _clearance_check(self.grid, pts, True)
        grads = fundamental_solution_gradient(2, self.z, diff.reshape(-1, 2)).reshape(diff.shape)
        out = np.einsum("j,ijk->ik", self._weights, grads)
        return out[0] if squeeze else out


def gamma_field(side: str, curve: InterfaceCurve, grid: QuadratureGrid, z,
                density) -> SingleLayerField:
    """Solve (−Δ − z)f = 0 on the chosen side with τ_D f = density."""
    _normalize_side(side)  # the ansatz field is two-sided; side only validates intent
    ops = _LayerOperators(grid, z)
    psi = _single_layer_solve(ops, density)
    return SingleLayerField(curve, grid, ops.z, psi)


@dataclass(frozen=True)
class WeylMap:
    side: str
    z: SpectralPoint
    grid: QuadratureGrid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    def apply(self, density) -> np.ndarray:
        return self.matrix @ np.asarray(density, dtype=complex)


def dtn_map(side: str, curve: InterfaceCurve, grid: QuadratureGrid, z) -> WeylMap:
    """Weyl map M_side(z) = −τ_N^side γ_side(z) as a dense boundary matrix."""
    side = _normalize_side(side)
    ops = _LayerOperators(grid, z)
    matrix, _ = _weyl_action(ops, side, np.eye(grid.n))
    return WeylMap(side, ops.z, grid, matrix)


def _rayleigh_quotients(grid: QuadratureGrid, phis: np.ndarray, images: np.ndarray) -> np.ndarray:
    """⟨φ, Mφ⟩_w / ⟨φ, φ⟩_w per column φ of ``phis``, given the columns Mφ."""
    weighted = phis.conj() * grid.arc_weights[:, None]
    return np.einsum("ij,ij->j", weighted, images) / np.einsum("ij,ij->j", weighted, phis)


def _mode_quotients(side: str, grid: QuadratureGrid, z, modes: int) -> np.ndarray:
    """``mode_eigenvalue`` of M_side(z) for m = 0..modes without forming M."""
    ops = _LayerOperators(grid, z)
    phis = np.exp(1j * np.outer(grid.nodes, np.arange(modes + 1)))
    images, _ = _weyl_action(ops, _normalize_side(side), phis)
    return _rayleigh_quotients(grid, phis, images)


def mode_eigenvalue(weyl: WeylMap, m: int) -> complex:
    """Rayleigh quotient of e^{imθ} under the arc-weighted inner product.

    On the disk the Weyl maps are Fourier-diagonal, so this extracts the m-th
    symbol; elsewhere it is just a weighted average."""
    phi = np.exp(1j * m * weyl.grid.nodes)[:, None]
    return complex(_rayleigh_quotients(weyl.grid, phi, weyl.apply(phi))[0])


# ---------------------------------------------------------------- Herglotz checks

def _ring_profile_weights(z: SpectralPoint, freqs: np.ndarray, radii, radial_weights):
    """ρ_k = 2π ∫ |g̊_k(r)|² r dr where g̊_k(r) is the k-th angular Fourier profile
    of the single-layer kernel at radius r; per-ring FFT size grows like
    40/dist(boundary) so the trapezoid error stays below the ring's own scale."""
    rho = np.zeros(freqs.shape, dtype=float)
    gr_last = None
    for r_q, w_q in zip(radii, radial_weights):
        dist = abs(r_q - 1.0)
        n_up = 1 << max(8, math.ceil(math.log2(40.0 / dist)))
        s = 2.0 * np.pi * np.arange(n_up) / n_up
        # |p_r − y(s)| on the unit circle, p_r = (r, 0)
        chord = np.sqrt(np.maximum(r_q * r_q + 1.0 - 2.0 * r_q * np.cos(s), 1e-300))
        ring = fundamental_solution(2, z, chord)
        ghat = 2.0 * np.pi * np.fft.ifft(ring)
        gr_last = ghat[freqs % n_up]
        rho += w_q * r_q * np.abs(gr_last) ** 2
    return 2.0 * np.pi * rho, gr_last


def _gauss_legendre(a: float, b: float, n: int):
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


_OUTER_RADIUS = 8.0


def herglotz_residuals(side: str, curve: InterfaceCurve, grid: QuadratureGrid, z,
                       modes: int = 12, tolerance: float = 1e-6) -> ResidualReport:
    """Positivity and the γ*γ identity for the Weyl map at nonreal z.

    Real z degenerates to self-adjointness (M = M*), reported as a single row.
    The identity row exists only on the disk, where the domain integral
    ∫ conj(γφ_a)(γφ_b) can be done by radial Gauss–Legendre × per-ring FFT;
    the exterior version truncates at ``_OUTER_RADIUS`` and reports the decay
    tail as its own row.
    """
    side = _normalize_side(side)
    z = as_spectral_point(z)
    if curve.shape != "disk" and z.z.imag != 0.0:
        raise ConfigurationError(
            "the γ*γ identity check integrates over disk-adapted polar grids; "
            "only curve 'disk' is supported (positivity alone works on any curve)"
        )
    n = grid.n
    mlist = np.arange(-modes, modes + 1)
    phis = np.exp(1j * np.outer(mlist, grid.nodes)) / math.sqrt(2.0 * np.pi)
    # one LU of S serves the whole map and the mode densities of the Gram
    images, psis = _weyl_action(_LayerOperators(grid, z), side, np.hstack([np.eye(n), phis.T]))
    w = grid.arc_weights
    wm = w[:, None] * images[:, :n]
    skew = wm - wm.conj().T  # W M − M^H W, anti-Hermitian analytically
    params = {"side": side, "curve": curve.shape, "n": grid.n,
              "z": [z.z.real, z.z.imag], "modes": modes}

    if z.z.imag == 0.0:
        row = timed_check(
            "herglotz.self_adjoint", params, 1e-8, lambda: np.abs(skew).max()
        )
        return ResidualReport([row]).sorted()

    def psd():
        # (M − M*)/(2i Im z) with * the W-adjoint: congruence by W^{−1/2} turns the
        # pencil (W M − M^H W, W) into an ordinary Hermitian eigenproblem
        herm = skew / (2j * z.z.imag)
        herm = 0.5 * (herm + herm.conj().T)
        scale = 1.0 / np.sqrt(w)
        lam_min = float(np.linalg.eigvalsh(scale[:, None] * herm * scale[None, :])[0])
        return worst((0.0, -lam_min)), {"lambda_min": lam_min}

    rows = [timed_check("herglotz.psd", params, tolerance, psd)]

    coeffs = np.fft.fft(psis[:, n:].T, axis=1) / n  # (modes, N) DFT of each mode density
    freqs = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)

    if side == "interior":
        radii, rad_w = _gauss_legendre(0.0, 1.0, 64)
    else:
        radii, rad_w = _gauss_legendre(1.0, _OUTER_RADIUS, 96)
    rho, g_outer = _ring_profile_weights(z, freqs, radii, rad_w)
    gram = (coeffs.conj() * rho[None, :]) @ coeffs.T

    def identity():
        lhs = phis.conj() @ skew @ phis.T
        rhs = (z.z - z.z.conjugate()) * gram
        return float(np.abs(lhs - rhs).max())

    rows.append(timed_check("herglotz.identity", params, tolerance, identity))

    if side == "exterior":
        alpha = z.sqrt_z.imag

        def tail():
            # beyond R every profile decays at least like e^{−α(r−R)}; bound the
            # missing ∫_R^∞ |g|² r dr ring by ring and push through the mode sums
            tail_k = 2.0 * np.pi * np.abs(g_outer) ** 2 * (
                _OUTER_RADIUS / (2 * alpha) + 1.0 / (4 * alpha * alpha)
            )
            amp = np.abs(coeffs)
            bound = float(((amp * tail_k[None, :]) @ amp.T).max() * abs(z.z - z.z.conjugate()))
            return bound, {"outer_radius": _OUTER_RADIUS, "decay_rate": alpha}

        rows.append(timed_check("herglotz.tail", params, tolerance, tail))
    return ResidualReport(rows).sorted()
