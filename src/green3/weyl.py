"""Dirichlet-to-Neumann (Weyl) maps of both sides of a curve: the rows of
``green3 dtn`` and the Herglotz checks.

The solution operator γ(z): boundary data → (−Δ−z)-solution is realized by a
single-layer ansatz, γ(z)φ = 𝒮_z S⁻¹φ (the density from
``_LayerOperators.solve``, the field from ``potentials._OffCurve.single_layer``),
so M_±(z) = −τ_N^± γ_±(z) becomes −(½I ∓ K*) S⁻¹ with the signs inherited
from the jump relations in :mod:`green3.potentials`, whose layer bundle owns
S⁻¹ and M_± (``_LayerOperators.weyl_action``).  For Im z > 0 the maps are
verified to be Herglotz: positive (weighted) imaginary part, and
M(z) − M(z)* = (z − z̄)·γ(z)*γ(z) with the right-hand Gram computed by
genuine domain quadrature of the fields.

The rows of ``green3 dtn`` are built here (``_dtn_rows``): the mode
quotients of M_± at N, each against a reference, and the row
``weyl.dtn.point_source`` (``potentials``): a point source on the far side
of the curve solves on this side, so M_±φ = −τ_N^± f with φ = τ_D f.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .geometry import QuadratureGrid, _leggauss
from .potentials import _LayerOperators, _point_source_row, disk_mode_multipliers
from .reports import ResidualReport, timed_check, worst
from .specfun import SpectralPoint, as_spectral_point, fundamental_solution

_SIDES = {"+": "interior", "interior": "interior", "-": "exterior", "exterior": "exterior"}


def _normalize_side(side: str) -> str:
    try:
        return _SIDES[side]
    except KeyError:
        raise ConfigurationError(f"side must be interior/exterior (or +/−), got {side!r}") from None


def _rayleigh_quotients(grid: QuadratureGrid, phis: np.ndarray, images: np.ndarray) -> np.ndarray:
    """⟨φ, Mφ⟩_w / ⟨φ, φ⟩_w per column φ of ``phis``, given the columns Mφ."""
    weighted = phis.conj() * grid.arc_weights[:, None]
    return np.einsum("ij,ij->j", weighted, images) / np.einsum("ij,ij->j", weighted, phis)


def _mode_quotients(ops: _LayerOperators, side: str, modes: int, *extra):
    """The arc-weighted Rayleigh quotients of M_side on e^{imθ}, m = 0..modes,
    without forming M, and M_side on the ``extra`` densities, more columns of
    the same solve.  On the disk M_side is Fourier-diagonal, so the quotient
    of mode m is its symbol; elsewhere it is a weighted average."""
    phis = np.exp(1j * np.outer(ops.grid.nodes, np.arange(modes + 1)))
    images, _ = ops.weyl_action(side, np.column_stack([phis, *extra]))
    return _rayleigh_quotients(ops.grid, phis, images[:, :modes + 1]), images[:, modes + 1:]


def _dtn_rows(grid: QuadratureGrid, half: QuadratureGrid | None, z, side: str, modes: int,
              tolerance: float) -> list:
    """A ``weyl.dtn.mode`` row per m = 0..``modes`` and the side's point-source
    row at one z, from one solve at N.  A mode row reports the quotient λ at N
    with residual |λ − ref|/(1 + |ref|): ref is the closed-form symbol
    −κI_m′/I_m (interior) or κK_m′/K_m (exterior) where ``half`` is None (the
    disk), elsewhere the same quotient on ``half``, the grid of N/2 nodes on
    the same curve, a conservative bound that needs N a multiple of 4 and at
    least 16, and ``modes`` below N/4."""
    ops = _LayerOperators(grid, z)
    # N before N/2, so that a resonance is reported by the rcond₁ guard at N
    source = ops.point_source(side).dirichlet  # one more column of the solve
    quotients, image = _mode_quotients(ops, side, modes, source)
    if half is None:
        reference = disk_mode_multipliers(ops.z, range(modes + 1))[f"M.{side}"]
    else:
        reference, _ = _mode_quotients(_LayerOperators(half, ops.z), side, modes)
    rows = [_point_source_row(ops, side, tolerance, image[:, 0])]
    params = {"side": side, "curve": grid.curve.shape, "n": grid.n,
              "z": [ops.z.z.real, ops.z.z.imag]}
    for m in range(modes + 1):
        def entry(m=m):
            lam, ref = complex(quotients[m]), complex(reference[m])
            return abs(lam - ref) / (1.0 + abs(ref)), {"eigenvalue": lam}

        rows.append(timed_check("weyl.dtn.mode", {**params, "m": m}, tolerance, entry))
    return rows


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


_OUTER_RADIUS = 8.0


def herglotz_residuals(side: str, grid: QuadratureGrid, z, modes: int = 12,
                       tolerance: float = 1e-6) -> ResidualReport:
    """Positivity and the γ*γ identity for the Weyl map at nonreal z.

    Real z degenerates to self-adjointness (M = M*), reported as a single row.
    The identity row exists only on the disk, where the domain integral
    ∫ conj(γφ_a)(γφ_b) can be done by radial Gauss–Legendre × per-ring FFT;
    the exterior version truncates at ``_OUTER_RADIUS`` and reports the decay
    tail as its own row.
    """
    side = _normalize_side(side)
    z = as_spectral_point(z)
    if grid.curve.shape != "disk" and z.z.imag != 0.0:
        raise ConfigurationError(
            "the γ*γ identity check integrates over disk-adapted polar grids; "
            "only curve 'disk' is supported (positivity alone works on any curve)"
        )
    n = grid.n
    mlist = np.arange(-modes, modes + 1)
    phis = np.exp(1j * np.outer(mlist, grid.nodes)) / math.sqrt(2.0 * np.pi)
    # one LU of S serves the whole map and the mode densities of the Gram
    images, psis = _LayerOperators(grid, z).weyl_action(side, np.hstack([np.eye(n), phis.T]))
    w = grid.arc_weights
    wm = w[:, None] * images[:, :n]
    skew = wm - wm.conj().T  # W M − M^H W, anti-Hermitian analytically
    params = {"side": side, "curve": grid.curve.shape, "n": grid.n,
              "z": [z.z.real, z.z.imag], "modes": modes}

    if z.z.imag == 0.0:
        return ResidualReport([timed_check("herglotz.self_adjoint", params, 1e-8,
                                           lambda: worst(np.abs(skew)))])

    # ⟨φ_a, (M − M*)φ_b⟩_W on the resolved modes |m| ≤ ``modes``, * the W-adjoint;
    # the φ are W-orthonormal there, so this is the compression of M − M*
    block = phis.conj() @ skew @ phis.T

    def psd():
        # the Hermitian part of (M − M*)/(z − z̄), positive for a Herglotz map; the
        # modes near Nyquist are left out, their symbols are not resolved
        herm = block / (z.z - z.z.conjugate())
        lam_min = float(np.linalg.eigvalsh(0.5 * (herm + herm.conj().T))[0])
        return worst((0.0, -lam_min)), {"lambda_min": lam_min}

    rows = [timed_check("herglotz.psd", params, tolerance, psd)]

    coeffs = np.fft.fft(psis[:, n:].T, axis=1) / n  # (modes, N) DFT of each mode density
    freqs = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)

    if side == "interior":
        radii, rad_w = _leggauss(64, 0.0, 1.0)
    else:
        radii, rad_w = _leggauss(96, 1.0, _OUTER_RADIUS)
    rho, g_outer = _ring_profile_weights(z, freqs, radii, rad_w)
    gram = (coeffs.conj() * rho[None, :]) @ coeffs.T

    def identity():
        return worst(np.abs(block - (z.z - z.z.conjugate()) * gram))

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
    return ResidualReport(rows)
