"""Nyström discretization of the planar single/double layer potentials.

Boundary operators use Kress' global trigonometric splitting of the
logarithmic singularity, so everything converges spectrally on the smooth
curves from :mod:`green3.geometry`.  Sign conventions (pinned by the disk
separation-of-variables oracle, not assumed):

* 𝒟φ(x) = ∫ ⟨n⁺(y), (∇E)(z; x−y)⟩ φ(y) ds(y) — with this choice the Gauss
  identity reads (½I + K)·1 = 1 inside the disk;
* τ_D^± 𝒮φ = Sφ,  τ_N^± 𝒮φ = (½I ∓ K*)φ,  τ_D^± 𝒟φ = (±½I + K)φ,
  where "+" is the bounded side and n⁻ = −n⁺.

S, K, K* and these traces come from one ``_LayerOperators`` bundle per
(grid, z), which evaluates each kernel once.

S⁻¹ and the Weyl maps.  The bundle also owns S(z)⁻¹ (``solve``), which gives
the density of the single-layer γ-field, and forms the Weyl maps
M_± = −(½I ∓ K*)S⁻¹ (``weyl_action``, the only code that does): one LU of S
per (grid, z), made on first use, and the singular values of S for the
indicator, each guarded against a resonance of the ansatz with the floor
``_RCOND_FLOOR`` = 1e-12.
The LU guard reads LAPACK's estimate of rcond₁ = 1/(‖S‖₁‖S⁻¹‖₁), within a factor N of the SVD
guard's σ_min/σ_max.  On the unit disk at z = 0 (log capacity 1, S singular)
rcond₁ is 2.4e-17 at N = 128 and 7.7e-18 at N = 512 (σ ratios 2.9e-17 and
1.4e-17); on the kite at z = 0 it is 2.6e-3 and 6.4e-4, each estimate within
three digits of the exact rcond₁.  An exactly zero pivot raises first.

Point sources.  f = E(z; · − y) solves (−Δ − z)f = 0 on the side of the
curve away from y, and its traces are exact.  Green's representation there,
f = 𝒮[τ_N f] ± 𝒟[τ_D f] with τ_N along n^±, has the Dirichlet trace
S·τ_N⁺f + K·φ − ½φ = 0 inside and S·τ_N⁻f − K·φ − ½φ = 0 outside, φ = τ_D f
(the Calderón relations; Kress, *Linear Integral Equations*, §6 and §12.3).
On this side M_±φ = −τ_N^± f as well.  ``_PointSourceTraces`` gives those
traces for the sources that ``_placement`` places, a bundle builds each
side's on first use, and at one N on every curve the ``jump.calderon.*``
rows check S and K with them and the ``weyl.dtn.point_source`` rows S and K*.

Kernel tables.  At complex z off the negative real axis the kernels J_0, H_0,
J_1 and H_1 (H = H^(1)) at k·r, k = √z, are functions of the pair distance r
alone, so a bundle reads them from a ``_KernelTable``: piecewise Chebyshev
interpolants of degree 10 in r, built from about a thousand node values of
the guarded ``bessel_j``/``hankel1`` (more at |k|·r of several hundred)
instead of four calls on all N(N−1)/2 pairs.  The panels grow geometrically
from the smallest pair distance (ratio 1.08, for the log and 1/r
singularities at r = 0) up to a width of 0.25 radians of |k|·r.  That layout
is checked, not trusted: a panel is accepted once the last two Chebyshev
coefficients of every function lie below 1e-15 of that function's maximum
over the table, or once halving the panel no longer shrinks them 16-fold
(they are then the rounding of the node values, as for |k|·r of several
hundred), and is halved otherwise.  H itself is tabulated: J + iY would
cancel where H decays like e^{−|Im k| r} and J, Y grow; J_1 enters as
J_1(kr)/(kr), which is entire in r² and keeps its relative accuracy at small
r.  Against ``scipy.special`` on the pairs of the disk, kite and ellipse at
N = 64, 256 and 512 the tables agree to 4.4e-15 of each function's maximum
for |z| ≤ 32 and to 3.2e-14 up to z = 1e4 + i and 2500 + 2500i, and H_0, H_1
pointwise to 6.9e-15 for |z| ≤ 32 (|Im k|·r_max up to 16.7) and 7.8e-14 at
z = 1e4 + i, where the rounding of k·r alone moves H by ε·|k|·r ≈ 3e-14.

Real z ≤ 0.  There k = √z is 0 or iκ, and every factor of the kernels is
real: J_0(iκr) = I_0(κr), (i/4)H_0(iκr) = K_0(κr)/(2π), J_1(iκr)/(iκr) =
I_1(κr)/(κr), H_1(iκr) = −(2/π)K_1(κr), and the scales −k²/(4π) = κ²/(4π)
and (i/4)k = −κ/4 of K.  So a bundle builds S, K and K* there in float64,
from I and K of ``specfun._modified_real`` on the pairs.  Each value goes
through the operations of the complex route in the same order, so it is the
real part of the complex one to the bit, and the imaginary parts the complex
route gives are exactly 0; the diagonal of S is the real part of its complex
expression, since numpy's complex log may differ from the real one by an
ulp.  The real SVD of S is about three times faster than the complex one.
``_LayerOperators._over_pairs`` hands either route's kernels to S and K, so
each has one Helmholtz branch beside the logarithm at z = 0.

The pair pass.  The pair layout (the pairs i < j, their offsets and
distances, the Kress weights and the log-sin factor) depends on the grid
alone and is built once per grid (``geometry._PairLayout``).  At complex z
a bundle streams its pairs through the worker pool in chunks of
``_TABLE_CHUNK`` pairs.  One task looks its chunk up in the table, does all
of the Kress-split arithmetic there and writes the S core, or the two K
values of each pair, straight into the bundle's pair arrays: the
temporaries of a chunk stay in cache, and no kernel array over all pairs is
made.  Each element goes through the same operations in the same order as in
one pass over all pairs, so S, K and K* are the same to the bit for every
chunk size and thread cap.  Real z < 0 and z = 0 keep one pass over all
pairs: a variant that chunked the I/K route too raised the peak RSS of the
benchmark's real-z indicator scans (N = 256 and 512) from 90 to 122 MB in
three runs, and to 117 MB with a single malloc arena, while its throughput
moved by 2% at most.  Real z also keeps the I/K route rather than the
tables: a variant that read the tables at real z too was 23 lines shorter
and its S pair pass 1.1–1.8× faster on one thread, but over 10 alternated
runs of those scans (two z-tasks at once) its median job time rose from
0.076 to 0.086 s, better in only 2 of the 10 pairs, while the N = 512 tail
fell from 0.190 to 0.164 s.  K* is scattered from the pair values of K,
K*_ij = K_ji·(s_j/s_i) with s the node speed, which equals K.T·(s_j/s_i) bit
for bit; the DtN path reads only S and K* and never forms K.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import _pool
from ._pool import _cached_property
from .errors import AccuracyRegionError, AnsatzResonanceError, ArgumentRangeError, ConfigurationError
from .geometry import InterfaceCurve, QuadratureGrid, dirichlet_trace, neumann_trace
from .reports import ResidualReport, timed_check, worst
from .specfun import (
    _K_TO_H,
    _OVERFLOW_RADIUS,
    _modified_real,
    as_spectral_point,
    bessel_j,
    fundamental_solution,
    fundamental_solution_gradient,
    hankel1,
    modified_i,
    modified_i_derivative,
    modified_k,
    modified_k_derivative,
)


def _unnormalized_normal(grid: QuadratureGrid) -> np.ndarray:
    v = grid.velocity
    return np.column_stack([v[:, 1], -v[:, 0]])  # n⁺ · |x'|


# trace of a layer potential from one side as (operator, sign, multiple of I):
# τ_D^± 𝒮 = S, τ_N^± 𝒮 = ½I ∓ K*, τ_D^± 𝒟 = ±½I + K, "interior" being "+"
_TRACES = {
    "single.dirichlet.interior": ("single_layer", 1.0, 0.0),
    "single.dirichlet.exterior": ("single_layer", 1.0, 0.0),
    "single.neumann.interior": ("adjoint_double_layer", -1.0, 0.5),
    "single.neumann.exterior": ("adjoint_double_layer", 1.0, 0.5),
    "double.dirichlet.interior": ("double_layer", 1.0, 0.5),
    "double.dirichlet.exterior": ("double_layer", 1.0, -0.5),
}


# Piecewise Chebyshev tables of the kernels in r (complex k off the imaginary axis)
_TABLE_DEGREE = 10     # polynomial degree on every panel
_TABLE_GRADING = 1.08  # panel end over panel start while panels grow from r_min
_TABLE_RADIANS = 0.25  # widest panel, in radians of |k|·r
_TABLE_TAIL = 1e-15    # last two coefficients against the function's table maximum
_TABLE_SHRINK = 16     # a truncation tail shrinks far more than this when its panel is halved
_TABLE_ROUNDS = 8      # halvings a panel may need before the table gives up
_TABLE_CHUNK = 8192    # pairs per pool task of a bundle's pair pass at complex z


@cache
def _lobatto(n: int):
    """Chebyshev–Lobatto points cos(πj/n), j = 0..n, the matrix taking values
    there to the coefficients of the interpolant in T_0..T_n, and the matrix
    taking those to its coefficients in 1, t, .., t^n."""
    theta = np.pi * np.arange(n + 1) / n
    to_coef = (2.0 / n) * np.cos(np.outer(np.arange(n + 1), theta))
    to_coef[:, [0, n]] *= 0.5
    to_coef[[0, n], :] *= 0.5
    to_monomial = np.zeros((n + 1, n + 1))  # row k: T_k = 2t·T_{k−1} − T_{k−2}
    to_monomial[0, 0] = to_monomial[1, 1] = 1.0
    for k in range(2, n + 1):
        to_monomial[k, 1:] = 2.0 * to_monomial[k - 1, :-1]
        to_monomial[k] -= to_monomial[k - 2]
    return np.cos(theta), to_coef, to_monomial


class _KernelTable:
    """J_0(kr), H_0(kr), J_1(kr)/(kr) and H_1(kr) for r in [r_lo, r_hi], H = H^(1).

    One Chebyshev interpolant of degree ``_TABLE_DEGREE`` in r per panel (the
    module docstring has the panel rule and the measured accuracy).  The node
    values are the Chebyshev–Lobatto points of each panel, evaluated by one
    guarded ``bessel_j``/``hankel1`` call per function and round; r_hi is a
    node, so the |w| < 700 overflow guard sees |k|·r_hi.  The interpolants are
    evaluated by Horner's rule in the panel variable t ∈ [−1, 1]: on accepted
    panels the Chebyshev coefficients fall from O(1) to 1e-15 within ten
    degrees, far faster than the (1 + √2)^k size of the monomial coefficients
    of T_k, so the monomial form stays within 3.3e-16 of Clenshaw's recurrence
    and needs one operation fewer per step.  Each step multiplies the (pairs, 4)
    accumulator by t repeated to the same shape, made once per call: on 8192
    pairs that takes 10 µs a step against 36 µs for a multiply that broadcasts
    a (pairs, 1) column, with the same products.  The gathers of the
    coefficients use ``mode="clip"``: every index is in range, and the default
    mode copies through a buffer when ``out`` is given (12 against 31 µs a
    gather; numpy 2.4 on a 2-vCPU x86 host).
    """

    def __init__(self, k: complex, r_lo: float, r_hi: float):
        # beyond the overflow radius the panels are only as fine as inside it:
        # bessel_j rejects the last node anyway
        width = _TABLE_RADIANS / min(abs(k), _OVERFLOW_RADIUS / r_hi)
        edges = [r_lo]
        while edges[-1] < r_hi and (_TABLE_GRADING - 1.0) * edges[-1] < width:
            edges.append(min(_TABLE_GRADING * edges[-1], r_hi))
        uniform = np.linspace(edges[-1], r_hi, math.ceil((r_hi - edges[-1]) / width) + 1)
        edges = np.append(edges[:-1], uniform)
        lo, hi = edges[:-1], edges[1:]
        x, to_coef, to_monomial = _lobatto(_TABLE_DEGREE)
        scale, parent, accepted = None, np.inf, []
        for _ in range(_TABLE_ROUNDS):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            w = k * (mid[:, None] + half[:, None] * x)
            values = np.stack([bessel_j(0, w), hankel1(0, w), bessel_j(1, w) / w, hankel1(1, w)])
            coef = values @ to_coef.T  # (function, panel, degree)
            if scale is None:
                scale = np.abs(values).max(axis=(1, 2))[:, None]
            tail = np.abs(coef[:, :, -2:]).max(axis=2) / scale
            # a tail that halving no longer shrinks is the rounding of the node values
            ok = np.all((tail <= _TABLE_TAIL) | (_TABLE_SHRINK * tail > parent), axis=0)
            accepted.append((lo[ok], coef[:, ok]))
            if ok.all():
                break
            lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
            parent = np.tile(tail[:, ~ok], 2)
        else:
            raise ArgumentRangeError(
                f"kernel table at k = {k:.6g} not resolved after {_TABLE_ROUNDS} halvings")
        lo = np.concatenate([panel for panel, _ in accepted])
        order = np.argsort(lo)
        coef = np.concatenate([c for _, c in accepted], axis=1)[:, order]
        self._edges = np.append(lo[order], r_hi)
        self._mid = 0.5 * (self._edges[1:] + self._edges[:-1])
        self._inv_half = 2.0 / (self._edges[1:] - self._edges[:-1])
        # per order (power of t, panel, [Re J, Im J, Re H, Im H]): one gather per Horner step
        coef = (coef @ to_monomial).T
        self._coef = [np.ascontiguousarray(coef[:, :, 2 * m : 2 * m + 2]).view(float)
                      for m in (0, 1)]

    def __call__(self, order: int, r: np.ndarray):
        """(J_0(kr), H_0(kr)) for order 0 and (J_1(kr)/(kr), H_1(kr)) for order 1,
        in one pass over r; a bundle hands it one chunk of pairs at a time."""
        coef = self._coef[order]
        panel = np.searchsorted(self._edges, r, side="right") - 1
        np.minimum(panel, len(self._mid) - 1, out=panel)  # r = r_hi
        acc = coef[-1].take(panel, axis=0, mode="clip")
        t = np.repeat((r - self._mid[panel]) * self._inv_half[panel], 4).reshape(acc.shape)
        gathered = np.empty_like(acc)
        for c in coef[-2::-1]:
            acc *= t
            acc += c.take(panel, axis=0, out=gathered, mode="clip")
        j, h = np.ascontiguousarray(acc.view(complex).T)  # columns [J, H]
        return j, h


_RCOND_FLOOR = 1e-12  # both resonance guards of S (module docstring)


def _resonance(detail: str) -> AnsatzResonanceError:
    return AnsatzResonanceError(f"single-layer boundary matrix is numerically singular ({detail}); "
                                "perturb z slightly or refine the grid")


class _LayerOperators:
    """S, K, K* and their traces on one (grid, z), each kernel evaluated once,
    S⁻¹ and the Weyl maps (module docstring), and the point-source traces of
    both sides.

    The pair distance, the log-sin factor and the Kress weights are symmetric in
    the two nodes, so they and the Bessel/Hankel kernels on them are computed on
    the N(N−1)/2 pairs i < j only (the grid's ``_PairLayout``) and mirrored
    into the dense matrices; only the normal factor ⟨n_u[j], x_j − x_i⟩ of K
    is not symmetric.  The operators are float64 where k = √z is 0 or on the
    imaginary axis (real z ≤ 0) and complex128 elsewhere.  Everything is
    built on first use.  Callers make a bundle per call and keep nothing.
    """

    def __init__(self, grid: QuadratureGrid, z):
        self.grid = grid
        self.z = as_spectral_point(z)
        self._pairs = grid._pairs
        self._dtype = float if self.z.sqrt_z.real == 0.0 else complex
        self._lu, self._sources = {}, {}  # (LU, pivots) per LAPACK type; traces per side

    @_cached_property
    def _table(self) -> _KernelTable:
        return _KernelTable(self.z.sqrt_z, self._pairs.r.min(), self._pairs.r.max())

    def _over_pairs(self, order: int, write) -> None:
        """``write(s, core)`` for slices s covering the pairs, k = √z ≠ 0, with
        the Kress-split kernel core = R·smooth + (2π/N)·(split − smooth·ln(4 sin²))
        on them: smooth = −J_0(kr)/(4π) and split = (i/4)H_0(kr) for S (order
        0), smooth = −k²/(4π)·J_1(kr)/(kr) and split = (i/4)k·H_1(kr)/r for K
        without its normal factor (order 1).  At complex z the table gives the
        kernels a chunk of ``_TABLE_CHUNK`` pairs at a time, one pool task per
        chunk; at real z < 0 the real I/K route gives them on all pairs in one
        pass."""
        n, k, pairs = self.grid.n, self.z.sqrt_z, self._pairs
        r = pairs.r

        def combine(s, smooth, split):
            split -= smooth * pairs.lsin[s]
            write(s, pairs.kress[s] * smooth + (2.0 * np.pi / n) * split)

        if self._dtype is complex:
            table = self._table
            smooth_scale, split_scale = ((-1.0 / (4.0 * np.pi), 0.25j) if order == 0
                                         else (-k * k / (4.0 * np.pi), 0.25j * k))

            def chunk(s):
                smooth, split = table(order, r[s])
                smooth *= smooth_scale
                split *= split_scale
                if order:
                    split /= r[s]
                combine(s, smooth, split)

            _pool.run_all([lambda a=a: chunk(slice(a, a + _TABLE_CHUNK))
                           for a in range(0, r.size, _TABLE_CHUNK)])
            return
        # k = iκ, y = κr: each value below is the real part of the complex
        # route's, by the same roundings (the imaginary parts are exactly 0)
        kappa = k.imag
        y = kappa * r
        i_y, k_y = _modified_real(order, y)
        split = _K_TO_H * k_y  # H_0(iy)/i or H_1(iy)
        if order == 0:
            smooth = i_y * (-1.0 / (4.0 * np.pi))
            split *= -0.25  # (i/4)·i
        else:
            smooth = i_y * (1.0 / y)  # J_1(iy)/(iy); a complex quotient rounds 1/y first
            smooth *= kappa * kappa / (4.0 * np.pi)  # −k²/(4π)
            split *= -0.25 * kappa  # (i/4)·k
            split *= 1.0 / r
        combine(slice(None), smooth, split)

    def _square(self, upper, lower, diagonal) -> np.ndarray:
        out = np.empty((self.grid.n, self.grid.n), dtype=self._dtype)
        out[self._pairs.upper] = upper
        out.T[self._pairs.upper] = lower
        np.fill_diagonal(out, diagonal)
        return out

    @_cached_property
    def single_layer(self) -> np.ndarray:
        """S(z), the weakly singular kernel split per Kress."""
        n, z, pairs, speed = self.grid.n, self.z, self._pairs, self.grid.speed
        if z.is_laplace:
            smooth = -1.0 / (4.0 * np.pi)
            split = -(np.log(pairs.r) - 0.5 * pairs.lsin) / (2.0 * np.pi)
            split_diagonal = -np.log(speed) / (2.0 * np.pi)
            core = pairs.kress * smooth + (2.0 * np.pi / n) * split
        else:
            core = np.empty(pairs.r.size, dtype=self._dtype)
            self._over_pairs(0, core.__setitem__)
            split_diagonal = 0.25j - (np.euler_gamma + np.log(z.sqrt_z * speed / 2.0)) / (2.0 * np.pi)
        # the smooth part is -J_0(k·0)/(4π) = -1/(4π) on the diagonal
        diagonal = -pairs.kress_diagonal / (4.0 * np.pi) + (2.0 * np.pi / n) * split_diagonal
        if self._dtype is float:  # at k = iκ the imaginary part is 1/4 − (π/2)/(2π) = 0
            diagonal = diagonal.real
        mat = self._square(core, core, diagonal)
        mat *= speed
        return mat

    @_cached_property
    def _double_layer_pairs(self):
        """K on the pairs i < j, as (K_ij, K_ji), and its curvature diagonal."""
        n, pairs = self.grid.n, self._pairs
        nu_x, nu_y = _unnormalized_normal(self.grid).T
        rows, cols, dx, dy = pairs.rows, pairs.cols, pairs.dx, pairs.dy
        upper = np.empty(pairs.r.size, dtype=self._dtype)
        lower = np.empty(pairs.r.size, dtype=self._dtype)

        def write_pairs(s, core):  # core times ⟨n_u[j], x_j − x_i⟩ and ⟨n_u[i], x_i − x_j⟩
            rs, cs, dxs, dys = rows[s], cols[s], dx[s], dy[s]
            np.multiply(nu_x[cs] * dxs + nu_y[cs] * dys, core, out=upper[s])
            np.multiply(-(nu_x[rs] * dxs + nu_y[rs] * dys), core, out=lower[s])

        if self.z.is_laplace:
            write_pairs(slice(None), 1.0 / (n * pairs.r * pairs.r))
        else:
            self._over_pairs(1, write_pairs)
        return upper, lower, self.grid.curvature * self.grid.speed / (2.0 * n)

    @_cached_property
    def double_layer(self) -> np.ndarray:
        """K(z), principal value, with the curvature diagonal."""
        return self._square(*self._double_layer_pairs)

    @_cached_property
    def adjoint_double_layer(self) -> np.ndarray:
        """K*, the quadrature adjoint of K: K*_ij = K_ji |x'(t_j)| / |x'(t_i)|,
        scattered from the pair values of K without forming K."""
        speed = self.grid.speed
        upper, lower, diagonal = self._double_layer_pairs
        s_rows, s_cols = speed[self._pairs.rows], speed[self._pairs.cols]
        # the ratio is 1 on the diagonal, so K*_ii = K_ii
        return self._square(lower * (s_cols / s_rows), upper * (s_rows / s_cols), diagonal)

    def apply_trace(self, name: str, densities) -> np.ndarray:
        """One side's trace of a layer potential, named as in ``_TRACES``,
        applied to a density or to the columns of ``densities``."""
        attr, sign, half = _TRACES[name]
        return sign * (getattr(self, attr) @ densities) + half * densities

    def solve(self, densities) -> np.ndarray:
        """S⁻¹Φ for a density or the columns Φ, by the LU of S once its rcond₁
        passes the guard.  The LAPACK type follows S and Φ together (S is real
        at real z ≤ 0, and a real ``getrs`` would drop the imaginary part of
        complex densities); S is factored once per type, and callers use one."""
        from scipy.linalg.lapack import get_lapack_funcs  # ~50 ms, paid on first use only

        mat, densities = self.single_layer, np.asarray(densities)
        getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (mat, densities))
        if getrf.typecode not in self._lu:
            lu, piv, info = getrf(mat)
            if info > 0:
                raise _resonance(f"pivot {info} of its LU is exactly zero")
            rcond, _ = gecon(lu, np.abs(mat).sum(axis=0).max())
            if not rcond >= _RCOND_FLOOR:  # a NaN estimate fails too
                raise _resonance(f"rcond₁ = {rcond:.2e}")
            self._lu[getrf.typecode] = lu, piv
        psi, _ = getrs(*self._lu[getrf.typecode], densities)
        return psi

    def weyl_action(self, side: str, densities):
        """M_side Φ = −(½I ∓ K*)S⁻¹Φ for a density or the columns Φ, with the
        densities S⁻¹Φ; ``side`` is interior or exterior."""
        psi = self.solve(densities)
        return -self.apply_trace(f"single.neumann.{side}", psi), psi

    @_cached_property
    def single_layer_singular_values(self) -> np.ndarray:
        """Singular values of S, largest first, once σ_min/σ_max passes the
        guard; at real z ≤ 0 S is float64, and the real SVD is about three
        times faster than the complex one."""
        values = np.linalg.svd(self.single_layer, compute_uv=False)
        if values[-1] < _RCOND_FLOOR * values[0]:
            raise _resonance(f"σ_min/σ_max = {values[-1] / values[0]:.2e}")
        return values

    def point_source(self, side: str) -> _PointSourceTraces:
        """The exact traces of the point source that solves on ``side``."""
        if side not in self._sources:
            self._sources[side] = _PointSourceTraces(self.grid, self.z, side)
        return self._sources[side]


# ---------------------------------------------------------------- field evaluation

class _OffCurve:
    """E(z; x − y) and ∇_x E away from the curve, on targets x × sources y:
    the (M, S, 2) offsets, the (M, S) distances, and E and ∇E each built on
    first use.  The layer fields, point sources and the volume potential all
    read one; a single target may be given as one point."""

    def __init__(self, z, targets, sources):
        self.z = z
        targets = np.asarray(targets, dtype=float).reshape(-1, 2)
        self.offsets = targets[:, None, :] - np.asarray(sources, dtype=float)[None, :, :]
        self.r = np.linalg.norm(self.offsets, axis=2)

    @classmethod
    def layer(cls, grid: QuadratureGrid, z, points, enforce: bool) -> _OffCurve:
        """Targets ``points`` × the nodes of ``grid``; with ``enforce``, a point
        nearer the curve than the trapezoid rule is trusted raises
        ``AccuracyRegionError``."""
        kernel = cls(z, points, grid.points)
        floor = 5.0 * 2.0 * np.pi / grid.n
        if enforce and kernel.r.min() < floor:
            raise AccuracyRegionError(
                f"evaluation point within {kernel.r.min():.3g} of the curve; the plain "
                f"trapezoid rule is only trusted beyond {floor:.3g} at N={grid.n}"
            )
        return kernel

    @_cached_property
    def value(self) -> np.ndarray:
        return fundamental_solution(2, self.z, self.r.ravel()).reshape(self.r.shape)

    @_cached_property
    def gradient(self) -> np.ndarray:
        flat = self.offsets.reshape(-1, 2)
        return fundamental_solution_gradient(2, self.z, flat).reshape(self.offsets.shape)


def eval_single_layer_field(curve: InterfaceCurve, grid: QuadratureGrid, z, density, points,
                            enforce_accuracy_region: bool = True) -> np.ndarray:
    """𝒮_z φ at off-boundary points by the plain trapezoid rule."""
    kernel = _OffCurve.layer(grid, as_spectral_point(z), points, enforce_accuracy_region)
    return kernel.value @ (np.asarray(density) * grid.arc_weights)


def eval_double_layer_field(curve: InterfaceCurve, grid: QuadratureGrid, z, density, points,
                            enforce_accuracy_region: bool = True) -> np.ndarray:
    """𝒟_z φ at off-boundary points by the plain trapezoid rule."""
    kernel = _OffCurve.layer(grid, as_spectral_point(z), points, enforce_accuracy_region)
    normal_derivative = np.einsum("jk,ijk->ij", _unnormalized_normal(grid), kernel.gradient)
    return (2.0 * np.pi / grid.n) * (normal_derivative @ np.asarray(density))


# ---------------------------------------------------------------- disk oracle

# the normal double range: I_m underflows and K_m overflows once m is large
_SMALLEST, _LARGEST = float(np.finfo(float).tiny), float(np.finfo(float).max)


class _DiskMode:
    """Fourier mode m of the unit disk at z: κ = −i√z (Re κ > 0) and the
    modified Bessel factors I_m, K_m, I_m′, K_m′ at κ.

    Every factor, here and in the γ-profiles, must be a normal finite double:
    the first that is not raises ``ArgumentRangeError`` naming the mode, where
    it would otherwise become a NaN, a division by zero or a false pole."""

    def __init__(self, z, m: int):
        self.m = m
        z = as_spectral_point(z)
        self.kappa = -1j * z.sqrt_z
        if not self.kappa.real > 0.0:  # a subnormal Im z just above (0, ∞) rounds it away
            raise ArgumentRangeError(
                f"mode {m} at z = {z.z}: κ = −i√z = {self.kappa:.6g} has no positive "
                "real part, so K_m(κ) is undefined; move z off [0, ∞)")
        self.i_m = self._normal("I_m(κ)", modified_i(m, self.kappa))
        self.k_m = self._normal("K_m(κ)", modified_k(m, self.kappa))
        self.di_m = self._normal("I_m'(κ)", modified_i_derivative(m, self.kappa))
        self.dk_m = self._normal("K_m'(κ)", modified_k_derivative(m, self.kappa))

    def _normal(self, name, value, radii=None):
        """``value`` if each of its entries is a normal finite double, else
        ArgumentRangeError; ``radii`` names the radius of an array entry."""
        size = np.abs(value)
        bad = np.flatnonzero(~((size >= _SMALLEST) & (size <= _LARGEST)))  # NaN fails too
        if bad.size:
            first = bad[0]
            at = "" if radii is None else f" at r = {np.ravel(radii)[first]:g}"
            raise ArgumentRangeError(
                f"mode {self.m} leaves the double-precision range at κ = {self.kappa:.6g}: "
                f"{name}{at} = {np.ravel(value)[first]:.3g} is outside "
                f"{_SMALLEST:.3g} <= |x| <= {_LARGEST:.3g}; use fewer modes")
        return value

    def i_at(self, r):
        """I_m(κr) at a radius or an array of radii, in one guarded call."""
        return self._normal("I_m(κr)", modified_i(self.m, self.kappa * r), r)

    def k_at(self, r):
        """K_m(κr) at a radius or an array of radii, in one guarded call."""
        return self._normal("K_m(κr)", modified_k(self.m, self.kappa * r), r)

    def gamma_interior(self, r):
        """The interior γ-profile I_m(κr)/I_m(κ)."""
        return self.i_at(r) / self.i_m

    def gamma_exterior(self, r):
        """The exterior γ-profile K_m(κr)/K_m(κ)."""
        return self.k_at(r) / self.k_m


def disk_mode_multipliers(z, m: int) -> dict:
    """Separation-of-variables multipliers on the unit circle for density e^{imθ}.

    Everything reduces to the modified Bessel factors of ``_DiskMode`` at
    κ = −i√z: the returned dict maps trace names to the scalar each boundary
    operator multiplies the mode by.  This is the closed-form reference the
    planar Nyström operators are checked against; it never touches the
    matrices.  A factor outside the normal double range raises
    ``ArgumentRangeError`` naming the mode.
    """
    z = as_spectral_point(z)
    if z.is_laplace:
        raise ConfigurationError("mode multipliers need z off [0, ∞); use small negative z instead")
    mode = _DiskMode(z, abs(int(m)))
    kappa, i_m, k_m, di_m, dk_m = mode.kappa, mode.i_m, mode.k_m, mode.di_m, mode.dk_m
    s = i_m * k_m
    a_plus = kappa * di_m * k_m           # τ_N⁺ 𝒮
    a_minus = -kappa * i_m * dk_m         # τ_N⁻ 𝒮
    return {
        "single.dirichlet": s,
        "single.neumann.interior": a_plus,
        "single.neumann.exterior": a_minus,
        "double.dirichlet.interior": -kappa * dk_m * i_m,   # = a_minus
        "double.dirichlet.exterior": -kappa * di_m * k_m,   # = -a_plus
        "K": a_minus - 0.5,
        "Kstar": 0.5 - a_plus,            # equals K on the disk (Wronskian)
        "M.interior": -a_plus / s,        # −κ I'_m/I_m
        "M.exterior": -a_minus / s,       # κ K'_m/K_m
        "gamma.interior": mode.gamma_interior,
        "gamma.exterior": mode.gamma_exterior,
    }


# ---------------------------------------------------------------- point sources

def _point_source(z, location):
    """The field E(z; x − y) of a point source at y and its gradient in x."""
    site = [location]
    return (lambda pts: _OffCurve(z, pts, site).value[:, 0],
            lambda pts: _OffCurve(z, pts, site).gradient[:, 0])


def _placement(grid: QuadratureGrid):
    """The point sources and probe rings of the planar checks, (outside,
    inside, rings): sources at 2.1·r_max, angle 0.4, and at 0.3·r_min, angle
    −1.1, and rings of 20 probes at 0.55·r_min and 1.45·r_max as (radius,
    count), r the distances of the nodes from the origin, which every
    supported curve encloses."""
    radii = np.linalg.norm(grid.points, axis=1)
    r_min, r_max = float(radii.min()), float(radii.max())
    return ((2.1 * r_max * np.cos(0.4), 2.1 * r_max * np.sin(0.4)),
            (0.3 * r_min * np.cos(-1.1), 0.3 * r_min * np.sin(-1.1)),
            ((0.55 * r_min, 20), (1.45 * r_max, 20)))


class _PointSourceTraces:
    """φ = τ_D f and τ_N f along n^side at the nodes of the point source
    f = E(z; · − y) that solves (−Δ − z)f = 0 on ``side``: y is the outside
    source of ``_placement`` for the interior and the inside one for the
    exterior."""

    def __init__(self, grid: QuadratureGrid, z, side: str):
        outside, inside, _ = _placement(grid)
        self.site = outside if side == "interior" else inside
        field, grad = _point_source(z, self.site)
        trace_side = "+" if side == "interior" else "-"
        self.dirichlet = dirichlet_trace(field, grid.curve, grid, trace_side)
        self.neumann = neumann_trace(grad, grid.curve, grid, trace_side)

    def defect(self, residual):
        """The largest |residual| over the largest |φ| or |τ_N f|, and the site."""
        scale = max(np.abs(self.dirichlet).max(), np.abs(self.neumann).max())
        return worst(np.abs(residual) / scale), {"source": list(self.site)}


# ---------------------------------------------------------------- jump relations

def _mode_density(grid: QuadratureGrid, m: int) -> np.ndarray:
    return np.exp(1j * m * grid.nodes)


def _calderon_defect(ops: _LayerOperators, side: str):
    """The Calderón relation of ``side`` for its point source, through the
    ``_TRACES`` names: S·τ_N f ± τ_D^±𝒟φ − φ = 0, the Dirichlet trace of
    f = 𝒮[τ_N f] ± 𝒟[φ]."""
    source = ops.point_source(side)
    sign = 1.0 if side == "interior" else -1.0
    phi = source.dirichlet
    residual = (ops.apply_trace(f"single.dirichlet.{side}", source.neumann)
                + sign * ops.apply_trace(f"double.dirichlet.{side}", phi) - phi)
    return source.defect(residual)


def _point_source_row(ops: _LayerOperators, side: str, tolerance: float, image=None):
    """The ``weyl.dtn.point_source`` row of ``side``: M_side φ + τ_N f for the
    side's point source, relative to its largest trace.  ``image`` is M_side φ
    where the caller's solve has it; without it the row solves for φ alone."""
    source = ops.point_source(side)

    def defect():
        mphi = ops.weyl_action(side, source.dirichlet[:, None])[0][:, 0] if image is None else image
        return source.defect(mphi + source.neumann)

    z = ops.z.z
    params = {"side": side, "curve": ops.grid.curve.shape, "n": ops.grid.n, "z": [z.real, z.imag]}
    return timed_check("weyl.dtn.point_source", params, tolerance, defect)


# the default tolerance of the jump rows per curve shape, which the CLI scales by --tol-scale
_TOLERANCE = {"disk": 1e-6, "ellipse": 1e-5, "kite": 1e-5}


def jump_relation_residuals(curve: InterfaceCurve, grid: QuadratureGrid, z, modes: int = 8,
                            tolerance: float | None = None) -> ResidualReport:
    """Residuals of the trace/jump relations for S, K, K* at one N: the rows of
    ``green3 jumps``, from one layer bundle and one LU of S.

    On every curve, the rows ``jump.calderon.interior|exterior`` check S and K
    and the rows ``weyl.dtn.point_source`` check S and K* on the exact traces
    of a point source (module docstring), each relative to the largest trace
    value.  On the disk the six ``jump.<trace>`` rows also compare each trace
    of ``_TRACES`` on the Fourier densities |m| ≤ ``modes`` with the
    closed-form Bessel multiplier; the disk's Bessel factors are checked
    first, before any operator.  The default tolerance (``_TOLERANCE``) is
    1e-6 on the disk and 1e-5 elsewhere.  A singular S raises
    ``AnsatzResonanceError``.
    """
    if modes < 0:
        raise ConfigurationError(f"modes must be >= 0, got {modes}")
    if tolerance is None:
        tolerance = _TOLERANCE[curve.shape]
    ops = _LayerOperators(grid, z)
    params = {"curve": curve.shape, "n": grid.n, "z": [ops.z.z.real, ops.z.z.imag]}
    rows = []
    if curve.shape == "disk":
        mlist = range(-modes, modes + 1)
        phis = np.column_stack([_mode_density(grid, m) for m in mlist])  # one column per mode
        table = {m: disk_mode_multipliers(ops.z, m) for m in range(modes + 1)}

        def reference(name):
            key = "single.dirichlet" if name.startswith("single.dirichlet") else name
            return np.array([table[abs(m)][key] for m in mlist]) * phis

        for name in _TRACES:
            def run(name=name):
                errs = np.abs(ops.apply_trace(name, phis) - reference(name)).max(axis=0)
                return worst(errs), {"worst_mode": mlist[int(np.argmax(errs))]}

            rows.append(timed_check(f"jump.{name}", {**params, "modes": modes, "method": "trace"},
                                    tolerance, run))
    for side in ("interior", "exterior"):
        rows.append(timed_check(f"jump.calderon.{side}", params, tolerance,
                                lambda side=side: _calderon_defect(ops, side)))
    rows += [_point_source_row(ops, side, tolerance) for side in ("interior", "exterior")]
    return ResidualReport(rows).sorted()
