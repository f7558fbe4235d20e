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
per (grid, z), made on first use, and the singular values of S in the
arc-length inner product of L²(Γ) for the indicator, each guarded against a
resonance of the ansatz with the floor ``_RCOND_FLOOR`` = 1e-12.  S = A·D
with A symmetric and D = diag(speed), so H = D^{1/2}SD^{−1/2} is symmetric,
and its singular values are those of S in L²(Γ): at real z ≤ 0 the |λ| of
one real ``eigvalsh`` of H (2–3× faster than the SVD at N = 256 and 512),
elsewhere the SVD of H, which is complex symmetric but not Hermitian.  At
real z the LU is real too: complex densities are solved as twice as many
real columns (``solve``).
The LU guard reads LAPACK's estimate of rcond₁ = 1/(‖S‖₁‖S⁻¹‖₁), within a factor N of the
spectral guard's σ_min/σ_max.  On the unit disk at z = 0 (log capacity 1, S singular)
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
real: J_0(iκr) = I_0(κr), J_1(iκr)/(iκr) = I_1(κr)/(κr), the scale
−k²/(4π) = κ²/(4π) of K, and the split parts of ``specfun._kernel``, whose
route z picks.  So a bundle builds S, K and K* there in float64, from one
``specfun._modified_real`` call per chunk for I and K, and the ``_OffCurve``
fields are float64 too.  Each value goes
through the operations of the complex route in the same order, so it is the
real part of the complex one to the bit, and the imaginary parts the complex
route gives are exactly 0; the diagonal of S is the real part of its complex
expression, since numpy's complex log may differ from the real one by an
ulp.
Real z also keeps that route rather than the tables, for accuracy: the tables
bound their error by each function's maximum, and K_0 decays away from it,
so S from the tables differs from S from I and K by up to 1.3e-8 of an
entry at z = −12 (kite, N = 256) and 5.8e-7 at z = −60 (kite, N = 512).

The pair pass.  The pair layout (the pairs i < j, their offsets and
distances, the Kress weights and the log-sin factor) depends on the grid
alone and is built once per grid (``geometry._PairLayout``).
``_LayerOperators._pair_core`` is the one place that builds the kernel core
of S and K on it: the logarithm's closed forms at z = 0, and at every other
z one loop in the calling thread over chunks of ``_PAIR_CHUNK`` pairs.  Each
chunk takes its kernels from the table or from the I/K route and does all of
the Kress-split arithmetic before the next, so its temporaries stay in cache
and no kernel array over all pairs is made; K applies its normal factors over
the same chunks, K_ij in place on the core.  Each element goes through the
same operations in the same order as in one pass over all pairs, so S, K and
K* are the same to the bit for every chunk size.  The pass starts no
thread: a check task builds its bundle in its own thread.  K* is scattered
from the pair values of K, K*_ij = K_ji·(s_j/s_i) with s the node speed,
which equals K.T·(s_j/s_i) bit for bit; the DtN path reads only S and K* and
never forms K.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import (
    AccuracyRegionError,
    AnsatzResonanceError,
    ArgumentRangeError,
    ConfigurationError,
    SingularityError,
)
from .geometry import QuadratureGrid, _cached_property, dirichlet_trace, neumann_trace
from .reports import ResidualReport, timed_check, worst
from .specfun import (
    _OVERFLOW_RADIUS,
    _kernel,
    _modified_real,
    as_spectral_point,
    bessel_j,
    hankel1,
    modified_i,
    modified_k,
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

_PAIR_CHUNK = 8192  # pairs per step of a bundle's pair pass at z != 0


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
        self._sources = {}  # point-source traces per side

    @_cached_property
    def _table(self) -> _KernelTable:
        return _KernelTable(self.z.sqrt_z, self._pairs.r.min(), self._pairs.r.max())

    def _pair_core(self, order: int) -> np.ndarray:
        """The Kress-split kernel core on the pairs, R·smooth + (2π/N)·(split −
        smooth·ln(4 sin²)): smooth = −J_0(kr)/(4π) and split = (i/4)H_0(kr) for
        S (order 0), smooth = −k²/(4π)·J_1(kr)/(kr) and split = (i/4)k·H_1(kr)/r
        for K without its normal factors (order 1).  At z = 0 it is the
        logarithm's closed form; elsewhere one loop in the calling thread takes
        ``_PAIR_CHUNK`` pairs at a time, smooth from the table at complex z and
        from the real I/K route at real z < 0, and split from
        ``specfun._kernel`` on the H or K that came with it."""
        n, z, pairs = self.grid.n, self.z, self._pairs
        r = pairs.r
        if z.is_laplace:
            if order:
                return 1.0 / (n * r * r)
            split = -(np.log(r) - 0.5 * pairs.lsin) / (2.0 * np.pi)
            return pairs.kress * (-1.0 / (4.0 * np.pi)) + (2.0 * np.pi / n) * split
        k = z.sqrt_z
        if self._dtype is complex:
            table = self._table
            smooth_scale = -1.0 / (4.0 * np.pi) if order == 0 else -k * k / (4.0 * np.pi)

            def kernels(s):
                smooth, h = table(order, r[s])
                return smooth * smooth_scale, _kernel(z, order, r[s], h)
        else:
            # k = iκ, y = κr: each value below is the real part of the complex
            # route's, by the same roundings (the imaginary parts are exactly 0)
            kappa = k.imag

            def kernels(s):
                y = kappa * r[s]
                i_y, k_y = _modified_real(order, y)
                if order == 0:
                    smooth = i_y * (-1.0 / (4.0 * np.pi))
                else:
                    smooth = i_y * (1.0 / y)  # J_1(iy)/(iy); a complex quotient rounds 1/y first
                    smooth *= kappa * kappa / (4.0 * np.pi)  # −k²/(4π)
                return smooth, _kernel(z, order, r[s], k_y)

        core = np.empty(r.size, dtype=self._dtype)
        for a in range(0, r.size, _PAIR_CHUNK):
            s = slice(a, a + _PAIR_CHUNK)
            smooth, split = kernels(s)
            split -= smooth * pairs.lsin[s]
            core[s] = pairs.kress[s] * smooth + (2.0 * np.pi / n) * split
        return core

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
        core = self._pair_core(0)
        if z.is_laplace:
            split_diagonal = -np.log(speed) / (2.0 * np.pi)
        else:
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
        pairs = self._pairs
        nu_x, nu_y = _unnormalized_normal(self.grid).T
        upper = self._pair_core(1)
        lower = np.empty_like(upper)
        # per chunk, K_ji = core·⟨n_u[i], x_i − x_j⟩, then K_ij = core·⟨n_u[j], x_j − x_i⟩ in place
        for a in range(0, upper.size, _PAIR_CHUNK):
            s = slice(a, a + _PAIR_CHUNK)
            rows, cols, dx, dy = pairs.rows[s], pairs.cols[s], pairs.dx[s], pairs.dy[s]
            np.multiply(-(nu_x[rows] * dx + nu_y[rows] * dy), upper[s], out=lower[s])
            upper[s] *= nu_x[cols] * dx + nu_y[cols] * dy
        return upper, lower, self.grid.curvature * self.grid.speed / (2.0 * self.grid.n)

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

    @_cached_property
    def _lu(self):
        """The LU of S and its pivots, once rcond₁ passes the guard; the LAPACK
        type follows S alone, so at real z ≤ 0 it is one real ``dgetrf``."""
        from scipy.linalg.lapack import get_lapack_funcs  # ~50 ms, paid on first use only

        mat = self.single_layer
        getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (mat,))
        lu, piv, info = getrf(mat)
        if info > 0:
            raise _resonance(f"pivot {info} of its LU is exactly zero")
        rcond, _ = gecon(lu, np.abs(mat).sum(axis=0).max())
        if not rcond >= _RCOND_FLOOR:  # a NaN estimate fails too
            raise _resonance(f"rcond₁ = {rcond:.2e}")
        return lu, piv

    def solve(self, densities) -> np.ndarray:
        """S⁻¹Φ for a density or the columns Φ, by the one LU of S (``_lu``).
        Where S is real and Φ complex, one real ``getrs`` solves for the real
        and imaginary parts of every column at once."""
        from scipy.linalg.lapack import get_lapack_funcs

        lu, piv = self._lu
        (getrs,) = get_lapack_funcs(("getrs",), (lu,))
        densities = np.asarray(densities)
        if lu.dtype == float and np.iscomplexobj(densities):
            columns = np.ascontiguousarray(densities.reshape(len(densities), -1), dtype=complex)
            psi, _ = getrs(lu, piv, columns.view(float))  # (N, 2m): Re and Im of each column
            return np.ascontiguousarray(psi).view(complex).reshape(densities.shape)
        psi, _ = getrs(lu, piv, densities)
        return psi

    def weyl_action(self, side: str, densities):
        """M_side Φ = −(½I ∓ K*)S⁻¹Φ for a density or the columns Φ, with the
        densities S⁻¹Φ; ``side`` is interior or exterior."""
        psi = self.solve(densities)
        return -self.apply_trace(f"single.neumann.{side}", psi), psi

    @_cached_property
    def single_layer_singular_values(self) -> np.ndarray:
        """Singular values of S in the arc-length inner product, largest first,
        once σ_min/σ_max passes the guard: those of H = D^{1/2}SD^{−1/2},
        D = diag(speed), which is symmetric because S = A·D with A symmetric.
        At real z ≤ 0 H is real, and they are the |λ| of one ``eigvalsh``;
        elsewhere H is complex symmetric, not Hermitian, and they come from
        its SVD."""
        root = np.sqrt(self.grid.speed)
        sym = self.single_layer * root[:, None]
        sym /= root
        if self._dtype is float:
            values = np.sort(np.abs(np.linalg.eigvalsh(sym)))[::-1]
        else:
            values = np.linalg.svd(sym, compute_uv=False)
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
    the (M, S, 2) offsets, the (M, S) distances, which must not vanish, and E
    and ∇E from ``specfun._kernel`` on them, each built on first use.  Point
    sources and the volume potential read one; one built by ``layer`` on a
    grid also gives the single- and double-layer fields of densities on that
    grid.  A single target may be given as one point."""

    def __init__(self, z, targets, sources):
        self.z = as_spectral_point(z)
        targets = np.asarray(targets, dtype=float).reshape(-1, 2)
        self.offsets = targets[:, None, :] - np.asarray(sources, dtype=float)[None, :, :]
        self.r = np.linalg.norm(self.offsets, axis=2)
        if not self.r.all():
            raise SingularityError("E_z is singular where a target meets a source (r = 0)")

    @classmethod
    def layer(cls, grid: QuadratureGrid, z, points, enforce: bool) -> _OffCurve:
        """Targets ``points`` × the nodes of ``grid``, for the layer fields
        ``single_layer`` and ``double_layer`` on that grid; with ``enforce``, a
        point nearer the curve than the trapezoid rule is trusted raises
        ``AccuracyRegionError``."""
        kernel = cls(z, points, grid.points)
        floor = 5.0 * 2.0 * np.pi / grid.n
        if enforce and kernel.r.min() < floor:
            raise AccuracyRegionError(
                f"evaluation point within {kernel.r.min():.3g} of the curve; the plain "
                f"trapezoid rule is only trusted beyond {floor:.3g} at N={grid.n}"
            )
        kernel.grid = grid
        return kernel

    @_cached_property
    def value(self) -> np.ndarray:
        return _kernel(self.z, 0, self.r)

    @_cached_property
    def gradient(self) -> np.ndarray:
        return -_kernel(self.z, 1, self.r)[..., None] * self.offsets

    def single_layer(self, density) -> np.ndarray:
        """𝒮_z φ at the targets of a ``layer`` kernel by the plain trapezoid rule."""
        return self.value @ (np.asarray(density) * self.grid.arc_weights)

    def double_layer(self, density) -> np.ndarray:
        """𝒟_z φ at the targets of a ``layer`` kernel by the plain trapezoid rule."""
        normal_derivative = np.einsum("jk,ijk->ij", _unnormalized_normal(self.grid), self.gradient)
        return (2.0 * np.pi / self.grid.n) * (normal_derivative @ np.asarray(density))


# ---------------------------------------------------------------- disk oracle

# the normal double range: I_m underflows and K_m overflows once m is large
_SMALLEST, _LARGEST = float(np.finfo(float).tiny), float(np.finfo(float).max)


class _DiskMode:
    """The Fourier modes ``modes`` (a mode or a sequence) of the unit disk at
    z, one family: κ = −i√z (Re κ > 0) and the modified Bessel factors I_m,
    K_m, I_m′ = (I_{m−1} + I_{m+1})/2 and K_m′ = −(K_{m−1} + K_{m+1})/2 at κ
    (I_0′ = I_1, K_0′ = −K_1), each of the shape of ``modes``, from one scipy
    call for I and one for K on the orders that the modes need.

    Every factor, here and in the profiles, must be a normal finite double,
    or ``ArgumentRangeError`` names the mode, where it would otherwise become
    a NaN, a division by zero or a false pole.  Each factor adds its guard,
    and a consumer adds its own, in the order one mode meets them; ``check``
    raises the error of the first mode in list order that fails any, as a
    loop over the modes would."""

    @np.errstate(all="ignore")  # a factor out of range is reported by ``check``
    def __init__(self, z, modes):
        self.modes = m = np.asarray(modes)
        z = as_spectral_point(z)
        self.kappa = -1j * z.sqrt_z
        if not self.kappa.real > 0.0:  # a subnormal Im z just above (0, ∞) rounds it away
            raise ArgumentRangeError(
                f"mode {m.flat[0]} at z = {z.z}: κ = −i√z = {self.kappa:.6g} has no positive "
                "real part, so K_m(κ) is undefined; move z off [0, ∞)")
        orders = np.unique(np.concatenate([m[m != 0] - 1, m.ravel(), m.ravel() + 1]))
        i_o, k_o = modified_i(orders, self.kappa), modified_k(orders, self.kappa)
        here, up, down = (np.searchsorted(orders, m + step) for step in (0, 1, -1))
        self._failed = (m.size, None)  # the first failing mode and its error
        self.i_m = self._normal("I_m(κ)", i_o[here])
        self.k_m = self._normal("K_m(κ)", k_o[here])
        self.di_m = self._normal("I_m'(κ)", np.where(m == 0, i_o[up], (i_o[down] + i_o[up]) / 2.0))
        self.dk_m = self._normal("K_m'(κ)",
                                 np.where(m == 0, -k_o[up], -(k_o[down] + k_o[up]) / 2.0))

    def _guard(self, bad, error):
        """Keep ``error(mode, entry)`` for the first mode and its first entry
        that ``bad`` (a row per mode) marks, unless an earlier mode failed."""
        rows = np.reshape(bad, (self.modes.size, -1))
        failing = np.flatnonzero(rows.any(axis=1))
        if failing.size and failing[0] < self._failed[0]:
            mode = failing[0]
            self._failed = (mode, error(mode, np.flatnonzero(rows[mode])[0]))

    def check(self, value=None):
        """``value``, unless a mode fails a guard added since the last check:
        then the first such mode's error."""
        (_, error), self._failed = self._failed, (self.modes.size, None)
        if error is not None:
            raise error
        return value

    def _normal(self, name, value, radii=None):
        """``value``, each entry guarded to be a normal finite double;
        ``radii`` names the radius of an entry."""
        rows = np.reshape(value, (self.modes.size, -1))
        self._guard(~((np.abs(rows) >= _SMALLEST) & (np.abs(rows) <= _LARGEST)),  # NaN too
                    lambda mode, entry: ArgumentRangeError(
                        f"mode {self.modes.flat[mode]} leaves the double-precision range at "
                        f"κ = {self.kappa:.6g}: {name}"
                        f"{'' if radii is None else f' at r = {np.ravel(radii)[entry]:g}'} = "
                        f"{rows[mode, entry]:.3g} is outside {_SMALLEST:.3g} <= |x| <= "
                        f"{_LARGEST:.3g}; use fewer modes"))
        return value

    def i_at(self, r):
        """I_m(κr) at a radius or an array of radii, a row per mode, guarded."""
        return self._normal("I_m(κr)", modified_i(self.modes[..., None], self.kappa * np.ravel(r))
                            .reshape(self.modes.shape + np.shape(r)), r)

    def k_at(self, r):
        """K_m(κr) at a radius or an array of radii, a row per mode, guarded."""
        return self._normal("K_m(κr)", modified_k(self.modes[..., None], self.kappa * np.ravel(r))
                            .reshape(self.modes.shape + np.shape(r)), r)


def disk_mode_multipliers(z, m) -> dict:
    """Separation-of-variables multipliers on the unit circle for density e^{imθ}.

    Everything reduces to the modified Bessel factors of ``_DiskMode`` at
    κ = −i√z: the returned dict maps trace names to the scalar each boundary
    operator multiplies the mode by.  For a sequence ``m`` each is an array
    over one ``_DiskMode`` family.  This is the closed-form reference the
    planar Nyström operators are checked against; it never touches the
    matrices.  A factor outside the normal double range raises
    ``ArgumentRangeError`` naming the mode.
    """
    z = as_spectral_point(z)
    if z.is_laplace:
        raise ConfigurationError("mode multipliers need z off [0, ∞); use small negative z instead")
    mode = _DiskMode(z, np.abs(np.asarray(m, dtype=int)))
    mode.check()
    kappa, i_m, k_m, di_m, dk_m = mode.kappa, mode.i_m, mode.k_m, mode.di_m, mode.dk_m
    s = i_m * k_m
    a_plus = kappa * di_m * k_m           # τ_N⁺ 𝒮
    a_minus = -kappa * i_m * dk_m         # τ_N⁻ 𝒮
    multipliers = {
        "single.dirichlet": s,
        "single.neumann.interior": a_plus,
        "single.neumann.exterior": a_minus,
        "double.dirichlet.interior": -kappa * dk_m * i_m,   # = a_minus
        "double.dirichlet.exterior": -kappa * di_m * k_m,   # = -a_plus
        "K": a_minus - 0.5,
        "Kstar": 0.5 - a_plus,            # equals K on the disk (Wronskian)
        "M.interior": -a_plus / s,        # −κ I'_m/I_m
        "M.exterior": -a_minus / s,       # κ K'_m/K_m
    }
    # the γ-profiles I_m(κr)/I_m(κ) and K_m(κr)/K_m(κ), the mode axis first
    profiles = {"gamma.interior": lambda r: (mode.check(mode.i_at(r)).T / i_m.T).T,
                "gamma.exterior": lambda r: (mode.check(mode.k_at(r)).T / k_m.T).T}
    return {**{name: value[()] for name, value in multipliers.items()}, **profiles}


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
        self.dirichlet = dirichlet_trace(field, grid, trace_side)
        self.neumann = neumann_trace(grad, grid, trace_side)

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


def jump_relation_residuals(grid: QuadratureGrid, z, modes: int = 8,
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
        tolerance = _TOLERANCE[grid.curve.shape]
    ops = _LayerOperators(grid, z)
    params = {"curve": grid.curve.shape, "n": grid.n, "z": [ops.z.z.real, ops.z.z.imag]}
    rows = []
    if grid.curve.shape == "disk":
        mlist = range(-modes, modes + 1)
        phis = np.column_stack([_mode_density(grid, m) for m in mlist])  # one column per mode
        table = disk_mode_multipliers(ops.z, range(modes + 1))

        def reference(name):
            key = "single.dirichlet" if name.startswith("single.dirichlet") else name
            return table[key][np.abs(mlist)] * phis

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
    return ResidualReport(rows)
