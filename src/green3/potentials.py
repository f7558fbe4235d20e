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
(grid, z), which evaluates each kernel once; the ``assemble_*`` functions are
thin wrappers around it.

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
Real z < 0 (k on the imaginary axis) keeps the I/K route of ``specfun``;
``_LayerOperators._over_pairs`` hands either route's kernels to S and K, so
each has one Helmholtz branch beside the logarithm at z = 0.  The off-curve
field evaluators call ``specfun`` directly.

The pair pass.  At complex z a bundle streams its pairs through the worker
pool in chunks of ``_TABLE_CHUNK`` pairs.  One task looks its chunk up in the
table, does all of the Kress-split arithmetic there and writes the S core, or
the two K values of each pair, straight into the bundle's pair arrays: the
temporaries of a chunk stay in cache, and no kernel array over all pairs is
made.  Each element goes through the same operations in the same order as in
one pass over all pairs, so S, K and K* are the same to the bit for every
chunk size and thread cap.  Real z < 0 and z = 0 keep one pass over all
pairs: a variant that chunked the I/K route too raised the peak RSS of the
benchmark's real-z indicator scans (N = 256 and 512) from 90 to 122 MB in
three runs, and to 117 MB with a single malloc arena, while its throughput
moved by 2% at most.  K* is scattered from the pair values of K,
K*_ij = K_ji·(s_j/s_i) with s the node speed, which equals K.T·(s_j/s_i) bit
for bit; the DtN path reads only S and K* and never forms K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import _pool
from .errors import AccuracyRegionError, ArgumentRangeError, ConfigurationError
from .geometry import InterfaceCurve, QuadratureGrid
from .reports import ResidualReport, timed_check, worst
from .specfun import (
    _OVERFLOW_RADIUS,
    SpectralPoint,
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


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense N×N boundary-to-boundary operator acting on node samples."""

    label: str
    z: SpectralPoint
    grid: QuadratureGrid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @property
    def n(self) -> int:
        return self.grid.n

    def apply(self, density) -> np.ndarray:
        density = np.asarray(density)
        if density.shape[0] != self.n:
            raise ConfigurationError(f"density length {density.shape[0]} != grid size {self.n}")
        return self.matrix @ density


def _kress_weights(n: int) -> np.ndarray:
    """Circulant quadrature weights R_{ij} = r_{(i-j) mod N} for the kernel
    ln(4 sin²((t−s)/2)), returned as r; exact on trigonometric polynomials of
    degree < N/2.  r_d = r_{N−d}, so R is symmetric."""
    d = np.arange(n)
    inverse = np.zeros(n)
    inverse[1 : n // 2] = 1.0 / d[1 : n // 2]
    # Σ_{0<m<N/2} cos(2πdm/N)/m is the real part of one DFT
    return -(4.0 * np.pi / n) * np.fft.fft(inverse).real - (4.0 * np.pi / n**2) * (-1.0) ** d


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


class _LayerOperators:
    """S, K, K* and their traces on one (grid, z), each kernel evaluated once.

    The pair distance, the log-sin factor and the Kress weights are symmetric in
    the two nodes, so they and the Bessel/Hankel kernels on them are computed on
    the N(N−1)/2 pairs i < j only and mirrored into the dense matrices; only
    the normal factor ⟨n_u[j], x_j − x_i⟩ of K is not symmetric.  Each operator
    is built on first use.  Callers make a bundle per call and keep nothing.
    """

    def __init__(self, grid: QuadratureGrid, z):
        self.grid = grid
        self.z = as_spectral_point(z)
        n = grid.n
        self._upper = np.triu(np.ones((n, n), dtype=bool), 1)
        self._rows, self._cols = np.nonzero(self._upper)  # the pairs i < j, row by row
        x, y = grid.points.T
        self._dx = x[self._cols] - x[self._rows]  # x_j − x_i
        self._dy = y[self._cols] - y[self._rows]
        self._r = np.hypot(self._dx, self._dy)
        # on the uniform grid both symmetric factors depend on j − i alone
        offset = self._cols - self._rows
        weights = _kress_weights(n)
        self._kress_diagonal = weights[0]
        self._kress = weights[offset]
        self._lsin = np.log(4.0 * np.sin(grid.nodes[1:] / 2.0) ** 2)[offset - 1]

    @cached_property
    def _table(self) -> _KernelTable:
        return _KernelTable(self.z.sqrt_z, self._r.min(), self._r.max())

    def _over_pairs(self, order: int, assemble) -> None:
        """``assemble(s, smooth, split)`` for slices s covering the pairs, with
        (J_0(kr), H_0(kr)) for order 0 and (J_1(kr)/(kr), H_1(kr)) for order 1
        on them, k = √z ≠ 0.  At complex z the table gives them a chunk of
        ``_TABLE_CHUNK`` pairs at a time, one pool task per chunk; at real
        z < 0, where k is on the imaginary axis, the I/K route of ``specfun``
        gives them on all pairs in one pass."""
        k = self.z.sqrt_z
        if k.real != 0.0:
            table, r = self._table, self._r
            chunks = [slice(a, a + _TABLE_CHUNK) for a in range(0, r.size, _TABLE_CHUNK)]
            _pool.run_all([lambda s=s: assemble(s, *table(order, r[s])) for s in chunks])
            return
        w = k * self._r
        j = bessel_j(order, w)
        assemble(slice(None), (j / w if order else j), hankel1(order, w))

    def _square(self, upper, lower, diagonal) -> np.ndarray:
        out = np.empty((self.grid.n, self.grid.n), dtype=complex)
        out[self._upper] = upper
        out.T[self._upper] = lower
        np.fill_diagonal(out, diagonal)
        return out

    @cached_property
    def single_layer(self) -> np.ndarray:
        """S(z), the weakly singular kernel split per Kress."""
        n, z, r, speed = self.grid.n, self.z, self._r, self.grid.speed
        if z.is_laplace:
            smooth = -1.0 / (4.0 * np.pi)
            split = -(np.log(r) - 0.5 * self._lsin) / (2.0 * np.pi)
            split_diagonal = -np.log(speed) / (2.0 * np.pi)
            core = self._kress * smooth + (2.0 * np.pi / n) * split
        else:
            k = z.sqrt_z
            core = np.empty(r.size, dtype=complex)

            def assemble(s, smooth, split):  # J_0(kr), H_0(kr), scaled in place
                smooth *= -1.0 / (4.0 * np.pi)
                split *= 0.25j
                split -= smooth * self._lsin[s]
                np.add(self._kress[s] * smooth, (2.0 * np.pi / n) * split, out=core[s])

            self._over_pairs(0, assemble)
            split_diagonal = 0.25j - (np.euler_gamma + np.log(k * speed / 2.0)) / (2.0 * np.pi)
        # the smooth part is -J_0(k·0)/(4π) = -1/(4π) on the diagonal
        diagonal = -self._kress_diagonal / (4.0 * np.pi) + (2.0 * np.pi / n) * split_diagonal
        mat = self._square(core, core, diagonal)
        mat *= speed
        return mat

    @cached_property
    def _double_layer_pairs(self):
        """K on the pairs i < j, as (K_ij, K_ji), and its curvature diagonal."""
        n, z, r = self.grid.n, self.z, self._r
        nu_x, nu_y = _unnormalized_normal(self.grid).T
        rows, cols, dx, dy = self._rows, self._cols, self._dx, self._dy
        upper = np.empty(r.size, dtype=complex)
        lower = np.empty(r.size, dtype=complex)

        def write_pairs(s, core):  # core times ⟨n_u[j], x_j − x_i⟩ and ⟨n_u[i], x_i − x_j⟩
            rs, cs, dxs, dys = rows[s], cols[s], dx[s], dy[s]
            np.multiply(nu_x[cs] * dxs + nu_y[cs] * dys, core, out=upper[s])
            np.multiply(-(nu_x[rs] * dxs + nu_y[rs] * dys), core, out=lower[s])

        if z.is_laplace:
            write_pairs(slice(None), 1.0 / (n * r * r))
        else:
            k = z.sqrt_z
            smooth_scale, split_scale = -k * k / (4.0 * np.pi), 0.25j * k

            def assemble(s, smooth, split):  # J_1(kr)/(kr), H_1(kr), scaled in place
                smooth *= smooth_scale
                split *= split_scale
                split /= r[s]
                split -= smooth * self._lsin[s]
                write_pairs(s, self._kress[s] * smooth + (2.0 * np.pi / n) * split)

            self._over_pairs(1, assemble)
        return upper, lower, self.grid.curvature * self.grid.speed / (2.0 * n)

    @cached_property
    def double_layer(self) -> np.ndarray:
        """K(z), principal value, with the curvature diagonal."""
        return self._square(*self._double_layer_pairs)

    @cached_property
    def adjoint_double_layer(self) -> np.ndarray:
        """K*, the quadrature adjoint of K: K*_ij = K_ji |x'(t_j)| / |x'(t_i)|,
        scattered from the pair values of K without forming K."""
        speed = self.grid.speed
        upper, lower, diagonal = self._double_layer_pairs
        s_rows, s_cols = speed[self._rows], speed[self._cols]
        # the ratio is 1 on the diagonal, so K*_ii = K_ii
        return self._square(lower * (s_cols / s_rows), upper * (s_rows / s_cols), diagonal)

    def apply_trace(self, name: str, densities) -> np.ndarray:
        """One side's trace of a layer potential, named as in ``_TRACES``,
        applied to a density or to the columns of ``densities``."""
        attr, sign, half = _TRACES[name]
        return sign * (getattr(self, attr) @ densities) + half * densities

    @cached_property
    def single_layer_singular_values(self) -> np.ndarray:
        """Singular values of S, largest first.  S is real at every real z ≤ 0,
        and the real SVD is about three times faster."""
        mat = self.single_layer
        return np.linalg.svd(mat if mat.imag.any() else mat.real, compute_uv=False)


def assemble_single_layer(curve: InterfaceCurve, grid: QuadratureGrid, z) -> BoundaryOperator:
    """Boundary single-layer operator S(z), weakly singular kernel split per Kress."""
    ops = _LayerOperators(grid, z)
    return BoundaryOperator("S", ops.z, grid, ops.single_layer)


def assemble_double_layer(curve: InterfaceCurve, grid: QuadratureGrid, z) -> BoundaryOperator:
    """Principal-value double-layer operator K with the curvature diagonal."""
    ops = _LayerOperators(grid, z)
    return BoundaryOperator("K", ops.z, grid, ops.double_layer)


def assemble_adjoint_double_layer(curve: InterfaceCurve, grid: QuadratureGrid, z) -> BoundaryOperator:
    """K*, the quadrature-adjoint of K (normal attached to the target node)."""
    ops = _LayerOperators(grid, z)
    return BoundaryOperator("Kstar", ops.z, grid, ops.adjoint_double_layer)


# ---------------------------------------------------------------- field evaluation

def _clearance_check(grid: QuadratureGrid, points: np.ndarray, enforce: bool):
    """The (M, N, 2) offsets x − y from the points x to the nodes y and their
    (M, N) distances; with ``enforce``, a point nearer the curve than the
    trapezoid rule is trusted raises ``AccuracyRegionError``."""
    diff = points[:, None, :] - grid.points[None, :, :]
    dists = np.linalg.norm(diff, axis=2)
    nearest = dists.min(axis=1)
    floor = 5.0 * 2.0 * np.pi / grid.n
    if enforce and np.any(nearest < floor):
        raise AccuracyRegionError(
            f"evaluation point within {nearest.min():.3g} of the curve; the plain "
            f"trapezoid rule is only trusted beyond {floor:.3g} at N={grid.n}"
        )
    return diff, dists


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts.reshape(1, 2) if pts.ndim == 1 else pts


def eval_single_layer_field(curve: InterfaceCurve, grid: QuadratureGrid, z, density, points,
                            enforce_accuracy_region: bool = True) -> np.ndarray:
    """𝒮_z φ at off-boundary points by the plain trapezoid rule."""
    z = as_spectral_point(z)
    pts = _as_points(points)
    _, dists = _clearance_check(grid, pts, enforce_accuracy_region)
    kernel = fundamental_solution(2, z, dists.ravel()).reshape(dists.shape)
    return kernel @ (np.asarray(density) * grid.arc_weights)


def eval_double_layer_field(curve: InterfaceCurve, grid: QuadratureGrid, z, density, points,
                            enforce_accuracy_region: bool = True) -> np.ndarray:
    """𝒟_z φ at off-boundary points by the plain trapezoid rule."""
    z = as_spectral_point(z)
    pts = _as_points(points)
    diff, _ = _clearance_check(grid, pts, enforce_accuracy_region)
    grads = fundamental_solution_gradient(2, z, diff.reshape(-1, 2)).reshape(diff.shape)
    kernel = np.einsum("jk,ijk->ij", _unnormalized_normal(grid), grads)
    return (2.0 * np.pi / grid.n) * (kernel @ np.asarray(density))


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
        self.kappa = -1j * as_spectral_point(z).sqrt_z
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


# ---------------------------------------------------------------- jump relations

def _mode_density(grid: QuadratureGrid, m: int) -> np.ndarray:
    return np.exp(1j * m * grid.nodes)


def jump_relation_residuals(curve: InterfaceCurve, grid: QuadratureGrid, z, modes: int = 8,
                            method: str = "auto", tolerance: float | None = None) -> ResidualReport:
    """Residuals of the trace/jump relations for S, K, K* on Fourier densities.

    method "trace" (disk only) compares each operator against the closed-form
    Bessel multiplier; "self" compares the N-node operators against a 2N-node
    re-assembly at the shared nodes, which bounds the discretization error on
    curves without closed forms.  "auto" picks "trace" on the disk.
    """
    z = as_spectral_point(z)
    if method == "auto":
        method = "trace" if curve.shape == "disk" else "self"
    if method not in ("trace", "self"):
        raise ConfigurationError(f"method must be 'auto', 'trace' or 'self', got {method!r}")
    if method == "trace" and curve.shape != "disk":
        raise ConfigurationError("closed-form trace oracle exists only on the disk; use method='self'")
    if modes < 0:
        raise ConfigurationError(f"modes must be >= 0, got {modes}")
    if tolerance is None:
        tolerance = 1e-6 if method == "trace" else 1e-5
    mlist = range(-modes, modes + 1)
    params = {
        "curve": curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag],
        "modes": modes, "method": method,
    }

    def densities(g):  # one column per mode
        return np.column_stack([_mode_density(g, m) for m in mlist])

    phis = densities(grid)
    if method == "trace":
        table = {m: disk_mode_multipliers(z, m) for m in range(modes + 1)}

        def reference(name):
            key = "single.dirichlet" if name.startswith("single.dirichlet") else name
            return np.array([table[abs(m)][key] for m in mlist]) * phis
    else:
        grid2 = QuadratureGrid(curve, 2 * grid.n)
        fine = _LayerOperators(grid2, z)
        fine_phis = densities(grid2)

        def reference(name):
            return fine.apply_trace(name, fine_phis)[::2]

    ops = _LayerOperators(grid, z)
    rows = []
    for name in _TRACES:
        def run(name=name):
            errs = np.abs(ops.apply_trace(name, phis) - reference(name)).max(axis=0)
            return worst(errs), {"worst_mode": mlist[int(np.argmax(errs))]}

        rows.append(timed_check(f"jump.{name}", params, tolerance, run))
    return ResidualReport(rows).sorted()
