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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AccuracyRegionError, ConfigurationError
from .geometry import InterfaceCurve, QuadratureGrid
from .reports import ResidualReport, timed_check, worst
from .specfun import (
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
        else:
            k = z.sqrt_z
            smooth = -bessel_j(0, k * r) / (4.0 * np.pi)
            split = 0.25j * hankel1(0, k * r) - smooth * self._lsin
            split_diagonal = 0.25j - (np.euler_gamma + np.log(k * speed / 2.0)) / (2.0 * np.pi)
        core = self._kress * smooth + (2.0 * np.pi / n) * split
        # the smooth part is -J_0(k·0)/(4π) = -1/(4π) on the diagonal
        diagonal = -self._kress_diagonal / (4.0 * np.pi) + (2.0 * np.pi / n) * split_diagonal
        mat = self._square(core, core, diagonal)
        mat *= speed
        return mat

    @cached_property
    def double_layer(self) -> np.ndarray:
        """K(z), principal value, with the curvature diagonal."""
        n, z, r = self.grid.n, self.z, self._r
        if z.is_laplace:
            core = 1.0 / (n * r * r)
        else:
            k = z.sqrt_z
            smooth = -(k / (4.0 * np.pi)) * bessel_j(1, k * r) / r
            split = (0.25j * k) * hankel1(1, k * r) / r - smooth * self._lsin
            core = self._kress * smooth + (2.0 * np.pi / n) * split
        nu_x, nu_y = _unnormalized_normal(self.grid).T
        rows, cols, dx, dy = self._rows, self._cols, self._dx, self._dy
        upper = (nu_x[cols] * dx + nu_y[cols] * dy) * core    # ⟨n_u[j], x_j − x_i⟩
        lower = -(nu_x[rows] * dx + nu_y[rows] * dy) * core  # ⟨n_u[i], x_i − x_j⟩
        return self._square(upper, lower, self.grid.curvature * self.grid.speed / (2.0 * n))

    @cached_property
    def adjoint_double_layer(self) -> np.ndarray:
        """K*, the quadrature adjoint of K: K*_ij = K_ji |x'(t_j)| / |x'(t_i)|."""
        speed = self.grid.speed
        return self.double_layer.T * (speed[None, :] / speed[:, None])

    def trace(self, name: str) -> np.ndarray:
        """One side's trace of a layer potential, named as in ``_TRACES``."""
        attr, sign, half = _TRACES[name]
        if not half:
            return getattr(self, attr)
        mat = sign * getattr(self, attr)
        mat.flat[:: self.grid.n + 1] += half
        return mat

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

def _clearance_check(grid: QuadratureGrid, points: np.ndarray, enforce: bool) -> None:
    dist = np.linalg.norm(points[:, None, :] - grid.points[None, :, :], axis=2).min(axis=1)
    floor = 5.0 * 2.0 * np.pi / grid.n
    if enforce and np.any(dist < floor):
        raise AccuracyRegionError(
            f"evaluation point within {dist.min():.3g} of the curve; the plain "
            f"trapezoid rule is only trusted beyond {floor:.3g} at N={grid.n}"
        )


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts.reshape(1, 2) if pts.ndim == 1 else pts


def eval_single_layer_field(curve: InterfaceCurve, grid: QuadratureGrid, z, density, points,
                            enforce_accuracy_region: bool = True) -> np.ndarray:
    """𝒮_z φ at off-boundary points by the plain trapezoid rule."""
    z = as_spectral_point(z)
    pts = _as_points(points)
    _clearance_check(grid, pts, enforce_accuracy_region)
    dists = np.linalg.norm(pts[:, None, :] - grid.points[None, :, :], axis=2)
    kernel = fundamental_solution(2, z, dists.ravel()).reshape(dists.shape)
    return kernel @ (np.asarray(density) * grid.arc_weights)


def eval_double_layer_field(curve: InterfaceCurve, grid: QuadratureGrid, z, density, points,
                            enforce_accuracy_region: bool = True) -> np.ndarray:
    """𝒟_z φ at off-boundary points by the plain trapezoid rule."""
    z = as_spectral_point(z)
    pts = _as_points(points)
    _clearance_check(grid, pts, enforce_accuracy_region)
    diff = pts[:, None, :] - grid.points[None, :, :]
    grads = fundamental_solution_gradient(2, z, diff.reshape(-1, 2)).reshape(diff.shape)
    kernel = np.einsum("jk,ijk->ij", _unnormalized_normal(grid), grads)
    return (2.0 * np.pi / grid.n) * (kernel @ np.asarray(density))


# ---------------------------------------------------------------- disk oracle

def disk_mode_multipliers(z, m: int) -> dict:
    """Separation-of-variables multipliers on the unit circle for density e^{imθ}.

    Everything reduces to modified Bessel functions at κ = −i√z (Re κ > 0):
    the returned dict maps trace names to the scalar each boundary operator
    multiplies the mode by.  This is the closed-form reference the planar
    Nyström operators are checked against; it never touches the matrices.
    """
    z = as_spectral_point(z)
    if z.is_laplace:
        raise ConfigurationError("mode multipliers need z off [0, ∞); use small negative z instead")
    m = abs(int(m))
    kappa = -1j * z.sqrt_z
    i_m, k_m = modified_i(m, kappa), modified_k(m, kappa)
    di_m, dk_m = modified_i_derivative(m, kappa), modified_k_derivative(m, kappa)
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
        "gamma.interior": lambda r, _i=i_m, _k=kappa, _m=m: modified_i(_m, _k * r) / _i,
        "gamma.exterior": lambda r, _km=k_m, _k=kappa, _m=m: modified_k(_m, _k * r) / _km,
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

    if method == "trace":
        table = {m: disk_mode_multipliers(z, m) for m in range(modes + 1)}

        def reference(name):
            key = "single.dirichlet" if name.startswith("single.dirichlet") else name
            return lambda m: table[abs(m)][key] * _mode_density(grid, m)
    else:
        grid2 = QuadratureGrid(curve, 2 * grid.n)
        fine = _LayerOperators(grid2, z)

        def reference(name):
            mat = fine.trace(name)
            return lambda m: (mat @ _mode_density(grid2, m))[::2]

    ops = _LayerOperators(grid, z)
    rows = []
    for name in _TRACES:
        mat, ref = ops.trace(name), reference(name)

        def run(mat=mat, ref=ref):
            errs = [np.abs(mat @ _mode_density(grid, m) - ref(m)).max() for m in mlist]
            return worst(errs), {"worst_mode": mlist[int(np.argmax(errs))]}

        rows.append(timed_check(f"jump.{name}", params, tolerance, run))
    return ResidualReport(rows).sorted()
