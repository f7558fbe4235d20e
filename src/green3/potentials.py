"""Nyström discretization of the planar single/double layer potentials.

Boundary operators use Kress' global trigonometric splitting of the
logarithmic singularity, so everything converges spectrally on the smooth
curves from :mod:`green3.geometry`.  Sign conventions (pinned by the disk
separation-of-variables oracle, not assumed):

* 𝒟φ(x) = ∫ ⟨n⁺(y), (∇E)(z; x−y)⟩ φ(y) ds(y) — with this choice the Gauss
  identity reads (½I + K)·1 = 1 inside the disk;
* τ_D^± 𝒮φ = Sφ,  τ_N^± 𝒮φ = (½I ∓ K*)φ,  τ_D^± 𝒟φ = (±½I + K)φ,
  where "+" is the bounded side and n⁻ = −n⁺.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyRegionError, ConfigurationError
from .geometry import InterfaceCurve, QuadratureGrid
from .reports import ResidualReport, timed_check
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


def _pairwise(grid: QuadratureGrid):
    """Node differences, distances (diagonal masked to 1), and the Kress data."""
    x = grid.points
    diff = x[:, None, :] - x[None, :, :]
    r = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(r, 1.0)
    return diff, r


def _log_sin_factor(grid: QuadratureGrid) -> np.ndarray:
    t = grid.nodes
    arg = 4.0 * np.sin((t[:, None] - t[None, :]) / 2.0) ** 2
    np.fill_diagonal(arg, 1.0)
    return np.log(arg)


def _kress_weights(n: int) -> np.ndarray:
    """Circulant quadrature weights R_{ij} = r_{(i-j) mod N} for the kernel
    ln(4 sin²((t−s)/2)); exact on trigonometric polynomials of degree < N/2."""
    half = n // 2
    d = np.arange(n)
    m = np.arange(1, half)
    r = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(d, m) / n) / m).sum(axis=1)
    r -= (4.0 * np.pi / n**2) * (-1.0) ** d
    idx = (d[:, None] - d[None, :]) % n
    return r[idx]


def _unnormalized_normal(grid: QuadratureGrid) -> np.ndarray:
    v = grid.velocity
    return np.column_stack([v[:, 1], -v[:, 0]])  # n⁺ · |x'|


def assemble_single_layer(curve: InterfaceCurve, grid: QuadratureGrid, z) -> BoundaryOperator:
    """Boundary single-layer operator S(z), weakly singular kernel split per Kress."""
    z = as_spectral_point(z)
    _, r = _pairwise(grid)
    speed = grid.speed
    lsin = _log_sin_factor(grid)
    n = grid.n
    if z.is_laplace:
        m1 = -(1.0 / (4.0 * np.pi)) * np.tile(speed, (n, 1)).astype(complex)
        m2 = -(1.0 / (2.0 * np.pi)) * np.log(r / np.exp(0.5 * lsin)) * speed[None, :]
        np.fill_diagonal(m2, -(1.0 / (2.0 * np.pi)) * np.log(speed) * speed)
        m2 = m2.astype(complex)
    else:
        k = z.sqrt_z
        full = 0.25j * hankel1(0, k * r) * speed[None, :]
        m1 = -(1.0 / (4.0 * np.pi)) * bessel_j(0, k * r) * speed[None, :]
        np.fill_diagonal(m1, -(1.0 / (4.0 * np.pi)) * speed)  # J_0(k·0) = 1, not J_0 at the masked r
        m2 = full - m1 * lsin
        np.fill_diagonal(
            m2, (0.25j - np.euler_gamma / (2 * np.pi) - np.log(k * speed / 2.0) / (2 * np.pi)) * speed
        )
    mat = _kress_weights(n) * m1 + (2.0 * np.pi / n) * m2
    return BoundaryOperator("S", z, grid, mat)


def _double_layer_core(grid: QuadratureGrid, z: SpectralPoint, transposed: bool) -> np.ndarray:
    """Shared assembly for K (transposed=False) and K* (True); the two differ by
    which node carries the normal plus the quadrature-adjoint speed ratio."""
    diff, r = _pairwise(grid)
    nu = _unnormalized_normal(grid)
    speed = grid.speed
    n = grid.n
    if transposed:
        dot = -np.einsum("ik,ijk->ij", nu, diff)  # ⟨n_u[i], x_j − x_i⟩
        geom = dot * (speed[None, :] / speed[:, None])
    else:
        geom = np.einsum("jk,ijk->ij", nu, -diff)  # ⟨n_u[j], x_j − x_i⟩
    diag = grid.curvature * speed / (4.0 * np.pi)
    if z.is_laplace:
        sign = -1.0 if transposed else 1.0
        mat = sign * geom / (2.0 * np.pi * r**2)
        np.fill_diagonal(mat, diag)
        return (2.0 * np.pi / n) * mat.astype(complex)
    k = z.sqrt_z
    sign = -1.0 if transposed else 1.0
    full = sign * (0.25j * k) * hankel1(1, k * r) * geom / r
    l1 = -sign * (k / (4.0 * np.pi)) * bessel_j(1, k * r) * geom / r
    l2 = full - l1 * _log_sin_factor(grid)
    np.fill_diagonal(l1, 0.0)
    np.fill_diagonal(l2, diag)
    return _kress_weights(n) * l1 + (2.0 * np.pi / n) * l2


def assemble_double_layer(curve: InterfaceCurve, grid: QuadratureGrid, z) -> BoundaryOperator:
    """Principal-value double-layer operator K with the curvature diagonal."""
    z = as_spectral_point(z)
    return BoundaryOperator("K", z, grid, _double_layer_core(grid, z, transposed=False))


def assemble_adjoint_double_layer(curve: InterfaceCurve, grid: QuadratureGrid, z) -> BoundaryOperator:
    """K*, the quadrature-adjoint of K (normal attached to the target node)."""
    z = as_spectral_point(z)
    return BoundaryOperator("Kstar", z, grid, _double_layer_core(grid, z, transposed=True))


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
    if tolerance is None:
        tolerance = 1e-6 if method == "trace" else 1e-5
    mlist = range(-modes, modes + 1)
    params = {
        "curve": curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag],
        "modes": modes, "method": method,
    }

    half = 0.5 * np.eye(grid.n)
    s_op = assemble_single_layer(curve, grid, z)
    k_op = assemble_double_layer(curve, grid, z)
    ks_op = assemble_adjoint_double_layer(curve, grid, z)
    relations = {
        "single.dirichlet.interior": s_op.matrix,
        "single.dirichlet.exterior": s_op.matrix,
        "single.neumann.interior": half - ks_op.matrix,
        "single.neumann.exterior": half + ks_op.matrix,
        "double.dirichlet.interior": half + k_op.matrix,
        "double.dirichlet.exterior": -half + k_op.matrix,
    }

    if method == "trace":
        def reference(name):
            table = {m: disk_mode_multipliers(z, m) for m in set(abs(m) for m in mlist)}
            key = {
                "single.dirichlet.interior": "single.dirichlet",
                "single.dirichlet.exterior": "single.dirichlet",
                "single.neumann.interior": "single.neumann.interior",
                "single.neumann.exterior": "single.neumann.exterior",
                "double.dirichlet.interior": "double.dirichlet.interior",
                "double.dirichlet.exterior": "double.dirichlet.exterior",
            }[name]
            return lambda m: table[abs(m)][key] * _mode_density(grid, m)
    else:
        grid2 = QuadratureGrid(curve, 2 * grid.n)
        s2 = assemble_single_layer(curve, grid2, z)
        k2 = assemble_double_layer(curve, grid2, z)
        ks2 = assemble_adjoint_double_layer(curve, grid2, z)
        half2 = 0.5 * np.eye(grid2.n)
        fine = {
            "single.dirichlet.interior": s2.matrix,
            "single.dirichlet.exterior": s2.matrix,
            "single.neumann.interior": half2 - ks2.matrix,
            "single.neumann.exterior": half2 + ks2.matrix,
            "double.dirichlet.interior": half2 + k2.matrix,
            "double.dirichlet.exterior": -half2 + k2.matrix,
        }

        def reference(name):
            mat = fine[name]
            return lambda m: (mat @ _mode_density(grid2, m))[::2]

    rows = []
    for name, mat in relations.items():
        ref = reference(name)

        def run(mat=mat, ref=ref):
            worst, worst_m = -1.0, 0
            for m in mlist:
                err = np.abs(mat @ _mode_density(grid, m) - ref(m)).max()
                if err > worst:
                    worst, worst_m = err, m
            return worst, {"worst_mode": worst_m}

        rows.append(timed_check(f"jump.{name}", params, tolerance, run))
    return ResidualReport(rows).sorted()
