"""Coupled-resolvent identities, the eigenvalue criterion, and planar Green checks.

The global operator here is A = −Δ + c on R², split by an interface curve into
an interior/exterior transmission pair.  On the unit disk every resolvent
formula decouples into Fourier modes where each factor is a ratio of modified
Bessel functions, so the Krein-type and mixed (Dirichlet ⊕ Neumann) formulas
can be verified as exact scalar kernel identities; curve-level checks (third
Green identity, eigenvalue indicator, unique continuation, Rellich quotient)
work through the assembled boundary operators instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentRangeError, ConfigurationError, SpectralPoleError
from .geometry import (
    InterfaceCurve,
    QuadratureGrid,
    _leggauss,
    dirichlet_trace,
    make_curve,
    neumann_trace,
)
from .potentials import _LayerOperators, eval_double_layer_field, eval_single_layer_field
from .reports import ResidualReport, check_row, timed_check, worst
from .specfun import (
    as_spectral_point,
    bessel_j,
    bessel_j_zero,
    fundamental_solution,
    fundamental_solution_gradient,
    modified_i,
    modified_i_derivative,
    modified_k,
    modified_k_derivative,
)
from .weyl import _guard_resonance, _normalize_side

__all__ = [
    "JumpData",
    "TransmissionField",
    "transmission_point_sources",
    "jump_brackets",
    "probe_ring",
    "third_green_identity_residual",
    "krein_resolvent_disk_mode",
    "mixed_resolvent_disk_mode",
    "resolvent_difference_disk_mode",
    "eigenvalue_indicator",
    "unique_continuation_check",
    "rellich_quotient",
]


@dataclass(frozen=True)
class JumpData:
    """Node samples of the two boundary jumps of a transmission pair:
    bracket0 = Γ₀⁺f₊ − Γ₀⁻f₋ and bracket1 = Γ₁⁺f₊ + Γ₁⁻f₋ (Γ₁ = −τ_N)."""

    bracket0: np.ndarray
    bracket1: np.ndarray


@dataclass(frozen=True)
class TransmissionField:
    """A pair of side fields (f₊ interior, f₋ exterior), each a (k,2)→(k,) map.

    Optional analytic gradients sharpen the Neumann traces; a source callable
    marks the side as inhomogeneous, i.e. source_plus = (−Δ−z)f₊."""

    plus: Callable
    minus: Callable
    gradient_plus: Optional[Callable] = None
    gradient_minus: Optional[Callable] = None
    source_plus: Optional[Callable] = None
    source_minus: Optional[Callable] = None


def _point_source(z, location):
    y0 = np.asarray(location, dtype=float)

    def field(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return fundamental_solution(2, z, np.linalg.norm(pts - y0, axis=1))

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return fundamental_solution_gradient(2, z, pts - y0)

    return field, grad


def transmission_point_sources(z, exterior_point, interior_point) -> TransmissionField:
    """Homogeneous side fields from two point sources: f₊ is singular only at
    ``exterior_point`` (outside Ω₊), f₋ only at ``interior_point``."""
    z = as_spectral_point(z)
    fp, gp = _point_source(z, exterior_point)
    fm, gm = _point_source(z, interior_point)
    return TransmissionField(plus=fp, minus=fm, gradient_plus=gp, gradient_minus=gm)


def jump_brackets(field: TransmissionField, curve: InterfaceCurve, grid: QuadratureGrid) -> JumpData:
    """Sample [Γ₀f] and [Γ₁f] on the quadrature nodes."""
    b0 = dirichlet_trace(field.plus, curve, grid, "+") - dirichlet_trace(field.minus, curve, grid, "-")
    tn_plus = neumann_trace(field.plus, curve, grid, "+", gradient=field.gradient_plus)
    tn_minus = neumann_trace(field.minus, curve, grid, "-", gradient=field.gradient_minus)
    return JumpData(np.asarray(b0, dtype=complex), -(tn_plus + tn_minus))


def probe_ring(radius: float, count: int, center=(0.0, 0.0)) -> np.ndarray:
    t = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    return np.asarray(center, dtype=float) + radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def _volume_potential(z, source, points, n_radial, n_angular):
    # tensor polar rule on the unit disk; exact enough for sources supported
    # away from both the probes and the rim
    x, w = _leggauss(n_radial)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w * r
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes = np.stack(
        [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()], axis=1
    )
    weights = np.repeat(wr, n_angular) * (2.0 * np.pi / n_angular)
    density = np.asarray(source(nodes), dtype=complex) * weights
    diff = np.linalg.norm(points[:, None, :] - nodes[None, :, :], axis=2)
    return fundamental_solution(2, z, diff.ravel()).reshape(diff.shape) @ density


def third_green_identity_residual(field: TransmissionField, z, curve: InterfaceCurve,
                                  grid: QuadratureGrid, probes, tolerance: float = None,
                                  enforce_accuracy_region: bool = True,
                                  radial_nodes: int = 96, angular_nodes: int = 192) -> ResidualReport:
    """Residual of f = 𝒢_z(−Δ−z)f + 𝒟_z[Γ₀f] − 𝒮_z[Γ₁f] at probe points.

    ``probes`` is a pair (interior_points, exterior_points); either entry may be
    None.  The volume term 𝒢_z exists only for an interior source on the disk
    (tensor polar quadrature); exterior sources are out of scope.
    """
    z = as_spectral_point(z)
    if field.source_minus is not None:
        raise ConfigurationError("volume quadrature over the unbounded exterior is not supported")
    if field.source_plus is not None and curve.shape != "disk":
        raise ConfigurationError("interior volume quadrature is polar and needs the disk")
    if tolerance is None:
        tolerance = 1e-5 if field.source_plus is not None else 1e-7
    jumps = jump_brackets(field, curve, grid)
    inner, outer = probes

    def side_residual(pts, side_field):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rhs = eval_double_layer_field(curve, grid, z, jumps.bracket0, pts,
                                      enforce_accuracy_region=enforce_accuracy_region)
        rhs = rhs - eval_single_layer_field(curve, grid, z, jumps.bracket1, pts,
                                            enforce_accuracy_region=enforce_accuracy_region)
        if field.source_plus is not None:
            rhs = rhs + _volume_potential(z, field.source_plus, pts, radial_nodes, angular_nodes)
        return float(np.abs(np.asarray(side_field(pts), dtype=complex) - rhs).max())

    params = {"curve": curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag],
              "mode": "source" if field.source_plus is not None else "homogeneous"}
    rows = []
    if inner is not None and len(inner):
        rows.append(timed_check("green.third.interior", {**params, "probes": len(inner)},
                                tolerance, lambda: side_residual(inner, field.plus)))
    if outer is not None and len(outer):
        rows.append(timed_check("green.third.exterior", {**params, "probes": len(outer)},
                                tolerance, lambda: side_residual(outer, field.minus)))
    return ResidualReport(rows).sorted()


# ------------------------------------------------------- per-mode resolvents

_INTERIOR_SAMPLES = (0.25, 0.6, 0.9)
_EXTERIOR_SAMPLES = (1.2, 1.8, 2.5)


# the normal double range: I_m(κr) underflows and K_m(κr) overflows at the
# sample radii once m is large
_SMALLEST, _LARGEST = float(np.finfo(float).tiny), float(np.finfo(float).max)


class _ModeScalars:
    """All scalar factors of the mode-m radial problem for −Δ + c at z.

    A factor outside the normal double range raises ``ArgumentRangeError``
    naming the mode, rather than yielding a NaN row or a false pole."""

    def __init__(self, z, m, c):
        if c < 0:
            raise ConfigurationError(f"coupling shift c must be >= 0, got {c}")
        point = as_spectral_point(complex(z) - c)  # raises on [0,∞), i.e. z on [c,∞)
        self.kappa = -1j * point.sqrt_z  # Re > 0: decaying K_m branch
        self.m = m
        self._values = {}  # the few sample radii recur across every kernel block
        self.i_at_1 = self._i(self.kappa)
        self.k_at_1 = self._k(self.kappa)
        self.ip_at_1 = self._normal("I_m'(κ)", modified_i_derivative(m, self.kappa))
        self.kp_at_1 = self._normal("K_m'(κ)", modified_k_derivative(m, self.kappa))
        # a zero of I_m/K_m sits within O(ulp) of one of its own derivative's
        # scale; comparing across the I/K families would misfire at large m
        if abs(self.i_at_1) < 1e-12 * abs(self.ip_at_1) \
                or abs(self.k_at_1) < 1e-12 * abs(self.kp_at_1):
            raise SpectralPoleError(
                f"z - c = {point.z} sits at a Dirichlet pole of mode {m}"
            )
        self.m_plus = -self.kappa * self.ip_at_1 / self.i_at_1
        self.m_minus = self.kappa * self.kp_at_1 / self.k_at_1

    def _normal(self, name, value):
        """``value`` if it is a normal finite double, else ArgumentRangeError."""
        if not _SMALLEST <= math.hypot(value.real, value.imag) <= _LARGEST:
            raise ArgumentRangeError(
                f"mode {self.m} leaves the double-precision range at κ = {self.kappa:.6g}: "
                f"{name} = {value:.3g} is outside {_SMALLEST:.3g} <= |x| <= {_LARGEST:.3g}; "
                "use fewer modes")
        return value

    def _i(self, w):
        key = ("i", w)
        if key not in self._values:
            self._values[key] = self._normal(f"I_m({w:.6g})", modified_i(self.m, w))
        return self._values[key]

    def _k(self, w):
        key = ("k", w)
        if key not in self._values:
            self._values[key] = self._normal(f"K_m({w:.6g})", modified_k(self.m, w))
        return self._values[key]

    @cached_property
    def _k_over_i(self):
        return self._normal("K_m(κ)/I_m(κ)", self.k_at_1 / self.i_at_1)

    @cached_property
    def _i_over_k(self):
        return self._normal("I_m(κ)/K_m(κ)", self.i_at_1 / self.k_at_1)

    def profile_in(self, r):
        return self._i(self.kappa * r) / self.i_at_1

    def profile_out(self, r):
        return self._k(self.kappa * r) / self.k_at_1

    def free_kernel(self, r, rp):
        lo, hi = min(r, rp), max(r, rp)
        return self._i(self.kappa * lo) * self._k(self.kappa * hi)

    def dirichlet_interior_kernel(self, r, rp):
        extra = self._k_over_i * self._i(self.kappa * r) * self._i(self.kappa * rp)
        return self.free_kernel(r, rp) - extra

    def dirichlet_exterior_kernel(self, r, rp):
        extra = self._i_over_k * self._k(self.kappa * r) * self._k(self.kappa * rp)
        return self.free_kernel(r, rp) - extra

    def neumann_exterior_kernel(self, r, rp):
        if abs(self.kp_at_1) < 1e-12 * abs(self.k_at_1):
            raise SpectralPoleError(f"z sits at a Neumann pole of exterior mode {self.m}")
        ratio = self._normal("I_m'(κ)/K_m'(κ)", self.ip_at_1 / self.kp_at_1)
        extra = ratio * self._k(self.kappa * r) * self._k(self.kappa * rp)
        return self.free_kernel(r, rp) - extra


def _sample_pairs(interior, exterior):
    radii = list(interior) + list(exterior)
    return [(r, rp) for r in radii for rp in radii]


def krein_resolvent_disk_mode(z, m: int, c: float = 1.0,
                              interior_samples=_INTERIOR_SAMPLES,
                              exterior_samples=_EXTERIOR_SAMPLES) -> float:
    """Worst pointwise defect of the Krein formula for (−Δ+c−z)⁻¹ in mode m.

    Left side: the free radial kernel I_m(κr_<)K_m(κr_>).  Right side: the
    decoupled Dirichlet kernels plus the rank-one correction
    −γ(r)(M₊+M₋)⁻¹γ(r′), all of whose factors are scalars in mode m.
    """
    sc = _ModeScalars(z, m, c)
    denom = sc.m_plus + sc.m_minus
    if abs(denom) < 1e-12 * (abs(sc.m_plus) + abs(sc.m_minus)):
        raise SpectralPoleError(
            f"M₊+M₋ vanishes in mode {m}: z is a coupled eigenvalue, the formula "
            "cannot be inverted there"
        )
    defects = []
    for r, rp in _sample_pairs(interior_samples, exterior_samples):
        gamma_r = sc.profile_in(r) if r < 1.0 else sc.profile_out(r)
        gamma_rp = sc.profile_in(rp) if rp < 1.0 else sc.profile_out(rp)
        if r < 1.0 and rp < 1.0:
            block = sc.dirichlet_interior_kernel(r, rp)
        elif r > 1.0 and rp > 1.0:
            block = sc.dirichlet_exterior_kernel(r, rp)
        else:
            block = 0.0
        rhs = block - gamma_r * gamma_rp / denom
        defects.append(abs(sc.free_kernel(r, rp) - rhs))
    return worst(defects)


def mixed_resolvent_disk_mode(z, m: int, c: float = 1.0,
                              interior_samples=_INTERIOR_SAMPLES,
                              exterior_samples=_EXTERIOR_SAMPLES) -> float:
    """Worst pointwise defect of the Dirichlet ⊕ Neumann resolvent formula.

    The decoupled block is Dirichlet on the interior but Neumann on the
    exterior; the correction uses γ̂ = diag(γ₊, γ₋M₋⁻¹) and the 2×2 matrix
    Σ = −[[M₊, 1], [1, −M₋⁻¹]]⁻¹."""
    sc = _ModeScalars(z, m, c)
    if abs(sc.m_minus) == 0.0:
        raise SpectralPoleError(f"exterior Weyl value vanishes in mode {m}")
    sigma = -np.linalg.inv(np.array([[sc.m_plus, 1.0], [1.0, -1.0 / sc.m_minus]]))
    defects = []
    for r, rp in _sample_pairs(interior_samples, exterior_samples):
        left = (sc.profile_in(r), 0.0) if r < 1.0 else (0.0, sc.profile_out(r) / sc.m_minus)
        right = (sc.profile_in(rp), 0.0) if rp < 1.0 else (0.0, sc.profile_out(rp) / sc.m_minus)
        if r < 1.0 and rp < 1.0:
            block = sc.dirichlet_interior_kernel(r, rp)
        elif r > 1.0 and rp > 1.0:
            block = sc.neumann_exterior_kernel(r, rp)
        else:
            block = 0.0
        corr = np.array(left) @ sigma @ np.array(right)
        defects.append(abs(sc.free_kernel(r, rp) - (block + corr)))
    return worst(defects)


def resolvent_difference_disk_mode(z, m: int, c: float = 1.0,
                                   exterior_samples=_EXTERIOR_SAMPLES) -> float:
    """Defect of (A₀₋−z)⁻¹ − (A₁₋−z)⁻¹ = γ₋ M₋⁻¹ γ₋* in exterior mode m."""
    sc = _ModeScalars(z, m, c)
    defects = []
    for r in exterior_samples:
        for rp in exterior_samples:
            lhs = sc.dirichlet_exterior_kernel(r, rp) - sc.neumann_exterior_kernel(r, rp)
            rhs = sc.profile_out(r) * sc.profile_out(rp) / sc.m_minus
            defects.append(abs(lhs - rhs))
    return worst(defects)


# ------------------------------------------------------------- curve-level ops

def eigenvalue_indicator(z, curve: InterfaceCurve, grid: QuadratureGrid, c: float = 0.0) -> float:
    """σ_min of M₊(z−c)+M₋(z−c) for A = −Δ + c, the same shift c on both sides.

    With the single-layer ansatz of both Weyl maps and equal side shifts the
    sum is exactly M₊+M₋ = −(½I − K*)S⁻¹ − (½I + K*)S⁻¹ = −S⁻¹, for the
    Nyström matrices as in the continuum, so the value is 1/σ_max(S(z−c)):
    one assembly of S and one SVD.  Unequal shifts break the identity."""
    ops = _LayerOperators(grid, complex(z) - c)
    singular_values = ops.single_layer_singular_values
    _guard_resonance(singular_values)
    return float(1.0 / singular_values[0])


def unique_continuation_check(side: str, z, curve: InterfaceCurve, grid: QuadratureGrid,
                              trials: int = 8, epsilons=(1e-8, 1e-6, 1e-4),
                              probe_count: int = 20, seed: int = 0,
                              bandwidth: int = 16) -> ResidualReport:
    """Quantitative surrogate for unique continuation from Cauchy data.

    Random band-limited layer densities generate solution fields; each is
    rescaled so its Cauchy data (τ_D, τ_N) has combined norm ε, and the probe
    sup-norm must stay below 100·ε.  The report records the observed constants
    and the ε-scaling slope (exactly 1 by linearity — that row guards the
    evaluation pipeline, not the mathematics).
    """
    side = _normalize_side(side)
    z = as_spectral_point(z)
    ops = _LayerOperators(grid, z)
    tau_d, tau_n = ops.single_layer, f"single.neumann.{side}"
    d = np.sqrt(grid.arc_weights)

    radius = 0.5 if side == "interior" else 2.0
    probes = probe_ring(radius, probe_count)
    rng = np.random.default_rng(seed)
    modes = np.arange(-bandwidth, bandwidth + 1)
    harmonics = np.exp(1j * np.outer(modes, grid.nodes))
    coeffs = rng.normal(size=(trials, modes.size)) + 1j * rng.normal(size=(trials, modes.size))

    params = {"side": side, "curve": curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag]}
    rows, norms = [], []
    for eps in epsilons:
        probe_norms = []
        for coef in coeffs:
            psi = coef @ harmonics
            data_norm = float(np.linalg.norm(d * (tau_d @ psi))
                              + np.linalg.norm(d * ops.apply_trace(tau_n, psi)))
            psi = psi * (eps / data_norm)
            values = eval_single_layer_field(curve, grid, z, psi, probes)
            probe_norms.append(np.abs(values).max())
        norms.append(worst(probe_norms))
        rows.append(check_row("uc.constant", {**params, "epsilon": eps},
                              residual=norms[-1] / eps, tolerance=100.0,
                              probe_norm=norms[-1]))
    slope = float(np.polyfit(np.log(np.asarray(epsilons)), np.log(np.asarray(norms)), 1)[0])
    rows.append(check_row("uc.slope", params, residual=abs(slope - 1.0), tolerance=0.1,
                          slope=slope))
    return ResidualReport(rows).sorted()


def rellich_quotient(k: int, n_boundary: int = 256, n_radial: int = 400):
    """Dirichlet eigenvalue of the unit disk from the boundary Rellich identity.

    For u = J₀(j_{0,k} r): λ = (1/4‖u‖²) ∮ (∂u/∂ν)² ∂|x|²/∂ν dω, compared to
    the reference j_{0,k}².  Returns (λ_computed, λ_reference)."""
    j0k = bessel_j_zero(k)
    _, grid = make_curve("disk", n_boundary)
    du_dnu = -j0k * bessel_j(1, np.full(grid.n, j0k, dtype=complex)).real
    nu_weight = 2.0 * np.einsum("ij,ij->i", grid.points, grid.normals)
    boundary = float(np.sum(du_dnu**2 * nu_weight * grid.arc_weights))
    x, w = _leggauss(n_radial)
    r = 0.5 * (x + 1.0)
    values = bessel_j(0, j0k * r.astype(complex)).real
    u_sq = 2.0 * np.pi * float(np.sum(0.5 * w * r * values**2))
    return boundary / (4.0 * u_sq), float(j0k * j0k)
