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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, SpectralPoleError
from .geometry import (
    InterfaceCurve,
    QuadratureGrid,
    _leggauss,
    dirichlet_trace,
    make_curve,
    neumann_trace,
)
from .potentials import (
    _DiskMode,
    _LayerOperators,
    eval_double_layer_field,
    eval_single_layer_field,
)
from .reports import ResidualReport, check_row, timed_check, worst
from .specfun import (
    as_spectral_point,
    bessel_j,
    bessel_j_zero,
    fundamental_solution,
    fundamental_solution_gradient,
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


def probe_ring(radius: float, count: int) -> np.ndarray:
    t = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def _volume_potential(z, source, points):
    # tensor polar rule on the unit disk; exact enough for sources supported
    # away from both the probes and the rim
    n_angular = 192
    x, w = _leggauss(96)
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
                                  enforce_accuracy_region: bool = True) -> ResidualReport:
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
            rhs = rhs + _volume_potential(z, field.source_plus, pts)
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

# three sample radii inside the unit circle, then three outside
_SAMPLES = np.array([0.25, 0.6, 0.9, 1.2, 1.8, 2.5])
_IN, _OUT = slice(0, 3), slice(3, 6)
_SIDE = np.repeat([0, 1], 3)  # 0 interior, 1 exterior, per sample radius


class _ModeScalars(_DiskMode):
    """Mode m of −Δ + c at z: the disk-mode factors at z − c, the Weyl values
    M± and the free radial kernel I_m(κr_<)K_m(κr_>) as one 6×6 array over
    the sample radii.  The decoupled kernels are built on the block of pairs
    they live on, and only by the formulas that read them."""

    def __init__(self, z, m, c):
        if c < 0:
            raise ConfigurationError(f"coupling shift c must be >= 0, got {c}")
        shifted = complex(z) - c
        if shifted.imag == 0.0 and shifted.real >= 0.0:
            raise SpectralPoleError(
                f"z - c = {abs(shifted.real):g} lies on [0, ∞), the spectrum of −Δ + c")
        super().__init__(shifted, m)
        # a zero of I_m/K_m sits within O(ulp) of one of its own derivative's
        # scale; comparing across the I/K families would misfire at large m
        if abs(self.i_m) < 1e-12 * abs(self.di_m) or abs(self.k_m) < 1e-12 * abs(self.dk_m):
            raise SpectralPoleError(f"z - c = {shifted} sits at a Dirichlet pole of mode {m}")
        self.m_plus = -self.kappa * self.di_m / self.i_m
        self.m_minus = self.kappa * self.dk_m / self.k_m
        i_r, k_r = self.i_at(_SAMPLES), self.k_at(_SAMPLES)
        self._i_in, self._k_out = i_r[_IN], k_r[_OUT]
        self.gamma = np.concatenate([self._i_in / self.i_m, self._k_out / self.k_m])
        rows, cols = np.triu_indices(_SAMPLES.size)  # the pairs r <= r′
        self.free = np.empty((_SAMPLES.size, _SAMPLES.size), dtype=complex)
        self.free[rows, cols] = self.free[cols, rows] = i_r[rows] * k_r[cols]

    def _decoupled(self, block, name, ratio, values):
        """The free kernel on the ``block`` pairs minus ratio·v(r)v(r′)."""
        ratio = self._normal(name, ratio)
        return self.free[block, block] - (ratio * values)[:, None] * values

    def dirichlet_interior(self):
        return self._decoupled(_IN, "K_m(κ)/I_m(κ)", self.k_m / self.i_m, self._i_in)

    def dirichlet_exterior(self):
        return self._decoupled(_OUT, "I_m(κ)/K_m(κ)", self.i_m / self.k_m, self._k_out)

    def neumann_exterior(self):
        if abs(self.dk_m) < 1e-12 * abs(self.k_m):
            raise SpectralPoleError(f"z sits at a Neumann pole of exterior mode {self.m}")
        return self._decoupled(_OUT, "I_m'(κ)/K_m'(κ)", self.di_m / self.dk_m, self._k_out)


def krein_resolvent_disk_mode(z, m: int, c: float = 1.0) -> float:
    """Worst pointwise defect of the Krein formula for (−Δ+c−z)⁻¹ in mode m.

    Left side: the free radial kernel I_m(κr_<)K_m(κr_>).  Right side: the
    decoupled Dirichlet kernels plus the rank-one correction
    −γ(r)(M₊+M₋)⁻¹γ(r′), all of whose factors are scalars in mode m.
    """
    mode = _ModeScalars(z, m, c)
    denom = mode.m_plus + mode.m_minus
    if abs(denom) < 1e-12 * (abs(mode.m_plus) + abs(mode.m_minus)):
        raise SpectralPoleError(
            f"M₊+M₋ vanishes in mode {m}: z is a coupled eigenvalue, the formula "
            "cannot be inverted there"
        )
    rhs = -(mode.gamma[:, None] * mode.gamma / denom)
    rhs[_IN, _IN] += mode.dirichlet_interior()
    rhs[_OUT, _OUT] += mode.dirichlet_exterior()
    return worst(np.abs(mode.free - rhs).flat)


def mixed_resolvent_disk_mode(z, m: int, c: float = 1.0) -> float:
    """Worst pointwise defect of the Dirichlet ⊕ Neumann resolvent formula.

    The decoupled block is Dirichlet on the interior but Neumann on the
    exterior; the correction uses γ̂ = diag(γ₊, γ₋M₋⁻¹) and the 2×2 matrix
    Σ = −[[M₊, 1], [1, −M₋⁻¹]]⁻¹."""
    mode = _ModeScalars(z, m, c)
    if abs(mode.m_minus) == 0.0:
        raise SpectralPoleError(f"exterior Weyl value vanishes in mode {m}")
    sigma = -np.linalg.inv(np.array([[mode.m_plus, 1.0], [1.0, -1.0 / mode.m_minus]]))
    hat = np.concatenate([mode.gamma[_IN], mode.gamma[_OUT] / mode.m_minus])
    rhs = hat[:, None] * sigma[np.ix_(_SIDE, _SIDE)] * hat
    rhs[_IN, _IN] += mode.dirichlet_interior()
    rhs[_OUT, _OUT] += mode.neumann_exterior()
    return worst(np.abs(mode.free - rhs).flat)


def resolvent_difference_disk_mode(z, m: int, c: float = 1.0) -> float:
    """Defect of (A₀₋−z)⁻¹ − (A₁₋−z)⁻¹ = γ₋ M₋⁻¹ γ₋* in exterior mode m."""
    mode = _ModeScalars(z, m, c)
    gamma = mode.gamma[_OUT]
    rhs = gamma[:, None] * gamma / mode.m_minus
    return worst(np.abs(mode.dirichlet_exterior() - mode.neumann_exterior() - rhs).flat)


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
                              trials: int = 8) -> ResidualReport:
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
    probes = probe_ring(radius, 20)
    rng = np.random.default_rng(0)
    modes = np.arange(-16, 17)
    harmonics = np.exp(1j * np.outer(modes, grid.nodes))
    coeffs = rng.normal(size=(trials, modes.size)) + 1j * rng.normal(size=(trials, modes.size))

    params = {"side": side, "curve": curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag]}
    rows, norms = [], []
    epsilons = (1e-8, 1e-6, 1e-4)
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


def rellich_quotient(k: int):
    """Dirichlet eigenvalue of the unit disk from the boundary Rellich identity.

    For u = J₀(j_{0,k} r): λ = (1/4‖u‖²) ∮ (∂u/∂ν)² ∂|x|²/∂ν dω, compared to
    the reference j_{0,k}².  Returns (λ_computed, λ_reference)."""
    j0k = bessel_j_zero(k)
    _, grid = make_curve("disk", 256)
    du_dnu = -j0k * bessel_j(1, np.full(grid.n, j0k, dtype=complex)).real
    nu_weight = 2.0 * np.einsum("ij,ij->i", grid.points, grid.normals)
    boundary = float(np.sum(du_dnu**2 * nu_weight * grid.arc_weights))
    x, w = _leggauss(400)
    r = 0.5 * (x + 1.0)
    values = bessel_j(0, j0k * r.astype(complex)).real
    u_sq = 2.0 * np.pi * float(np.sum(0.5 * w * r * values**2))
    return boundary / (4.0 * u_sq), float(j0k * j0k)
