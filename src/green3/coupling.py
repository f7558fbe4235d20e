"""Coupled-resolvent identities, the eigenvalue criterion, and planar Green checks.

The global operator here is A = −Δ + c on R², split by an interface curve into
an interior/exterior transmission pair.  On the unit disk every resolvent
formula decouples into Fourier modes where each factor is a ratio of modified
Bessel functions, so the Krein-type and mixed (Dirichlet ⊕ Neumann) formulas
can be verified as exact scalar kernel identities; curve-level checks (third
Green identity, eigenvalue indicator, Rellich quotient) work through the
assembled boundary operators instead.

The right sides of the Krein, mixed and difference formulas are written once
here, for scalar M±; the disk modes and the 1D model (``interval_model``) call
them.  The rows are check points of both sides, with a side index (0 for +, 1
for −), and the columns are densities φ: a delta at each sample radius on the
disk, one bump in 1D.  The inputs are M±, γ at the rows, γ₊*φ and γ₋*φ per
column, and the decoupled resolvent applied to φ as one block-diagonal array.
One pole rule guards M₊ + M₋ and M₋: a pole below 1e-10·(|M₊| + |M₋|).
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
    _OffCurve,
    _point_source,
    eval_double_layer_field,
    eval_single_layer_field,
)
from .reports import ResidualReport, timed_check, worst
from .specfun import as_spectral_point, bessel_j, bessel_j_zero

__all__ = [
    "JumpData",
    "TransmissionField",
    "transmission_point_sources",
    "jump_brackets",
    "probe_ring",
    "third_green_identity_residual",
    "eigenvalue_indicator",
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
    """A pair of side fields (f₊ interior, f₋ exterior), each a (k,2)→(k,) map,
    with their gradients, (k,2)→(k,2) maps that give the Neumann traces; a
    source callable marks the side as inhomogeneous, i.e. source_plus = (−Δ−z)f₊."""

    plus: Callable
    minus: Callable
    gradient_plus: Callable
    gradient_minus: Callable
    source_plus: Optional[Callable] = None
    source_minus: Optional[Callable] = None


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
    tn_plus = neumann_trace(field.gradient_plus, curve, grid, "+")
    tn_minus = neumann_trace(field.gradient_minus, curve, grid, "-")
    return JumpData(np.asarray(b0, dtype=complex), -(tn_plus + tn_minus))


def probe_ring(radius: float, count: int) -> np.ndarray:
    t = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def _volume_potential(z, source, points):
    # tensor polar rule on the unit disk; exact enough for sources supported
    # away from both the probes and the rim
    n_angular = 192
    r, w = _leggauss(96, 0.0, 1.0)
    wr = w * r
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes = np.stack(
        [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()], axis=1
    )
    weights = np.repeat(wr, n_angular) * (2.0 * np.pi / n_angular)
    density = np.asarray(source(nodes), dtype=complex) * weights
    return _OffCurve(z, points, nodes).value @ density


# the default tolerance of the green.third rows per field mode (the rows' "mode"
# param), which the CLI scales by --tol-scale
_TOLERANCE = {"homogeneous": 1e-7, "source": 1e-5}


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
    mode = "source" if field.source_plus is not None else "homogeneous"
    if tolerance is None:
        tolerance = _TOLERANCE[mode]
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
        return worst(np.abs(np.asarray(side_field(pts), dtype=complex) - rhs))

    params = {"curve": curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag], "mode": mode}
    rows = []
    if inner is not None and len(inner):
        rows.append(timed_check("green.third.interior", {**params, "probes": len(inner)},
                                tolerance, lambda: side_residual(inner, field.plus)))
    if outer is not None and len(outer):
        rows.append(timed_check("green.third.exterior", {**params, "probes": len(outer)},
                                tolerance, lambda: side_residual(outer, field.minus)))
    return ResidualReport(rows).sorted()


# ------------------------------------------------------- resolvent formulas

_POLE = 1e-10  # the pole rule of the module docstring


def _pivot(name, value, m_plus, m_minus):
    """``value`` unless it is a pole by the one rule; NaN passes on."""
    if abs(value) < _POLE * (abs(m_plus) + abs(m_minus)):
        raise SpectralPoleError(f"{name} = {value:.3g} makes z a pole of the resolvent formula")
    return value


def _krein(m_plus, m_minus, gamma, pairings, decoupled):
    """R₀₊ ⊕ R₀₋ − γ(M₊ + M₋)⁻¹γ* on the columns; ``decoupled`` is R₀₊ ⊕ R₀₋."""
    denom = _pivot("M₊ + M₋", m_plus + m_minus, m_plus, m_minus)
    return decoupled - gamma[:, None] * pairings.sum(axis=0) / denom


def _mixed(m_plus, m_minus, side, gamma, pairings, decoupled):
    """R₀₊ ⊕ R₁₋ + γ̂Σγ̂* on the columns, with γ̂ = diag(γ₊, γ₋M₋⁻¹) and
    Σ = −[[M₊, 1], [1, −M₋⁻¹]]⁻¹; ``decoupled`` is R₀₊ ⊕ R₁₋ (Neumann on −)."""
    _pivot("M₊ + M₋", m_plus + m_minus, m_plus, m_minus)  # Σ's determinant is −(M₊+M₋)/M₋
    _pivot("M₋", m_minus, m_plus, m_minus)
    sigma = -np.linalg.inv(np.array([[m_plus, 1.0], [1.0, -1.0 / m_minus]], dtype=complex))
    divisor = np.array([1.0, m_minus])  # γ̂ and γ̂* divide the − side by M₋
    hat = gamma / divisor[side]
    return decoupled + hat[:, None] * (sigma @ (pairings / divisor[:, None]))[side]


def _difference(m_plus, m_minus, gamma_minus, pairing_minus):
    """γ₋M₋⁻¹γ₋* on the columns, the right side of R₀₋ − R₁₋; ``gamma_minus``
    is γ₋ at the rows, zero on + rows."""
    return gamma_minus[:, None] * pairing_minus / _pivot("M₋", m_minus, m_plus, m_minus)


# three sample radii inside the unit circle, then three outside
_SAMPLES = np.array([0.25, 0.6, 0.9, 1.2, 1.8, 2.5])
_SIDE = np.repeat([0, 1], 3)  # 0 interior, 1 exterior, per sample radius


class _ModeScalars(_DiskMode):
    """Mode m of −Δ + c at z: the disk-mode factors at z − c, the Weyl values
    M±, and on the sample radii γ, the free radial kernel I_m(κr_<)K_m(κr_>)
    and the decoupled kernels, the columns a delta at each radius.  ``krein``,
    ``mixed`` and ``difference`` are the worst defects of the three formulas
    (``_defect``); the rows of ``green3 krein`` read the first two."""

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
        self.weyl = (-self.kappa * self.di_m / self.i_m, self.kappa * self.dk_m / self.k_m)
        i_r, k_r = self.i_at(_SAMPLES), self.k_at(_SAMPLES)
        self._profile = np.where(_SIDE == 0, i_r, k_r)  # I_m(κr) inside, K_m(κr) outside
        self.gamma = self._profile / np.array([self.i_m, self.k_m])[_SIDE]
        self.pairings = np.where(_SIDE == np.array([[0], [1]]), self.gamma, 0.0)  # γ±*δ_r′
        self.free = np.where(_SAMPLES[:, None] <= _SAMPLES, i_r[:, None] * k_r, i_r * k_r[:, None])

    def _decoupled(self, neumann: bool):
        """R₀₊ ⊕ R₋, Dirichlet inside and Dirichlet or Neumann outside: zero
        across the circle, and on each side's block the free kernel minus
        ratio·v(r)v(r′), v the side's profile."""
        if neumann and abs(self.dk_m) < 1e-12 * abs(self.k_m):
            raise SpectralPoleError(f"z sits at a Neumann pole of exterior mode {self.m}")
        outer = (("I_m'(κ)/K_m'(κ)", self.di_m / self.dk_m) if neumann
                 else ("I_m(κ)/K_m(κ)", self.i_m / self.k_m))
        ratio = np.array([self._normal("K_m(κ)/I_m(κ)", self.k_m / self.i_m),
                          self._normal(*outer)])[_SIDE]
        scaled = ratio * self._profile
        return np.where(_SIDE[:, None] == _SIDE, self.free - scaled[:, None] * self._profile, 0.0)

    def _defect(self, lhs, rhs) -> float:
        """The worst |lhs − rhs| over the sample pairs, each relative to the
        free kernel there, which falls like e^{−κ|r−r′|} and (r_</r_>)^m."""
        return worst(np.abs(lhs - rhs) / np.abs(self.free))

    def krein(self) -> float:
        return self._defect(self.free, _krein(*self.weyl, self.gamma, self.pairings,
                                              self._decoupled(neumann=False)))

    def mixed(self) -> float:
        return self._defect(self.free, _mixed(*self.weyl, _SIDE, self.gamma, self.pairings,
                                              self._decoupled(neumann=True)))

    def difference(self) -> float:
        lhs = self._decoupled(neumann=False) - self._decoupled(neumann=True)
        # γ₋ at the radii is zero inside, so it is its own pairing row
        return self._defect(lhs, _difference(*self.weyl, self.pairings[1], self.pairings[1]))


# ------------------------------------------------------------- curve-level ops

def eigenvalue_indicator(z, curve: InterfaceCurve, grid: QuadratureGrid, c: float = 0.0) -> float:
    """σ_min of M₊(z−c)+M₋(z−c) for A = −Δ + c, the same shift c on both sides.

    With the single-layer ansatz of both Weyl maps and equal side shifts the
    sum is exactly M₊+M₋ = −(½I − K*)S⁻¹ − (½I + K*)S⁻¹ = −S⁻¹, for the
    Nyström matrices as in the continuum, so the value is 1/σ_max(S(z−c)):
    one assembly of S and one guarded SVD.  Unequal shifts break the identity."""
    return float(1.0 / _LayerOperators(grid, complex(z) - c).single_layer_singular_values[0])


def rellich_quotient(k: int):
    """Dirichlet eigenvalue of the unit disk from the boundary Rellich identity.

    For u = J₀(j_{0,k} r): λ = (1/4‖u‖²) ∮ (∂u/∂ν)² ∂|x|²/∂ν dω, compared to
    the reference j_{0,k}².  Returns (λ_computed, λ_reference)."""
    j0k = bessel_j_zero(k)
    _, grid = make_curve("disk", 256)
    du_dnu = -j0k * bessel_j(1, np.full(grid.n, j0k, dtype=complex)).real
    nu_weight = 2.0 * np.einsum("ij,ij->i", grid.points, grid.normals)
    boundary = float(np.sum(du_dnu**2 * nu_weight * grid.arc_weights))
    r, w = _leggauss(400, 0.0, 1.0)
    values = bessel_j(0, j0k * r.astype(complex)).real
    u_sq = 2.0 * np.pi * float(np.sum(w * r * values**2))
    return boundary / (4.0 * u_sq), float(j0k * j0k)
