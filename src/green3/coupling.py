"""Coupled-resolvent identities, the eigenvalue criterion, and planar Green checks.

The global operator here is A = −Δ + c on R², split by an interface curve into
an interior/exterior transmission pair.  On the unit disk every resolvent
formula decouples into Fourier modes where each factor is a ratio of modified
Bessel functions, so the Krein-type and mixed (Dirichlet ⊕ Neumann) formulas
can be verified as exact scalar kernel identities; curve-level checks (third
Green identity, eigenvalue indicator, Rellich quotient) work through the
assembled boundary operators instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentRangeError, ConfigurationError, SpectralPoleError
from .formulas import _POLE_ERROR, _difference, _krein, _mixed, _poles
from .geometry import QuadratureGrid, _leggauss, dirichlet_trace, make_curve, neumann_trace
from .potentials import _DiskMode, _LayerOperators, _OffCurve, _point_source
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


def jump_brackets(field: TransmissionField, grid: QuadratureGrid) -> JumpData:
    """Sample [Γ₀f] and [Γ₁f] on the quadrature nodes."""
    b0 = dirichlet_trace(field.plus, grid, "+") - dirichlet_trace(field.minus, grid, "-")
    tn_plus = neumann_trace(field.gradient_plus, grid, "+")
    tn_minus = neumann_trace(field.gradient_minus, grid, "-")
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


def third_green_identity_residual(field: TransmissionField, z, grid: QuadratureGrid, probes,
                                  tolerance: float = None,
                                  enforce_accuracy_region: bool = True) -> ResidualReport:
    """Residual of f = 𝒢_z(−Δ−z)f + 𝒟_z[Γ₀f] − 𝒮_z[Γ₁f] at probe points.

    ``probes`` is a pair (interior_points, exterior_points); either entry may be
    None.  One off-curve kernel per probe set gives both layer fields.  The
    volume term 𝒢_z exists only for an interior source on the disk (tensor
    polar quadrature); exterior sources are out of scope.
    """
    z = as_spectral_point(z)
    if field.source_minus is not None:
        raise ConfigurationError("volume quadrature over the unbounded exterior is not supported")
    if field.source_plus is not None and grid.curve.shape != "disk":
        raise ConfigurationError("interior volume quadrature is polar and needs the disk")
    mode = "source" if field.source_plus is not None else "homogeneous"
    if tolerance is None:
        tolerance = _TOLERANCE[mode]
    jumps = jump_brackets(field, grid)
    inner, outer = probes

    def side_residual(pts, side_field):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        kernel = _OffCurve.layer(grid, z, pts, enforce_accuracy_region)
        rhs = kernel.double_layer(jumps.bracket0) - kernel.single_layer(jumps.bracket1)
        if field.source_plus is not None:
            rhs = rhs + _volume_potential(z, field.source_plus, pts)
        return worst(np.abs(np.asarray(side_field(pts), dtype=complex) - rhs))

    params = {"curve": grid.curve.shape, "n": grid.n, "z": [z.z.real, z.z.imag], "mode": mode}
    rows = []
    if inner is not None and len(inner):
        rows.append(timed_check("green.third.interior", {**params, "probes": len(inner)},
                                tolerance, lambda: side_residual(inner, field.plus)))
    if outer is not None and len(outer):
        rows.append(timed_check("green.third.exterior", {**params, "probes": len(outer)},
                                tolerance, lambda: side_residual(outer, field.minus)))
    return ResidualReport(rows)


# three sample radii inside the unit circle, then three outside
_SAMPLES = np.array([0.25, 0.6, 0.9, 1.2, 1.8, 2.5])
_SIDE = np.repeat([0, 1], 3)  # 0 interior, 1 exterior, per sample radius


class _ModeScalars(_DiskMode):
    """The modes ``modes`` of −Δ + c at z, one family: the disk-mode factors
    at z − c, the Weyl values M±, and on the sample radii γ, the free radial
    kernel I_m(κr_<)K_m(κr_>) and the decoupled kernels, each with a leading
    mode axis, the columns a delta at each radius.  ``krein``, ``mixed`` and
    ``difference`` give each mode's worst defect of the three formulas
    (``_defect``); the rows of ``green3 krein`` read the first two, and the
    constructor checks the guards of both rows (``_DiskMode.check``)."""

    @np.errstate(all="ignore")  # a factor out of range is reported by ``check``
    def __init__(self, z, modes, c):
        if c < 0:
            raise ConfigurationError(f"coupling shift c must be >= 0, got {c}")
        shifted = complex(z) - c
        if shifted.imag == 0.0 and shifted.real >= 0.0:
            raise SpectralPoleError(
                f"z - c = {abs(shifted.real):g} lies on [0, ∞), the spectrum of −Δ + c")
        super().__init__(shifted, modes)
        i_m, k_m, di_m, dk_m = self.i_m, self.k_m, self.di_m, self.dk_m
        pole = lambda text: lambda mode, _: SpectralPoleError(text.format(self.modes.flat[mode]))
        # a zero of I_m/K_m sits within O(ulp) of one of its own derivative's
        # scale; comparing across the I/K families would misfire at large m
        self._guard((abs(i_m) < 1e-12 * abs(di_m)) | (abs(k_m) < 1e-12 * abs(dk_m)),
                    pole(f"z - c = {shifted} sits at a Dirichlet pole of mode {{}}"))
        try:
            i_r, k_r = self.i_at(_SAMPLES), self.k_at(_SAMPLES)
        except ArgumentRangeError as error:  # |κr| past the overflow guard, at every mode
            outer = _SAMPLES[-1]
            self._guard(np.ones(self.modes.size, bool), lambda mode, _: ArgumentRangeError(
                f"mode {self.modes.flat[mode]} leaves the double-precision range at "
                f"κ = {self.kappa:.6g}: I_m(κr) and K_m(κr) at r = {outer:g}, "
                f"|κr| = {abs(self.kappa) * outer:.6g}: {error}"))
            self.check()  # raises: the first mode fails here, if not before
        self.weyl = m_plus, m_minus = (-self.kappa * di_m / i_m, self.kappa * dk_m / k_m)
        pivot = lambda name, value: (_poles(value, m_plus, m_minus), lambda mode, _: (
            SpectralPoleError(_POLE_ERROR.format(name, np.ravel(value)[mode]))))
        # the krein row's guards in ``_decoupled`` and ``_krein``, then the mixed row's
        self._k_by_i = self._normal("K_m(κ)/I_m(κ)", k_m / i_m)
        self._i_by_k = self._normal("I_m(κ)/K_m(κ)", i_m / k_m)
        self._guard(*pivot("M₊ + M₋", m_plus + m_minus))
        self._guard(abs(dk_m) < 1e-12 * abs(k_m), pole("z sits at a Neumann pole of exterior mode {}"))
        self._di_by_dk = self._normal("I_m'(κ)/K_m'(κ)", di_m / dk_m)
        self._guard(*pivot("M₋", m_minus))
        self.check()
        self._profile = np.where(_SIDE == 0, i_r, k_r)  # I_m(κr) inside, K_m(κr) outside
        self.gamma = self._profile / np.stack([i_m, k_m], axis=-1)[..., _SIDE]
        self.pairings = np.where(_SIDE == np.array([[0], [1]]), self.gamma[..., None, :], 0.0)
        self.free = np.where(_SAMPLES[:, None] <= _SAMPLES, i_r[..., :, None] * k_r[..., None, :],
                             i_r[..., None, :] * k_r[..., :, None])

    def _decoupled(self, neumann: bool):
        """R₀₊ ⊕ R₋, Dirichlet inside and Dirichlet or Neumann outside: zero
        across the circle, and on each side's block the free kernel minus
        ratio·v(r)v(r′), v the side's profile."""
        outer = self._di_by_dk if neumann else self._i_by_k
        scaled = np.stack([self._k_by_i, outer], axis=-1)[..., _SIDE] * self._profile
        return np.where(_SIDE[:, None] == _SIDE,
                        self.free - scaled[..., :, None] * self._profile[..., None, :], 0.0)

    def _defect(self, lhs, rhs):
        """The worst |lhs − rhs| over each mode's sample pairs, each relative
        to the free kernel there, which falls like e^{−κ|r−r′|} and (r_</r_>)^m."""
        relative = np.reshape(np.abs(lhs - rhs) / np.abs(self.free), (self.modes.size, -1))
        return np.array([worst(mode) for mode in relative]).reshape(self.modes.shape)

    def krein(self):
        return self._defect(self.free, _krein(*self.weyl, self.gamma, self.pairings,
                                              self._decoupled(neumann=False)))

    def mixed(self):
        return self._defect(self.free, _mixed(*self.weyl, _SIDE, self.gamma, self.pairings,
                                              self._decoupled(neumann=True)))

    def difference(self):
        lhs = self._decoupled(neumann=False) - self._decoupled(neumann=True)
        # γ₋ at the radii is zero inside, so it is its own pairing row
        minus = self.pairings[..., 1, :]
        return self._defect(lhs, _difference(*self.weyl, minus, minus))


# ------------------------------------------------------------- curve-level ops

def eigenvalue_indicator(z, grid: QuadratureGrid, c: float = 0.0) -> float:
    """σ_min of M₊(z−c)+M₋(z−c) for A = −Δ + c, the same shift c on both sides.

    With the single-layer ansatz of both Weyl maps and equal side shifts the
    sum is exactly M₊+M₋ = −(½I − K*)S⁻¹ − (½I + K*)S⁻¹ = −S⁻¹, for the
    Nyström matrices as in the continuum, so the value is 1/σ_max(S(z−c)) in
    the arc-length inner product of L²(Γ): one assembly of S and its guarded
    singular values there, one ``eigvalsh`` at real z − c ≤ 0 and one SVD
    elsewhere.  Unequal shifts break the identity."""
    return float(1.0 / _LayerOperators(grid, complex(z) - c).single_layer_singular_values[0])


def rellich_quotient(k: int):
    """Dirichlet eigenvalue of the unit disk from the boundary Rellich identity.

    For u = J₀(j_{0,k} r): λ = (1/4‖u‖²) ∮ (∂u/∂ν)² ∂|x|²/∂ν dω, compared to
    the reference j_{0,k}².  Returns (λ_computed, λ_reference)."""
    j0k = bessel_j_zero(k)
    grid = make_curve("disk", 256)
    du_dnu = -j0k * bessel_j(1, np.full(grid.n, j0k, dtype=complex)).real
    nu_weight = 2.0 * np.einsum("ij,ij->i", grid.points, grid.normals)
    boundary = float(np.sum(du_dnu**2 * nu_weight * grid.arc_weights))
    r, w = _leggauss(400, 0.0, 1.0)
    values = bessel_j(0, j0k * r.astype(complex)).real
    u_sq = 2.0 * np.pi * float(np.sum(w * r * values**2))
    return boundary / (4.0 * u_sq), float(j0k * j0k)
