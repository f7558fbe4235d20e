"""Smooth closed planar interface curves and their boundary calculus.

A curve 𝒞 separates the plane into a bounded region (the "+" side) and its
unbounded complement ("−").  All parametrizations are 2π-periodic and
counterclockwise; ``normals`` always stores n⁺, the unit normal pointing out
of the bounded side, and the "−" side uses n⁻ = −n⁺.  Quadrature is the
periodic trapezoid rule, which is spectrally accurate for smooth integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, EvaluationError

_BUILTIN_SHAPES = ("disk", "ellipse", "kite")

#: offset schedule (base, step, levels) used when a field can only be sampled
#: off the curve: distances base + step*i, polynomial extrapolation to 0
DEFAULT_OFFSET = (0.01, 0.01, 6)


@dataclass(frozen=True)
class InterfaceCurve:
    """Parametrized closed curve with analytically known differential data.

    Shapes: the unit ``disk``; an axis-aligned ``ellipse`` with semi-axes
    (a, b); the standard ``kite`` (cos t + 0.65 cos 2t − 0.65, 1.5 sin t).
    """

    shape: str
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in _BUILTIN_SHAPES:
            raise ConfigurationError(f"unknown shape {self.shape!r}; expected one of {_BUILTIN_SHAPES}")
        if self.a <= 0 or self.b <= 0:
            raise ConfigurationError("ellipse semi-axes must be positive")

    def point(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "kite":
            return np.stack([np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1)
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "kite":
            return np.stack([-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=-1)
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "kite":
            return np.stack([-np.cos(t) - 2.6 * np.cos(2 * t), -1.5 * np.sin(t)], axis=-1)
        return np.stack([-self.a * np.cos(t), -self.b * np.sin(t)], axis=-1)

    def speed(self, t):
        return np.linalg.norm(self.velocity(t), axis=-1)

    def normal(self, t):
        """Unit normal n⁺(t) pointing out of the bounded region."""
        v = self.velocity(t)
        n = np.stack([v[..., 1], -v[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def curvature(self, t):
        v, acc = self.velocity(t), self.acceleration(t)
        num = v[..., 0] * acc[..., 1] - v[..., 1] * acc[..., 0]
        return num / np.linalg.norm(v, axis=-1) ** 3


@dataclass(frozen=True)
class QuadratureGrid:
    """Periodic trapezoid grid t_j = 2πj/N with cached curve data at the nodes."""

    curve: InterfaceCurve
    n: int

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2:
            raise ConfigurationError(f"node count must be even and >= 8, got {self.n}")

    @staticmethod
    def _frozen(arr: np.ndarray) -> np.ndarray:
        arr.flags.writeable = False
        return arr

    @cached_property
    def nodes(self) -> np.ndarray:
        return self._frozen(2.0 * np.pi * np.arange(self.n) / self.n)

    @cached_property
    def points(self) -> np.ndarray:
        return self._frozen(self.curve.point(self.nodes))

    @cached_property
    def velocity(self) -> np.ndarray:
        return self._frozen(self.curve.velocity(self.nodes))

    @cached_property
    def speed(self) -> np.ndarray:
        return self._frozen(self.curve.speed(self.nodes))

    @cached_property
    def normals(self) -> np.ndarray:
        return self._frozen(self.curve.normal(self.nodes))

    @cached_property
    def curvature(self) -> np.ndarray:
        return self._frozen(self.curve.curvature(self.nodes))

    @cached_property
    def arc_weights(self) -> np.ndarray:
        """Quadrature weights for ∫_𝒞 · ds: (2π/N)·|x'(t_j)|."""
        return self._frozen(2.0 * np.pi / self.n * self.speed)

    @property
    def length(self) -> float:
        return float(self.arc_weights.sum())

    def signed_area(self) -> float:
        x, v = self.points, self.velocity
        return float(np.pi / self.n * np.sum(x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]))


def make_curve(shape: str, n: int, a: float = 1.0, b: float = 1.0):
    """Build (InterfaceCurve, QuadratureGrid) for a named shape with N nodes."""
    curve = InterfaceCurve(shape, a, b)
    return curve, QuadratureGrid(curve, n)


def curve_from_spec(text: str, n: int):
    """Parse a CLI-style curve description: ``disk``, ``kite``, or ``ellipse:a,b``."""
    name, _, params = text.partition(":")
    name = name.strip()
    if name == "ellipse":
        try:
            a_str, b_str = params.split(",")
            a, b = float(a_str), float(b_str)
        except ValueError as exc:
            raise ConfigurationError(f"ellipse spec must look like 'ellipse:a,b', got {text!r}") from exc
        return make_curve("ellipse", n, a, b)
    if params:
        raise ConfigurationError(f"shape {name!r} takes no parameters, got {text!r}")
    return make_curve(name, n)


def _check_finite(vals: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what} produced non-finite values")
    return vals


@cache
def _leggauss(n: int):
    """The n-point Gauss–Legendre rule (nodes, weights) on [−1, 1], built once per
    process; the arrays are read-only because every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _check_side(side: str, what: str = "side") -> float:
    """The sign of a '+' (bounded) or '-' side; ``what`` names it in the error."""
    if side not in ("+", "-"):
        raise ConfigurationError(f"{what} must be '+' or '-', got {side!r}")
    return 1.0 if side == "+" else -1.0


def _offset_samples(field, grid: QuadratureGrid, sgn: float, offset):
    base, step, levels = offset
    if base <= 0 or step <= 0 or levels < 2:
        raise ConfigurationError(f"offset schedule must be (base>0, step>0, levels>=2), got {offset!r}")
    dists = base + step * np.arange(levels)
    rows = [field(grid.points - sgn * d * grid.normals) for d in dists]
    return dists, _check_finite(np.asarray(rows), "field")


def _interp_at_zero(dists: np.ndarray, samples: np.ndarray):
    # interpolating polynomial through (d_i, f_i), evaluated and differentiated
    # at d = 0; distances are rescaled to keep the Vandermonde solve benign
    scale = dists.max()
    coef = np.linalg.solve(np.vander(dists / scale, increasing=True), samples)
    return coef[0], coef[1] / scale


def dirichlet_trace(field, curve: InterfaceCurve, grid: QuadratureGrid, side: str = "+", offset=None):
    """Boundary values of a field on the given side of the curve.

    ``field`` maps an (k, 2) array of points to k complex values.  With
    ``offset=None`` it is sampled on the curve itself; otherwise it is sampled
    at distances base+step*i along the inward (side "+") or outward ("−")
    normal line and extrapolated to distance 0.
    """
    sgn = _check_side(side)
    if offset is None:
        return _check_finite(np.asarray(field(grid.points)), "field")
    dists, samples = _offset_samples(field, grid, sgn, offset)
    return _interp_at_zero(dists, samples)[0]


def neumann_trace(field, curve: InterfaceCurve, grid: QuadratureGrid, side: str = "+",
                  gradient=None, offset=None):
    """Normal derivative ⟨n^side, ∇f⟩ on the curve, from the given side.

    Needs either a gradient callable (an (k, 2) → (k, 2) map; defaults to
    ``field.gradient``) or an offset schedule for a values-only field.  Note
    n^− = −n⁺, so the two sides differ in sign even for a smooth field.
    """
    sgn = _check_side(side)
    if offset is None:
        grad = gradient if gradient is not None else getattr(field, "gradient", None)
        if grad is None:
            raise ConfigurationError("direct Neumann trace needs a gradient; pass gradient= or offset=")
        g = _check_finite(np.asarray(grad(grid.points)), "gradient")
        return np.sum(sgn * grid.normals * g, axis=1)
    dists, samples = _offset_samples(field, grid, sgn, offset)
    # p(d) = f(x - sgn*d*n⁺) has p'(0) = -⟨n^side, ∇f⟩ for either side
    return -_interp_at_zero(dists, samples)[1]
