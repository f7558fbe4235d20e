"""Smooth closed planar interface curves and their boundary calculus.

A curve 𝒞 separates the plane into a bounded region (the "+" side) and its
unbounded complement ("−").  All parametrizations are 2π-periodic and
counterclockwise; ``normals`` always stores n⁺, the unit normal pointing out
of the bounded side, and the "−" side uses n⁻ = −n⁺.  Quadrature is the
periodic trapezoid rule, which is spectrally accurate for smooth integrands.
The boundary traces read a field, or its gradient, at the nodes themselves:
every field handed to them is smooth up to the curve on the traced side.

A grid also holds the layout of its node pairs i < j that the layer bundles
of :mod:`green3.potentials` read at every z: built once per grid, under a
lock of its own, since the check tasks of a scan share the grid.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigurationError, EvaluationError

_BUILTIN_SHAPES = ("disk", "ellipse", "kite")


class _cached_property:
    """``functools.cached_property`` as in Python 3.12: the first read computes
    the value and stores it in the instance ``__dict__``, which serves every
    later read.  Python 3.11 takes one lock per attribute shared by all
    instances, so two check tasks, each with its own layer bundle, took turns
    on S and its singular values.  Two threads that read one instance's
    attribute for the first time may each compute it; every use here is a pure
    function of the instance, so both get equal values."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class InterfaceCurve:
    """Parametrized closed curve with analytically known differential data.

    Shapes: the unit ``disk``; an axis-aligned ``ellipse`` with semi-axes
    (a, b); the standard ``kite`` (cos t + 0.65 cos 2t − 0.65, 1.5 sin t).
    Only the ellipse reads (a, b); the disk and the kite take a = b = 1 alone.
    """

    shape: str
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in _BUILTIN_SHAPES:
            raise ConfigurationError(f"unknown shape {self.shape!r}; expected one of {_BUILTIN_SHAPES}")
        if self.shape != "ellipse" and (self.a, self.b) != (1.0, 1.0):
            raise ConfigurationError(f"shape {self.shape!r} takes no semi-axes, "
                                     f"got a = {self.a:g}, b = {self.b:g}")
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):  # NaN fails too
            raise ConfigurationError("ellipse semi-axes must be finite and positive, "
                                     f"got ellipse:{self.a:g},{self.b:g}")

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
        object.__setattr__(self, "_pairs_lock", threading.Lock())

    @staticmethod
    def _frozen(arr: np.ndarray) -> np.ndarray:
        arr.flags.writeable = False
        return arr

    @_cached_property
    def nodes(self) -> np.ndarray:
        return self._frozen(2.0 * np.pi * np.arange(self.n) / self.n)

    @_cached_property
    def points(self) -> np.ndarray:
        return self._frozen(self.curve.point(self.nodes))

    @_cached_property
    def velocity(self) -> np.ndarray:
        return self._frozen(self.curve.velocity(self.nodes))

    @_cached_property
    def speed(self) -> np.ndarray:
        return self._frozen(self.curve.speed(self.nodes))

    @_cached_property
    def normals(self) -> np.ndarray:
        return self._frozen(self.curve.normal(self.nodes))

    @_cached_property
    def curvature(self) -> np.ndarray:
        return self._frozen(self.curve.curvature(self.nodes))

    @_cached_property
    def arc_weights(self) -> np.ndarray:
        """Quadrature weights for ∫_𝒞 · ds: (2π/N)·|x'(t_j)|."""
        return self._frozen(2.0 * np.pi / self.n * self.speed)

    @property
    def _pairs(self) -> _PairLayout:
        """The pair layout, built on first use by exactly one thread."""
        pairs = self.__dict__.get("_pair_layout")
        if pairs is None:
            with self._pairs_lock:
                pairs = self.__dict__.get("_pair_layout")
                if pairs is None:
                    pairs = self.__dict__["_pair_layout"] = _PairLayout(self)
        return pairs

    @property
    def length(self) -> float:
        return float(self.arc_weights.sum())

    def signed_area(self) -> float:
        x, v = self.points, self.velocity
        return float(np.pi / self.n * np.sum(x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]))


def _kress_weights(n: int) -> np.ndarray:
    """Circulant quadrature weights R_{ij} = r_{(i-j) mod N} for the kernel
    ln(4 sin²((t−s)/2)), returned as r; exact on trigonometric polynomials of
    degree < N/2.  r_d = r_{N−d}, so R is symmetric."""
    d = np.arange(n)
    inverse = np.zeros(n)
    inverse[1 : n // 2] = 1.0 / d[1 : n // 2]
    # Σ_{0<m<N/2} cos(2πdm/N)/m is the real part of one DFT
    return -(4.0 * np.pi / n) * np.fft.fft(inverse).real - (4.0 * np.pi / n**2) * (-1.0) ** d


class _PairLayout:
    """The node pairs i < j of a grid, row by row, and the z-free factors a
    layer bundle reads on them: the upper-triangle mask, the row and column
    of each pair, x_j − x_i as (dx, dy), the distance r, the Kress weight and
    the log-sin factor ln(4 sin²((t_j − t_i)/2)).  The last two depend on
    j − i alone.  Every array is read-only."""

    def __init__(self, grid: QuadratureGrid):
        n = grid.n
        self.upper = np.triu(np.ones((n, n), dtype=bool), 1)
        self.rows, self.cols = np.nonzero(self.upper)
        x, y = grid.points.T
        self.dx = x[self.cols] - x[self.rows]
        self.dy = y[self.cols] - y[self.rows]
        self.r = np.hypot(self.dx, self.dy)
        offset = self.cols - self.rows
        weights = _kress_weights(n)
        self.kress_diagonal = weights[0]
        self.kress = weights[offset]
        self.lsin = np.log(4.0 * np.sin(grid.nodes[1:] / 2.0) ** 2)[offset - 1]
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False


def make_curve(shape: str, n: int, a: float = 1.0, b: float = 1.0) -> QuadratureGrid:
    """The N-node grid on a named shape; its curve is ``grid.curve``, the one
    every planar function reads."""
    return QuadratureGrid(InterfaceCurve(shape, a, b), n)


def curve_from_spec(text: str, n: int) -> QuadratureGrid:
    """The N-node grid on a CLI-style curve description: ``disk``, ``kite``,
    or ``ellipse:a,b``."""
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
def _leggauss(n: int, a: float = -1.0, b: float = 1.0):
    """The n-point Gauss–Legendre rule (nodes, weights) on [a, b], built once per
    process and interval; the arrays are read-only because every caller shares
    them."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _check_side(side: str, what: str = "side") -> float:
    """The sign of a '+' (bounded) or '-' side; ``what`` names it in the error."""
    if side not in ("+", "-"):
        raise ConfigurationError(f"{what} must be '+' or '-', got {side!r}")
    return 1.0 if side == "+" else -1.0


def _interp_at_zero(dists: np.ndarray, samples: np.ndarray):
    # interpolating polynomial through (d_i, f_i), evaluated and differentiated
    # at d = 0; distances are rescaled to keep the Vandermonde solve benign
    scale = dists.max()
    coef = np.linalg.solve(np.vander(dists / scale, increasing=True), samples)
    return coef[0], coef[1] / scale


def dirichlet_trace(field, grid: QuadratureGrid, side: str = "+"):
    """Boundary values of a field on the given side of the curve: ``field``
    maps an (k, 2) array of points to k complex values and is sampled on the
    curve itself."""
    _check_side(side)
    return _check_finite(np.asarray(field(grid.points)), "field")


def neumann_trace(gradient, grid: QuadratureGrid, side: str = "+"):
    """Normal derivative ⟨n^side, ∇f⟩ on the curve, from the given side, given
    the field's gradient as an (k, 2) → (k, 2) map.  Note n^− = −n⁺, so the
    two sides differ in sign even for a smooth field.
    """
    sgn = _check_side(side)
    g = _check_finite(np.asarray(gradient(grid.points)), "gradient")
    return np.sum(sgn * grid.normals * g, axis=1)
