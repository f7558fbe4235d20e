"""Exactly solvable two-interval coupling: the 1D oracle for the abstract theory.

Ω₊ = (0,1) with a Dirichlet condition at 0 and Ω₋ = (1,2) with Dirichlet at 2
are coupled at x = 1.  The boundary space is one-dimensional, every Weyl
function, γ-field and Green kernel is an elementary sin/cos expression, and
the boundary maps follow the outward-derivative convention

    Γ₀^± f = f(1^∓),   Γ₁⁺ f = −f'(1⁻),   Γ₁⁻ f = +f'(1⁺),

so C¹ matching at the junction is exactly the coupling condition.  Because the
closed forms are exact, every residual here measures quadrature alone.

The model has one quadrature rule, ``_pieces``: sorted points cut (a, b)
into gaps, each gap into equal pieces no longer than ``_PIECE_LENGTH`` with
one ``_PIECE_N``-point Gauss–Legendre rule each.

Each check hands ``apply_resolvent`` all of its densities at once, as the
rows of one φ, so each Green kernel is applied once per point set.
``apply_resolvent`` evaluates the Green's-function representation by running
sums (Greengard & Rokhlin, CPAM 44, 1991): the evaluation points, the ends and
the kernel's breaks are the points of the rule, and ∫_a^x and ∫_x^b are
forward and backward sums of the piece integrals, so every node is visited
once for all points and all densities.  Densities stay on the leading axis
and each piece's nodes are contiguous, so every density's piece sums and
running sums are the same, bit for bit, as when it is applied alone.

Everything the checks read of one side — m(z), γ, the Dirichlet kernel, the
kernel with a Neumann condition at the junction, the check points — comes from
one ``_Side``, which computes ω = √(z − c), sin ω and cos ω once and holds the
one Dirichlet-pole test.  The γ pairings ∫γφ and ∫|γ|² use the same rule on
the side's own ends (16 pieces of 16 nodes), with the nodes and γ·w built once
per side.

The Krein, mixed and difference formulas, and their pole rule, are those of
``formulas``, which the disk modes use too; its columns are the five bumps
here.

Unlike the planar operators, z may be any complex number away from the
relevant poles — the 1D spectra are discrete, so real z in spectral gaps is a
legitimate (and tested) regime.

Accuracy region.  The closed forms oscillate or grow like e^{|Im ω| x} in
ω = √(z − c), and the Gauss–Legendre rules and the one-sided extrapolation
resolve them only up to some |ω|.  Each check therefore rejects
(``AccuracyRegionError``) a z whose largest |ω| over the two sides exceeds
its ``_OMEGA_LIMIT``.  The limits come from a sweep over |ω| (36 geometric
radii from 1 to 3000, refined near the first failure), 14 arguments of ω
(1e-9, 1e-6, 1e-3, ten equal steps from 0.1 to 1.5, and π/2 − 1e-6: z from
just above the positive real axis to just above the negative one) and
(c₊, c₋) ∈ {(0, 0), (3, 3), (0, 3)}, with z = min(c±) + ω²; for ``green3``
(z = 0) the sweep is over c up to 1e7:

* ``krein`` passes at every point up to |ω| = 346 and fails from 355 (790
  times the tolerance next to the negative real axis, where the kernel
  products near e^{2|Im ω|} leave the double range; an invalid-value
  RuntimeWarning from 355); limit 150;
* ``mixed`` likewise passes up to 346 and fails from 355; limit 150;
* ``suite`` passes up to 12.07 and fails from 12.38 (1.13e-9 against 1e-9);
  limit 10;
* ``green3`` passes up to √c = 347, returns NaN from 355 and overflows
  (``OverflowError``) from 760; products of its kernels overflow with a
  RuntimeWarning from √c ≈ 237; limit 200.

At |ω| = 149 and 150 the worst residual over the same sweep is 3.6e-10 and
6.5e-11 of the tolerance for ``krein`` and 7.1e-10 and 1.0e-10 for ``mixed``;
at 9.9 and 10 it is 0.21 and 0.16 for ``suite``; at its limit it is 8.6e-7
for ``green3``.  No floating-point warning is raised at the limits.

Every z with |Re z| ≤ 5 and c± ∈ [0, 3] has |ω| ≤ 2.93, far inside.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyRegionError, BracketingError, ConfigurationError, SpectralPoleError
from .formulas import _difference, _krein, _mixed
from .geometry import _cached_property, _check_side, _interp_at_zero, _leggauss
from .reports import ResidualReport, timed_check, worst

# the densities of the krein and mixed checks: five Gaussian bumps spread over
# (0,2), one straddling the junction
_BUMP_CENTERS = np.array([0.3, 0.7, 1.0, 1.35, 1.8])
_BUMP_WIDTH = 0.12
_FORMULA_POINTS, _GREEN3_POINTS = 200, 100  # check points per side
_TRIALS = 5  # random densities per (z, side) of the suite's gsgs rows

# ``_pieces``: at most this long, with this many nodes each
_PIECE_LENGTH = 1.0 / 16.0
_PIECE_N = 16

# Between Dirichlet poles p < q of opposite sides, |d(m₊+m₋)/dz| ≥ 8·2p/(q−p)²
# (each residue is 2(kπ)² ≈ 2p), so the best double-precision root has a
# residual of about 8ε·(p/(q−p))², and rounding in m± adds a few times that
# (≤ 4e-10 seen at the merge edge).  Pole pairs closer than _POLE_MERGE·q would
# put that floor above _ROOT_RESIDUAL; they are treated as one coincident pole.
_ROOT_RESIDUAL = 1e-10
_POLE_MERGE = float(np.sqrt(8.0 * np.finfo(float).eps / _ROOT_RESIDUAL))


def _omega(z, c) -> complex:
    return cmath.sqrt(complex(z) - c)


# the default tolerance of each check; the CLI scales it by --tol-scale
_TOLERANCE = {"krein": 1e-8, "mixed": 1e-8, "green3": 1e-8, "suite": 1e-9}

# largest |√(z − c)| each check is trusted at (the sweep in the module docstring)
_OMEGA_LIMIT = {"krein": 150.0, "mixed": 150.0, "suite": 10.0, "green3": 200.0}


def _check_accuracy_region(check: str, z, *shifts) -> None:
    """Reject z whose largest |√(z − c)| lies beyond the swept region of ``check``."""
    omega = max(abs(_omega(z, c)) for c in shifts)
    if not omega <= _OMEGA_LIMIT[check]:
        raise AccuracyRegionError(
            f"|√(z − c)| = {omega:.4g} at z = {complex(z)} exceeds {_OMEGA_LIMIT[check]:g}, "
            f"the accuracy region of the interval {check} check")


def scalar_weyl(side: str, z, c: float = 0.0) -> complex:
    """Closed-form Weyl value m(z) = −√(z−c)·cot√(z−c) of one side.

    Both sides share the formula (each is a unit interval with Dirichlet far
    end); ``side`` only selects which shift c belongs where in error text."""
    return _Side(side, z, c).weyl()


# --------------------------------------------------------------- Green kernels

@dataclass(frozen=True)
class _Kernel:
    """G(x,y) = −u₁(x_<)u₂(x_>)/W on (a,b), the standard Sturm–Liouville form.

    ``breaks`` lists interior points where u₁/u₂ lose smoothness (the coupled
    kernel's junction); no quadrature piece may straddle them."""

    a: float
    b: float
    u1: Callable
    u2: Callable
    wronskian: complex
    breaks: tuple = ()


class _Side:
    """One side of the junction at (z, c): ω = √(z − c), sin ω and cos ω,
    computed once, and everything the checks read of the side.

    The side is (a, b) = (0, 1) for "+" and (1, 2) for "−", with its Dirichlet
    far end at 0 or 2.  It supplies the Weyl value m = Γ₁γ, the γ-field, the
    Dirichlet kernel (A₀ − z)⁻¹, the kernel with a Neumann condition at the
    junction, the check points, and the pairings ∫γφ and ∫|γ|².  The pairings
    use ``_pieces`` on [a, b], with nodes and γ·w built once per side.  Every
    quadrature here evaluates φ on [a, b] only, so a density on (0, 2) needs
    no restriction to the side."""

    def __init__(self, side: str, z, c: float = 0.0):
        _check_side(side, "interval side")
        self.side, self.z = side, complex(z)
        self.a, self.b = (0.0, 1.0) if side == "+" else (1.0, 2.0)
        self.omega = _omega(z, c)
        self.sin, self.cos = cmath.sin(self.omega), cmath.cos(self.omega)

    def _regular(self) -> None:
        """Raise at a Dirichlet eigenvalue of the side, where sin ω vanishes."""
        if abs(self.sin) < 1e-12 * (1.0 + abs(self.cos)):
            raise SpectralPoleError(
                f"z = {self.z} is a Dirichlet eigenvalue of side {self.side} (sin√(z−c) ≈ 0)")

    def _from_a(self, x):
        return self.omega * (np.asarray(x) - self.a)

    def _from_b(self, x):
        return self.omega * (self.b - np.asarray(x))

    def weyl(self) -> complex:
        """m(z) = −ω·cot ω, by its series near ω = 0."""
        w = self.omega
        if abs(w) < 1e-6:
            w2 = w * w
            return complex(-1.0 + w2 / 3.0 + w2 * w2 / 45.0)
        self._regular()
        return complex(-w * self.cos / self.sin)

    def gamma(self, x):
        """γ-field: the (−d²/dx²+c−z)-solution with boundary value 1 at the
        junction and 0 at the far end."""
        self._regular()
        return np.sin(self._from_a(x) if self.side == "+" else self._from_b(x)) / self.sin

    @property
    def junction_slope(self) -> complex:
        """d/dx at x = 1 of sin(ω·distance from the far end), the numerator of γ."""
        return self.omega * self.cos if self.side == "+" else -self.omega * self.cos

    def dirichlet(self) -> _Kernel:
        """Resolvent kernel of A₀, the side with Dirichlet conditions at both ends."""
        self._regular()
        return _Kernel(self.a, self.b, lambda x: np.sin(self._from_a(x)),
                       lambda x: np.sin(self._from_b(x)), -self.omega * self.sin)

    def neumann(self) -> _Kernel:
        """Resolvent kernel of the side with a Neumann condition at the junction."""
        if abs(self.cos) < 1e-12 * (1.0 + abs(self.sin)):
            raise SpectralPoleError(f"Neumann resolvent pole at z = {self.z}, side {self.side}")
        at_a, at_b = (np.sin, np.cos) if self.side == "+" else (np.cos, np.sin)
        return _Kernel(self.a, self.b, lambda x: at_a(self._from_a(x)),
                       lambda x: at_b(self._from_b(x)), -self.omega * self.cos)

    def points(self, n: int) -> np.ndarray:
        """n equispaced check points inside (a, b)."""
        return np.linspace(self.a, self.b, n + 2)[1:-1]

    @_cached_property
    def _rule(self):
        nodes, weights, _ = _pieces(np.array([self.a, self.b]))
        weights = weights.ravel()
        return nodes, weights, self.gamma(nodes) * weights

    def pairing(self, phi: Callable):
        """∫γφ over the side, one value per density (a row of φ)."""
        nodes, _, gamma_w = self._rule
        return np.sum(gamma_w * phi(nodes), axis=-1)

    def gram(self) -> float:
        """∫|γ|² over the side."""
        nodes, weights, _ = self._rule
        return float(np.sum(np.abs(self.gamma(nodes)) ** 2 * weights))


def coupled_kernel(z, c_plus: float = 0.0, c_minus: float = 0.0) -> _Kernel:
    """Resolvent kernel of the coupled operator on (0,2): C¹ through x = 1."""
    p, m = _Side("+", z, c_plus), _Side("-", z, c_minus)
    wp, wm = p.omega, m.omega

    def u1(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        left = x <= 1.0
        out[left] = np.sin(wp * x[left])
        xr = x[~left]
        out[~left] = p.sin * np.cos(wm * (xr - 1.0)) + (wp / wm) * p.cos * np.sin(wm * (xr - 1.0))
        return out

    def u2(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        right = x >= 1.0
        out[right] = np.sin(wm * (2.0 - x[right]))
        xl = x[~right]
        out[~right] = m.sin * np.cos(wp * (1.0 - xl)) + (wm / wp) * m.cos * np.sin(wp * (1.0 - xl))
        return out

    wron = -p.sin * wm * m.cos - wp * p.cos * m.sin
    if abs(wron) < 1e-10 * (1.0 + abs(wp) + abs(wm)):
        raise SpectralPoleError(f"z = {complex(z)} is an eigenvalue of the coupled operator")
    return _Kernel(0.0, 2.0, u1, u2, wron, breaks=(1.0,))


def _pieces(points: np.ndarray):
    """The model's one quadrature rule on the sorted ``points``: each gap in
    equal pieces no longer than ``_PIECE_LENGTH``, with ``_PIECE_N``
    Gauss–Legendre nodes each.  Returns the nodes (flat), the weights (one row
    per piece) and the index of the first piece of each gap."""
    gaps = np.diff(points)
    counts = np.ceil(gaps / _PIECE_LENGTH).astype(int)  # equal pieces per gap
    first = np.concatenate([[0], np.cumsum(counts)])
    gap = np.repeat(np.arange(gaps.size), counts)
    lengths = gaps[gap] / counts[gap]
    starts = points[gap] + (np.arange(gap.size) - first[gap]) * lengths
    t, w = _leggauss(_PIECE_N)
    nodes = (starts[:, None] + np.outer(lengths, 0.5 * (t + 1.0))).ravel()
    return nodes, np.outer(lengths, 0.5 * w), first


def apply_resolvent(kernel: _Kernel, phi: Callable, xs) -> np.ndarray:
    """(A−z)⁻¹φ at points xs of [a, b]: u(x) = −[u₂(x)∫_a^x u₁φ + u₁(x)∫_x^b u₂φ]/W.

    φ must be an evaluable callable (closed-form bases keep this exact); its
    leading axes are densities, so φ of shape (C, nodes) gives (C, len(xs)).
    It is evaluated once on the pieces of the module docstring, which end at
    every x and break, and ∫_a^x, ∫_x^b are forward and backward running sums
    of the piece integrals.  A point outside [a, b] or NaN raises
    ``ConfigurationError``."""
    xs = np.asarray(xs, dtype=float)
    outside = xs[~((xs >= kernel.a) & (xs <= kernel.b))]  # NaN is outside too
    if outside.size:
        raise ConfigurationError(
            f"resolvent point {float(outside[0])!r} is not in [{kernel.a:g}, {kernel.b:g}]")
    points = np.unique(np.concatenate([[kernel.a, *kernel.breaks, kernel.b], xs.ravel()]))
    nodes, weights, first = _pieces(points)
    phi_nodes = np.asarray(phi(nodes))
    phi_nodes = phi_nodes.reshape(phi_nodes.shape[:-1] + weights.shape)

    def piece_integrals(u):
        return (u(nodes).reshape(weights.shape) * weights * phi_nodes).sum(axis=-1)

    zero = np.zeros(phi_nodes.shape[:-2] + (1,))
    left = np.concatenate([zero, np.cumsum(piece_integrals(kernel.u1), axis=-1)], axis=-1)
    right = np.concatenate([np.cumsum(piece_integrals(kernel.u2)[..., ::-1], axis=-1)[..., ::-1],
                            zero], axis=-1)
    at = first[np.searchsorted(points, xs)]  # the pieces left of each x
    return -(kernel.u2(xs) * left[..., at] + kernel.u1(xs) * right[..., at]) / kernel.wronskian


def _bumps(x) -> np.ndarray:
    """The five bumps of ``_BUMP_CENTERS`` at x, one row each."""
    return np.exp(-(((np.asarray(x) - _BUMP_CENTERS[:, None]) / _BUMP_WIDTH) ** 2))


# ----------------------------------------------------------- resolvent formulas

class _ResolventFormula:
    """What the Krein and mixed checks share at (z, c₊, c₋): the region check,
    both sides with m±, the coupled and Dirichlet kernels, the params echo,
    the rows of the ``formulas`` core (each side's check points, + first)
    with their side index and γ there, and the γ pairings γ₊*φ and γ₋*φ of
    the five bumps, its columns."""

    def __init__(self, check: str, z, c_plus: float, c_minus: float):
        _check_accuracy_region(check, z, c_plus, c_minus)
        self.sides = (_Side("+", z, c_plus), _Side("-", z, c_minus))
        self.weyl = tuple(side.weyl() for side in self.sides)
        self.coupled = coupled_kernel(z, c_plus, c_minus)
        self.dirichlet = tuple(side.dirichlet() for side in self.sides)
        self.points = tuple(side.points(_FORMULA_POINTS) for side in self.sides)
        self.side = np.repeat([0, 1], _FORMULA_POINTS)
        self.gamma = np.concatenate([side.gamma(xs) for side, xs in zip(self.sides, self.points)])
        self.pairings = np.array([side.pairing(_bumps) for side in self.sides])
        self.params = {"z": [complex(z).real, complex(z).imag], "c_plus": c_plus,
                       "c_minus": c_minus, "grid_n": _FORMULA_POINTS}

    def apply(self, kernels) -> np.ndarray:
        """Each side's kernel of ``kernels`` applied to the bumps at its rows,
        one column per bump."""
        return np.concatenate([apply_resolvent(kernel, _bumps, xs)
                               for kernel, xs in zip(kernels, self.points)], axis=1).T

    def rows(self, check: str, tolerance: float, lhs, rhs, term) -> list:
        """One row per bump: the relative defect of lhs = rhs in its column,
        ``term`` the largest other term there."""
        return [timed_check(check, {**self.params, "basis": j}, tolerance,
                            lambda j=j: _relative_defect(lhs[:, j:j + 1], rhs[:, j:j + 1],
                                                         term[:, j:j + 1]))
                for j in range(len(_BUMP_CENTERS))]


def _relative_defect(lhs, rhs, term) -> float:
    """The worst |lhs − rhs| of each column over the largest |lhs|, |rhs| or
    |term| of that column, ``term`` the largest other term of the identity.

    Next to a coupled eigenvalue the left side grows like 1/|m₊ + m₋|, and next
    to a Neumann pole of the − side R₁₋φ grows like 1/|m₋| on the right; the
    rounding of the sum grows with its largest term, and relative to it the
    defect stays at rounding level."""
    scale = np.abs(np.concatenate([lhs, rhs, term])).max(axis=0)
    return worst(np.abs(lhs - rhs).max(axis=0) / scale)


def krein_formula_check(z, c_plus: float = 0.0, c_minus: float = 0.0,
                        tolerance: float = _TOLERANCE["krein"]) -> ResidualReport:
    """Krein formula against the coupled closed-form resolvent, bump by bump.

    Left side: coupled kernel on (0,2).  Right side: decoupled Dirichlet
    resolvents plus the rank-one correction −γ(z)(m₊+m₋)⁻¹[γ₊*, γ₋*] with the
    no-conjugation adjoints of a dual pairing."""
    setup = _ResolventFormula("krein", z, c_plus, c_minus)
    decoupled = setup.apply(setup.dirichlet)
    rhs = _krein(*setup.weyl, setup.gamma, setup.pairings, decoupled)
    coupled = setup.apply((setup.coupled,) * 2)
    return ResidualReport(setup.rows("interval.krein", tolerance, coupled, rhs, decoupled))


def mixed_formula_check(z, c_plus: float = 0.0, c_minus: float = 0.0,
                        tolerance: float = _TOLERANCE["mixed"]) -> ResidualReport:
    """Dirichlet ⊕ Neumann resolvent formula, plus the standalone kernel
    difference (A₀₋−z)⁻¹ − (A₁₋−z)⁻¹ = γ₋ m₋⁻¹ γ₋*."""
    setup = _ResolventFormula("mixed", z, c_plus, c_minus)
    # R₀₊φ ⊕ R₁₋φ and the γ pairings enter both formulas
    decoupled = setup.apply((setup.dirichlet[0], setup.sides[1].neumann()))
    rhs = _mixed(*setup.weyl, setup.side, setup.gamma, setup.pairings, decoupled)
    coupled = setup.apply((setup.coupled,) * 2)
    minus = setup.side == 1
    direct = apply_resolvent(setup.dirichlet[1], _bumps, setup.points[1]).T - decoupled[minus]
    difference = _difference(*setup.weyl, setup.gamma[minus], setup.pairings[1])
    return ResidualReport(setup.rows("interval.mixed", tolerance, coupled, rhs, decoupled)
                          + setup.rows("interval.res01", tolerance, direct, difference,
                                       decoupled[minus]))


# ------------------------------------------------------------------ eigenvalues

def coupled_eigenvalues(c_plus: float = 0.0, c_minus: float = 0.0, count: int = 3) -> np.ndarray:
    """First ``count`` roots of m₊(z)+m₋(z) = 0 on the real axis.

    The function is real and strictly increasing between consecutive Dirichlet
    poles {(kπ)²+c_±}, so each inter-pole interval brackets exactly one root;
    poles are placed analytically and roots found by Brent's method.  For
    c₊ = c₋ = 0 the result is ((2j−1)π/2)², the part of the coupled spectrum
    visible off σ(A₀).

    Poles of the two sides closer than ``_POLE_MERGE`` (relative) are merged
    as if c₊ = c₋: the root trapped between them lies within that gap of σ(A₀)
    and cannot be located in double precision with |m₊+m₋| ≤ ``_ROOT_RESIDUAL``,
    so it is left out like the coincident-pole eigenvalue."""
    from scipy.optimize import brentq  # only caller; keeps scipy.optimize out of the CLI import

    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")

    def f(x):
        return (scalar_weyl("+", x, c_plus) + scalar_weyl("-", x, c_minus)).real

    poles = sorted({c_plus + (k * np.pi) ** 2 for k in range(1, count + 3)}
                   | {c_minus + (k * np.pi) ** 2 for k in range(1, count + 3)})
    edges = [min(c_plus, c_minus)] + list(poles)
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        gap = hi - lo
        if gap <= _POLE_MERGE * hi:
            continue
        a, b = lo + 1e-9 * max(1.0, gap), hi - 1e-9 * max(1.0, gap)
        fa, fb = f(a), f(b)
        shrink = 0
        while fa > 0.0 and shrink < 6:  # pole-side offset overshot the root
            a = lo + (a - lo) * 1e-2
            fa = f(a)
            shrink += 1
        if fa > 0.0 or fb < 0.0:
            raise BracketingError(
                f"no sign change for m₊+m₋ on ({lo:.6g}, {hi:.6g}): f({a:.6g})={fa:.3g}, "
                f"f({b:.6g})={fb:.3g}"
            )
        roots.append(brentq(f, a, b, xtol=1e-14, rtol=8.9e-16))
        if len(roots) == count:
            break
    if len(roots) < count:
        raise BracketingError(f"found only {len(roots)} of {count} roots below {edges[-1]:.6g}")
    return np.asarray(roots)


# ------------------------------------------------------------ third Green (1D)

@dataclass(frozen=True)
class IntervalField:
    """A piecewise-C² pair on (0,1) ∪ (1,2): values with first and second
    derivative callables, enough to form Tf = −f'' + c f and both jumps."""

    plus: Callable
    minus: Callable
    d_plus: Callable
    d_minus: Callable
    dd_plus: Callable
    dd_minus: Callable


def _constant(value: float) -> Callable:
    return lambda x: np.full(np.asarray(x, dtype=float).shape, value, dtype=float)


def _quartic(x):  # x²(2 − x)², the same on both sides of x = 1
    x = np.asarray(x)
    return x**2 * (2.0 - x) ** 2


def _d_quartic(x):
    x = np.asarray(x)
    return 2.0 * x * (2.0 - x) ** 2 - 2.0 * x**2 * (2.0 - x)


def _dd_quartic(x):
    x = np.asarray(x)
    return 2.0 * (2.0 - x) ** 2 - 8.0 * x * (2.0 - x) + 2.0 * x**2


_ZERO = _constant(0.0)

# The reference fields of the 1D third Green identity, by label, with the
# brackets ([Γ₀f], [Γ₁f]) they have: smooth (0, 0) and jump (1, −1).
GREEN3_FAMILIES = {
    "smooth": IntervalField(_quartic, _quartic, _d_quartic, _d_quartic, _dd_quartic, _dd_quartic),
    "jump": IntervalField(lambda x: np.asarray(x, dtype=float), _ZERO,
                          _constant(1.0), _ZERO, _ZERO, _ZERO),
}


def third_green_identity_1d(field: IntervalField, c: float = 1.0,
                            tolerance: float = _TOLERANCE["green3"]) -> ResidualReport:
    """Residual of f = 𝒢Tf + 𝒟[Γ₀f] − 𝒮[Γ₁f] on both intervals.

    𝒢 is the closed-form inverse of the coupled A = −d²/dx² + c (invertible
    for c > 0), 𝒮φ = G_A(x,1)·φ, and 𝒟φ = −∂_y G_A(x,y)|_{y=1}·φ — the sign
    is pinned by the smooth-field oracle, for which both brackets vanish."""
    if c <= 0.0:
        raise ConfigurationError(f"the coupled operator needs c > 0 for invertibility, got {c}")
    _check_accuracy_region("green3", 0.0, c)
    kernel = coupled_kernel(0.0, c, c)
    plus, minus = _Side("+", 0.0, c), _Side("-", 0.0, c)
    bracket0 = complex(np.asarray(field.plus(np.array([1.0])))[0]
                       - np.asarray(field.minus(np.array([1.0])))[0])
    bracket1 = complex(-np.asarray(field.d_plus(np.array([1.0])))[0]
                       + np.asarray(field.d_minus(np.array([1.0])))[0])

    # −∂_y G_A(x, y)|_{y=1}: the y-derivative lands on whichever factor owns y,
    # u₁ (the + side's far-end solution) or u₂ (the − side's)
    u1_at_1 = complex(kernel.u1(np.array([1.0]))[0])
    u2_at_1 = complex(kernel.u2(np.array([1.0]))[0])
    du1_at_1, du2_at_1 = plus.junction_slope, minus.junction_slope

    def single_layer(x):
        x = np.asarray(x, dtype=float)
        return -np.where(x <= 1.0,
                         kernel.u1(x) * u2_at_1,
                         u1_at_1 * kernel.u2(x)) / kernel.wronskian

    def double_layer(x):
        x = np.asarray(x, dtype=float)
        dy = np.where(x <= 1.0, kernel.u1(x) * du2_at_1, du1_at_1 * kernel.u2(x))
        return dy / kernel.wronskian

    def source(f_dd, f_val):
        return lambda x: -np.asarray(f_dd(x)) + c * np.asarray(f_val(x))

    source_plus = source(field.dd_plus, field.plus)
    source_minus = source(field.dd_minus, field.minus)

    def total_source(x):
        x = np.asarray(x)
        return np.where(x <= 1.0, source_plus(x), source_minus(x))

    def side_residual(xs, f_side):
        rhs = apply_resolvent(kernel, total_source, xs) \
            + double_layer(xs) * bracket0 - single_layer(xs) * bracket1
        return worst(np.abs(np.asarray(f_side(xs)) - rhs))

    params = {"c": c, "grid_n": _GREEN3_POINTS,
              "bracket0": [bracket0.real, bracket0.imag],
              "bracket1": [bracket1.real, bracket1.imag]}
    rows = [
        timed_check("interval.green3.plus", params, tolerance,
                    lambda: side_residual(plus.points(_GREEN3_POINTS), field.plus)),
        timed_check("interval.green3.minus", params, tolerance,
                    lambda: side_residual(minus.points(_GREEN3_POINTS), field.minus)),
    ]
    return ResidualReport(rows)


# ------------------------------------------------------------ abstract identities

def abstract_identity_suite(zs, c_plus: float = 0.0, c_minus: float = 0.0,
                            seed: int = 7, tolerance: float = _TOLERANCE["suite"]) -> ResidualReport:
    """Direct checks of the γ*/Weyl calculus at nonreal z, side by side.

    For each z: the pairing identity ∫γ(z)f = Γ₁(A₀−z)⁻¹f (evaluated by
    one-sided extrapolation of the resolvent toward the junction, so both
    routes are independent), and m(z) − m(z̄) = (z−z̄)∫|γ(z)|²."""
    zs = [complex(z) for z in zs]
    for z in zs:
        if z.imag == 0.0:
            raise ConfigurationError(f"abstract identity suite needs nonreal z, got {z}")
        _check_accuracy_region("suite", z, c_plus, c_minus)
    rng = np.random.default_rng(seed)
    rows = []
    for z in zs:
        for side, c in (("+", c_plus), ("-", c_minus)):
            here = _Side(side, z, c)
            kern = here.dirichlet()
            m_z = here.weyl()
            m_zbar = scalar_weyl(side, z.conjugate(), c)
            params = {"z": [z.real, z.imag], "side": side, "c": c}

            def jaok2():
                return abs((m_z - m_zbar) - (z - z.conjugate()) * here.gram())

            rows.append(timed_check("interval.jaok2", params, tolerance, jaok2))

            coefs = rng.normal(size=(_TRIALS, 4)).T[:, :, None]

            def gsgs():
                def f(y):  # the trials, one row each
                    y = np.asarray(y)
                    return coefs[0] + coefs[1] * y + coefs[2] * np.sin(2.0 * y) \
                        + coefs[3] * np.cos(3.0 * y)

                pairing = here.pairing(f)
                # Γ₁ of u = (A₀−z)⁻¹f by one-sided polynomial extrapolation
                dists = 0.002 * np.arange(1, 8)
                pts = 1.0 + dists if side == "-" else 1.0 - dists
                # du/d(dist), dist growing away from x=1
                _, slope = _interp_at_zero(dists, apply_resolvent(kern, f, pts).T)
                # Γ₁⁺ = −u'(1⁻) = +slope on the left; Γ₁⁻ = +u'(1⁺) = +slope on the right
                return worst(np.abs(pairing - slope))

            rows.append(timed_check("interval.gsgs", params, tolerance, gsgs))
    return ResidualReport(rows)
