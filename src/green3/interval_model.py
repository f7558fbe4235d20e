"""Exactly solvable two-interval coupling: the 1D oracle for the abstract theory.

Ω₊ = (0,1) with a Dirichlet condition at 0 and Ω₋ = (1,2) with Dirichlet at 2
are coupled at x = 1.  The boundary space is one-dimensional, every Weyl
function, γ-field and Green kernel is an elementary sin/cos expression, and
the boundary maps follow the outward-derivative convention

    Γ₀^± f = f(1^∓),   Γ₁⁺ f = −f'(1⁻),   Γ₁⁻ f = +f'(1⁺),

so C¹ matching at the junction is exactly the coupling condition.  Because the
closed forms are exact, every residual here measures quadrature alone.

Each Green kernel lives for one check call and is applied to many densities φ
at the same few point sets.  The first ``apply_resolvent`` at a point set
builds the Gauss–Legendre panels and u₁/u₂ on them and at the points, and
keeps them on the kernel; every later φ there evaluates only φ itself, once
per panel set.  This changes no bit of any result: each integrand value is the
same elementwise product u·φ on the same nodes, reduced by the same ``@ w``
over the same (panels, ``_QUAD_N``) shape as when everything is evaluated afresh.

Unlike the planar operators, z may be any complex number away from the
relevant poles — the 1D spectra are discrete, so real z in spectral gaps is a
legitimate (and tested) regime.

Accuracy region.  The closed forms oscillate or grow like e^{|Im ω| x} in
ω = √(z − c), and the 64-point Gauss–Legendre panels and the one-sided
extrapolation resolve them only up to some |ω|.  Each check therefore rejects
(``AccuracyRegionError``) a z whose largest |ω| over the two sides exceeds
its ``_OMEGA_LIMIT``.  The limits come from a sweep over |ω| (36 geometric
radii from 1 to 3000, refined near the first failure), 14 arguments of ω
from 1e-9 to π/2 − 1e-6 (z from just above the positive real axis to just
above the negative one) and (c₊, c₋) ∈ {(0, 0), (3, 3), (0, 3)}; for
``green3`` (z = 0) the sweep is over c up to 1e7:

* ``krein`` passes at every point up to |ω| = 189 and fails from 201
  (1.7e-7 against 1e-8, next to the positive real axis); limit 150;
* ``mixed`` passes up to 179 and fails from 189 (1.6e-8); limit 150;
* ``suite`` passes up to 11.9 and fails from 12.4 (1.1e-9 against 1e-9);
  limit 10;
* ``green3`` passes up to √c = 316, returns NaN at 422 and overflows
  (``OverflowError``) from 750; products of its kernels overflow with a
  RuntimeWarning from √c ≈ 236; limit 200.

At the limits the worst residual over the same sweep is 2.2e-6 of the
tolerance for ``krein``, 4.4e-6 for ``mixed`` and 0.16 for ``suite``, with no
floating-point warning.

Every z with |Re z| ≤ 5 and c± ∈ [0, 3] has |ω| ≤ 2.93, far inside.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyRegionError, BracketingError, ConfigurationError, SpectralPoleError
from .geometry import _check_side, _interp_at_zero, _leggauss
from .reports import ResidualReport, timed_check, worst

_BUMP_CENTERS = (0.3, 0.7, 1.0, 1.35, 1.8)
_BUMP_WIDTH = 0.12

# Gauss–Legendre nodes per panel of every 1D integral
_QUAD_N = 64

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
    _check_side(side, "interval side")
    w = _omega(z, c)
    if abs(w) < 1e-6:
        w2 = w * w
        return complex(-1.0 + w2 / 3.0 + w2 * w2 / 45.0)
    s = cmath.sin(w)
    if abs(s) < 1e-12 * (1.0 + abs(cmath.cos(w))):
        raise SpectralPoleError(
            f"z = {complex(z)} is a Dirichlet eigenvalue of side {side} (sin√(z−c) ≈ 0)"
        )
    return complex(-w * cmath.cos(w) / s)


def gamma_profile(side: str, z, c: float = 0.0) -> Callable:
    """γ-field of one side: the (−d²/dx²+c−z)-solution with boundary value 1
    at the junction and 0 at the far end."""
    _check_side(side, "interval side")
    w = _omega(z, c)
    s = cmath.sin(w)
    if abs(s) < 1e-12 * (1.0 + abs(cmath.cos(w))):
        raise SpectralPoleError(f"γ-field pole: z = {complex(z)} on side {side}")
    if side == "+":
        return lambda x: np.sin(w * np.asarray(x)) / s
    return lambda x: np.sin(w * (2.0 - np.asarray(x))) / s


# --------------------------------------------------------------- Green kernels

@dataclass(frozen=True)
class _Kernel:
    """G(x,y) = −u₁(x_<)u₂(x_>)/W on (a,b), the standard Sturm–Liouville form.

    ``breaks`` lists interior points where u₁/u₂ lose smoothness (the coupled
    kernel's junction); quadrature panels must not straddle them.
    ``_factors`` keeps what ``apply_resolvent`` reuses per point set xs."""

    a: float
    b: float
    u1: Callable
    u2: Callable
    wronskian: complex
    breaks: tuple = ()
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def dirichlet_kernel(side: str, z, c: float = 0.0) -> _Kernel:
    _check_side(side, "interval side")
    w = _omega(z, c)
    s = cmath.sin(w)
    if abs(s) < 1e-12 * (1.0 + abs(cmath.cos(w))):
        raise SpectralPoleError(f"Dirichlet resolvent pole at z = {complex(z)}, side {side}")
    if side == "+":
        return _Kernel(0.0, 1.0,
                       lambda x: np.sin(w * np.asarray(x)),
                       lambda x: np.sin(w * (1.0 - np.asarray(x))),
                       -w * s)
    return _Kernel(1.0, 2.0,
                   lambda x: np.sin(w * (np.asarray(x) - 1.0)),
                   lambda x: np.sin(w * (2.0 - np.asarray(x))),
                   -w * s)


def neumann_kernel_minus(z, c: float = 0.0) -> _Kernel:
    """Resolvent kernel of the Neumann-at-1, Dirichlet-at-2 side."""
    w = _omega(z, c)
    cw = cmath.cos(w)
    if abs(cw) < 1e-12 * (1.0 + abs(cmath.sin(w))):
        raise SpectralPoleError(f"Neumann resolvent pole at z = {complex(z)}")
    return _Kernel(1.0, 2.0,
                   lambda x: np.cos(w * (np.asarray(x) - 1.0)),
                   lambda x: np.sin(w * (2.0 - np.asarray(x))),
                   -w * cw)


def coupled_kernel(z, c_plus: float = 0.0, c_minus: float = 0.0) -> _Kernel:
    """Resolvent kernel of the coupled operator on (0,2): C¹ through x = 1."""
    wp, wm = _omega(z, c_plus), _omega(z, c_minus)

    def u1(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        left = x <= 1.0
        out[left] = np.sin(wp * x[left])
        xr = x[~left]
        out[~left] = cmath.sin(wp) * np.cos(wm * (xr - 1.0)) \
            + (wp / wm) * cmath.cos(wp) * np.sin(wm * (xr - 1.0))
        return out

    def u2(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        right = x >= 1.0
        out[right] = np.sin(wm * (2.0 - x[right]))
        xl = x[~right]
        out[~right] = cmath.sin(wm) * np.cos(wp * (1.0 - xl)) \
            + (wm / wp) * cmath.cos(wm) * np.sin(wp * (1.0 - xl))
        return out

    wron = -cmath.sin(wp) * wm * cmath.cos(wm) - wp * cmath.cos(wp) * cmath.sin(wm)
    if abs(wron) < 1e-10 * (1.0 + abs(wp) + abs(wm)):
        raise SpectralPoleError(f"z = {complex(z)} is an eigenvalue of the coupled operator")
    return _Kernel(0.0, 2.0, u1, u2, wron, breaks=(1.0,))


class _Panels:
    """One Gauss–Legendre panel per (starts[k], stops[k]): the rule (t, w) on
    [0, 1] mapped there, nodes in rows and ``flat`` in row order."""

    def __init__(self, starts, stops, t, w):
        starts = np.asarray(starts, dtype=float)
        stops = np.asarray(stops, dtype=float)
        self.nodes = starts[:, None] + np.outer(stops - starts, t)
        self.flat = self.nodes.ravel()
        self.w = w
        self.lengths = stops - starts

    def integrate(self, vals) -> np.ndarray:
        """The panel integrals of ``vals``, the integrand at ``flat``."""
        return (vals.reshape(self.nodes.shape) @ self.w) * self.lengths


class _ResolventFactors:
    """Everything ``apply_resolvent`` needs of one (kernel, xs) but φ:
    the panels between the edges, the partial panels to and from each x, and
    u₁/u₂ on them and at xs."""

    def __init__(self, kernel: _Kernel, xs: np.ndarray):
        t, w = _leggauss(_QUAD_N)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        edges = [kernel.a, *kernel.breaks, kernel.b]
        self.full = _Panels(edges[:-1], edges[1:], t, w)
        self.u1_full = kernel.u1(self.full.flat)
        self.u2_full = kernel.u2(self.full.flat)
        seg = np.searchsorted(np.asarray(edges[1:-1]), xs, side="right")
        self.pieces = []  # (panel index, mask of xs, left panels, u₁ there, right panels, u₂ there)
        for j in range(len(edges) - 1):
            mask = seg == j
            if not mask.any():
                continue
            xj = xs[mask]
            left = _Panels(np.full_like(xj, edges[j]), xj, t, w)
            right = _Panels(xj, np.full_like(xj, edges[j + 1]), t, w)
            self.pieces.append((j, mask, left, kernel.u1(left.flat), right, kernel.u2(right.flat)))
        self.u1_xs = kernel.u1(xs)
        self.u2_xs = kernel.u2(xs)


def apply_resolvent(kernel: _Kernel, phi: Callable, xs) -> np.ndarray:
    """(A−z)⁻¹φ at points xs: u(x) = −[u₂(x)∫_a^x u₁φ + u₁(x)∫_x^b u₂φ]/W.

    Integration is split at the kernel kink x and at every interior break, so
    each Gauss–Legendre panel sees an analytic integrand; φ must be an
    evaluable callable (closed-form bases keep this exact).  The panels and
    u₁/u₂ are built on the kernel's first call at xs and reused
    bit-identically for every later φ (see the module docstring)."""
    xs = np.asarray(xs, dtype=float)
    key = (xs.shape, xs.tobytes())
    fac = kernel._factors.get(key)
    if fac is None:
        fac = kernel._factors[key] = _ResolventFactors(kernel, xs)
    phi_full = np.asarray(phi(fac.full.flat))
    full1 = fac.full.integrate(fac.u1_full * phi_full)
    full2 = fac.full.integrate(fac.u2_full * phi_full)
    left = np.zeros(xs.shape, dtype=complex)
    right = np.zeros(xs.shape, dtype=complex)
    for j, mask, lp, u1_left, rp, u2_right in fac.pieces:
        left[mask] = full1[:j].sum() + lp.integrate(u1_left * np.asarray(phi(lp.flat)))
        right[mask] = full2[j + 1:].sum() + rp.integrate(u2_right * np.asarray(phi(rp.flat)))
    return -(fac.u2_xs * left + fac.u1_xs * right) / kernel.wronskian


def _integrate(fn: Callable, a: float, b: float) -> complex:
    t, w = _leggauss(_QUAD_N)
    nodes = 0.5 * (b - a) * (t + 1.0) + a
    return complex(0.5 * (b - a) * np.dot(np.asarray(fn(nodes)), w))


def _gaussian_bump(center: float, width: float) -> Callable:
    return lambda x: np.exp(-(((np.asarray(x) - center) / width) ** 2))


def default_basis() -> list:
    """Five Gaussian bumps spread over (0,2), one straddling the junction."""
    return [_gaussian_bump(c, _BUMP_WIDTH) for c in _BUMP_CENTERS]


def _restrict(phi: Callable, a: float, b: float) -> Callable:
    def clipped(x):
        x = np.asarray(x)
        vals = np.asarray(phi(x))
        return np.where((x >= a) & (x <= b), vals, 0.0)

    return clipped


def _eval_points(a: float, b: float, n: int) -> np.ndarray:
    return np.linspace(a, b, n + 2)[1:-1]


# ----------------------------------------------------------- resolvent formulas

def krein_formula_check(z, c_plus: float = 0.0, c_minus: float = 0.0,
                        grid_n: int = 200, basis: Sequence[Callable] = None,
                        tolerance: float = _TOLERANCE["krein"]) -> ResidualReport:
    """Krein formula against the coupled closed-form resolvent, bump by bump.

    Left side: coupled kernel on (0,2).  Right side: decoupled Dirichlet
    resolvents plus the rank-one correction −γ(z)(m₊+m₋)⁻¹[γ₊*, γ₋*] with the
    no-conjugation adjoints of a dual pairing."""
    _check_accuracy_region("krein", z, c_plus, c_minus)
    basis = default_basis() if basis is None else list(basis)
    mp = scalar_weyl("+", z, c_plus)
    mm = scalar_weyl("-", z, c_minus)
    denom = mp + mm
    if abs(denom) < 1e-10 * (abs(mp) + abs(mm)):
        raise SpectralPoleError(f"m₊+m₋ vanishes at z = {complex(z)}: coupled eigenvalue")
    coupled = coupled_kernel(z, c_plus, c_minus)
    g_plus = dirichlet_kernel("+", z, c_plus)
    g_minus = dirichlet_kernel("-", z, c_minus)
    gam_plus = gamma_profile("+", z, c_plus)
    gam_minus = gamma_profile("-", z, c_minus)
    xs_plus = _eval_points(0.0, 1.0, grid_n)
    xs_minus = _eval_points(1.0, 2.0, grid_n)

    rows = []
    for idx, phi in enumerate(basis):
        phi_p = _restrict(phi, 0.0, 1.0)
        phi_m = _restrict(phi, 1.0, 2.0)

        def residual():
            lhs_p = apply_resolvent(coupled, phi, xs_plus)
            lhs_m = apply_resolvent(coupled, phi, xs_minus)
            pair = (_integrate(lambda y: gam_plus(y) * phi_p(y), 0.0, 1.0)
                    + _integrate(lambda y: gam_minus(y) * phi_m(y), 1.0, 2.0))
            rhs_p = apply_resolvent(g_plus, phi_p, xs_plus) - gam_plus(xs_plus) * pair / denom
            rhs_m = apply_resolvent(g_minus, phi_m, xs_minus) - gam_minus(xs_minus) * pair / denom
            return worst((np.abs(lhs_p - rhs_p).max(), np.abs(lhs_m - rhs_m).max()))

        rows.append(timed_check(
            "interval.krein",
            {"z": [complex(z).real, complex(z).imag], "c_plus": c_plus,
             "c_minus": c_minus, "basis": idx, "grid_n": grid_n},
            tolerance, residual,
        ))
    return ResidualReport(rows).sorted()


def mixed_formula_check(z, c_plus: float = 0.0, c_minus: float = 0.0,
                        grid_n: int = 200, basis: Sequence[Callable] = None,
                        tolerance: float = _TOLERANCE["mixed"]) -> ResidualReport:
    """Dirichlet ⊕ Neumann resolvent formula, plus the standalone kernel
    difference (A₀₋−z)⁻¹ − (A₁₋−z)⁻¹ = γ₋ m₋⁻¹ γ₋*."""
    _check_accuracy_region("mixed", z, c_plus, c_minus)
    basis = default_basis() if basis is None else list(basis)
    mp = scalar_weyl("+", z, c_plus)
    mm = scalar_weyl("-", z, c_minus)
    if abs(mm) < 1e-12:
        raise SpectralPoleError(f"m₋(z) = 0 at z = {complex(z)}: mixed formula not invertible")
    sigma = -np.linalg.inv(np.array([[mp, 1.0], [1.0, -1.0 / mm]], dtype=complex))
    coupled = coupled_kernel(z, c_plus, c_minus)
    g_plus = dirichlet_kernel("+", z, c_plus)
    g_minus = dirichlet_kernel("-", z, c_minus)
    g1_minus = neumann_kernel_minus(z, c_minus)
    gam_plus = gamma_profile("+", z, c_plus)
    gam_minus = gamma_profile("-", z, c_minus)
    xs_plus = _eval_points(0.0, 1.0, grid_n)
    xs_minus = _eval_points(1.0, 2.0, grid_n)
    params = {"z": [complex(z).real, complex(z).imag], "c_plus": c_plus,
              "c_minus": c_minus, "grid_n": grid_n}

    rows = []
    for idx, phi in enumerate(basis):
        phi_p = _restrict(phi, 0.0, 1.0)
        phi_m = _restrict(phi, 1.0, 2.0)

        # (A₁₋−z)⁻¹φ₋ and the γ₋ pairing enter both rows of the bump
        neumann_m = apply_resolvent(g1_minus, phi_m, xs_minus)
        pairing_m = _integrate(lambda y: gam_minus(y) * phi_m(y), 1.0, 2.0)

        def residual():
            lhs_p = apply_resolvent(coupled, phi, xs_plus)
            lhs_m = apply_resolvent(coupled, phi, xs_minus)
            hat = np.array([
                _integrate(lambda y: gam_plus(y) * phi_p(y), 0.0, 1.0),
                pairing_m / mm,
            ])
            corr = sigma @ hat
            rhs_p = apply_resolvent(g_plus, phi_p, xs_plus) + gam_plus(xs_plus) * corr[0]
            rhs_m = neumann_m + (gam_minus(xs_minus) / mm) * corr[1]
            return worst((np.abs(lhs_p - rhs_p).max(), np.abs(lhs_m - rhs_m).max()))

        rows.append(timed_check("interval.mixed", {**params, "basis": idx}, tolerance, residual))

        def res01():
            direct = apply_resolvent(g_minus, phi_m, xs_minus) - neumann_m
            return float(np.abs(direct - gam_minus(xs_minus) * pairing_m / mm).max())

        rows.append(timed_check("interval.res01", {**params, "basis": idx}, tolerance, res01))
    return ResidualReport(rows).sorted()


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
# brackets ([Γ₀f], [Γ₁f]) they have: smooth (0, 0), jump (1, −1), zero (0, 0).
GREEN3_FAMILIES = {
    "smooth": IntervalField(_quartic, _quartic, _d_quartic, _d_quartic, _dd_quartic, _dd_quartic),
    "jump": IntervalField(lambda x: np.asarray(x, dtype=float), _ZERO,
                          _constant(1.0), _ZERO, _ZERO, _ZERO),
    "zero": IntervalField(_ZERO, _ZERO, _ZERO, _ZERO, _ZERO, _ZERO),
}


def third_green_identity_1d(field: IntervalField, c: float = 1.0, grid_n: int = 100,
                            tolerance: float = _TOLERANCE["green3"]) -> ResidualReport:
    """Residual of f = 𝒢Tf + 𝒟[Γ₀f] − 𝒮[Γ₁f] on both intervals.

    𝒢 is the closed-form inverse of the coupled A = −d²/dx² + c (invertible
    for c > 0), 𝒮φ = G_A(x,1)·φ, and 𝒟φ = −∂_y G_A(x,y)|_{y=1}·φ — the sign
    is pinned by the smooth-field oracle, for which both brackets vanish."""
    if c <= 0.0:
        raise ConfigurationError(f"the coupled operator needs c > 0 for invertibility, got {c}")
    _check_accuracy_region("green3", 0.0, c)
    kernel = coupled_kernel(0.0, c, c)
    bracket0 = complex(np.asarray(field.plus(np.array([1.0])))[0]
                       - np.asarray(field.minus(np.array([1.0])))[0])
    bracket1 = complex(-np.asarray(field.d_plus(np.array([1.0])))[0]
                       + np.asarray(field.d_minus(np.array([1.0])))[0])

    # −∂_y G_A(x, y)|_{y=1}: the y-derivative lands on whichever factor owns y
    u1_at_1 = complex(kernel.u1(np.array([1.0]))[0])
    u2_at_1 = complex(kernel.u2(np.array([1.0]))[0])
    du1_at_1 = complex(_omega(0.0, c) * cmath.cos(_omega(0.0, c)))  # u1' continued value
    # u2'(1) from the (1,2) branch: d/dx sin(ω(2−x)) = −ω cos(ω(2−x))
    du2_at_1 = complex(-_omega(0.0, c) * cmath.cos(_omega(0.0, c)))

    def single_layer(x):
        x = np.asarray(x, dtype=float)
        return -np.where(x <= 1.0,
                         kernel.u1(x) * u2_at_1,
                         u1_at_1 * kernel.u2(x)) / kernel.wronskian

    def double_layer(x):
        x = np.asarray(x, dtype=float)
        dy = np.where(x <= 1.0, kernel.u1(x) * du2_at_1, du1_at_1 * kernel.u2(x))
        return dy / kernel.wronskian

    def source(side):
        f_dd = field.dd_plus if side == "+" else field.dd_minus
        f_val = field.plus if side == "+" else field.minus
        return lambda x: -np.asarray(f_dd(x)) + c * np.asarray(f_val(x))

    xs_plus = _eval_points(0.0, 1.0, grid_n)
    xs_minus = _eval_points(1.0, 2.0, grid_n)
    t_plus = _restrict(source("+"), 0.0, 1.0)
    t_minus = _restrict(source("-"), 1.0, 2.0)

    def total_source(x):
        x = np.asarray(x)
        return np.where(x <= 1.0, t_plus(x), t_minus(x))

    def side_residual(xs, f_side):
        rhs = apply_resolvent(kernel, total_source, xs) \
            + double_layer(xs) * bracket0 - single_layer(xs) * bracket1
        return float(np.abs(np.asarray(f_side(xs)) - rhs).max())

    params = {"c": c, "grid_n": grid_n,
              "bracket0": [bracket0.real, bracket0.imag],
              "bracket1": [bracket1.real, bracket1.imag]}
    rows = [
        timed_check("interval.green3.plus", params, tolerance,
                    lambda: side_residual(xs_plus, field.plus)),
        timed_check("interval.green3.minus", params, tolerance,
                    lambda: side_residual(xs_minus, field.minus)),
    ]
    return ResidualReport(rows).sorted()


# ------------------------------------------------------------ abstract identities

def abstract_identity_suite(zs, c_plus: float = 0.0, c_minus: float = 0.0, trials: int = 5,
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
            a, b = (0.0, 1.0) if side == "+" else (1.0, 2.0)
            gam = gamma_profile(side, z, c)
            m_z = scalar_weyl(side, z, c)
            m_zbar = scalar_weyl(side, z.conjugate(), c)
            params = {"z": [z.real, z.imag], "side": side, "c": c}

            def jaok2():
                gram = _integrate(lambda y: np.abs(gam(y)) ** 2, a, b)
                return abs((m_z - m_zbar) - (z - z.conjugate()) * gram)

            rows.append(timed_check("interval.jaok2", params, tolerance, jaok2))

            kern = dirichlet_kernel(side, z, c)
            coefs = rng.normal(size=(trials, 4))

            def gsgs():
                defects = []
                for ck in coefs:
                    def f(y):
                        y = np.asarray(y)
                        return (ck[0] + ck[1] * y + ck[2] * np.sin(2.0 * y)
                                + ck[3] * np.cos(3.0 * y))

                    pairing = _integrate(lambda y: gam(y) * f(y), a, b)
                    # Γ₁ of u = (A₀−z)⁻¹f by one-sided polynomial extrapolation
                    dists = 0.002 * np.arange(1, 8)
                    pts = 1.0 + dists if side == "-" else 1.0 - dists
                    # du/d(dist), dist growing away from x=1
                    _, slope = _interp_at_zero(dists, apply_resolvent(kern, f, pts))
                    # Γ₁⁺ = −u'(1⁻) = +slope on the left; Γ₁⁻ = +u'(1⁺) = +slope on the right
                    defects.append(abs(pairing - slope))
                return worst(defects)

            rows.append(timed_check("interval.gsgs", params, tolerance, gsgs))
    return ResidualReport(rows).sorted()
