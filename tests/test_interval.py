import contextlib
import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from green3.cli import main
from green3.errors import AccuracyRegionError, ConfigurationError, SpectralPoleError
from green3.interval_model import (
    GREEN3_FAMILIES,
    IntervalField,
    _Side,
    _bumps,
    abstract_identity_suite,
    apply_resolvent,
    coupled_eigenvalues,
    coupled_kernel,
    krein_formula_check,
    mixed_formula_check,
    scalar_weyl,
    third_green_identity_1d,
)


def _const(value):
    return lambda x: np.full(np.asarray(x, dtype=float).shape, value, dtype=float)


# -------------------------------------------------------------- Weyl coefficient


def test_weyl_value_at_minus_one():
    # m(−1) = −coth(1), the one closed-form spot value everything else leans on
    assert scalar_weyl("+", -1.0) == pytest.approx(-oracles.COTH_1, abs=1e-14)
    assert scalar_weyl("-", -1.0) == pytest.approx(-oracles.COTH_1, abs=1e-14)


def test_weyl_shift_is_translation():
    assert scalar_weyl("-", 2.0 + 1j, c=5.0) == pytest.approx(scalar_weyl("-", -3.0 + 1j))


def test_weyl_series_branch_agrees_with_direct():
    # hand the series branch values the direct formula can still resolve
    for w2 in (1e-7, -1e-7, 1e-7j):
        near = scalar_weyl("+", w2)
        far = -np.sqrt(complex(w2)) / np.tan(np.sqrt(complex(w2)))
        assert abs(near - far) < 1e-12
    assert scalar_weyl("+", 0.0) == pytest.approx(-1.0)


def test_weyl_pole_and_side_validation():
    with pytest.raises(SpectralPoleError):
        scalar_weyl("+", np.pi**2)
    with pytest.raises(SpectralPoleError):
        scalar_weyl("-", 4.0 * np.pi**2 + 5.0, c=5.0)
    with pytest.raises(ConfigurationError):
        scalar_weyl("interior", -1.0)


def test_weyl_is_herglotz_on_sample():
    rng = np.random.default_rng(11)
    zs = rng.uniform(-10.0, 60.0, 100) + 1j * rng.uniform(0.05, 5.0, 100)
    for z in zs:
        assert scalar_weyl("+", z).imag > 0.0
        assert scalar_weyl("-", z, c=3.0).imag > 0.0


def test_gamma_profile_boundary_values():
    gp = _Side("+", 2j).gamma
    gm = _Side("-", 2j, c=1.0).gamma
    assert abs(gp(np.array([1.0]))[0] - 1.0) < 1e-14
    assert abs(gp(np.array([0.0]))[0]) < 1e-14
    assert abs(gm(np.array([1.0]))[0] - 1.0) < 1e-14
    assert abs(gm(np.array([2.0]))[0]) < 1e-14


def test_dirichlet_resolvent_against_constant_load():
    # −u'' + u = 1, u(0)=u(1)=0  ⇒  u = 1 − cosh(x−½)/cosh(½)
    xs = np.linspace(0.05, 0.95, 19)
    u = apply_resolvent(_Side("+", -1.0).dirichlet(), _const(1.0), xs)
    exact = 1.0 - np.cosh(xs - 0.5) / np.cosh(0.5)
    assert np.abs(u - exact).max() < 1e-13


def _sine_solution(waves, a):
    """u = Σ amp·sin(k(x − a)) over the (amp, k) ``waves``, and u''; a kernel's
    resolvent maps −u'' + (c − z)u back to u when u meets its end conditions."""
    def u(x):
        return sum(amp * np.sin(k * (np.asarray(x) - a)) for amp, k in waves)

    def ddu(x):
        return sum(-amp * k * k * np.sin(k * (np.asarray(x) - a)) for amp, k in waves)

    return u, ddu


def _load(u, ddu, z, shift):
    """φ = −u'' + (c(x) − z)u for the piecewise shift c(x) = shift(x)."""
    return lambda x: -ddu(x) + (shift(np.asarray(x)) - z) * u(x)


# |√(z − c)| = 149 lies next to the 150 limit of the krein and mixed checks; the
# gaps between one or three points are cut into many pieces there
_NEAR_LIMIT = [3.0 + (149.0 * np.exp(1j * arg)) ** 2 for arg in (1e-6, 0.7, np.pi / 2 - 1e-6)]


@pytest.mark.parametrize("z", [-1.0, 2j, 1.0 + 1.0j, *_NEAR_LIMIT])
@pytest.mark.parametrize("xs", [[1.0], [0.25, 1.0, 1.6], np.linspace(0.0, 2.0, 202)[1:-1]],
                         ids=["1-point", "3-points", "200-points"])
def test_coupled_resolvent_against_a_closed_form_solution(z, xs):
    # u = sin(πx/2) + ½sin(3πx/2) vanishes at 0 and 2 and is C¹ at x = 1, so it
    # lies in the coupled domain; its load jumps at x = 1 when c₊ ≠ c₋
    u, ddu = _sine_solution([(1.0, np.pi / 2), (0.5, 1.5 * np.pi)], 0.0)
    phi = _load(u, ddu, z, lambda x: np.where(x <= 1.0, 0.0, 3.0))
    got = apply_resolvent(coupled_kernel(z, 0.0, 3.0), phi, xs)
    assert np.abs(got - u(np.asarray(xs))).max() < 1e-10


@pytest.mark.parametrize("z", [-1.0, 2j, 1.0 + 1.0j, *_NEAR_LIMIT])
@pytest.mark.parametrize("make, waves, a, xs", [
    (lambda z: _Side("+", z, 3.0).dirichlet(), [(1.0, np.pi), (0.5, 2 * np.pi)], 0.0, [0.5]),
    (lambda z: _Side("+", z, 3.0).dirichlet(), [(1.0, np.pi), (0.5, 2 * np.pi)], 0.0,
     [0.1, 0.5, 0.9]),
    (lambda z: _Side("-", z, 3.0).dirichlet(), [(1.0, np.pi), (0.5, 2 * np.pi)], 1.0,
     np.linspace(1.0, 2.0, 202)[1:-1]),
    # sin(πx/2) has u(0) = 0, u'(1) = 0 and u(2) = 0
    (lambda z: _Side("-", z, 3.0).neumann(), [(1.0, np.pi / 2)], 0.0,
     np.linspace(1.0, 2.0, 202)[1:-1]),
    (lambda z: _Side("+", z, 3.0).neumann(), [(1.0, np.pi / 2)], 0.0, [0.1, 0.5, 0.9]),
], ids=["dirichlet-plus-1-point", "dirichlet-plus-3-points", "dirichlet-minus-200-points",
        "neumann-minus-200-points", "neumann-plus-3-points"])
def test_side_resolvents_against_closed_form_solutions(z, make, waves, a, xs):
    u, ddu = _sine_solution(waves, a)
    got = apply_resolvent(make(z), _load(u, ddu, z, lambda x: 3.0), xs)
    assert np.abs(got - u(np.asarray(xs))).max() < 1e-10


@pytest.mark.parametrize("x", [-0.5, 1.5, np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0)])
def test_resolvent_points_outside_the_interval_are_rejected(x):
    # the constant-load formula used to extend outside [0, 1]: −0.368 at −0.5 and 1.5
    with pytest.raises(ConfigurationError, match=r"not in \[0, 1\]"):
        apply_resolvent(_Side("+", -1.0).dirichlet(), _const(1.0), np.array([0.5, x]))


def test_resolvent_vanishes_at_the_dirichlet_ends():
    u = apply_resolvent(_Side("+", -1.0).dirichlet(), _const(1.0), np.array([0.0, 1.0]))
    assert np.abs(u).max() < 1e-15


@pytest.mark.parametrize("kernel, side, xs", [
    (coupled_kernel(0.5 + 1j, 0.0, 2.0), _Side("+", 0.5 + 1j), np.linspace(0.05, 1.95, 40)),
    (_Side("-", 2j, 1.0).dirichlet(), _Side("-", 2j, 1.0), np.linspace(1.05, 1.95, 19)),
    (_Side("+", -3.0 + 0.5j, 0.3).neumann(), _Side("+", -3.0 + 0.5j, 0.3),
     np.linspace(0.0, 1.0, 202)[1:-1]),
], ids=["coupled-both-sides-of-the-break", "dirichlet", "neumann"])
def test_each_density_of_a_batch_keeps_its_bits(kernel, side, xs):
    # densities on the leading axis reduce each piece as a density applied alone
    batch, pairings = apply_resolvent(kernel, _bumps, xs), side.pairing(_bumps)
    assert batch.shape == (5, xs.size) and pairings.shape == (5,)
    for j in range(5):
        def alone(x):
            return _bumps(x)[j]

        assert np.array_equal(batch[j], apply_resolvent(kernel, alone, xs))
        assert pairings[j] == side.pairing(alone)


@pytest.mark.parametrize("z, c_plus, c_minus", [(1j, 0.0, 0.0), (-2.0 + 1.0j, 0.5, 2.0),
                                             (3.0 - 0.7j, 1.2, 0.0)])
def test_coupled_kernel_branches_match_the_where_form(z, c_plus, c_minus):
    # each branch is evaluated on its own side of x = 1 only, to the same bits
    import cmath

    wp, wm = cmath.sqrt(z - c_plus), cmath.sqrt(z - c_minus)
    kernel = coupled_kernel(z, c_plus, c_minus)
    xs = np.concatenate([np.linspace(0.0, 2.0, 41), [1.0, np.nextafter(1.0, 0.0),
                                                    np.nextafter(1.0, 2.0)]])
    u1 = np.where(xs <= 1.0, np.sin(wp * xs),
                  cmath.sin(wp) * np.cos(wm * (xs - 1.0))
                  + (wp / wm) * cmath.cos(wp) * np.sin(wm * (xs - 1.0)))
    u2 = np.where(xs >= 1.0, np.sin(wm * (2.0 - xs)),
                  cmath.sin(wm) * np.cos(wp * (1.0 - xs))
                  + (wm / wp) * cmath.cos(wm) * np.sin(wp * (1.0 - xs)))
    assert np.array_equal(kernel.u1(xs), u1)
    assert np.array_equal(kernel.u2(xs), u2)
    for i, x in enumerate(xs):  # a scalar gives a 0-d array, as np.where did
        assert kernel.u1(x).shape == kernel.u2(x).shape == ()
        assert kernel.u1(x) == u1[i] and kernel.u2(float(x)) == u2[i]


@pytest.mark.parametrize("formula, applications", [(krein_formula_check, 4),
                                                   (mixed_formula_check, 5)],
                         ids=["krein_formula_check", "mixed_formula_check"])
def test_resolvent_formulas_evaluate_each_kernel_once_per_point_set(monkeypatch, formula,
                                                                    applications):
    # all five bumps go through one application per (kernel, point set), and
    # each evaluates u₁ and u₂ once on its nodes and once on its points
    import green3.interval_model as interval_model

    calls, applied = [], []

    def counted(u):
        def wrapped(x):
            calls.append(np.size(x))
            return u(x)
        return wrapped

    def counting(make):
        def build(*args, **kwargs):
            kernel = make(*args, **kwargs)
            return dataclasses.replace(kernel, u1=counted(kernel.u1), u2=counted(kernel.u2))
        return build

    for owner, name in ((interval_model, "coupled_kernel"), (interval_model._Side, "dirichlet"),
                        (interval_model._Side, "neumann")):
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    resolvent = interval_model.apply_resolvent

    def counted_resolvent(kernel, phi, xs):
        applied.append(np.size(xs))
        return resolvent(kernel, phi, xs)

    monkeypatch.setattr(interval_model, "apply_resolvent", counted_resolvent)
    formula(1j)
    assert applied == [200] * applications
    # per application: u₁ and u₂ on the nodes, then u₂ and u₁ at the 200 points
    assert len(calls) == 4 * applications and calls.count(200) == 2 * applications


# ------------------------------------------------------------- resolvent formulas


@pytest.mark.parametrize("z", [-1.0, 2j, 1 + 1j])
@pytest.mark.parametrize("c_plus, c_minus", [(0.0, 0.0), (0.0, 5.0)])
def test_krein_formula_closed_form(z, c_plus, c_minus):
    report = krein_formula_check(z, c_plus, c_minus)
    assert report.all_pass
    assert report.max_residual <= 1e-8
    assert len(report.checks) == 5
    assert {row.check for row in report.checks} == {"interval.krein"}
    assert all(row.params["grid_n"] == 200 for row in report.checks)


def test_krein_formula_real_z_in_spectral_gap():
    # z = 1 < (π/2)² sits below the coupled spectrum: real z is legitimate here
    report = krein_formula_check(1.0)
    assert report.all_pass and report.max_residual <= 1e-8


def test_krein_formula_rejects_coupled_eigenvalue():
    with pytest.raises(SpectralPoleError):
        krein_formula_check(oracles.HALF_PI_SQ)


@pytest.mark.parametrize("z, c_plus, c_minus", [(2j, 0.0, 5.0), (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
def test_mixed_formula_closed_form(z, c_plus, c_minus):
    report = mixed_formula_check(z, c_plus, c_minus)
    assert report.all_pass
    assert report.max_residual <= 1e-8
    names = [row.check for row in report.checks]
    assert names.count("interval.mixed") == 5
    assert names.count("interval.res01") == 5


def test_mixed_formula_rejects_neumann_eigenvalue():
    # z = (π/2)² + c₋ is both a pole of the Neumann side and a zero of m₋
    with pytest.raises(SpectralPoleError):
        mixed_formula_check(oracles.HALF_PI_SQ + 5.0, 0.0, 5.0)


@pytest.mark.parametrize("argv", [
    # z₀ + 1e-8 with z₀ = (π/2)² + 5, a Neumann pole of the − side: R₁₋φ is ~2e7
    ["--check", "mixed", "--z", "7.467401110272339,0", "--c+", "0", "--c-", "5"],
    # (π/2)² + 1e-9, next to the first coupled eigenvalue
    ["--check", "krein", "--z", "2.4674011012733395,0"],
])
def test_formula_rows_next_to_a_pole_pass_at_rounding_level(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["interval", *argv, "--omit-timing"]) == 0


# ------------------------------------------------------------------- eigenvalues


def test_coupled_eigenvalues_symmetric_case():
    roots = coupled_eigenvalues(0.0, 0.0, 3)
    want = np.array([oracles.HALF_PI_SQ, oracles.THREE_HALF_PI_SQ, oracles.FIVE_HALF_PI_SQ])
    assert np.abs(roots / want - 1.0).max() < 1e-10


def test_coupled_eigenvalues_exclude_decoupled_poles():
    roots = coupled_eigenvalues(0.0, 0.0, 8)
    poles = np.array([(k * np.pi) ** 2 for k in range(1, 10)])
    assert np.abs(roots[:, None] - poles[None, :]).min() > 0.5


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_coupled_spectrum_union_invariant(c):
    # visible roots interlace the σ(A₀) overlap to rebuild (kπ/2)² + c, k ≤ 8
    roots = coupled_eigenvalues(c, c, 4)
    overlap = [c + (k * np.pi) ** 2 for k in (1, 2, 3, 4)]
    combined = np.sort(np.concatenate([roots, overlap]))
    want = np.array([(k * np.pi / 2.0) ** 2 + c for k in range(1, 9)])
    assert np.abs(combined / want - 1.0).max() < 1e-10


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=25, deadline=None)
def test_coupled_eigenvalues_are_roots(c_plus, c_minus):
    for root in coupled_eigenvalues(c_plus, c_minus, 3):
        total = scalar_weyl("+", root, c_plus) + scalar_weyl("-", root, c_minus)
        assert abs(total) < 1e-9


@pytest.mark.parametrize("c_minus", [1e-12, 0.00390625])
def test_coupled_eigenvalues_near_coincident_shifts(c_minus):
    # poles π² and π²+c₋ nearly coincide; the trapped root is merged away
    roots = coupled_eigenvalues(0.0, c_minus, 3)
    assert roots.shape == (3,)
    assert np.all(np.abs(roots - np.pi**2) > 1.0)
    for root in roots:
        assert abs(scalar_weyl("+", root, 0.0) + scalar_weyl("-", root, c_minus)) < 1e-9


def test_coupled_eigenvalues_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        coupled_eigenvalues(0.0, 0.0, 0)


# ------------------------------------------------------------------- third Green


def test_third_green_identity_smooth_field():
    # globally C² with f(0)=f(2)=0: both brackets vanish and f = 𝒢(Af)
    report = third_green_identity_1d(GREEN3_FAMILIES["smooth"], c=1.0)
    assert report.all_pass and report.max_residual <= 1e-9
    row = report.checks[0]
    assert row.params["bracket0"] == [0.0, 0.0] and row.params["bracket1"] == [0.0, 0.0]


def test_third_green_identity_jump_field():
    # f₊ = x, f₋ = 0 jumps by 1 in the trace and −1 in the flux bracket
    report = third_green_identity_1d(GREEN3_FAMILIES["jump"], c=1.0)
    assert report.all_pass and report.max_residual <= 1e-8
    row = report.checks[0]
    assert row.params["bracket0"] == [1.0, 0.0] and row.params["bracket1"] == [-1.0, 0.0]
    assert {r.check for r in report.checks} == {"interval.green3.plus", "interval.green3.minus"}


@pytest.mark.parametrize("label, bracket0, bracket1", [("smooth", 0.0, 0.0), ("jump", 1.0, -1.0)])
def test_green3_families_keep_their_brackets(label, bracket0, bracket1):
    # a family whose brackets change would still pass the identity, untested
    for row in third_green_identity_1d(GREEN3_FAMILIES[label], c=1.0).checks:
        assert row.params["bracket0"] == [bracket0, 0.0]
        assert row.params["bracket1"] == [bracket1, 0.0]


def test_third_green_identity_requires_positive_shift():
    zero = _const(0.0)
    field = IntervalField(zero, zero, zero, zero, zero, zero)
    with pytest.raises(ConfigurationError):
        third_green_identity_1d(field, c=0.0)
    with pytest.raises(ConfigurationError):
        third_green_identity_1d(field, c=-2.0)


# ------------------------------------------------------------ abstract identities


def test_abstract_identity_suite_passes():
    report = abstract_identity_suite([1j, 2j])
    assert report.all_pass
    assert report.max_residual <= 1e-9
    names = [row.check for row in report.checks]
    assert names.count("interval.jaok2") == 4  # two z × two sides
    assert names.count("interval.gsgs") == 4


def test_abstract_identity_suite_nonzero_shift():
    report = abstract_identity_suite([0.5 + 1.5j], c_plus=1.0, c_minus=4.0)
    assert report.all_pass and report.max_residual <= 1e-9


def test_weyl_conjugation_antisymmetry():
    # m(z̄) = conj m(z) exactly, so the two halves of the jump identity cancel
    for z in (1j, 2.0 + 3j, -4.0 + 0.5j):
        m_z = scalar_weyl("+", z)
        m_zbar = scalar_weyl("+", np.conjugate(z))
        assert m_zbar == np.conjugate(m_z)
        assert (m_z - m_zbar) + (m_zbar - m_z) == 0.0


def test_abstract_identity_suite_rejects_real_z():
    with pytest.raises(ConfigurationError):
        abstract_identity_suite([1j, 1.0])


@given(st.floats(-5.0, 5.0), st.floats(0.1, 4.0))
@settings(max_examples=20, deadline=None)
def test_jaok2_identity_random_z(re, imag):
    z = complex(re, imag)
    report = abstract_identity_suite([z])
    jaok = [row for row in report.checks if row.check == "interval.jaok2"]
    assert all(row.residual <= 1e-9 for row in jaok)


def test_gsgs_fails_on_a_nan_trial(monkeypatch):
    # the first trial's NaN used to lose against the running maximum 0.0; only
    # that trial's row of the one application of each (z, side) is poisoned
    import green3.interval_model as interval_model

    resolvent = interval_model.apply_resolvent

    def poisoned(*args):
        out = resolvent(*args)
        out[0] = np.nan
        return out

    monkeypatch.setattr(interval_model, "apply_resolvent", poisoned)
    report = abstract_identity_suite([1j])
    gsgs = [r for r in report.checks if r.check == "interval.gsgs"]
    assert gsgs and all(np.isnan(r.residual) and not r.passed for r in gsgs)
    assert not report.all_pass


@pytest.mark.parametrize("formula, check", [(krein_formula_check, "interval.krein"),
                                            (mixed_formula_check, "interval.mixed")])
def test_resolvent_formulas_fail_on_a_nan_side(monkeypatch, formula, check):
    # NaN only on the (1, 2) side, the second argument of the old max()
    import green3.interval_model as interval_model

    resolvent = interval_model.apply_resolvent
    monkeypatch.setattr(interval_model, "apply_resolvent", lambda kernel, phi, xs, *rest: (
        resolvent(kernel, phi, xs, *rest) * (np.nan if np.min(xs) > 1.0 else 1.0)))
    rows = [r for r in formula(1j).checks if r.check == check]
    assert rows and all(np.isnan(r.residual) and not r.passed for r in rows)


# -------------------------------------------------------------- accuracy region


@pytest.mark.parametrize("check, run", [
    ("krein", lambda z: krein_formula_check(z, 3.0, 3.0)),
    ("mixed", lambda z: mixed_formula_check(z, 3.0, 3.0)),
    ("suite", lambda z: abstract_identity_suite([z], 3.0, 3.0)),
])
def test_checks_pass_up_to_their_accuracy_limit(check, run):
    from green3.interval_model import _OMEGA_LIMIT

    limit = _OMEGA_LIMIT[check]
    # next to the positive real axis, where the sweep failed first, and off it
    for arg in (1e-6, 0.7):
        direction = np.exp(1j * arg)
        assert run(3.0 + (0.999 * limit * direction) ** 2).all_pass
        with pytest.raises(AccuracyRegionError, match=f"interval {check} check"):
            run(3.0 + (1.01 * limit * direction) ** 2)


@pytest.mark.parametrize("z, c_plus, c_minus", [(3.0 + (149.0 * np.exp(1e-6j)) ** 2, 3.0, 3.0),
                                             ((149.0 * np.exp(1e-6j)) ** 2, 0.0, 3.0)])
def test_resolvent_formulas_stay_at_rounding_level_at_the_region_edge(z, c_plus, c_minus):
    # the one-panel γ pairings left 1.4e-14 to 2.9e-14 here, absolute; the rows
    # are relative to the largest term, about 4.5e-5 here, so 1e-16 became 2e-12
    for formula in (krein_formula_check, mixed_formula_check):
        assert formula(z, c_plus, c_minus).max_residual <= 2e-12


def test_green3_check_has_an_accuracy_limit():
    from green3.interval_model import _OMEGA_LIMIT

    field = IntervalField(*[_const(0.0)] * 6)
    c = _OMEGA_LIMIT["green3"] ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no kernel product overflows inside the region
        assert third_green_identity_1d(field, c=0.99 * c).all_pass
    with pytest.raises(AccuracyRegionError, match="interval green3 check"):
        third_green_identity_1d(field, c=1.01 * c)


def test_accuracy_region_keeps_the_closed_form_range():
    from green3.interval_model import _check_accuracy_region

    # |Re z| <= 5, 0.5 <= |Im z| <= 3, c± in [0, 3]: the benchmark's closed_form jobs
    for check in ("krein", "mixed", "suite"):
        for re in (-5.0, 0.0, 5.0):
            for im in (-3.0, -0.5, 0.5, 3.0):
                for shifts in ((0.0, 0.0), (0.0, 3.0), (3.0, 3.0)):
                    _check_accuracy_region(check, complex(re, im), *shifts)
    assert krein_formula_check(-5.0 + 3.0j, 3.0, 0.0).all_pass
    assert mixed_formula_check(5.0 - 0.5j, 0.0, 3.0).all_pass
    assert abstract_identity_suite([-5.0 - 3.0j, 5.0 + 0.5j], 3.0, 0.0).all_pass
