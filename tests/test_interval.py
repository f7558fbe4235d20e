import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from green3.errors import AccuracyRegionError, ConfigurationError, SpectralPoleError
from green3.interval_model import (
    IntervalField,
    abstract_identity_suite,
    apply_resolvent,
    coupled_eigenvalues,
    coupled_kernel,
    default_basis,
    dirichlet_kernel,
    gamma_profile,
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
    gp = gamma_profile("+", 2j)
    gm = gamma_profile("-", 2j, c=1.0)
    assert abs(gp(np.array([1.0]))[0] - 1.0) < 1e-14
    assert abs(gp(np.array([0.0]))[0]) < 1e-14
    assert abs(gm(np.array([1.0]))[0] - 1.0) < 1e-14
    assert abs(gm(np.array([2.0]))[0]) < 1e-14


def test_dirichlet_resolvent_against_constant_load():
    # −u'' + u = 1, u(0)=u(1)=0  ⇒  u = 1 − cosh(x−½)/cosh(½)
    xs = np.linspace(0.05, 0.95, 19)
    u = apply_resolvent(dirichlet_kernel("+", -1.0), _const(1.0), xs)
    exact = 1.0 - np.cosh(xs - 0.5) / np.cosh(0.5)
    assert np.abs(u - exact).max() < 1e-13


@pytest.mark.parametrize("make, xs", [
    (lambda: coupled_kernel(0.5 + 1j, 0.0, 2.0), np.linspace(0.05, 1.95, 40)),
    (lambda: dirichlet_kernel("-", 2j, 1.0), np.linspace(1.05, 1.95, 19)),
], ids=["coupled-both-sides-of-the-break", "dirichlet"])
def test_reused_resolvent_factors_change_no_bit(make, xs):
    phi1, phi2 = default_basis()[2], default_basis()[4]
    shared = make()
    first = apply_resolvent(shared, phi1, xs)
    second = apply_resolvent(shared, phi2, xs)
    assert np.array_equal(first, apply_resolvent(make(), phi1, xs))
    assert np.array_equal(second, apply_resolvent(make(), phi2, xs))


@pytest.mark.parametrize("formula", [krein_formula_check, mixed_formula_check])
def test_resolvent_formulas_evaluate_each_kernel_once_per_point_set(monkeypatch, formula):
    # u₁/u₂ depend on the kernel and the points, never on the density
    import green3.interval_model as interval_model

    calls = []

    def counted(u):
        def wrapped(x):
            calls.append(1)
            return u(x)
        return wrapped

    def counting(make):
        def build(*args, **kwargs):
            kernel = make(*args, **kwargs)
            return dataclasses.replace(kernel, u1=counted(kernel.u1), u2=counted(kernel.u2))
        return build

    for name in ("coupled_kernel", "dirichlet_kernel", "neumann_kernel_minus"):
        monkeypatch.setattr(interval_model, name, counting(getattr(interval_model, name)))

    def evaluations(bumps):
        calls.clear()
        formula(1j, grid_n=50, basis=default_basis()[:bumps])
        return len(calls)

    assert evaluations(1) == evaluations(5) > 0


# ------------------------------------------------------------- resolvent formulas


@pytest.mark.parametrize("z", [-1.0, 2j, 1 + 1j])
@pytest.mark.parametrize("c_plus, c_minus", [(0.0, 0.0), (0.0, 5.0)])
def test_krein_formula_closed_form(z, c_plus, c_minus):
    report = krein_formula_check(z, c_plus, c_minus, grid_n=200)
    assert report.all_pass
    assert report.max_residual <= 1e-8
    assert len(report.checks) == len(default_basis())
    assert {row.check for row in report.checks} == {"interval.krein"}
    assert all(row.params["grid_n"] == 200 for row in report.checks)


def test_krein_formula_real_z_in_spectral_gap():
    # z = 1 < (π/2)² sits below the coupled spectrum: real z is legitimate here
    report = krein_formula_check(1.0, grid_n=200)
    assert report.all_pass and report.max_residual <= 1e-8


def test_krein_formula_rejects_coupled_eigenvalue():
    with pytest.raises(SpectralPoleError):
        krein_formula_check(oracles.HALF_PI_SQ)


@pytest.mark.parametrize("z, c_plus, c_minus", [(2j, 0.0, 5.0), (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
def test_mixed_formula_closed_form(z, c_plus, c_minus):
    report = mixed_formula_check(z, c_plus, c_minus, grid_n=200)
    assert report.all_pass
    assert report.max_residual <= 1e-8
    names = [row.check for row in report.checks]
    assert names.count("interval.mixed") == len(default_basis())
    assert names.count("interval.res01") == len(default_basis())


def test_mixed_formula_rejects_neumann_eigenvalue():
    # z = (π/2)² + c₋ is both a pole of the Neumann side and a zero of m₋
    with pytest.raises(SpectralPoleError):
        mixed_formula_check(oracles.HALF_PI_SQ + 5.0, 0.0, 5.0)


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
    f = lambda x: np.asarray(x) ** 2 * (2.0 - np.asarray(x)) ** 2
    df = lambda x: 2.0 * np.asarray(x) * (2.0 - np.asarray(x)) ** 2 \
        - 2.0 * np.asarray(x) ** 2 * (2.0 - np.asarray(x))
    ddf = lambda x: 2.0 * (2.0 - np.asarray(x)) ** 2 \
        - 8.0 * np.asarray(x) * (2.0 - np.asarray(x)) + 2.0 * np.asarray(x) ** 2
    field = IntervalField(f, f, df, df, ddf, ddf)
    report = third_green_identity_1d(field, c=1.0, grid_n=100)
    assert report.all_pass and report.max_residual <= 1e-9
    row = report.checks[0]
    assert row.params["bracket0"] == [0.0, 0.0] and row.params["bracket1"] == [0.0, 0.0]


def test_third_green_identity_jump_field():
    # f₊ = x, f₋ = 0 jumps by 1 in the trace and −1 in the flux bracket
    field = IntervalField(
        lambda x: np.asarray(x, dtype=float), _const(0.0),
        _const(1.0), _const(0.0), _const(0.0), _const(0.0),
    )
    report = third_green_identity_1d(field, c=1.0, grid_n=100)
    assert report.all_pass and report.max_residual <= 1e-8
    row = report.checks[0]
    assert row.params["bracket0"] == [1.0, 0.0] and row.params["bracket1"] == [-1.0, 0.0]
    assert {r.check for r in report.checks} == {"interval.green3.plus", "interval.green3.minus"}


def test_third_green_identity_zero_field():
    zero = _const(0.0)
    field = IntervalField(zero, zero, zero, zero, zero, zero)
    report = third_green_identity_1d(field, c=1.0)
    assert report.max_residual == 0.0


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
    report = abstract_identity_suite([z], trials=1)
    jaok = [row for row in report.checks if row.check == "interval.jaok2"]
    assert all(row.residual <= 1e-9 for row in jaok)


def test_gsgs_fails_on_a_nan_trial(monkeypatch):
    # the first trial's NaN used to lose against the running maximum 0.0
    import green3.interval_model as interval_model

    calls = []
    resolvent = interval_model.apply_resolvent

    def poisoned(*args):
        calls.append(1)
        return resolvent(*args) * (np.nan if len(calls) == 1 else 1.0)

    monkeypatch.setattr(interval_model, "apply_resolvent", poisoned)
    report = abstract_identity_suite([1j], trials=2)
    gsgs = [r for r in report.checks if r.check == "interval.gsgs"]
    assert any(np.isnan(r.residual) and not r.passed for r in gsgs)
    assert not report.all_pass


@pytest.mark.parametrize("formula, check", [(krein_formula_check, "interval.krein"),
                                            (mixed_formula_check, "interval.mixed")])
def test_resolvent_formulas_fail_on_a_nan_side(monkeypatch, formula, check):
    # NaN only on the (1, 2) side, the second argument of the old max()
    import green3.interval_model as interval_model

    resolvent = interval_model.apply_resolvent
    monkeypatch.setattr(interval_model, "apply_resolvent", lambda kernel, phi, xs, *rest: (
        resolvent(kernel, phi, xs, *rest) * (np.nan if np.min(xs) > 1.0 else 1.0)))
    rows = [r for r in formula(1j, grid_n=50).checks if r.check == check]
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
