import numpy as np
import pytest

import oracles
from green3.errors import AccuracyRegionError, AnsatzResonanceError, ConfigurationError
from green3.geometry import curve_from_spec, dirichlet_trace, make_curve, neumann_trace
from green3.potentials import (
    _LayerOperators,
    disk_mode_multipliers,
    eval_double_layer_field,
    eval_single_layer_field,
    jump_relation_residuals,
)
from green3.specfun import fundamental_solution, fundamental_solution_gradient


@pytest.fixture(scope="module")
def disk256():
    return make_curve("disk", 256)


def test_disk_mode_table(disk256):
    """S, K, K* reproduce the frozen Bessel-product eigenvalues on e^{imθ}."""
    _, grid = disk256
    ops = _LayerOperators(grid, -1.0)
    for m, (s_ref, k_ref, _, _) in oracles.DISK_MODES_ZM1.items():
        phi = np.exp(1j * m * grid.nodes)
        assert np.abs(ops.single_layer @ phi - s_ref * phi).max() <= 1e-12
        assert np.abs(ops.double_layer @ phi - k_ref * phi).max() <= 1e-12
        assert np.abs(ops.adjoint_double_layer @ phi - k_ref * phi).max() <= 1e-12


def test_gauss_identity_laplace(disk256):
    _, grid = disk256
    lhs = 0.5 * np.ones(grid.n) + _LayerOperators(grid, 0.0).double_layer @ np.ones(grid.n)
    assert np.abs(lhs - 1.0).max() <= 1e-13


def test_single_layer_weighted_symmetry(disk256):
    """E(x,y) = E(y,x): S is symmetric under the arc-length quadrature weights."""
    _, grid = disk256
    D = np.diag(grid.arc_weights)
    for z in (-2.5, 0.0, 1j):
        ws = D @ _LayerOperators(grid, z).single_layer
        assert np.abs(ws - ws.T).max() <= 1e-12


def test_adjoint_is_weighted_transpose():
    _, grid = make_curve("kite", 128)
    D = np.diag(grid.arc_weights)
    ops = _LayerOperators(grid, -1.0)
    assert np.abs(D @ ops.adjoint_double_layer - (D @ ops.double_layer).T).max() <= 1e-14


# ---------------------------------------------------------------- mode multipliers

def test_mode_multipliers_match_frozen_table():
    for m, (s_ref, k_ref, mu_p, mu_m) in oracles.DISK_MODES_ZM1.items():
        mult = disk_mode_multipliers(-1.0, m)
        assert mult["single.dirichlet"].real == pytest.approx(s_ref, rel=1e-12)
        assert mult["K"].real == pytest.approx(k_ref, rel=1e-11)
        assert mult["Kstar"].real == pytest.approx(k_ref, rel=1e-11)
        assert mult["M.interior"].real == pytest.approx(mu_p, rel=1e-12)
        assert mult["M.exterior"].real == pytest.approx(mu_m, rel=1e-12)


def test_mode_multiplier_jump_algebra():
    """Trace identities forced by the Wronskian: the six multipliers are consistent."""
    for z in (-1.0, 2j, -0.3 + 1.7j):
        for m in (0, 3):
            mult = disk_mode_multipliers(z, m)
            # Neumann traces of 𝒮 from the two sides sum to the identity
            assert mult["single.neumann.interior"] + mult["single.neumann.exterior"] == pytest.approx(
                1.0, abs=1e-12
            )
            # Dirichlet jump of 𝒟 is the density
            assert mult["double.dirichlet.interior"] - mult[
                "double.dirichlet.exterior"
            ] == pytest.approx(1.0, abs=1e-12)


def test_gamma_profile_closed_form():
    mult = disk_mode_multipliers(-1.0, 0)
    assert mult["gamma.interior"](0.5).real == pytest.approx(oracles.I0_RATIO_HALF, rel=1e-13)
    assert mult["gamma.interior"](1.0).real == pytest.approx(1.0, rel=1e-14)
    assert mult["gamma.exterior"](1.0).real == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------- field evaluation

def test_zero_density_gives_zero_field(disk256):
    curve, grid = disk256
    pts = np.array([[0.3, 0.1], [2.5, 1.0]])
    zero = np.zeros(grid.n)
    assert np.all(eval_single_layer_field(curve, grid, -1.0, zero, pts) == 0)
    assert np.all(eval_double_layer_field(curve, grid, -1.0, zero, pts) == 0)


def test_single_layer_value_at_origin(disk256):
    """Mode-0 field at the disk center: 𝒮1(0) = I_0(0)K_0(1) = K_0(1)."""
    curve, grid = disk256
    val = eval_single_layer_field(curve, grid, -1.0, np.ones(grid.n), [0.0, 0.0])[0]
    assert val.real == pytest.approx(oracles.K0_AT_1, rel=1e-12)
    assert abs(val.imag) <= 1e-15


def test_clearance_guard(disk256):
    curve, grid = disk256
    too_close = np.array([[1.0 - 0.01, 0.0]])
    with pytest.raises(AccuracyRegionError):
        eval_single_layer_field(curve, grid, -1.0, np.ones(grid.n), too_close)
    # explicit override evaluates anyway
    val = eval_single_layer_field(
        curve, grid, -1.0, np.ones(grid.n), too_close, enforce_accuracy_region=False
    )
    assert np.isfinite(val).all()


def test_field_consistency_under_refinement():
    """Same density, N and 2N assemblies: interior field values agree to 1e-8."""
    pts = np.array([[0.25, 0.1], [-0.3, 0.35]])
    vals = []
    for n in (128, 256):
        curve, grid = make_curve("kite", n)
        phi = np.cos(grid.nodes)
        vals.append(eval_single_layer_field(curve, grid, -1.0, phi, pts))
    assert np.abs(vals[0] - vals[1]).max() <= 1e-8


def test_potentials_satisfy_pde(disk256):
    """5-point stencil of (−Δ−z) on 𝒮φ and 𝒟φ vanishes off the curve."""
    curve, grid = disk256
    z, h = -1.0, 1e-3
    phi = np.exp(1j * grid.nodes) + 0.3
    for x0 in (np.array([0.4, 0.2]), np.array([1.9, 1.1])):
        stencil = np.array([x0, x0 + [h, 0], x0 - [h, 0], x0 + [0, h], x0 - [0, h]])
        for ev in (eval_single_layer_field, eval_double_layer_field):
            u = ev(curve, grid, z, phi, stencil)
            lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
            assert abs(-lap - z * u[0]) <= 1e-5


def test_green_representation(disk256):
    """Interior solution u = 𝒟(τ_D u) + 𝒮(τ_N⁺ u) recovered at interior probes."""
    curve, grid = disk256
    z, y0 = -1.0, np.asarray([3.0, 0.0])
    u = lambda pts: fundamental_solution(2, z, np.linalg.norm(pts - y0, axis=-1))
    u_grad = lambda pts: fundamental_solution_gradient(2, z, pts - y0)
    tau_d = dirichlet_trace(u, curve, grid)
    tau_n = neumann_trace(u_grad, curve, grid)
    probes = np.array([[0.0, 0.0], [0.5, 0.2], [-0.4, -0.6]])
    rebuilt = eval_double_layer_field(curve, grid, z, tau_d, probes) + eval_single_layer_field(
        curve, grid, z, tau_n, probes
    )
    assert np.abs(rebuilt - u(probes)).max() <= 1e-8


# ---------------------------------------------------------------- jump relations

def test_jump_relations_disk(disk256):
    curve, grid = disk256
    report = jump_relation_residuals(curve, grid, -1.0)
    assert report.all_pass
    assert report.max_residual <= 1e-6
    assert len(report.checks) == 10  # six closed-form traces, two Calderón and two DtN rows
    assert [row.params["side"] for row in report.checks
            if row.check == "weyl.dtn.point_source"] == ["exterior", "interior"]


def test_jump_relations_complex_z(disk256):
    curve, grid = disk256
    report = jump_relation_residuals(curve, grid, 1 + 2j, modes=4)
    assert report.all_pass


def test_jump_relations_ellipse_self_convergence():
    curve, grid = make_curve("ellipse", 512, a=2.0, b=1.0)
    report = jump_relation_residuals(curve, grid, -2.0, modes=1)
    assert report.all_pass
    assert report.max_residual <= 1e-6


def test_jump_relation_guards():
    curve, grid = make_curve("kite", 64)
    with pytest.raises(ConfigurationError):
        jump_relation_residuals(curve, grid, -1.0, modes=-1)
    # the point-source DtN rows factor S, which is singular at z = 0 on a curve
    # of logarithmic capacity 1, such as this ellipse ((a + b)/2 = 1)
    curve, grid = make_curve("ellipse", 64, a=1.5, b=0.5)
    with pytest.raises(AnsatzResonanceError):
        jump_relation_residuals(curve, grid, 0.0)


def test_jump_relations_fail_on_a_nan_mode(monkeypatch):
    # a NaN defect in one mode used to lose the running-max comparison
    import green3.potentials as potentials

    mode_density = potentials._mode_density
    monkeypatch.setattr(potentials, "_mode_density",
                        lambda grid, m: mode_density(grid, m) * (np.nan if m == 1 else 1.0))
    curve, grid = make_curve("disk", 32)
    report = jump_relation_residuals(curve, grid, -1.0, modes=2)
    assert len(report.checks) == 10
    traces = [row for row in report.checks if row.check.startswith("jump.")
              and not row.check.startswith("jump.calderon.")]
    assert len(traces) == 6
    # the point-source rows read no mode density
    others = [row for row in report.checks if row not in traces]
    assert sorted(row.check for row in others) == ["jump.calderon.exterior", "jump.calderon.interior",
                                                   "weyl.dtn.point_source", "weyl.dtn.point_source"]
    assert all(np.isfinite(row.residual) for row in others)
    for row in traces:
        assert np.isnan(row.residual) and not row.passed
        assert row.details["worst_mode"] == 1
    assert np.isnan(report.max_residual)


# ---------------------------------------------------------------- kernel tables

_TABLE_ZS = (-31.0 + 0.65j, 4.11 + 26.6j, -19.2 - 1.75j, 1e4 + 1j, 2500.0 + 2500.0j,
             1e-8 + 1e-8j, -1.0 + 0.5j)


def _scipy_kernels(k, r):
    from scipy import special as sp

    w = k * r
    return sp.jv(0, w), sp.hankel1(0, w), sp.jv(1, w) / w, sp.hankel1(1, w)


@pytest.mark.parametrize("spec", ["disk", "kite", "ellipse:1.5,0.8"])
@pytest.mark.parametrize("n", [64, 256, 512])
def test_kernel_tables_match_scipy(spec, n):
    """J_0, H_0, J_1/(kr), H_1 from the tables against scipy.special on the pairs."""
    _, grid = curve_from_spec(spec, n)
    for z in _TABLE_ZS:
        ops = _LayerOperators(grid, z)
        k = ops.z.sqrt_z
        r = grid._pairs.r[::4] if n == 512 else grid._pairs.r  # scipy on all 130 816 pairs is slow
        j0, h0 = ops._table(0, r)
        j1, h1 = ops._table(1, r)
        refs = _scipy_kernels(k, r)
        bound = 1e-14 if abs(z) <= 32 else 1e-13
        for got, ref in zip((j0, h0, j1, h1), refs):
            assert np.abs(got - ref).max() <= bound * np.abs(ref).max()
        if abs(k.imag) * grid._pairs.r.max() <= 20.0:
            for got, ref in ((h0, refs[1]), (h1, refs[3])):
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_kernel_table_evaluates_each_guarded_routine_once_per_function(monkeypatch):
    import green3.potentials as potentials

    calls = []

    def recorded(name, fn):
        return lambda order, w: calls.append((name, order, np.abs(w).max())) or fn(order, w)

    monkeypatch.setattr(potentials, "bessel_j", recorded("J", potentials.bessel_j))
    monkeypatch.setattr(potentials, "hankel1", recorded("H", potentials.hankel1))
    _, grid = curve_from_spec("kite", 256)
    for z in (-1.0 + 0.5j, -31.0 + 0.65j, 4.11 + 26.6j, 0.7 + 3.1j):
        calls.clear()
        ops = _LayerOperators(grid, z)
        ops.single_layer, ops.double_layer
        assert [c[:2] for c in calls] == [("J", 0), ("H", 0), ("J", 1), ("H", 1)]
        # r_max is a node (to rounding), so the |w| < 700 guard sees |k|·r_max
        for call in calls:
            assert call[2] == pytest.approx(abs(ops.z.sqrt_z) * grid._pairs.r.max(), rel=1e-15)


def test_kernel_table_halves_a_coarse_layout_until_resolved(monkeypatch):
    """The tail test, not the initial layout, decides the panels."""
    import green3.potentials as potentials
    from green3.errors import ArgumentRangeError

    _, grid = curve_from_spec("kite", 128)
    ops = _LayerOperators(grid, -19.2 - 1.75j)
    k, r = ops.z.sqrt_z, grid._pairs.r
    default = potentials._KernelTable(k, r.min(), r.max())
    monkeypatch.setattr(potentials, "_TABLE_GRADING", 4.0)
    monkeypatch.setattr(potentials, "_TABLE_RADIANS", 20.0)
    halved = potentials._KernelTable(k, r.min(), r.max())
    assert len(halved._mid) > 4  # the coarse layout has four panels
    refs = _scipy_kernels(k, r)
    for table in (default, halved):
        for got, ref in zip((*table(0, r), *table(1, r)), refs):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    monkeypatch.setattr(potentials, "_TABLE_ROUNDS", 1)
    with pytest.raises(ArgumentRangeError, match="not resolved after 1 halvings"):
        potentials._KernelTable(k, r.min(), r.max())


def test_real_negative_z_never_reaches_the_tables(monkeypatch):
    import green3.potentials as potentials

    def no_table(*args, **kwargs):
        raise AssertionError("kernel table built")

    monkeypatch.setattr(potentials, "_KernelTable", no_table)
    _, grid = curve_from_spec("kite", 64)
    for z in (-2.5, -31.0, 0.0):
        ops = _LayerOperators(grid, z)
        ops.single_layer, ops.adjoint_double_layer
    with pytest.raises(AssertionError, match="kernel table built"):
        _LayerOperators(grid, -2.5 + 1e-3j).single_layer


@pytest.mark.parametrize("spec", ["disk", "kite", "ellipse:1.5,0.8"])
def test_single_layer_is_real_at_real_nonpositive_z(spec):
    # single_layer_singular_values takes the real SVD on exactly this
    _, grid = curve_from_spec(spec, 64)
    for z in (0.0, -1e-3, -1.0, -30.0):
        assert not _LayerOperators(grid, z).single_layer.imag.any()


def test_overflow_guard_still_sees_the_largest_pair(capsys):
    from green3.cli import main

    assert main(["jumps", "--curve", "kite", "--z", "1e6,1", "--nodes", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "green3: |w| must be finite and < 700 (overflow guard)\n"


# ---------------------------------------------------------------- chunked pair pass

def _whole_array_operators(ops, kernels):
    """S, K, K* in complex arithmetic on all pairs at once, by the same
    per-element operations as the bundle's complex route, scattered into dense
    matrices here.  ``kernels(order, r)`` gives (J_0(kr), H_0(kr)) and
    (J_1(kr)/(kr), H_1(kr))."""
    n, k, pairs = ops.grid.n, ops.z.sqrt_z, ops.grid._pairs
    speed, rows, cols, r = ops.grid.speed, pairs.rows, pairs.cols, pairs.r

    def dense(upper, lower, diagonal):
        mat = np.empty((n, n), dtype=complex)
        mat[rows, cols], mat[cols, rows] = upper, lower
        mat[np.arange(n), np.arange(n)] = diagonal
        return mat

    smooth, split = kernels(0, r)
    smooth *= -1.0 / (4.0 * np.pi)
    split *= 0.25j
    split -= smooth * pairs.lsin
    core = pairs.kress * smooth + (2.0 * np.pi / n) * split
    split_diagonal = 0.25j - (np.euler_gamma + np.log(k * speed / 2.0)) / (2.0 * np.pi)
    diagonal = -pairs.kress_diagonal / (4.0 * np.pi) + (2.0 * np.pi / n) * split_diagonal
    single = dense(core, core, diagonal)
    single *= speed

    smooth, split = kernels(1, r)
    smooth *= -k * k / (4.0 * np.pi)
    split *= 0.25j * k
    split /= r
    split -= smooth * pairs.lsin
    core = pairs.kress * smooth + (2.0 * np.pi / n) * split
    v = ops.grid.velocity
    nu_x, nu_y = v[:, 1], -v[:, 0]
    upper = (nu_x[cols] * pairs.dx + nu_y[cols] * pairs.dy) * core
    lower = -(nu_x[rows] * pairs.dx + nu_y[rows] * pairs.dy) * core
    double = dense(upper, lower, ops.grid.curvature * speed / (2.0 * n))
    return single, double, double.T * (speed[None, :] / speed[:, None])


def _guarded_kernels(k):
    """The kernels of ``_whole_array_operators`` from ``bessel_j``/``hankel1`` at w = k·r."""
    from green3.specfun import bessel_j, hankel1

    def kernels(order, r):
        w = k * r
        j = bessel_j(order, w)
        return (j / w if order else j), hankel1(order, w)

    return kernels


@pytest.mark.parametrize("spec", ["disk", "kite", "ellipse:1.5,0.8"])
@pytest.mark.parametrize("n", [64, 256])
def test_chunked_pair_pass_changes_no_bit(monkeypatch, spec, n):
    """S, K, K* whatever the thread cap and chunk size, equal to whole-array assembly."""
    import sys

    import green3.potentials as potentials

    _, grid = curve_from_spec(spec, n)
    pairs = n * (n - 1) // 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches inside each chunk task
    try:
        for z in (-1.0 + 0.5j, -24.9 - 1.8j, 4.11 + 26.6j):
            ops = _LayerOperators(grid, z)
            reference = _whole_array_operators(ops, ops._table)
            for cap in ("1", "2", "8"):
                # the default, a ragged last chunk, and one chunk for all pairs
                for chunk in (potentials._TABLE_CHUNK, 1000, pairs):
                    monkeypatch.setenv("GREEN3_THREADS", cap)
                    monkeypatch.setattr(potentials, "_TABLE_CHUNK", chunk)
                    ops = _LayerOperators(grid, z)
                    got = (ops.single_layer, ops.double_layer, ops.adjoint_double_layer)
                    for mat, ref in zip(got, reference):
                        assert np.array_equal(mat, ref), (z, cap, chunk)
                    monkeypatch.undo()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("spec", ["disk", "kite", "ellipse:1.5,0.8"])
@pytest.mark.parametrize("n", [64, 256])
def test_real_z_operators_are_the_complex_route_to_the_bit(spec, n):
    """At real z < 0, S, K and K* are float64 and equal the real parts of the
    complex route through ``bessel_j``/``hankel1``, whose imaginary parts are 0."""
    _, grid = curve_from_spec(spec, n)
    for z in (-1e-3, -1.0, -30.0):
        ops = _LayerOperators(grid, z)
        reference = _whole_array_operators(ops, _guarded_kernels(ops.z.sqrt_z))
        got = (ops.single_layer, ops.double_layer, ops.adjoint_double_layer)
        for mat, ref in zip(got, reference):
            assert mat.dtype == np.float64
            assert not ref.imag.any()
            assert np.array_equal(mat, ref.real), z


@pytest.mark.parametrize("spec", ["disk", "kite"])
def test_laplace_operators_are_real(spec):
    """At z = 0 (the Laplace branch, no Bessel kernels) the bundle is float64 as well."""
    _, grid = curve_from_spec(spec, 64)
    ops = _LayerOperators(grid, 0.0)
    for mat in (ops.single_layer, ops.double_layer, ops.adjoint_double_layer):
        assert mat.dtype == np.float64 and np.all(np.isfinite(mat))


def test_two_bundles_build_s_at_the_same_time(monkeypatch):
    """Two threads, each with its own bundle on one shared grid, are inside
    ``single_layer`` together, and get the arrays of a serial build."""
    import threading

    import green3.potentials as potentials

    monkeypatch.setenv("GREEN3_THREADS", "1")
    meet = threading.Barrier(2, timeout=5.0)
    over_pairs = _LayerOperators._over_pairs

    def meeting(self, order, write):
        meet.wait()  # broken unless the other thread gets into single_layer as well
        return over_pairs(self, order, write)

    monkeypatch.setattr(potentials._LayerOperators, "_over_pairs", meeting)
    _, grid = curve_from_spec("kite", 64)
    zs = (-1.0, -2.0)
    got, errors = {}, []

    def build(z):
        try:
            got[z] = _LayerOperators(grid, z).single_layer
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(z,), daemon=True) for z in zs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    monkeypatch.undo()
    _, fresh = curve_from_spec("kite", 64)
    for z in zs:
        assert np.array_equal(got[z], _LayerOperators(fresh, z).single_layer)


@pytest.mark.parametrize("z", [-1.0 + 0.5j, -2.5, 0.0])
def test_adjoint_double_layer_never_forms_k(z):
    _, grid = curve_from_spec("kite", 96)
    ops = _LayerOperators(grid, z)
    adjoint = ops.adjoint_double_layer
    assert "double_layer" not in ops.__dict__
    speed = grid.speed
    assert np.array_equal(adjoint, ops.double_layer.T * (speed[None, :] / speed[:, None]))
