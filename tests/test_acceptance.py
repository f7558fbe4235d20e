"""Acceptance gate: one test per release criterion, strict parameters and runtimes.

Each test pins the exact grids, tolerances and sample points of its criterion
and asserts its wall-clock budget; `pytest -v tests/test_acceptance.py` prints
one pass/fail line per criterion.
"""

import contextlib
import io
import json
import time

import numpy as np
from scipy import special as sp

import oracles
from green3.cli import main
from green3.coupling import (
    probe_ring,
    rellich_quotient,
    third_green_identity_residual,
    transmission_point_sources,
)
from green3.geometry import make_curve
from green3.interval_model import (
    GREEN3_FAMILIES,
    coupled_eigenvalues,
    krein_formula_check,
    mixed_formula_check,
    third_green_identity_1d,
)
from green3.potentials import jump_relation_residuals
from green3.specfun import bessel_j, fundamental_solution, hankel1
from green3.weyl import herglotz_residuals

Z_SWEEP = (-1.0, 2j, 1 + 1j)
SHIFT_SWEEP = ((0.0, 0.0), (0.0, 5.0))


def cli_rows(*argv):
    """The report rows of one in-process ``green3`` run, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())["checks"]


def test_A01_interval_krein_formula():
    tic = time.perf_counter()
    for z in Z_SWEEP:
        for c_plus, c_minus in SHIFT_SWEEP:
            report = krein_formula_check(z, c_plus, c_minus)
            assert len(report.checks) == 5
            assert report.max_residual <= 1e-8, (z, c_plus, c_minus, report.max_residual)
    assert time.perf_counter() - tic < 5.0


def test_A02_interval_mixed_formula_and_res01():
    tic = time.perf_counter()
    for z in Z_SWEEP:
        for c_plus, c_minus in SHIFT_SWEEP:
            report = mixed_formula_check(z, c_plus, c_minus)
            names = [row.check for row in report.checks]
            assert names.count("interval.mixed") == 5
            assert names.count("interval.res01") == 5
            assert report.max_residual <= 1e-8, (z, c_plus, c_minus, report.max_residual)
    assert time.perf_counter() - tic < 5.0


def test_A03_coupled_eigenvalue_criterion():
    tic = time.perf_counter()
    roots = coupled_eigenvalues(0.0, 0.0, 3)
    want = np.array([oracles.HALF_PI_SQ, oracles.THREE_HALF_PI_SQ, oracles.FIVE_HALF_PI_SQ])
    assert np.abs(roots / want - 1.0).max() <= 1e-10
    # the stated root set governs; its third member (5π/2)² = 61.69 sits just
    # past the nominal (0, 60) search window
    excluded = np.array([(k * np.pi) ** 2 for k in (1, 2, 3)])
    assert np.abs(roots[:, None] - excluded[None, :]).min() > 1.0
    assert time.perf_counter() - tic < 1.0


def test_A04_third_green_identity_1d():
    tic = time.perf_counter()
    for field in GREEN3_FAMILIES.values():
        report = third_green_identity_1d(field, c=1.0)
        assert report.max_residual <= 1e-8
    assert time.perf_counter() - tic < 2.0


def test_A05_third_green_identity_planar():
    tic = time.perf_counter()
    # probes close to the interface: far probes are trig-exact even at N=64,
    # which would hide the required quadrature refinement
    probes = (probe_ring(0.875, 20), probe_ring(1.125, 20))
    field = transmission_point_sources(-1.0, (2.3, 0.9), (0.2, -0.1))

    grid = make_curve("disk", 256)
    fine = third_green_identity_residual(field, -1.0, grid, probes, tolerance=1e-7)
    assert fine.all_pass and fine.max_residual <= 1e-7

    grid64 = make_curve("disk", 64)
    coarse = third_green_identity_residual(field, -1.0, grid64, probes,
                                           tolerance=1e-7, enforce_accuracy_region=False)
    assert coarse.max_residual / fine.max_residual >= 1e3
    assert time.perf_counter() - tic < 30.0


def test_A06_jump_relations():
    tic = time.perf_counter()
    grid = make_curve("disk", 256)
    disk_report = jump_relation_residuals(grid, -1.0, modes=8)
    assert disk_report.all_pass and disk_report.max_residual <= 1e-6

    kite_grid = make_curve("kite", 256)
    kite_report = jump_relation_residuals(kite_grid, -1.0, modes=8)
    assert [row.check for row in kite_report.checks] == ["jump.calderon.exterior",
                                                         "jump.calderon.interior",
                                                         "weyl.dtn.point_source",
                                                         "weyl.dtn.point_source"]
    assert kite_report.all_pass and kite_report.max_residual <= 1e-5
    assert time.perf_counter() - tic < 60.0


def test_A07_dtn_spectral_accuracy():
    tic = time.perf_counter()
    rows = cli_rows("dtn", "--curve", "disk", "--nodes", "256", "--side", "interior",
                    "--modes", "4", "--z", "-1,0", "--z", "-1e-6,0")
    eigenvalue = {(row["params"]["z"][0], row["params"]["m"]):
                  complex(row["details"]["eigenvalue"]["re"], row["details"]["eigenvalue"]["im"])
                  for row in rows if row["check"] == "weyl.dtn.mode"}
    assert abs(eigenvalue[-1.0, 0] - oracles.NEG_I1_OVER_I0) <= 1e-8
    for m in (1, 2, 3, 4):  # the Steklov limit
        assert abs(eigenvalue[-1e-6, m] - (-m)) <= 1e-3
    assert time.perf_counter() - tic < 30.0


def test_A08_herglotz_suite():
    tic = time.perf_counter()
    grid = make_curve("disk", 128)
    for z in (1j, 2j):
        report = herglotz_residuals("interior", grid, z)
        rows = {row.check: row for row in report.checks}
        assert rows["herglotz.psd"].residual <= 1e-6  # max(0, −λ_min) of the symmetrized part
        assert rows["herglotz.identity"].residual <= 1e-6
        assert report.all_pass
    assert time.perf_counter() - tic < 60.0


def test_A09_per_mode_resolvent_formulas():
    tic = time.perf_counter()
    rng = np.random.default_rng(20260823)
    zs = rng.uniform(-3.0, 3.0, 5) + 1j * rng.uniform(0.5, 3.0, 5)
    for z in map(complex, zs):
        rows = cli_rows("krein", "--z", f"{z.real!r},{z.imag!r}", "--modes", "16", "--c", "1")
        assert len(rows) == 34  # the Krein and the mixed row of each mode m = 0..16
        for row in rows:
            assert row["residual"] <= 1e-10, row
    assert time.perf_counter() - tic < 5.0


def test_A10_rellich_identity():
    tic = time.perf_counter()
    for k in (1, 2):
        lam, want = rellich_quotient(k)
        assert abs(lam / want - 1.0) <= 1e-10
    assert time.perf_counter() - tic < 1.0


def test_A12_special_function_invariants():
    tic = time.perf_counter()
    rng = np.random.default_rng(20260823)
    w = rng.uniform(0.2, 40.0, 100) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, 100))
    target = 2j / (np.pi * w)
    for m in (0, 1, 5, 12, 20):
        wron = bessel_j(m, w) * sp.h1vp(m, w) - sp.jvp(m, w) * hankel1(m, w)
        assert (np.abs(wron - target) / np.abs(target)).max() <= 1e-10
    for m in (1, 4, 12):
        lhs = hankel1(m - 1, w) + hankel1(m + 1, w)
        rhs = (2.0 * m / w) * hankel1(m, w)
        assert (np.abs(lhs - rhs) / np.abs(rhs)).max() <= 1e-9

    h = 1e-3
    for _ in range(12):
        radius = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        x = np.array([radius * np.cos(theta), radius * np.sin(theta)])
        u = lambda p: fundamental_solution(2, -1.0, float(np.hypot(p[0], p[1])))
        lap = (u(x + [h, 0]) + u(x - [h, 0]) + u(x + [0, h]) + u(x - [0, h]) - 4 * u(x)) / h**2
        assert abs(-lap - (-1.0) * u(x)) <= 1e-5
    assert time.perf_counter() - tic < 5.0
