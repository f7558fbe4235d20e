import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from green3.errors import ConfigurationError, EvaluationError
from green3.geometry import (
    InterfaceCurve,
    QuadratureGrid,
    curve_from_spec,
    dirichlet_trace,
    make_curve,
    neumann_trace,
)
from green3.potentials import _OffCurve
from green3.specfun import fundamental_solution


def winding_number(grid, q):
    d = grid.points - q
    cross = d[:, 0] * grid.velocity[:, 1] - d[:, 1] * grid.velocity[:, 0]
    return np.sum(cross / np.sum(d * d, axis=1)) / grid.n


# ---------------------------------------------------------------- construction

def test_disk_length_is_exactly_two_pi():
    grid = make_curve("disk", 16)
    assert abs(grid.length - 2 * np.pi) <= 1e-14


def test_ellipse_length_matches_adaptive_oracle():
    grid = make_curve("ellipse", 256, a=2.0, b=1.0)
    assert grid.length == pytest.approx(oracles.ELLIPSE_2_1_LENGTH, rel=1e-12)


def test_kite_length_matches_adaptive_oracle():
    grid = make_curve("kite", 256)
    assert grid.length == pytest.approx(oracles.KITE_LENGTH, rel=1e-10)


def test_kite_length_converges_spectrally():
    """Doubling N=64 → 128 must buy at least four orders of magnitude."""
    err = [abs(make_curve("kite", n).length - oracles.KITE_LENGTH) for n in (64, 128)]
    assert err[0] / max(err[1], 1e-15) >= 1e4


def test_node_count_validation():
    with pytest.raises(ConfigurationError):
        make_curve("disk", 15)
    with pytest.raises(ConfigurationError):
        make_curve("disk", 6)


def test_unknown_shape_rejected():
    with pytest.raises(ConfigurationError):
        InterfaceCurve("square")


def test_bad_ellipse_axes_rejected():
    with pytest.raises(ConfigurationError):
        InterfaceCurve("ellipse", a=0.0, b=1.0)


@pytest.mark.parametrize("shape, a, b", [("disk", 2.0, 3.0), ("kite", 5.0, 0.1),
                                         ("disk", 1.0, np.nan), ("kite", 2.0, 1.0)])
def test_semi_axes_rejected_off_the_ellipse(shape, a, b):
    """Only the ellipse reads (a, b): a 2×3 'disk' would fail its closed-form
    rows under the disk's label, and a 'kite' would ignore them silently."""
    with pytest.raises(ConfigurationError, match="takes no semi-axes"):
        make_curve(shape, 64, a, b)


def test_curve_from_spec_parsing():
    curve = curve_from_spec("ellipse:2,1", 64).curve
    assert (curve.shape, curve.a, curve.b) == ("ellipse", 2.0, 1.0)
    assert curve_from_spec("kite", 64).curve.shape == "kite"
    with pytest.raises(ConfigurationError):
        curve_from_spec("ellipse:2", 64)
    with pytest.raises(ConfigurationError):
        curve_from_spec("disk:1", 64)


def test_grid_arrays_are_immutable():
    grid = make_curve("disk", 16)
    with pytest.raises(ValueError):
        grid.points[0, 0] = 5.0


# ---------------------------------------------------------------- differential data

def test_kite_normals_orthogonal_to_tangents():
    grid = make_curve("kite", 128)
    dots = np.sum(grid.normals * grid.velocity, axis=1)
    assert np.abs(dots).max() <= 1e-12
    assert np.abs(np.linalg.norm(grid.normals, axis=1) - 1).max() <= 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9), min_size=1, max_size=20))
def test_normal_unit_and_orthogonal_everywhere(ts):
    t = np.asarray(ts)
    for curve in (InterfaceCurve("disk"), InterfaceCurve("ellipse", a=2.0, b=0.7),
                  InterfaceCurve("kite")):
        n, v = curve.normal(t), curve.velocity(t)
        assert np.abs(np.sum(n * v, axis=-1)).max() <= 1e-12
        assert np.abs(np.linalg.norm(n, axis=-1) - 1).max() <= 1e-12


def test_orientation_counterclockwise():
    for grid in (make_curve("disk", 128), make_curve("ellipse", 128, a=2.0, b=1.0),
                 make_curve("kite", 128)):
        assert grid.signed_area() > 0


def test_disk_and_ellipse_areas():
    assert make_curve("disk", 64).signed_area() == pytest.approx(np.pi, rel=1e-13)
    assert make_curve("ellipse", 64, a=2.0, b=1.0).signed_area() == pytest.approx(
        2 * np.pi, rel=1e-13
    )


def test_normals_point_away_from_bounded_side():
    # winding number 1 just inside along -n⁺, 0 just outside along +n⁺
    for shape in ("disk", "kite"):
        grid = make_curve(shape, 512)
        for j in (0, 97, 240):
            x, n = grid.points[j], grid.normals[j]
            assert winding_number(grid, x - 0.08 * n) == pytest.approx(1.0, abs=1e-3)
            assert winding_number(grid, x + 0.08 * n) == pytest.approx(0.0, abs=1e-3)


def test_curvature_closed_forms():
    disk = make_curve("disk", 16).curve
    assert np.abs(disk.curvature(np.linspace(0, 6, 7)) - 1.0).max() <= 1e-14
    ell = InterfaceCurve("ellipse", a=2.0, b=1.0)
    assert ell.curvature(0.0) == pytest.approx(2.0, rel=1e-14)  # a/b²
    assert ell.curvature(np.pi / 2) == pytest.approx(0.25, rel=1e-14)  # b/a²


# ---------------------------------------------------------------- traces

def test_constant_field_traces():
    grid = make_curve("disk", 32)
    ones = dirichlet_trace(lambda p: np.ones(len(p)), grid)
    assert np.array_equal(ones, np.ones(32))
    zeros = neumann_trace(lambda p: np.zeros_like(p), grid)
    assert np.array_equal(zeros, np.zeros(32))


def test_linear_field_neumann_trace_both_sides():
    grid = make_curve("disk", 32)
    grad = lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))])  # of f = x
    plus = neumann_trace(grad, grid, side="+")
    minus = neumann_trace(grad, grid, side="-")
    assert np.abs(plus - np.cos(grid.nodes)).max() <= 1e-14
    assert np.array_equal(minus, -plus)  # n⁻ = −n⁺


@pytest.mark.parametrize("side, y0, z", [("+", (3.0, 0.0), -1.0), ("-", (0.2, -0.1), 2j)])
def test_neumann_trace_is_the_normal_difference_quotient(side, y0, z):
    """⟨n^side, ∇f⟩ matches the central difference of f along n^side, for a
    point source on the far side of the curve, so f is smooth across it."""
    grid = make_curve("kite", 64)
    y0 = np.asarray(y0)
    field = lambda p: fundamental_solution(2, z, np.linalg.norm(p - y0, axis=-1))
    trace = neumann_trace(lambda p: _OffCurve(z, p - y0, [(0, 0)]).gradient[:, 0], grid, side)
    step = 1e-5 * (grid.normals if side == "+" else -grid.normals)
    quotient = (field(grid.points + step) - field(grid.points - step)) / 2e-5
    assert np.abs(trace - quotient).max() <= 1e-7


def test_trace_guards():
    grid = make_curve("disk", 16)
    with pytest.raises(ConfigurationError):
        dirichlet_trace(lambda p: np.ones(len(p)), grid, side="x")
    with pytest.raises(ConfigurationError):
        neumann_trace(lambda p: np.zeros_like(p), grid, side="x")
    with pytest.raises(EvaluationError):
        dirichlet_trace(lambda p: np.full(len(p), np.nan), grid)
    with pytest.raises(EvaluationError):
        neumann_trace(lambda p: np.full_like(p, np.nan), grid)


def test_pair_layout_is_built_once_and_read_only():
    grid = curve_from_spec("kite", 16)
    pairs = grid._pairs
    assert grid._pairs is pairs
    assert pairs.r.size == 16 * 15 // 2
    for name in ("upper", "rows", "cols", "dx", "dy", "r", "kress", "lsin"):
        with pytest.raises(ValueError):
            getattr(pairs, name)[0] = 0


def test_pair_layout_is_built_once_by_many_threads_at_once(monkeypatch):
    """Eight threads ask a fresh grid for its layout together: one builds it,
    and all of them get that one object."""
    import sys
    import threading

    import green3.geometry as geometry

    builds = []

    class Counted(geometry._PairLayout):
        def __init__(self, grid):
            builds.append(grid.n)
            super().__init__(grid)

    monkeypatch.setattr(geometry, "_PairLayout", Counted)
    grid = curve_from_spec("kite", 64)
    start = threading.Barrier(8, timeout=10.0)
    seen = []

    def read():
        start.wait()
        seen.append(grid._pairs)

    threads = [threading.Thread(target=read, daemon=True) for _ in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == [64]
    assert len(seen) == 8 and all(pairs is seen[0] for pairs in seen)
