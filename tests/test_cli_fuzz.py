"""Bounded fuzzing of the closed forms through ``green3.cli.main``.

Each example is one in-process run of ``krein``, ``interval``, ``rellich``,
or ``jumps``, ``dtn``, ``indicator`` and ``green-identity`` on each curve.
Whatever the input, the run must end in a verdict (exit 0 or 1) or a usage
error (exit 2), never in an internal error, and a passing report must not
rest on a non-finite residual.  Warnings are errors under pytest, so an
overflow in the array arithmetic also shows up here as an internal error.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from green3.cli import main

_FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _spectral_points(smallest_exponent: int):
    """z = a·10^e·e^{iπk/6} with 1 <= a < 10, e from ``smallest_exponent`` to 2
    and k = 1..11 (off the positive real axis), and a few exact points."""
    modulus = st.builds(lambda a, e: a * 10.0 ** e, st.floats(1.0, 10.0, exclude_max=True),
                        st.integers(smallest_exponent, 2))
    polar = st.builds(lambda r, k: r * complex(math.cos(k * math.pi / 6), math.sin(k * math.pi / 6)),
                      modulus, st.integers(1, 11))
    return polar | st.sampled_from([0j, -1 + 0j, 1 + 0j, 2j])


def _z_flag(z: complex) -> list:
    return ["--z", f"{z.real!r},{z.imag!r}"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--omit-timing"])
    return code, out.getvalue(), err.getvalue()


def _assert_fail_closed(argv):
    code, stdout, stderr = _run(argv)
    assert code in (0, 1, 2), (argv, code, stderr)
    assert "internal error" not in stderr, (argv, stderr)
    if code == 2:
        assert stdout == ""
        return code
    rows = json.loads(stdout)["checks"]
    assert rows
    for row in rows:
        if row["passed"]:
            assert isinstance(row["residual"], float) and math.isfinite(row["residual"]), (argv, row)
    return code


@_FUZZ
@given(z=_spectral_points(-30), modes=st.integers(0, 300), c=st.floats(0.0, 50.0))
def test_krein_fails_closed(z, modes, c):
    _assert_fail_closed(["krein", *_z_flag(z), "--modes", str(modes), "--c", repr(c)])


@_FUZZ
@given(z=_spectral_points(-30), data=st.data())
def test_disk_jumps_fail_closed(z, data):
    # the draws start from N = 64 and the highest mode below N/2, where the
    # Bessel factors are most extreme
    half = 32 - data.draw(st.integers(0, 28), label="nodes below 64, halved")
    modes = half - 1 - data.draw(st.integers(0, half - 1), label="modes below N/2")
    nodes = 2 * half
    _assert_fail_closed(["jumps", "--curve", "disk", "--nodes", str(nodes), *_z_flag(z),
                         "--modes", str(modes)])


@_FUZZ
@given(ks=st.lists(st.integers(-5, 30), min_size=1, max_size=4))
def test_rellich_fails_closed(ks):
    # the tabulated zeros of J_0 are j_{0,1}..j_{0,15}; repeated --k flags append
    code = _assert_fail_closed(["rellich", *[arg for k in ks for arg in ("--k", str(k))]])
    assert code != 2 or not all(1 <= k <= 15 for k in ks), ks


@_FUZZ
@given(check=st.sampled_from(["krein", "mixed", "green3", "suite"]), z=_spectral_points(-30),
       shifts=st.lists(st.floats(-1.0, 1e5) | st.sampled_from([0.0, 3.0, 4e4]), max_size=2),
       seed=st.integers(0, 2**31 - 1))
def test_interval_fails_closed(check, z, shifts, seed):
    argv = ["interval", "--check", check, *_z_flag(z)]
    for flag, c in zip(("--c+", "--c-"), shifts):
        argv += [flag, repr(c)]
    _assert_fail_closed(argv + ["--seed", str(seed)])


@_FUZZ
@given(curve=st.sampled_from(["ellipse:1.5,0.8", "kite"]), half=st.integers(4, 32),
       z=_spectral_points(-30))
def test_off_disk_jumps_fail_closed(curve, half, z):
    # off the disk jumps reads no --modes, so the draws omit it
    _assert_fail_closed(["jumps", "--curve", curve, "--nodes", str(2 * half), *_z_flag(z)])


_CURVES = st.sampled_from(["disk", "ellipse:1.5,0.8", "kite"])


@_FUZZ
@given(curve=_CURVES, side=st.sampled_from(["interior", "exterior"]), z=_spectral_points(-30),
       data=st.data())
def test_dtn_fails_closed(curve, side, z, data):
    if curve != "disk" and data.draw(st.booleans(), label="N/2 reference runs"):
        # off the disk the rows need N a multiple of 4, N >= 16 and modes below N/4
        quarter = 16 - data.draw(st.integers(0, 12), label="nodes from 16 to 64, quartered")
        nodes = 4 * quarter
        modes = quarter - 1 - data.draw(st.integers(0, quarter - 1), label="modes below N/4")
    else:
        half = 32 - data.draw(st.integers(0, 28), label="nodes below 64, halved")
        nodes = 2 * half
        modes = half - 1 - data.draw(st.integers(0, half - 1), label="modes below N/2")
    _assert_fail_closed(["dtn", "--side", side, "--curve", curve, "--nodes", str(nodes),
                         *_z_flag(z), "--modes", str(modes)])


@_FUZZ
@given(curve=_CURVES, half=st.integers(4, 32), z=_spectral_points(-30),
       shift=st.none() | st.floats(-1.0, 1e3))
def test_indicator_fails_closed(curve, half, z, shift):
    argv = ["indicator", "--curve", curve, "--nodes", str(2 * half), *_z_flag(z)]
    _assert_fail_closed(argv + ([] if shift is None else ["--c+", repr(shift)]))


@_FUZZ
@given(curve=_CURVES, half=st.integers(48, 64), z=_spectral_points(-30))
def test_green_identity_fails_closed(curve, half, z):
    # at N <= 72 the interior probes sit inside the accuracy floor: every run exits 2
    _assert_fail_closed(["green-identity", "--curve", curve, "--nodes", str(2 * half),
                         *_z_flag(z)])
