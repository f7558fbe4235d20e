"""Bounded fuzzing of the disk-mode closed forms through ``green3.cli.main``.

Each example is one in-process run of ``krein`` or ``jumps --curve disk``.
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
        return
    rows = json.loads(stdout)["checks"]
    assert rows
    for row in rows:
        if row["passed"]:
            assert isinstance(row["residual"], float) and math.isfinite(row["residual"]), (argv, row)


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
