"""The benchmark's span tracer (``bench/tracer.py``, loaded read-only by path)
wraps the public functions of every layer and reads some of their arguments.
Every kind of benchmark job must still run under it, or the traced benchmark
run fails jobs that pass untraced."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from green3.cli import main

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


_PLANAR = ["--curve", "kite", "--nodes", "128"]


@pytest.mark.parametrize("argv", [
    ["jumps", "--z", "2,1", *_PLANAR],
    ["dtn", "--modes", "4", "--z", "2,1", *_PLANAR],
    ["green-identity", "--z", "2,1", *_PLANAR],
    ["indicator", "--z", "-3,0", *_PLANAR],
    ["krein", "--z", "2,1", "--modes", "4", "--c", "0.5"],
    *[["interval", "--check", check, "--z", "1,1", "--c+", "0.5", "--c-", "2"]
      for check in ("krein", "mixed", "green3", "suite")],
    ["rellich", "--k", "2"],
], ids=lambda argv: " ".join(argv[:3]) if argv[0] == "interval" else argv[0])
def test_job_runs_traced(argv):
    spans = tracer.Tracer()
    out, err = io.StringIO(), io.StringIO()
    spans.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = spans.root(main, [*argv, "--omit-timing"])
    finally:
        spans.uninstall()
    assert code == 0, err.getvalue()
    assert tracer.layer_metrics(spans.spans)["cli.jobs"] == 1
