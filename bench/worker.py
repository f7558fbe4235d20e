"""Runs one workload's jobs through ``green3.cli.main`` in this process.

Started by ``run.py`` in a fresh interpreter with the thread settings pinned,
so its peak resident set is the workload's own.  Jobs run one at a time (a
closed loop with one client).  Each job's report is checked: a job fails if an
exception escapes ``main``, the exit code is not 0, the report is empty, a
residual is non-finite, or ``all_pass`` is false.  With ``--trace 1`` every job
runs twice, untraced and traced in alternating order, so the traced wall time
can be compared with the untraced one on the same jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import time
import traceback

import workloads


def _where(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    module = os.path.splitext(os.path.basename(frame.filename))[0]
    return f"{type(exc).__name__} in {module}.{frame.name}"


def judge(code, text: str):
    """(reason the job failed or None, whether the program claimed a pass)."""
    claimed = code == 0
    if code != 0:
        return f"exit {code}", claimed
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON", claimed
    rows = report.get("checks") or []
    if not rows:
        return "empty report", claimed
    for row in rows:
        residual = row.get("residual")
        if not isinstance(residual, (int, float)) or not math.isfinite(residual):
            return "non-finite residual", claimed
    if report.get("all_pass") is not True:
        return "all_pass is false", claimed
    return None, claimed


def run_job(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception as exc:  # the CLI let an error escape: record it and go on
        end = time.perf_counter()
        return {"seconds": end - start, "reason": _where(exc), "silent": False,
                "error": f"{type(exc).__name__}: {exc}"}
    end = time.perf_counter()
    reason, claimed = judge(code, out.getvalue())
    return {"seconds": end - start, "reason": reason, "silent": claimed and reason is not None,
            "error": err.getvalue().strip()[-300:] or None}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import green3.cli
    main_fn = green3.cli.main

    for argv in workloads.WARMUP[args.workload]:
        run_job(main_fn, argv + ["--omit-timing"])

    jobs = workloads.jobs(args.workload, args.seed, args.seconds)
    result = {"jobs": []}
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        traced_main = lambda argv: tracer.root(main_fn, argv)
        plain_s = traced_s = 0.0
        for i, argv in enumerate(jobs):
            if i % 2:
                plain_s += run_job(main_fn, argv)["seconds"]
            tracer.install()
            try:
                record = run_job(traced_main, argv)
            finally:
                tracer.uninstall()
            traced_s += record["seconds"]
            result["jobs"].append({"argv": argv, **record})
            if not i % 2:
                plain_s += run_job(main_fn, argv)["seconds"]
        result["layers"] = layer_metrics(tracer.spans)
        result["layers"]["trace.overhead_frac"] = traced_s / plain_s - 1.0
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    else:
        for argv in jobs:
            result["jobs"].append({"argv": argv, **run_job(main_fn, argv)})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
