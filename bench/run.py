"""green3 benchmark: seeded CLI workloads, end-to-end metrics, a traced run per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload planar_complex --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload in turn

The program is imported from ``src/``; nothing is installed.  Every child
interpreter gets GREEN3_THREADS = number of usable cores and one BLAS/OpenMP
thread, set before numpy is imported.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it print the same numbers with their units,
the failure breakdown, the failing command lines and the run's provenance.
A record of the run, and with tracing its spans, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
SETUP_REPEATS = 6
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10

IMPORT_PROBE = ("import time; t = time.perf_counter(); import green3.cli; "
                "print(time.perf_counter() - t)")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GREEN3_THREADS"] = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args, deadline, **kwargs):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(args, 0)
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=timeout, **kwargs)


def setup_seconds(repeats: int, deadline) -> list:
    """Wall times of ``import green3.cli``, each in a fresh interpreter."""
    return [float(python(["-c", IMPORT_PROBE], deadline).stdout.split()[-1])
            for _ in range(repeats)]


def import_breakdown(deadline) -> dict:
    """Median over fresh interpreters of ``-X importtime``: green3's own modules
    (self time) and scipy.optimize (cumulative)."""
    green3_self, optimize = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = python(["-X", "importtime", "-c", "import green3.cli"], deadline).stderr
        own = opt = 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
                continue
            self_us, cum_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
            if name == "green3" or name.startswith("green3."):
                own += self_us * 1e-6
            elif name == "scipy.optimize":
                opt = cum_us * 1e-6
        green3_self.append(own)
        optimize.append(opt)
    return {"setup.import.green3_self_s": statistics.median(green3_self),
            "setup.import.scipy_optimize_s": statistics.median(optimize)}


def provenance(seed: int, trace: int, deadline) -> dict:
    probe = ("import json, numpy, scipy; d = numpy.show_config(mode='dicts'); "
             "b = d['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, scipy.__version__, b.get('name'), b.get('version')]))")
    numpy_v, scipy_v, blas, blas_v = json.loads(python(["-c", probe], deadline).stdout)
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "green3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    env = child_env()
    return {"python": platform.python_version(), "numpy": numpy_v, "scipy": scipy_v,
            "blas": f"{blas} {blas_v}", "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "nproc": nproc(), "GREEN3_THREADS": env["GREEN3_THREADS"],
            "git_rev": git_rev(), "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "trace": bool(trace)}


def git_rev():
    """HEAD of the checkout, or None where it is not a git work tree (or git is missing)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tail(times: list):
    """(value, percentile, n): the highest rank with at least TAIL_BEYOND correct
    jobs beyond it.  When that rank would lie below the median (fewer than
    2 * TAIL_BEYOND + 1 jobs), the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * rank / (n - 1) if n > 1 else 100.0, n


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline) -> dict:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    record = {"workload": workload, "why": workloads.WHY[workload],
              "provenance": provenance(seed, trace, deadline)}
    python(["-c", "import green3.cli"], deadline)  # may write bytecode caches: not counted
    if trace:
        layers = import_breakdown(deadline)
    else:
        # half the set-up samples before the jobs and half after, so a run's
        # median does not rest on one short stretch of machine state
        record["setup_samples_s"] = setup_seconds(SETUP_REPEATS // 2, deadline)
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", stem + ".worker.json"]
    if trace:
        args += ["--spans", stem + ".spans.jsonl"]
    python(args, deadline)
    with open(stem + ".worker.json") as fh:
        worker = json.load(fh)
    if not trace:
        record["setup_samples_s"] += setup_seconds(SETUP_REPEATS - SETUP_REPEATS // 2, deadline)
    jobs = worker["jobs"]
    ok = [job["seconds"] for job in jobs if job["reason"] is None]
    failed = [job for job in jobs if job["reason"] is not None]
    record.update({
        "attempted": len(jobs), "failed": len(failed),
        "correct": not any(job["silent"] for job in jobs),
        "fail_frac": len(failed) / len(jobs),
        "fail_reasons": dict(Counter(job["reason"] for job in failed)),
        "failing_jobs": [workloads.command_line(job["argv"]) for job in failed],
        "jobs": jobs,
    })
    if trace:
        layers.update(worker["layers"])
        layers["cli.fail_frac"] = record["fail_frac"]
        record["spans"] = worker["spans"]
        record["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                             for name, value in layers.items()}
    else:
        tail_s, tail_pct, n_ok = tail(ok) if ok else (0.0, 0.0, 0)
        record["tail"] = {"percentile": tail_pct, "correct_jobs": n_ok}
        record["metrics"] = {
            "setup_s": {"value": statistics.median(record["setup_samples_s"]), "unit": "s"},
            "ok_jobs_per_s": {"value": len(ok) / sum(job["seconds"] for job in jobs), "unit": "jobs/s"},
            "job_p50_s": {"value": statistics.median(ok) if ok else 0.0, "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def unit_of(name: str) -> str:
    from tracer import UNITS
    return "s" if name.startswith("setup.") else UNITS[name.rsplit(".", 1)[-1]]


def summary(record: dict) -> list:
    p = record["provenance"]
    lines = [
        f"# workload {record['workload']}  seed {p['seed']}  trace {'on' if p['trace'] else 'off'}",
        f"# why: {record['why']}",
        f"# python {p['python']}  numpy {p['numpy']}  scipy {p['scipy']}  blas {p['blas']} "
        f"(threads {p['blas_threads']})  nproc {p['nproc']}  GREEN3_THREADS {p['GREEN3_THREADS']}  "
        f"git {p['git_rev']}  src {p['src_sha256']}",
        f"fail_frac {record['fail_frac']:.4f} ratio  ({record['failed']} failed of "
        f"{record['attempted']} attempted)  reasons {json.dumps(record['fail_reasons'])}",
    ]
    lines += [f"#   failed: {argv}" for argv in record["failing_jobs"]]
    for name, m in record["metrics"].items():
        note = ""
        if name == "job_tail_s":
            note = (f"  (p{record['tail']['percentile']:.1f} of {record['tail']['correct_jobs']} "
                    f"correct jobs)")
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{note}")
    return lines


def result_line(record: dict) -> dict:
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "green3", "cli.py")):
        print(f"bench: no green3 sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(summary(record)), flush=True)
            results[name] = result_line(record)
    except subprocess.CalledProcessError as exc:
        print(f"bench: {exc.cmd[1:3]} exited {exc.returncode}\n{exc.stderr[-2000:]}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired:
        print(f"bench: past the {DEADLINE_S:g} s deadline", file=sys.stderr)
        return 4
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
