"""Compare the reports of two green3 source trees on the benchmark's jobs.

    python3 tools/same_answers.py PARENT_DIR CHANGE_DIR

Each directory is a checkout of this repository.  The jobs are those of the
three workloads of ``bench/workloads.py`` (imported read-only from this
checkout) at seeds 1–3, each distinct argv once, and ``REAL_Z``: ``jumps``
and ``dtn`` at real z on each curve, where S is float64 and the densities
are complex, a solve path no benchmark job takes, and ``green-identity``
there, whose off-curve fields reach ``hankel1`` on the imaginary axis (at
z < 0) or the logarithm (at z = 0), as no benchmark job does.  Last come
the CLI examples of this checkout's README (seven), without ``--out PATH``,
which reach the CSV writer and the N = 256 real-z ``jumps`` and ``dtn``
paths; a CSV report carries no verdict, so its rows are read from the CSV
and its bytes compared as they are.  Each tree runs all of them in one
fresh interpreter, in process through ``green3.cli.main`` with
``--omit-timing``, on one thread.  The tool prints:

* every job whose exit code or verdict (``all_pass``) differs;
* per job kind (the subcommand, with ``--check`` for ``interval`` and
  ``README`` before a README example), how many reports are byte-identical;
* per check name, how many rows moved out of the total, the largest
  |Δresidual| over them, and the worst residual/tolerance in each tree, over
  the rows (check name and params) that both reports hold;
* the check names of rows that only one tree reports, with their counts.

It exits 1 if an exit code, a verdict or a report's list of rows differs,
else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SEEDS = (1, 2, 3)
SECONDS = 30.0  # the benchmark's run length, which sets the number of cycles per seed
REAL_Z = [[*run, "--curve", curve, "--nodes", "128", "--z", f"{z},0", "--omit-timing"]
          for run in (["jumps"], ["dtn", "--side", "interior"], ["dtn", "--side", "exterior"],
                      ["green-identity"])
          for curve in ("disk", "kite", "ellipse:1.5,0.8") for z in (-2, 0)]


def readme_examples() -> list:
    """The README's ``green3 ...`` lines as argv lists, each without ``--out PATH``."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    jobs = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("green3 "):
            argv = shlex.split(line)[1:]
            if "--out" in argv:
                del argv[argv.index("--out"):argv.index("--out") + 2]
            jobs.append([*argv, "--omit-timing"])
    return jobs


def distinct_jobs(workloads) -> list:
    seen, out = set(), []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for argv in workloads.jobs(name, seed, SECONDS):
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    out.append(argv)
    return out + REAL_Z


def _run_jobs() -> None:
    """In the child: read argv lists from stdin, print [code, stdout] per job."""
    from green3.cli import main

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append([code, out.getvalue()])
    json.dump(results, sys.stdout)


def tree_env(tree: Path) -> dict:
    """The environment of a child that imports ``tree``'s green3 and runs on one thread."""
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "GREEN3_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_tree(tree: Path, jobs: list) -> list:
    proc = subprocess.run([sys.executable, __file__, "--run-jobs"], input=json.dumps(jobs),
                          capture_output=True, text=True, env=tree_env(tree))
    if proc.returncode:
        sys.exit(f"the jobs of {tree} did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def kind(argv, readme) -> str:
    name = f"interval --check {argv[argv.index('--check') + 1]}" if argv[0] == "interval" else argv[0]
    return f"README {name}" if argv in readme else name


def is_csv(argv) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "csv"


def verdict(argv, text: str):
    """``all_pass`` of a JSON report; None for no report or a CSV one."""
    return json.loads(text)["all_pass"] if text and not is_csv(argv) else None


def report_rows(argv, text: str) -> dict:
    """(check name, params) -> row of a JSON or CSV report, in report order."""
    if is_csv(argv):
        rows = [{**row, "params": json.loads(row["params"])}
                for row in csv.DictReader(io.StringIO(text))]
    else:
        rows = json.loads(text)["checks"]
    return {(r["check"], json.dumps(r["params"], sort_keys=True)): r for r in rows}


def _worse(old: float, new: float) -> float:
    """The larger of the two, NaN once either is NaN."""
    return new if math.isnan(new) or new > old else old


def compare(jobs, parent, change, readme=()) -> bool:
    """Print the three tables; True if every exit code, verdict and row list is
    kept.  The jobs in ``readme`` are counted apart."""
    kept = True
    identical = defaultdict(lambda: [0, 0])
    moved = defaultdict(lambda: [0, 0, 0.0, 0.0, 0.0])  # moved, rows, largest |Δ|, worst r/tol × 2
    only = (defaultdict(int), defaultdict(int))  # rows per check name in one tree only
    for argv, (code0, out0), (code1, out1) in zip(jobs, parent, change):
        if code0 != code1 or verdict(argv, out0) != verdict(argv, out1):
            kept = False
            print(f"CHANGED exit {code0} -> {code1}, all_pass {verdict(argv, out0)} -> "
                  f"{verdict(argv, out1)}: green3 {' '.join(argv)}")
        identical[kind(argv, readme)][0] += out0 == out1
        identical[kind(argv, readme)][1] += 1
        if not (out0 and out1):
            continue
        rows0, rows1 = report_rows(argv, out0), report_rows(argv, out1)
        if list(rows0) != list(rows1):
            print(f"ROWS DIFFER: green3 {' '.join(argv)}")
            kept = False
            for key in rows0.keys() - rows1.keys():
                only[0][key[0]] += 1
            for key in rows1.keys() - rows0.keys():
                only[1][key[0]] += 1
        for r0, r1 in ((rows0[key], rows1[key]) for key in rows0 if key in rows1):
            entry = moved[r0["check"]]
            entry[1] += 1
            for i, row in ((3, r0), (4, r1)):
                residual, tolerance = float(row["residual"]), float(row["tolerance"])
                if tolerance:  # the indicator rows have tolerance 0 and residual 0 on a pass
                    entry[i] = _worse(entry[i], residual / tolerance)
            if r0["residual"] != r1["residual"]:
                entry[0] += 1
                entry[2] = _worse(entry[2], abs(float(r0["residual"]) - float(r1["residual"])))
    print(f"\n{len(jobs)} distinct jobs; exit codes, verdicts and row lists "
          f"{'all kept' if kept else 'NOT kept (above)'}\n")
    print("byte-identical reports per job kind")
    for name, (same, total) in sorted(identical.items()):
        print(f"  {name:32s} {same:5d} / {total}")
    for tree, counts in zip(("parent", "change"), only):
        for name, count in sorted(counts.items()):
            print(f"ROWS ONLY IN {tree}: {name} ({count})")
    print("\nper check: rows moved, largest |Δresidual|, worst residual/tolerance parent -> change")
    for name, (count, total, delta, ratio0, ratio1) in sorted(moved.items()):
        print(f"  {name:32s} {count:5d} / {total:<5d} {delta:9.3g}   {ratio0:.3g} -> {ratio1:.3g}")
    return kept


def main() -> int:
    if sys.argv[1:] == ["--run-jobs"]:
        _run_jobs()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    readme = readme_examples()
    jobs = distinct_jobs(workloads) + readme
    parent, change = run_tree(args.parent, jobs), run_tree(args.change, jobs)
    return 0 if compare(jobs, parent, change, readme) else 1


if __name__ == "__main__":
    sys.exit(main())
