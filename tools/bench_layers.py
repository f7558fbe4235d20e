"""Time the layers of a green3 source tree and replay the benchmark's jobs, into BENCH_<tag>.json.

    python3 tools/bench_layers.py TREE --tag TAG

TREE is a checkout of this repository; the file goes to the root of the
checkout this tool sits in.  Everything runs in one fresh interpreter that
imports TREE's green3, on one core: one BLAS thread and GREEN3_THREADS = 1.

* **Layer rows**, on the disk and the kite at N in ``NODES`` and z in
  ``ZS``, each timed ``REPEATS`` times after one untimed call, with the
  best, the median and the interquartile range of the samples:

  - ``S``: a fresh bundle's S, the kernel table build included at complex z;
  - ``S+K+K*``: a fresh bundle's S, K and K*, the one pair pass of each of
    the two kernel orders;
  - ``spectrum.svd``: ``np.linalg.svd`` of S, the values alone;
  - ``spectrum.eigvalsh``: at real z, H = D^{1/2}SD^{−1/2} (D = diag(speed))
    scaled from S and ``np.linalg.eigvalsh`` of H;
  - ``spectrum.bundle``: the tree's own ``single_layer_singular_values`` on a
    bundle whose S is already built, the route the ``indicator`` rows take;
  - ``lu+solve8``: the tree's guarded LU of that S plus ``solve`` of 8
    complex columns, the route of the Weyl maps;
  - ``E+∇E``: a fresh ``_OffCurve.layer`` on the grid and the 40 probes of
    ``potentials._placement``, its E and its ∇E: the off-curve kernel of a
    ``green-identity`` row.

* **Report row** (``report``): the 26 rows of a ``krein --modes 12`` job
  built with the public ``green3.check_row``, then one ``ResidualReport``,
  ``sorted``, ``without_timing`` and ``to_json`` with the job's config echo,
  timed as the layer rows are; the same public calls on every tree.

* **Job rows**: each argv of ``JOBS``, a ``krein`` job of 17 modes and a
  disk ``jumps`` job, run in process through ``green3.cli.main`` and timed
  as the layer rows are; the argv is the same on every tree, so the rows
  compare the disk-mode factors of two trees through no private name.

* **Replay rows**: the seed-1 job list of each workload of
  ``bench/workloads.py`` (imported read-only from this checkout) at the
  benchmark's 30 s, run in process through ``green3.cli.main`` after the
  workload's warm-up jobs, timed as a whole ``REPEATS`` times, with the exit
  codes of the first run.

* **Provenance**: Python, numpy, scipy, the BLAS, the CPU count, the thread
  caps, TREE's git revision (null outside a git work tree), whether its
  ``src/`` differs from that revision, and a hash of its ``src/green3``
  modules.

The file carries numbers only, no verdict; it changes no report and nothing
under ``bench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

CURVES = ("disk", "kite")
NODES = (128, 256, 512)
ZS = (-3.0, 2.0 + 1.0j)
COLUMNS = 8  # densities per solve, as in a dtn run's mode columns
JOBS = (["krein", "--z", "2,1", "--modes", "16", "--c", "1", "--omit-timing"],
        ["jumps", "--curve", "disk", "--nodes", "256", "--modes", "8", "--z", "2,1",
         "--omit-timing"])
REPORT_MODES = 12  # the report row's krein job: two rows per mode 0..12
REPEATS = 7  # timed samples per row
HERE = Path(__file__).resolve().parent


def _stats(samples: list) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"best_s": min(samples), "median_s": statistics.median(samples), "iqr_s": q3 - q1,
            "repeats": len(samples)}


def _timed(work) -> dict:
    work()
    samples = []
    for _ in range(REPEATS):
        tic = time.perf_counter()
        work()
        samples.append(time.perf_counter() - tic)
    return _stats(samples)


def _layer_rows() -> list:
    import numpy as np
    from green3.coupling import probe_ring
    from green3.geometry import curve_from_spec
    from green3.potentials import _LayerOperators, _OffCurve, _placement

    rows, rng = [], np.random.default_rng(0)
    for curve in CURVES:
        for n in NODES:
            grid = curve_from_spec(curve, n)
            root = np.sqrt(grid.speed)
            probes = np.concatenate([probe_ring(*ring) for ring in _placement(grid)[2]])
            phis = rng.normal(size=(n, COLUMNS)) + 1j * rng.normal(size=(n, COLUMNS))
            for z in ZS:
                s = _LayerOperators(grid, z).single_layer

                def built(z=z, s=s):  # a bundle whose S is s
                    ops = _LayerOperators(grid, z)
                    ops.single_layer = s
                    return ops

                def eigvalsh(s=s):
                    h = s * root[:, None]
                    h /= root
                    return np.linalg.eigvalsh(h)

                def operators(z=z):
                    ops = _LayerOperators(grid, z)
                    return ops.single_layer, ops.double_layer, ops.adjoint_double_layer

                def fields(z=z):
                    kernel = _OffCurve.layer(grid, z, probes, True)
                    return kernel.value, kernel.gradient

                work = {"S": lambda z=z: _LayerOperators(grid, z).single_layer,
                        "S+K+K*": operators,
                        "spectrum.svd": lambda s=s: np.linalg.svd(s, compute_uv=False),
                        "spectrum.eigvalsh": eigvalsh if s.dtype == float else None,
                        "spectrum.bundle": lambda: built().single_layer_singular_values,
                        "lu+solve8": lambda: built().solve(phis),
                        "E+∇E": fields}
                for layer, call in work.items():
                    if call is not None:
                        rows.append({"layer": layer, "curve": curve, "n": n,
                                     "z": [z.real, z.imag], **_timed(call)})
    return rows


def _report_row() -> dict:
    from green3 import ResidualReport, check_row
    from green3.cli import RunConfig

    config = RunConfig(subcommand="krein", zs=((2.0, 1.0),), modes=REPORT_MODES,
                       omit_timing=True).to_dict()

    def write():
        rows = [check_row(name, {"z": [2.0, 1.0], "m": m, "c": 1.0}, 1e-15 * (m + 1), 1e-10,
                          wall_time_s=1e-5)
                for m in range(REPORT_MODES + 1)
                for name in ("coupling.krein.mode", "coupling.mixed.mode")]
        report = ResidualReport(rows).sorted().without_timing()
        return report.to_json(command="krein", config=config)

    return {"layer": "report", "rows": 2 * (REPORT_MODES + 1), **_timed(write)}


def _run(argv) -> int:
    from green3.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _job_rows() -> list:
    return [{"job": " ".join(argv), "exit_code": _run(argv), **_timed(lambda argv=argv: _run(argv))}
            for argv in JOBS]


def _replay_rows() -> list:
    import same_answers
    import workloads

    rows = []
    for name in workloads.WORKLOADS:
        for argv in workloads.WARMUP[name]:
            _run(argv)
        jobs = workloads.jobs(name, 1, same_answers.SECONDS)
        codes = Counter(str(_run(argv)) for argv in jobs)
        rows.append({"workload": name, "seed": 1, "jobs": len(jobs), "exit_codes": dict(codes),
                     **_timed(lambda: [_run(argv) for argv in jobs])})
    return rows


def _measure() -> None:
    """In the child: print the layer rows and the report row, the job rows,
    the replay rows and the child's library versions as one JSON object."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    json.dump({"layers": [*_layer_rows(), _report_row()], "jobs": _job_rows(),
               "replay": _replay_rows(),
               "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                            "scipy": scipy.__version__,
                            "blas": f"{blas.get('name')} {blas.get('version')}"}},
              sys.stdout)


def _git(tree: Path, *args):
    """The output of ``git args`` in ``tree``, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "green3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    sys.dont_write_bytecode = True  # leave bench/ and tools/ as they are
    sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]
    if sys.argv[1:] == ["--measure"]:
        _measure()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="checkout of this repository")
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    args = parser.parse_args()
    import same_answers

    env = {**same_answers.tree_env(args.tree), "PYTHONDONTWRITEBYTECODE": "1"}
    tic = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--measure"], capture_output=True, text=True,
                          env=env)
    if proc.returncode:
        sys.exit(f"the measurements of {args.tree} did not run:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    provenance = {**result.pop("versions"), "platform": platform.platform(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "threads": {var: env[var] for var in ("GREEN3_THREADS", "OPENBLAS_NUM_THREADS",
                                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
                  "git_rev": _git(args.tree, "rev-parse", "HEAD"),
                  "src_changed_since_rev": bool(_git(args.tree, "status", "--porcelain", "src")),
                  "src_sha256": _src_sha256(args.tree),
                  "wall_s": time.perf_counter() - tic}
    out = HERE.parent / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({"provenance": provenance, **result}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
