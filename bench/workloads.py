"""Seeded job lists for the green3 benchmark.

A job is one argv for ``green3.cli.main``.  The program receives only these
argv lists; everything random in them comes from the benchmark's ``--seed``.
Print a workload's jobs as plain command lines, so any job replays by hand::

    python3 bench/workloads.py --workload planar_complex --seed 3

A run is a whole number of cycles.  A cycle holds the same job templates on
every seed, and the seed fills in z, shifts, mode counts and scan ranges.  The
parameters that set a job's cost are stratified: each template takes a fixed
cell of the range in each cycle (a Latin square over cycles) or a stratified
draw, and the seed places the value inside its cell.  Each parameter keeps its
stated distribution, while the work per cycle, the sample count and the rank
of every percentile stay the same from seed to seed.  The number of cycles
follows from ``--seconds`` and the cycle's cost on the seed code on a 2-core
machine, so a run of a faster program measures the same jobs in less time.
"""

from __future__ import annotations

import argparse
import math
import shlex

import numpy as np

# Why each workload exists (one line each, also in BENCHMARK.json; bench/README.md has more).
WHY = {
    "planar_complex": "Nystrom assembly at complex z: hankel1/bessel_j on N^2 and (2N)^2 grids, "
                      "S/K/K* and the 2N DtN; green-identity is the rectangular-kernel control; "
                      "|z| reaches the bessel_j crash",
    "indicator_real": "indicator scans at real z < 0, N=256 and 512: two DtN maps per z, so linalg "
                      "and hankel1 at imaginary argument dominate; complex-only Hankel changes "
                      "must not move it",
    "closed_form": "krein, interval and rellich jobs: scalar specfun, Python loops, 1D quadrature, "
                   "report serialization and CLI overhead; no assembly, no linalg; setup_s "
                   "matters most here",
}

# Seconds one cycle takes on the seed code, 2 cores, GREEN3_THREADS=2, BLAS on 1 thread.
NOMINAL_CYCLE_S = {"planar_complex": 15.0, "indicator_real": 14.5, "closed_form": 0.9}

ELLIPSE = "ellipse:1.5,0.8"
PLANAR_NODES = 256

# bessel_j dies on an N x N assembly once |sqrt(z)| * diameter > 12: |z| > 16 on
# kite and ellipse (diameter 3), never on the disk (diameter 2) for |z| <= 32.
# Each group holds six templates.  In cycle c, template i draws |z| from octave
# (i + c) mod 6 of [0.5, 32] and arg z from sixth (5 i + c) mod 6 of [30, 270)
# degrees (a Latin square over cycles): every cycle covers each octave and each
# sixth once per group, so every cycle meets the crash exactly once, and six
# cycles give every template every octave.  The seed places z inside its cell.
_PLANAR_CRASH_PRONE = [
    ["jumps", "--curve", "kite"],
    ["dtn", "--side", "interior", "--curve", "kite"],
    ["jumps", "--curve", ELLIPSE],
    ["dtn", "--side", "exterior", "--curve", "kite"],
    ["dtn", "--side", "interior", "--curve", ELLIPSE],
    ["dtn", "--side", "exterior", "--curve", ELLIPSE],
]
_PLANAR_OTHER = [
    ["green-identity", "--curve", "disk"],
    ["jumps", "--curve", "disk"],
    ["green-identity", "--curve", "kite"],
    ["dtn", "--side", "interior", "--curve", "disk"],
    ["green-identity", "--curve", ELLIPSE],
    ["dtn", "--side", "exterior", "--curve", "disk"],
]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _z_arg(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


def _strata(rng, k: int) -> np.ndarray:
    """k draws in [0, 1), one in each of k equal strata, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def _planar_z(octave: int, sixth: int, rng) -> complex:
    """|z| log-uniform in [0.5, 32] and arg z uniform on [30, 270) degrees,
    which is exactly "Im z >= |z|/2 or Re z < 0", within the given cell."""
    modulus = 0.5 * 2.0 ** (octave + rng.random())
    theta = math.radians(30.0 + 40.0 * (sixth + rng.random()))
    return complex(modulus * math.cos(theta), modulus * math.sin(theta))


def _planar_cycle(rng, c: int) -> list:
    out = []
    for i, pair in enumerate(zip(_PLANAR_CRASH_PRONE, _PLANAR_OTHER)):
        for template in pair:  # heavy and light jobs interleave
            z = _planar_z((i + c) % 6, (5 * i + c) % 6, rng)
            out.append(template + ["--z", _z_arg(z), "--nodes", str(PLANAR_NODES)])
    return out


def _indicator_cycle(rng, c: int) -> list:
    """Each curve at N=256 with COUNT 4 and 8, and one N=512 scan with COUNT 4 on
    the disk (even cycles) or the kite (odd cycles): every cycle evaluates 24 z
    at N=256 and 4 at N=512.  RE0 and RE1 come from a fifth of their ranges
    each, in a Latin square over cycles."""
    specs = [("disk", 256, 4), ("kite", 256, 8), ("kite" if c % 2 else "disk", 512, 4),
             ("kite", 256, 4), ("disk", 256, 8)]
    jobs = []
    for i, (curve, n, count) in enumerate(specs):
        re0 = -12.0 + 8.0 * ((i + c) % 5 + rng.random()) / 5      # [-12, -4]
        re1 = -2.0 + 1.75 * ((2 * i + c) % 5 + rng.random()) / 5  # [-2, -0.25]
        jobs.append(["indicator", "--curve", curve, "--nodes", str(n),
                     "--zgrid", f"{_fmt(re0)}:{_fmt(re1)}:{count}"])
    return jobs


def _nonreal_z(rng) -> complex:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return complex(-5.0 + 10.0 * rng.random(), sign * (0.5 + 2.5 * rng.random()))


def _shift(rng) -> str:
    return _fmt(round(3.0 * rng.random(), 3))


def _closed_form_cycle(rng, c: int) -> list:
    modes = 4 + np.floor(17.0 * _strata(rng, 2)).astype(int)          # 4..20
    ks = 1 + np.floor(6.0 * _strata(rng, 2)).astype(int)              # 1..6
    jobs = []
    for m in modes:
        jobs.append(["krein", "--z", _z_arg(_nonreal_z(rng)), "--modes", str(m), "--c", _shift(rng)])
    for check in ("krein", "mixed", "green3", "suite"):
        zs = [_nonreal_z(rng) for _ in range(2 if check == "suite" else 1)]
        job = ["interval", "--check", check]
        for z in zs:
            job += ["--z", _z_arg(z)]
        jobs.append(job + ["--c+", _shift(rng), "--c-", _shift(rng)])
    for k in ks:
        jobs.append(["rellich", "--k", str(k)])
    return [jobs[i] for i in (0, 2, 6, 3, 1, 4, 7, 5)]  # mix costly and cheap jobs


_CYCLES = {
    "planar_complex": _planar_cycle,
    "indicator_real": _indicator_cycle,
    "closed_form": _closed_form_cycle,
}

# Small jobs on the same code paths, run once before timing so first-call costs
# (imports inside numpy, page faults of the first large arrays) stay out of the samples.
WARMUP = {
    "planar_complex": [["jumps", "--curve", "kite", "--z", "-1,1", "--nodes", "32"],
                       ["dtn", "--curve", "disk", "--z", "-1,1", "--nodes", "32"],
                       ["green-identity", "--curve", "kite", "--z", "-1,1", "--nodes", "32"]],
    "indicator_real": [["indicator", "--curve", "kite", "--nodes", "32", "--zgrid", "-2:-1:2"]],
    "closed_form": [["krein", "--z", "1,1", "--modes", "2"],
                    ["interval", "--check", "suite"], ["rellich", "--k", "1"]],
}

WORKLOADS = tuple(_CYCLES)


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def jobs(workload: str, seed: int, seconds: float) -> list:
    """The run's argv lists, each ending in --omit-timing."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    for c in range(cycles_for(workload, seconds)):
        out.extend(job + ["--omit-timing"] for job in _CYCLES[workload](rng, c))
    return out


def command_line(argv) -> str:
    return "green3 " + shlex.join(argv)


def main() -> None:
    parser = argparse.ArgumentParser(description="Print a workload's jobs as green3 command lines.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    print(f"# {args.workload}: {WHY[args.workload]}")
    for argv in jobs(args.workload, args.seed, args.seconds):
        print(command_line(argv))


if __name__ == "__main__":
    main()
