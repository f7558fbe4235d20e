"""Batch verification harness: every check suite behind one ``green3`` binary.

Each subcommand assembles a list of independent check tasks, runs them on the
process-wide worker pool (``green3._pool``: at most ``GREEN3_THREADS``
threads, the calling thread included, which runs the first task itself), and
emits a single report in JSON (versioned schema) or flat CSV.  Exit status is
the verdict: 0 all pass, 1 at least one residual above tolerance, 2 for
unusable input or when no check ran, 3 for an internal error.  Reports are
deterministic for a fixed config and seed once timing fields are omitted,
whatever the thread cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import coupling, interval_model
from ._pool import run_all
from .errors import (
    AccuracyRegionError,
    AnsatzResonanceError,
    ArgumentRangeError,
    BracketingError,
    ConfigurationError,
    EvaluationError,
    SingularityError,
    SpectralPoleError,
)
from .geometry import curve_from_spec
from .potentials import jump_relation_residuals
from .reports import ResidualReport, timed_check, worst
from .weyl import _mode_quotients

_USAGE_ERRORS = (
    AccuracyRegionError, AnsatzResonanceError, ArgumentRangeError, BracketingError,
    ConfigurationError, EvaluationError, SingularityError, SpectralPoleError,
)

_SUBCOMMANDS = ("jumps", "dtn", "green-identity", "krein", "indicator", "rellich", "interval")

# Dense work arrays of a run that assembles S, K, K*: about ten complex M×M
# matrices (the operators, a trace or LU, the pair arrays and kernel
# temporaries), M = 2N for the N-vs-2N self-convergence of jumps and dtn and
# M = N for indicator; green-identity evaluates fields at probes and
# assembles nothing.  A --nodes whose estimate exceeds the budget (N > 1294
# for jumps and dtn, N > 2590 for indicator) is rejected before any work.
_WORK_ARRAYS = 10
_WORK_BUDGET_BYTES = 2**30
_WORK_GRID = {"jumps": 2, "dtn": 2, "indicator": 1}


def _work_bytes(subcommand: str, nodes: int) -> int:
    """The dense-array estimate for ``--nodes``; 0 where the subcommand ignores it."""
    if subcommand not in _WORK_GRID:
        return 0
    return _WORK_ARRAYS * 16 * (_WORK_GRID[subcommand] * nodes) ** 2


def _parse_z(text: str):
    """'RE,IM' -> (re, im); anything else is a usage error before any work runs."""
    try:
        re_str, im_str = text.split(",")
        return (float(re_str), float(im_str))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")


def _parse_zgrid(text: str):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected re0:re1:count[:im], got {text!r}")
    try:
        re0, re1 = float(parts[0]), float(parts[1])
        count = int(parts[2])
        imag = float(parts[3]) if len(parts) == 4 else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected re0:re1:count[:im], got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"zgrid count must be >= 1, got {count}")
    return (re0, re1, count, imag)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, in JSON-stable form (z values as [re, im] pairs).

    The round-trip ``RunConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()``
    holds byte-for-byte; reports echo the config so results are reproducible."""

    subcommand: str
    curve: str = "disk"
    nodes: int = 256
    zs: tuple = ()
    modes: int = 8
    mode_list: tuple = ()
    side: str = "interior"
    check: str = "suite"
    ks: tuple = ()
    zgrid: tuple | None = None
    c_plus: float | None = None
    c_minus: float | None = None
    c_shift: float = 1.0
    out: str | None = None
    fmt: str = "json"
    seed: int = 0
    tol_scale: float = 1.0
    omit_timing: bool = False

    def __post_init__(self):
        if self.subcommand not in _SUBCOMMANDS:
            raise ConfigurationError(f"unknown subcommand {self.subcommand!r}")
        if self.fmt not in ("json", "csv"):
            raise ConfigurationError(f"format must be 'json' or 'csv', got {self.fmt!r}")
        object.__setattr__(self, "zs", tuple(tuple(z) for z in self.zs))
        object.__setattr__(self, "mode_list", tuple(int(m) for m in self.mode_list))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if self.zgrid is not None:
            object.__setattr__(self, "zgrid", tuple(self.zgrid))
        # a NaN or infinite number reaches no check it could fail: reject it here
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0.0):
            raise ConfigurationError(f"--tol-scale must be finite and > 0, got {self.tol_scale!r}")
        for flag, value in (("--c+", self.c_plus), ("--c-", self.c_minus), ("--c", self.c_shift)):
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{flag} must be finite, got {value!r}")
        numbers = [x for z in self.zs for x in z] + list(self.zgrid or ())
        if not all(map(math.isfinite, numbers)):
            raise ConfigurationError(f"--z and --zgrid values must be finite, got {numbers}")
        work = _work_bytes(self.subcommand, self.nodes)
        if work > _WORK_BUDGET_BYTES:
            raise ConfigurationError(
                f"--nodes {self.nodes} needs about {work / 2**30:.2f} GiB of dense work arrays "
                f"for {self.subcommand}, over the {_WORK_BUDGET_BYTES / 2**30:g} GiB budget")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))

    def z_values(self, default=()):
        pairs = self.zs if self.zs else tuple((complex(z).real, complex(z).imag) for z in default)
        return [complex(re, im) for re, im in pairs]


# ------------------------------------------------------------------ subcommands


def _reject_aliased_modes(cfg: RunConfig) -> None:
    """Modes at or above N/2 alias on the N-node grid; reject them before any assembly."""
    if 2 * cfg.modes >= cfg.nodes:
        raise ConfigurationError(
            f"{cfg.subcommand} modes must be below nodes/2 = {cfg.nodes / 2:g}, got {cfg.modes}")


def _jump_tasks(cfg: RunConfig) -> list:
    _reject_aliased_modes(cfg)
    curve, grid = curve_from_spec(cfg.curve, cfg.nodes)
    base = 1e-6 if curve.shape == "disk" else 1e-5
    tasks = []
    for z in cfg.z_values(default=(-1.0,)):
        tasks.append(lambda z=z: jump_relation_residuals(
            curve, grid, z, modes=cfg.modes, tolerance=base * cfg.tol_scale).checks)
    return tasks


def _dtn_tasks(cfg: RunConfig) -> list:
    """Mode-eigenvalue tables with a self-convergence residual per entry.

    The reference is the same quotient at 2N nodes, which is meaningful on
    every supported curve; on the disk both agree to rounding.  Only the
    Fourier columns of the rows are pushed through the Weyl map, never the
    dense map.  Modes at or above N/2 alias on the N-node grid and are
    rejected before any assembly; a negative ``--modes`` asks for no row and
    builds nothing."""
    _reject_aliased_modes(cfg)
    if cfg.modes < 0:
        return []
    curve, grid = curve_from_spec(cfg.curve, cfg.nodes)
    _, grid_fine = curve_from_spec(cfg.curve, 2 * cfg.nodes)
    tol = 1e-6 * cfg.tol_scale

    def one_z(z):
        coarse = _mode_quotients(cfg.side, grid, z, cfg.modes)
        fine = _mode_quotients(cfg.side, grid_fine, z, cfg.modes)
        rows = []
        for m in range(cfg.modes + 1):
            def entry(m=m):
                lam, ref = complex(coarse[m]), complex(fine[m])
                return abs(lam - ref) / (1.0 + abs(ref)), {"eigenvalue": ref}

            rows.append(timed_check(
                "weyl.dtn.mode",
                {"side": cfg.side, "curve": curve.shape, "n": cfg.nodes,
                 "z": [complex(z).real, complex(z).imag], "m": m},
                tol, entry,
            ))
        return rows

    return [lambda z=z: one_z(z) for z in cfg.z_values(default=(-1.0,))]


def _green_identity_tasks(cfg: RunConfig) -> list:
    curve, grid = curve_from_spec(cfg.curve, cfg.nodes)
    radii = np.linalg.norm(grid.points, axis=1)
    r_min, r_max = float(radii.min()), float(radii.max())
    interior = coupling.probe_ring(0.55 * r_min, 20)
    exterior = coupling.probe_ring(1.45 * r_max, 20)
    source_out = (2.1 * r_max * np.cos(0.4), 2.1 * r_max * np.sin(0.4))
    source_in = (0.3 * r_min * np.cos(-1.1), 0.3 * r_min * np.sin(-1.1))
    tol = 1e-7 * cfg.tol_scale

    def one_z(z):
        field = coupling.transmission_point_sources(z, source_out, source_in)
        return coupling.third_green_identity_residual(
            field, z, curve, grid, (interior, exterior), tolerance=tol).checks

    return [lambda z=z: one_z(z) for z in cfg.z_values(default=(-1.0,))]


def _krein_tasks(cfg: RunConfig) -> list:
    modes = cfg.mode_list if cfg.mode_list else tuple(range(cfg.modes + 1))
    tol = 1e-10 * cfg.tol_scale
    tasks = []
    for z in cfg.z_values(default=(-1.0,)):
        def one_z(z=z):
            rows = []
            for m in modes:
                params = {"z": [z.real, z.imag], "m": m, "c": cfg.c_shift}
                rows.append(timed_check(
                    "coupling.krein.mode", params, tol,
                    lambda m=m: coupling.krein_resolvent_disk_mode(z, m, c=cfg.c_shift)))
                rows.append(timed_check(
                    "coupling.mixed.mode", params, tol,
                    lambda m=m: coupling.mixed_resolvent_disk_mode(z, m, c=cfg.c_shift)))
            return rows

        tasks.append(one_z)
    return tasks


def _indicator_tasks(cfg: RunConfig) -> list:
    """Scan the coupled-eigenvalue indicator; a row fails where it collapses.

    The indicator is σ_min(M₊+M₋) = 1/σ_max(S(z − c)), an identity of the
    single-layer Weyl maps that needs the same shift c on both sides, so
    ``--c-`` must equal ``--c+`` when given.  A failing row marks a value below
    the floor rather than a broken identity."""
    shift = cfg.c_plus if cfg.c_plus is not None else 0.0
    if cfg.c_minus is not None and cfg.c_minus != shift:
        raise ConfigurationError(
            f"indicator needs equal side shifts; got --c+ {shift} and --c- {cfg.c_minus}")
    curve, grid = curve_from_spec(cfg.curve, cfg.nodes)
    floor = 1e-6 * cfg.tol_scale
    zs = cfg.z_values()
    if cfg.zgrid is not None:
        re0, re1, count, imag = cfg.zgrid
        zs.extend(complex(re, imag) for re in np.linspace(re0, re1, count))
    if not zs:
        zs = [complex(-1.0, 0.0)]

    def one_z(z):
        def entry():
            value = coupling.eigenvalue_indicator(z, curve, grid, c=shift)
            return worst((0.0, floor - value)), {"indicator": value, "floor": floor}

        return [timed_check(
            "coupling.indicator",
            {"z": [z.real, z.imag], "c": shift, "curve": curve.shape, "n": cfg.nodes},
            0.0, entry)]

    return [lambda z=z: one_z(z) for z in zs]


def _rellich_tasks(cfg: RunConfig) -> list:
    ks = cfg.ks if cfg.ks else (1, 2)
    tol = 1e-10 * cfg.tol_scale

    def one_k(k):
        def entry():
            lam, want = coupling.rellich_quotient(k)
            return abs(lam / want - 1.0), {"eigenvalue": lam, "reference": want}

        return [timed_check("coupling.rellich", {"k": k}, tol, entry)]

    return [lambda k=k: one_k(k) for k in ks]


def _interval_tasks(cfg: RunConfig) -> list:
    if cfg.check not in interval_model._TOLERANCE:
        raise ConfigurationError(f"interval check must be krein|mixed|green3|suite, got {cfg.check!r}")
    cp = cfg.c_plus if cfg.c_plus is not None else (1.0 if cfg.check == "green3" else 0.0)
    cm = cfg.c_minus if cfg.c_minus is not None else cp
    tol = interval_model._TOLERANCE[cfg.check] * cfg.tol_scale

    if cfg.check in ("krein", "mixed"):
        formula = (interval_model.krein_formula_check if cfg.check == "krein"
                   else interval_model.mixed_formula_check)
        return [lambda z=z: formula(z, cp, cm, tolerance=tol).checks
                for z in cfg.z_values(default=(-1.0,))]
    if cfg.check == "green3":
        return [lambda: _interval_green3_rows(cp, tol)]
    zs = cfg.z_values(default=(1j, 2j))
    return [lambda: interval_model.abstract_identity_suite(
        zs, cp, cm, seed=cfg.seed, tolerance=tol).checks]


def _interval_green3_rows(c: float, tolerance: float) -> list:
    """The 1D third Green identity on each reference family, labelled by family."""
    rows = []
    for label, fld in interval_model.GREEN3_FAMILIES.items():
        for row in interval_model.third_green_identity_1d(fld, c=c, tolerance=tolerance).checks:
            rows.append(replace(row, params={**row.params, "family": label}))
    return rows


_TASK_BUILDERS = {
    "jumps": _jump_tasks,
    "dtn": _dtn_tasks,
    "green-identity": _green_identity_tasks,
    "krein": _krein_tasks,
    "indicator": _indicator_tasks,
    "rellich": _rellich_tasks,
    "interval": _interval_tasks,
}


def run(config: RunConfig) -> int:
    """Execute the configured check suite and write its report; returns exit status.

    An exception outside ``_USAGE_ERRORS`` is a defect of the program, not a
    failed identity: it becomes one stderr line and exit 3, with no report."""
    try:
        return _run(config)
    except _USAGE_ERRORS as exc:
        print(f"green3: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"green3: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def _run(config: RunConfig) -> int:
    tic = time.perf_counter()
    tasks = _TASK_BUILDERS[config.subcommand](config)
    rows = [row for chunk in run_all(tasks) for row in chunk]
    if not rows:
        print("green3: no checks ran", file=sys.stderr)
        return 2
    report = ResidualReport(rows).sorted()
    if config.omit_timing:
        report = report.without_timing()
    elapsed = 0.0 if config.omit_timing else time.perf_counter() - tic
    if config.fmt == "json":
        text = report.to_json(command=config.subcommand, config=config.to_dict(),
                              wall_time_s=elapsed)
    else:
        text = report.to_csv()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_pass else 1


def _flags(*specs) -> argparse.ArgumentParser:
    """A parent parser holding the flags ``specs``, each (name, keyword arguments);
    a flag left out of the command line stays out of the namespace."""
    group = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for name, kwargs in specs:
        group.add_argument(name, **kwargs)
    return group


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags its checks read, so a flag it would
    ignore is a usage error (exit 2) that names the flag, as is ``krein --modes``
    with ``--mode``.  Defaults live only in ``RunConfig``."""
    shared = _flags(
        ("--out", {}),
        ("--format", dict(dest="fmt", choices=("json", "csv"))),
        ("--tol-scale", dict(type=float)),
        ("--omit-timing", dict(action="store_true",
                               help="zero the wall-time fields for byte-identical reruns")))
    curve = _flags(("--curve", dict(help="disk | ellipse:a,b | kite")))
    nodes = _flags(("--nodes", dict(type=int)))
    zs = _flags(("--z", dict(action="append", type=_parse_z, dest="zs", metavar="RE,IM")))
    modes = _flags(("--modes", dict(type=int)))
    shifts = _flags(("--c+", dict(dest="c_plus", type=float)),
                    ("--c-", dict(dest="c_minus", type=float)))
    planar = [curve, nodes, zs, shared]

    parser = argparse.ArgumentParser(
        prog="green3", description="Residual checks for coupled Helmholtz boundary triples.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subcommand = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)
    subcommand("jumps", parents=[*planar, modes], help="layer-potential trace/jump relations")
    dtn = subcommand("dtn", parents=[*planar, modes], help="Dirichlet-to-Neumann eigenvalue tables")
    dtn.add_argument("--side", choices=("interior", "exterior"))
    subcommand("green-identity", parents=planar,
               help="transmission third Green identity at point-source fields")
    krein = subcommand("krein", parents=[zs, shared], help="per-mode resolvent formulas on the disk")
    which = krein.add_mutually_exclusive_group()
    which.add_argument("--modes", type=int)
    which.add_argument("--mode", action="append", type=int, dest="mode_list")
    krein.add_argument("--c", dest="c_shift", type=float)
    indicator = subcommand("indicator", parents=[*planar, shifts],
                           help="coupled-eigenvalue indicator scan")
    indicator.add_argument("--zgrid", type=_parse_zgrid, metavar="RE0:RE1:COUNT[:IM]")
    rellich = subcommand("rellich", parents=[shared], help="Rellich eigenvalue quotients")
    rellich.add_argument("--k", action="append", type=int, dest="ks")
    interval = subcommand("interval", parents=[zs, shifts, shared],
                          help="closed-form 1D model checks")
    interval.add_argument("--check", choices=("krein", "mixed", "green3", "suite"))
    interval.add_argument("--seed", type=int)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses, built on its first call; parsing reads it
    and never changes it, so no value carries over from one run to the next."""
    return build_parser()


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    """The parsed flags, named as the ``RunConfig`` fields; a flag left out keeps
    the field's default."""
    return RunConfig(**vars(ns))


_NEGATIVE_VALUE_FLAGS = ("--z", "--c+", "--c-", "--zgrid")


def _absorb_negative_values(argv) -> list:
    """Join '--z -1,0' into '--z=-1,0' so argparse can't mistake the value for a flag."""
    merged = []
    it = iter(argv)
    for token in it:
        if token in _NEGATIVE_VALUE_FLAGS:
            value = next(it, None)
            if value is None:
                merged.append(token)
            else:
                merged.append(f"{token}={value}")
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _parser().parse_args(_absorb_negative_values(argv))
    try:
        config = config_from_args(ns)
    except ConfigurationError as exc:
        print(f"green3: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
