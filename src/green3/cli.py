"""Batch verification harness: every check suite behind one ``green3`` binary.

Each subcommand assembles a list of independent check tasks (one per z in a
scan), runs them with ``run_all`` and emits a single report in JSON
(versioned schema) or flat CSV.  A run of one task runs it in the calling
thread; a run of several gets an executor of its own with at most
``GREEN3_THREADS`` threads, and a task does all of its work, its layer
bundles included, in its own thread.  Exit status is the verdict: 0 all
pass, 1 at least one residual above tolerance, 2 for unusable input or when
no check ran, 3 for an internal error.  Reports are deterministic for a fixed
config and seed once timing fields are omitted, whatever the thread cap.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import coupling, interval_model, potentials, weyl
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
from .reports import ResidualReport, timed_check, worst

_USAGE_ERRORS = (
    AccuracyRegionError, AnsatzResonanceError, ArgumentRangeError, BracketingError,
    ConfigurationError, EvaluationError, SingularityError, SpectralPoleError,
)

_SUBCOMMANDS = ("jumps", "dtn", "green-identity", "krein", "indicator", "rellich", "interval")

# Dense work arrays of a run that assembles S, K, K*: about ten complex N×N
# matrices (the operators, a trace or LU, the pair arrays and kernel
# temporaries) for jumps, dtn and indicator, which build every operator at
# the N of --nodes (dtn's N/2 reference off the disk adds a quarter).
# green-identity assembles nothing; its off-curve arrays over the 40 probes
# take at most 2.2 kB a node (tracemalloc peak, kite, N = 4096 and 16 384,
# z = 2 + i), counted as 2.4 kB.  A --nodes whose estimate exceeds the budget (N > 2590, or
# N > 447 392 for green-identity) is rejected before any work.
_WORK_ARRAYS = 10
_FIELD_BYTES_PER_NODE = 2400
_WORK_BUDGET_BYTES = 2**30
_WORK_SUBCOMMANDS = ("jumps", "dtn", "indicator")


def _work_bytes(subcommand: str, nodes: int) -> int:
    """The work-array estimate for ``--nodes``; 0 where the subcommand ignores it."""
    if subcommand == "green-identity":
        return _FIELD_BYTES_PER_NODE * nodes
    if subcommand not in _WORK_SUBCOMMANDS:
        return 0
    return _WORK_ARRAYS * 16 * nodes**2


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

    Reports echo ``to_dict()`` so results are reproducible: the echoed config,
    read back as ``RunConfig(**config)``, equals the one that ran."""

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
        # the parser's choices, for a config built in code or read back from JSON
        if self.side not in ("interior", "exterior"):
            raise ConfigurationError(f"--side must be interior or exterior, got {self.side!r}")
        if self.check not in interval_model._TOLERANCE:
            raise ConfigurationError(f"--check must be krein|mixed|green3|suite, got {self.check!r}")
        object.__setattr__(self, "zs", tuple(tuple(z) for z in self.zs))
        object.__setattr__(self, "mode_list", tuple(int(m) for m in self.mode_list))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        # an empty mode range must not pass vacuously, and numpy's generator
        # rejects a negative seed only once the run has started
        for flag, value in (("--modes", self.modes), *(("--mode", m) for m in self.mode_list),
                            ("--seed", self.seed)):
            if value < 0:
                raise ConfigurationError(f"{flag} must be >= 0, got {value}")
        if self.zgrid is not None:
            # the parser's shape, for a grid built in code or read back from JSON
            object.__setattr__(self, "zgrid", tuple(self.zgrid))
            count = self.zgrid[2] if len(self.zgrid) == 4 else None
            if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
                raise ConfigurationError(
                    f"--zgrid must be (re0, re1, count, im) with an integer count >= 1, "
                    f"got {self.zgrid!r}")
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
    """The rows of ``potentials.jump_relation_residuals``, one task per z;
    ``--modes`` is read on the disk only, below N/2."""
    grid = curve_from_spec(cfg.curve, cfg.nodes)
    if grid.curve.shape == "disk":
        _reject_aliased_modes(cfg)
    tol = potentials._TOLERANCE[grid.curve.shape] * cfg.tol_scale
    return [lambda z=z: potentials.jump_relation_residuals(grid, z, cfg.modes, tol).checks
            for z in cfg.z_values(default=(-1.0,))]


def _dtn_tasks(cfg: RunConfig) -> list:
    """The rows of ``weyl._dtn_rows``, one task per z.  Modes at or above N/2
    are rejected before any assembly, as is a run off the disk outside the
    rule of its N/2 reference, whose grid the tasks share."""
    _reject_aliased_modes(cfg)
    grid = curve_from_spec(cfg.curve, cfg.nodes)
    off_disk = grid.curve.shape != "disk"
    if off_disk and (cfg.nodes % 4 or cfg.nodes < 16 or 4 * cfg.modes >= cfg.nodes):
        raise ConfigurationError(
            f"dtn off the disk checks its modes against N/2 nodes: --nodes must be a multiple "
            f"of 4 and at least 16, and --modes below nodes/4; got --nodes {cfg.nodes} and "
            f"--modes {cfg.modes}")
    half = replace(grid, n=grid.n // 2) if off_disk else None
    tol = 1e-6 * cfg.tol_scale
    return [lambda z=z: weyl._dtn_rows(grid, half, z, cfg.side, cfg.modes, tol)
            for z in cfg.z_values(default=(-1.0,))]


def _green_identity_tasks(cfg: RunConfig) -> list:
    grid = curve_from_spec(cfg.curve, cfg.nodes)
    outside, inside, rings = potentials._placement(grid)
    probes = [coupling.probe_ring(radius, count) for radius, count in rings]
    tol = coupling._TOLERANCE["homogeneous"] * cfg.tol_scale

    def one_z(z):
        field = coupling.transmission_point_sources(z, outside, inside)
        return coupling.third_green_identity_residual(
            field, z, grid, probes, tolerance=tol).checks

    return [lambda z=z: one_z(z) for z in cfg.z_values(default=(-1.0,))]


# modes per ``coupling._ModeScalars`` family of a krein task: a run whose mode
# leaves the double range stops within one block of it, whatever --modes says
_MODE_BLOCK = 64


def _krein_tasks(cfg: RunConfig) -> list:
    """One task per z: a mode family per ``_MODE_BLOCK`` modes, whose krein and
    mixed defects give each mode its two rows."""
    modes = cfg.mode_list if cfg.mode_list else range(cfg.modes + 1)
    tol = 1e-10 * cfg.tol_scale

    def one_z(z):
        rows = []
        for start in range(0, len(modes), _MODE_BLOCK):
            block = modes[start:start + _MODE_BLOCK]
            family = coupling._ModeScalars(z, block, cfg.c_shift)
            for m, krein, mixed in zip(block, family.krein(), family.mixed()):
                params = {"z": [z.real, z.imag], "m": m, "c": cfg.c_shift}
                rows.append(timed_check("coupling.krein.mode", params, tol, lambda k=krein: k))
                rows.append(timed_check("coupling.mixed.mode", params, tol, lambda x=mixed: x))
        return rows

    return [lambda z=z: one_z(z) for z in cfg.z_values(default=(-1.0,))]


def _indicator_tasks(cfg: RunConfig) -> list:
    """Scan the coupled-eigenvalue indicator; a row fails where it collapses.

    The indicator is σ_min(M₊+M₋) = 1/σ_max(S(z − c)) in L²(Γ), one
    ``eigvalsh`` at real z − c ≤ 0 and one SVD elsewhere, an identity of the
    single-layer Weyl maps that needs the same shift c on both sides, so
    ``--c-`` must equal ``--c+`` when given.  A failing row marks a value below
    the floor rather than a broken identity."""
    shift = cfg.c_plus if cfg.c_plus is not None else 0.0
    if cfg.c_minus is not None and cfg.c_minus != shift:
        raise ConfigurationError(
            f"indicator needs equal side shifts; got --c+ {shift} and --c- {cfg.c_minus}")
    grid = curve_from_spec(cfg.curve, cfg.nodes)
    floor = 1e-6 * cfg.tol_scale
    zs = cfg.z_values()
    if cfg.zgrid is not None:
        re0, re1, count, imag = cfg.zgrid
        zs.extend(complex(re, imag) for re in np.linspace(re0, re1, count))
    if not zs:
        zs = [complex(-1.0, 0.0)]

    def one_z(z):
        def entry():
            value = coupling.eigenvalue_indicator(z, grid, c=shift)
            return worst((0.0, floor - value)), {"indicator": value, "floor": floor}

        return [timed_check(
            "coupling.indicator",
            {"z": [z.real, z.imag], "c": shift, "curve": grid.curve.shape, "n": cfg.nodes},
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


def thread_cap() -> int:
    """``GREEN3_THREADS`` as a count >= 1; 4 when it is unset."""
    cap = os.environ.get("GREEN3_THREADS")
    if cap is None:
        return 4
    message = f"GREEN3_THREADS must be an integer >= 1, got {cap!r}"
    try:
        limit = int(cap)
    except ValueError:
        raise ConfigurationError(message) from None
    if limit < 1:
        raise ConfigurationError(message)
    return limit


def run_all(fns) -> list:
    """The results of ``fns`` in order; the first error in that order is raised.

    One task, or a cap of 1, runs in the calling thread.  Otherwise the run
    gets an executor of its own with min(cap, tasks) threads, and the caller
    waits; after an error ``Executor.map`` cancels the tasks not yet started,
    and the executor is shut down once the running ones end."""
    fns = list(fns)
    width = min(thread_cap(), len(fns))
    if width < 2:
        return [fn() for fn in fns]
    with ThreadPoolExecutor(width, thread_name_prefix="green3") as pool:
        return list(pool.map(lambda fn: fn(), fns))


def _run(config: RunConfig) -> int:
    tic = time.perf_counter()
    tasks = _TASK_BUILDERS[config.subcommand](config)
    rows = [row for chunk in run_all(tasks) for row in chunk]
    if not rows:
        print("green3: no checks ran", file=sys.stderr)
        return 2
    report = ResidualReport(rows)
    if config.omit_timing:
        report = report.without_timing()
    elapsed = 0.0 if config.omit_timing else time.perf_counter() - tic
    if config.fmt == "json":
        text = report.to_json(command=config.subcommand, config=config.to_dict(),
                              wall_time_s=elapsed)
    else:
        text = report.to_csv()
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"green3: cannot write --out {config.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
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
    the field's default.  No row reads ``jumps --modes`` off the disk: it
    raises ``ConfigurationError``."""
    config = RunConfig(**vars(ns))
    if ("modes" in ns and config.subcommand == "jumps"
            and curve_from_spec(config.curve, config.nodes).curve.shape != "disk"):
        raise ConfigurationError(
            f"jumps reads --modes only on the disk; drop it for --curve {config.curve}")
    return config


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
