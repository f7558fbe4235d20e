import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import green3
from green3.cli import RunConfig, _parse_z, _parse_zgrid, main, thread_cap
from green3.errors import ConfigurationError


def child_env(**extra):
    """The environment of a child interpreter that imports green3 as this one does."""
    src = os.path.dirname(os.path.dirname(green3.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "green3.cli", *args],
                          capture_output=True, text=True, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------- config


def test_run_config_round_trips_byte_identically():
    configs = [
        RunConfig(subcommand="jumps", zs=((-1.0, 0.0), (0.0, 2.0)), nodes=128),
        RunConfig(subcommand="interval", check="mixed", c_plus=0.0, c_minus=5.0,
                  out="r.json", fmt="csv", seed=3, tol_scale=2.0, omit_timing=True),
        RunConfig(subcommand="indicator", zgrid=(-3.0, -1.0, 5, 0.5)),
        RunConfig(subcommand="rellich", ks=(1, 2, 3)),
    ]
    for cfg in configs:
        # the config a report echoes, read back
        text = json.dumps(cfg.to_dict())
        again = RunConfig(**json.loads(text))
        assert json.dumps(again.to_dict()) == text
        assert again == cfg


def test_run_config_rejects_unknown_subcommand_and_format():
    with pytest.raises(ConfigurationError):
        RunConfig(subcommand="spectra")
    with pytest.raises(ConfigurationError):
        RunConfig(subcommand="jumps", fmt="yaml")


@pytest.mark.parametrize("fields, message", [
    (dict(subcommand="dtn", side="bogus"), "--side must be interior or exterior, got 'bogus'"),
    (dict(subcommand="dtn", side="+"), "--side must be interior or exterior, got '+'"),
    (dict(subcommand="interval", check="green"), "--check must be krein|mixed|green3|suite, got 'green'"),
    (dict(subcommand="krein", modes=-1), "--modes must be >= 0, got -1"),
    (dict(subcommand="krein", mode_list=(2, -3)), "--mode must be >= 0, got -3"),
    (dict(subcommand="interval", seed=-1), "--seed must be >= 0, got -1"),
    *[(dict(subcommand="indicator", zgrid=grid),
       f"--zgrid must be (re0, re1, count, im) with an integer count >= 1, got {grid!r}")
      for grid in ((-3.0, -1.0, 0, 0.0), (-3.0, -1.0, -1, 0.0), (-3.0, -1.0, 2.5, 0.0),
                   (-3.0, -1.0, True, 0.0), (-3.0, -1.0, 3))],
    (dict(subcommand="indicator", zgrid=5),
     "--zgrid must be (re0, re1, count, im) with an integer count >= 1, got (5,)"),
    *[(dict(subcommand="indicator", zgrid=grid),
       f"--zgrid re0, re1 and im must be real numbers, got {grid!r}")
      for grid in (("a", -1.0, 2, 0.0), (-3.0, None, 2, 0.0), (-3.0, -1.0, 2, "0"))],
    *[(dict(subcommand=subcommand, zs=(z,)), f"--z must be (re, im), two real numbers, got {z!r}")
      for subcommand, z in (("krein", (1.0,)), ("krein", (2.0, 1.0, 5.0)), ("jumps", ("a", 0.0)),
                            ("jumps", (1.0, None)), ("dtn", (True, 0.0)), ("krein", ()))],
])
def test_run_config_checks_what_the_parser_checks(fields, message):
    # a config built in code, or read back from JSON, fails as the CLI would
    with pytest.raises(ConfigurationError) as info:
        RunConfig(**{"nodes": 64, "zs": [(-1.0, 0.0)], **fields})
    assert str(info.value) == message
    text = json.dumps({**RunConfig(subcommand=fields["subcommand"]).to_dict(), **fields})
    with pytest.raises(ConfigurationError):
        RunConfig(**json.loads(text))


def test_z_value_defaults():
    assert RunConfig(subcommand="jumps").z_values(default=(-1.0,)) == [complex(-1.0)]
    cfg = RunConfig(subcommand="jumps", zs=((1.0, 2.0),))
    assert cfg.z_values(default=(-1.0,)) == [1.0 + 2.0j]


def test_z_parsers():
    assert _parse_z("-1,0") == (-1.0, 0.0)
    assert _parse_z("0.5,2") == (0.5, 2.0)
    for bad in ("abc", "1", "1,2,3", "i,0"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_z(bad)
    assert _parse_zgrid("-3:-1:5") == (-3.0, -1.0, 5, 0.0)
    assert _parse_zgrid("0:10:3:0.5") == (0.0, 10.0, 3, 0.5)
    for bad in ("1:2", "a:b:3", "0:1:0"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_zgrid(bad)


# ------------------------------------------------------------- spec walkthroughs


def test_interval_suite_writes_passing_report(tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run_cli("interval", "--check", "suite", "--z", "0,1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["all_pass"] is True
    assert doc["checks"] and all(row["passed"] for row in doc["checks"])
    assert doc["config"]["subcommand"] == "interval"


def test_jumps_on_disk_passes():
    code, stdout, _ = run_cli("jumps", "--curve", "disk", "--z", "-1,0", "--nodes", "256")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["all_pass"] is True
    assert {row["check"] for row in doc["checks"]} == {
        "jump.single.dirichlet.interior", "jump.single.dirichlet.exterior",
        "jump.single.neumann.interior", "jump.single.neumann.exterior",
        "jump.double.dirichlet.interior", "jump.double.dirichlet.exterior",
        "jump.calderon.interior", "jump.calderon.exterior", "weyl.dtn.point_source",
    }


def test_malformed_z_is_usage_error_without_report(tmp_path):
    out = tmp_path / "r.json"
    code, stdout, stderr = run_cli("jumps", "--z", "abc", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert not out.exists()
    assert "usage" in stderr.lower() or "expected RE,IM" in stderr


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run_cli("spectra")
    assert code == 2


# ----------------------------------------------------------------- subcommands


def test_dtn_emits_eigenvalue_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    code, _, _ = run_cli("dtn", "--side", "exterior", "--curve", "disk", "--z", "-1,0",
                         "--modes", "4", "--nodes", "128", "--format", "csv",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("check,residual,tolerance,passed")
    assert len(lines) == 1 + 5 + 1  # header + modes 0..4 + the point-source row
    assert all("eigenvalue" in line for line in lines[1:] if line.startswith("weyl.dtn.mode,"))


def test_krein_subcommand_runs_selected_modes():
    code, stdout, _ = main_capture(["krein", "--mode", "0", "--mode", "3",
                                    "--c", "1.0", "--z", "2,1"])
    assert code == 0
    doc = json.loads(stdout)
    names = [row["check"] for row in doc["checks"]]
    assert names.count("coupling.krein.mode") == 2
    assert names.count("coupling.mixed.mode") == 2
    assert doc["max_residual"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ["krein", "--c", "1"],
    ["jumps", "--curve", "disk", "--nodes", "128"],
    ["dtn", "--side", "exterior", "--curve", "disk", "--nodes", "128"],
])
def test_a_disk_job_builds_one_mode_family_per_z(monkeypatch, argv):
    # one _DiskMode per z, and as many Bessel calls at 4 modes as at 40
    import green3.potentials as potentials

    monkeypatch.setenv("GREEN3_THREADS", "1")  # the counts are plain dict updates
    counts = {}

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(potentials._DiskMode, "__init__",
                        counted("families", potentials._DiskMode.__init__))
    for name in ("modified_i", "modified_k"):
        monkeypatch.setattr(potentials, name, counted(name, getattr(potentials, name)))
    calls = []
    for modes in ("4", "40"):
        counts.clear()
        code, _, stderr = main_capture([*argv, "--z", "-1,1", "--z", "2,1", "--modes", modes,
                                        "--omit-timing"])
        assert code == 0, stderr
        assert counts.pop("families") == 2
        calls.append(counts)
    assert calls[0] == calls[1]


def test_indicator_scan_reports_values():
    code, stdout, _ = main_capture(["indicator", "--zgrid", "-3:-1:3", "--nodes", "96"])
    assert code == 0
    doc = json.loads(stdout)
    values = [row["details"]["indicator"] for row in doc["checks"]]
    assert len(values) == 3 and all(v > 1.0 for v in values)


def test_indicator_floor_failure_sets_exit_one():
    # a huge tol-scale lifts the detection floor above the healthy indicator
    code, stdout, _ = main_capture(["indicator", "--z", "-1,0", "--nodes", "96",
                                    "--tol-scale", "1e7"])
    assert code == 1
    doc = json.loads(stdout)
    assert doc["all_pass"] is False


def test_indicator_rejects_unequal_side_shifts():
    # σ_min(M₊+M₋) = 1/σ_max(S) needs c₊ = c₋; a different --c- must not be ignored
    code, stdout, stderr = main_capture(["indicator", "--z", "-1,0", "--nodes", "32", "--c-", "5"])
    assert code == 2
    assert stdout == ""
    assert "equal side shifts" in stderr
    code, _, _ = main_capture(["indicator", "--z", "-1,0", "--nodes", "32",
                               "--c+", "1", "--c-", "1"])
    assert code == 0


@pytest.mark.parametrize("command, flag, message", [
    ("jumps", "--modes", "green3: --modes must be >= 0, got -1"),
    ("dtn", "--modes", "green3: --modes must be >= 0, got -1"),
    ("krein", "--modes", "green3: --modes must be >= 0, got -1"),
    ("krein", "--mode", "green3: --mode must be >= 0, got -1"),
    ("interval", "--seed", "green3: --seed must be >= 0, got -1"),
])
def test_negative_modes_are_usage_error(command, flag, message):
    # an empty mode range must not pass vacuously, and a negative seed must not
    # reach numpy's generator; one message names the flag
    nodes = ["--nodes", "32"] if command in ("jumps", "dtn") else []
    code, stdout, stderr = main_capture([command, flag, "-1", *nodes])
    assert code == 2
    assert stdout == ""
    assert stderr == message + "\n"


@pytest.mark.parametrize("command, modes, message", [
    # the dtn ids name no command, as before jumps joined the table
    pytest.param("dtn", "-1", "green3: --modes must be >= 0, got -1",
                 id="-1-green3: --modes must be >= 0, got -1"),
    pytest.param("dtn", "16", "green3: dtn modes must be below nodes/2 = 16, got 16",
                 id="16-green3: dtn modes must be below nodes/2 = 16, got 16"),
    ("jumps", "-1", "green3: --modes must be >= 0, got -1"),
    ("jumps", "16", "green3: jumps modes must be below nodes/2 = 16, got 16"),
    ("jumps", "40", "green3: jumps modes must be below nodes/2 = 16, got 40"),
])
def test_dtn_without_usable_modes_assembles_nothing(monkeypatch, command, modes, message):
    from green3.potentials import _LayerOperators

    def no_assembly(*args, **kwargs):
        raise AssertionError("layer operators built")

    # every S, K, K* the dtn and jumps paths use comes from this bundle
    monkeypatch.setattr(_LayerOperators, "__init__", no_assembly)
    code, stdout, stderr = main_capture([command, "--modes", modes, "--nodes", "32"])
    assert code == 2
    assert stdout == ""
    assert stderr == message + "\n"


@pytest.mark.parametrize("nodes, modes", [("30", "2"), ("12", "1"), ("32", "8")])
def test_off_disk_dtn_outside_the_half_grid_rule_assembles_nothing(monkeypatch, nodes, modes):
    from green3.potentials import _LayerOperators

    def no_assembly(*args, **kwargs):
        raise AssertionError("layer operators built")

    monkeypatch.setattr(_LayerOperators, "__init__", no_assembly)
    code, stdout, stderr = main_capture(["dtn", "--curve", "kite", "--nodes", nodes,
                                         "--modes", modes])
    assert (code, stdout) == (2, "")
    assert stderr == ("green3: dtn off the disk checks its modes against N/2 nodes: --nodes must "
                      "be a multiple of 4 and at least 16, and --modes below nodes/4; got "
                      f"--nodes {nodes} and --modes {modes}\n")


@pytest.mark.parametrize("curve", ["kite", "ellipse:1.5,0.8"])
def test_off_disk_jumps_rejects_modes_and_assembles_nothing(monkeypatch, curve):
    # no row off the disk reads --modes; it used to be accepted and ignored
    from green3.potentials import _LayerOperators

    def no_assembly(*args, **kwargs):
        raise AssertionError("layer operators built")

    monkeypatch.setattr(_LayerOperators, "__init__", no_assembly)
    code, stdout, stderr = main_capture(["jumps", "--curve", curve, "--nodes", "64",
                                         "--modes", "3"])
    assert (code, stdout) == (2, "")
    assert stderr == f"green3: jumps reads --modes only on the disk; drop it for --curve {curve}\n"


def test_off_disk_jumps_has_no_mode_alias_rule():
    # the default --modes 8 is at nodes/2 here, but no off-disk row reads it
    code, stdout, stderr = main_capture(["jumps", "--curve", "kite", "--nodes", "16",
                                         "--z", "-1,1", "--omit-timing"])
    assert code in (0, 1), stderr
    assert {row["check"] for row in json.loads(stdout)["checks"]} == {
        "jump.calderon.interior", "jump.calderon.exterior", "weyl.dtn.point_source"}


class _CountedCalls:
    """A callable that logs the size of its first argument, then calls ``fn``."""

    def __init__(self, fn, log):
        self.fn, self.log = fn, log

    def __call__(self, a, *args, **kwargs):
        self.log.append(len(a))
        return self.fn(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.fn, name)


@pytest.mark.parametrize("argv, lus, traces", [
    (["jumps", "--curve", "disk", "--modes", "4"], [128], [(128, "interior"), (128, "exterior")]),
    (["jumps", "--curve", "kite"], [128], [(128, "interior"), (128, "exterior")]),
    (["dtn", "--curve", "disk", "--side", "exterior"], [128], [(128, "exterior")]),
    (["dtn", "--curve", "kite", "--side", "interior"], [128, 64], [(128, "interior")]),
    (["dtn", "--curve", "kite", "--side", "exterior"], [128, 64], [(128, "exterior")]),
])
def test_one_lu_and_one_trace_build_per_side_and_z(monkeypatch, argv, lus, traces):
    # jumps used to factor S for each side and build each side's traces for
    # the Calderón and the DtN rows apart; the N/2 reference of dtn built traces
    import scipy.linalg.lapack as lapack

    from green3.potentials import _PointSourceTraces

    factored, built = [], []
    get_lapack_funcs, traces_init = lapack.get_lapack_funcs, _PointSourceTraces.__init__

    def counting_lapack_funcs(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        return [_CountedCalls(f, factored) if name == "getrf" else f
                for name, f in zip(names, funcs)]

    def counting_traces(self, grid, z, side):
        built.append((grid.n, side))
        traces_init(self, grid, z, side)

    monkeypatch.setattr(lapack, "get_lapack_funcs", counting_lapack_funcs)
    monkeypatch.setattr(_PointSourceTraces, "__init__", counting_traces)
    code, _, stderr = main_capture([*argv, "--nodes", "128", "--z", "-3,2"])
    assert code == 0, stderr
    assert sorted(factored, reverse=True) == lus
    assert sorted(built) == sorted(traces)


@pytest.mark.parametrize("argv, message", [
    (["krein", "--tol-scale", "nan"], "--tol-scale must be finite and > 0, got nan"),
    (["dtn", "--tol-scale", "-1"], "--tol-scale must be finite and > 0, got -1.0"),
    (["jumps", "--tol-scale", "inf"], "--tol-scale must be finite and > 0, got inf"),
    (["rellich", "--tol-scale", "0"], "--tol-scale must be finite and > 0, got 0.0"),
    (["interval", "--check", "krein", "--c+", "nan"], "--c+ must be finite, got nan"),
    (["interval", "--check", "mixed", "--c-", "-inf"], "--c- must be finite, got -inf"),
    (["krein", "--c", "inf"], "--c must be finite, got inf"),
    (["jumps", "--z", "nan,0"], "--z and --zgrid values must be finite, got [nan, 0.0]"),
    (["dtn", "--z", "-1,inf"], "--z and --zgrid values must be finite, got [-1.0, inf]"),
    (["indicator", "--zgrid", "-3:nan:3"],
     "--z and --zgrid values must be finite, got [-3.0, nan, 3, 0.0]"),
])
def test_non_finite_or_non_positive_numbers_are_usage_errors(tmp_path, argv, message):
    # each used to exit 1 on a NaN residual, or 0 on a vacuous pass
    out = tmp_path / "r.json"
    nodes = ["--nodes", "32"] if argv[0] in ("jumps", "dtn", "indicator") else []
    code, stdout, stderr = main_capture([*argv, *nodes, "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert stderr == f"green3: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["jumps", "dtn", "green-identity", "indicator"])
@pytest.mark.parametrize("spec", ["ellipse:nan,1", "ellipse:inf,1", "ellipse:1,nan"])
def test_non_finite_ellipse_axes_are_usage_errors_before_any_grid(monkeypatch, command, spec):
    # a NaN axis passed the positivity test and failed later on |w|, an infinite
    # one printed numpy warnings from the pair layout first
    from green3.geometry import QuadratureGrid

    def no_grid(self):
        raise AssertionError("quadrature grid built")

    monkeypatch.setattr(QuadratureGrid, "__post_init__", no_grid)
    code, stdout, stderr = main_capture([command, "--curve", spec, "--nodes", "32"])
    assert (code, stdout) == (2, "")
    assert stderr == f"green3: ellipse semi-axes must be finite and positive, got {spec}\n"


@pytest.mark.parametrize("argv, flags", [
    (["jumps", "--c+", "5", "--seed", "9"], ("--c+", "--seed")),
    (["indicator", "--modes", "5"], ("--modes",)),
    (["rellich", "--curve", "kite", "--nodes", "8"], ("--curve",)),
    (["dtn", "--c+", "2"], ("--c+",)),
    (["krein", "--curve", "kite"], ("--curve",)),
    (["krein", "--nodes", "32"], ("--nodes",)),
    (["rellich", "--nodes", "8"], ("--nodes",)),
    (["interval", "--check", "suite", "--nodes", "32"], ("--nodes",)),
])
def test_a_flag_the_subcommand_ignores_is_usage_error(tmp_path, argv, flags):
    # each used to run and exit 0 as if the flag had been read
    out = tmp_path / "r.json"
    code, stdout, stderr = main_capture([*argv, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments" in stderr
    for flag in flags:
        assert flag in stderr
    assert not out.exists()


def test_krein_modes_and_mode_exclude_each_other(tmp_path):
    # --mode used to override --modes silently and exit 0
    out = tmp_path / "r.json"
    code, stdout, stderr = main_capture(["krein", "--modes", "4", "--mode", "3", "--z", "2,1",
                                         "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr.splitlines()[-1] == (
        "green3 krein: error: argument --mode: not allowed with argument --modes")
    assert not out.exists()


@pytest.mark.parametrize("command", ["jumps", "dtn", "green-identity", "krein", "indicator",
                                     "rellich", "interval"])
def test_a_bare_run_echoes_the_run_config_defaults(command):
    code, stdout, _ = main_capture([command])
    assert code == 0
    assert json.loads(stdout)["config"] == json.loads(json.dumps(RunConfig(subcommand=command).to_dict()))


def test_dtn_at_a_resonance_is_usage_error():
    # S of the unit disk is singular at z = 0; the LU guard must stop the run
    code, stdout, stderr = main_capture(["dtn", "--curve", "disk", "--z", "0,0", "--nodes", "64"])
    assert code == 2
    assert stdout == ""
    assert "numerically singular (rcond₁" in stderr


@pytest.mark.parametrize("nodes, z, modes, first_bad", [
    ("64", "0,1e-20", "31", 26),    # used to exit 3 with ZeroDivisionError
    ("300", "-1,0", "149", 149),    # used to exit 3 with ZeroDivisionError
    ("64", "-1e-30,0", "20", 18),   # used to exit 1 with max_residual NaN
])
def test_disk_jumps_beyond_the_double_range_are_usage_errors(nodes, z, modes, first_bad):
    from green3.potentials import disk_mode_multipliers

    code, stdout, stderr = main_capture(["jumps", "--curve", "disk", "--nodes", nodes, "--z", z,
                                         "--modes", modes, "--omit-timing"])
    assert (code, stdout) == (2, "")
    assert f"green3: mode {first_bad} leaves the double-precision range" in stderr
    assert "internal error" not in stderr
    # the mode before it still has a closed form
    re, im = map(float, z.split(","))
    assert all(math.isfinite(abs(value)) for value in
               disk_mode_multipliers(complex(re, im), first_bad - 1).values()
               if not callable(value))


@pytest.mark.parametrize("argv", [
    ["krein", "--z", "1,5e-324", "--modes", "2", "--c", "0"],
    ["jumps", "--curve", "disk", "--nodes", "16", "--z", "1,5e-324", "--modes", "2"],
])
def test_a_subnormal_imaginary_part_names_z_and_the_mode(argv):
    # −i√z loses its real part to rounding, which K_m(κ) cannot take
    code, stdout, stderr = main_capture([*argv, "--omit-timing"])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("green3: mode 0 at z = (1+5e-324j): κ = −i√z = ")
    assert "has no positive real part" in stderr and "internal error" not in stderr


def test_unexpected_exception_is_one_line_and_exit_three(monkeypatch, tmp_path):
    import green3.cli as cli_mod

    def broken(cfg):
        raise RuntimeError("kernel table lost\nits panels")

    monkeypatch.setitem(cli_mod._TASK_BUILDERS, "jumps", broken)
    out = tmp_path / "r.json"
    code, stdout, stderr = main_capture(["jumps", "--nodes", "32", "--out", str(out)])
    assert code == 3
    assert stdout == ""
    assert stderr == "green3: internal error: RuntimeError: kernel table lost its panels\n"
    assert not out.exists()


def test_a_task_that_raises_is_exit_three(monkeypatch, tmp_path):
    import green3.cli as cli_mod

    def raise_inside():
        raise RuntimeError("inside a task")

    monkeypatch.setitem(cli_mod._TASK_BUILDERS, "rellich", lambda cfg: [raise_inside])
    out = tmp_path / "r.json"
    code, stdout, stderr = main_capture(["rellich", "--out", str(out)])
    assert (code, stdout) == (3, "")
    assert stderr == "green3: internal error: RuntimeError: inside a task\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, target", [
    (["jumps", "--curve", "disk", "--nodes", "64", "--z", "-1,0"], "missing/x.json"),
    (["rellich", "--k", "1"], "."),
])
def test_an_unwritable_out_is_usage_error(tmp_path, argv, target):
    # a directory that is missing, or a directory in place of a file
    out = tmp_path / target
    code, stdout, stderr = main_capture([*argv, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1 and stderr.startswith(f"green3: cannot write --out {out}: ")
    assert "internal error" not in stderr


@pytest.mark.parametrize("argv, gib", [
    (["jumps", "--nodes", "2592"], "1.00"),
    (["dtn", "--nodes", "4096"], "2.50"),
    (["indicator", "--nodes", "2592"], "1.00"),
])
def test_node_count_over_the_memory_budget_is_usage_error(monkeypatch, tmp_path, argv, gib):
    from green3.potentials import _LayerOperators

    def no_assembly(*args, **kwargs):
        raise AssertionError("layer operators built")

    # the estimate is arithmetic on --nodes: nothing may be allocated to reach it
    monkeypatch.setattr(_LayerOperators, "__init__", no_assembly)
    out = tmp_path / "r.json"
    code, stdout, stderr = main_capture([*argv, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == (f"green3: --nodes {argv[2]} needs about {gib} GiB of dense work arrays "
                      f"for {argv[0]}, over the 1 GiB budget\n")
    assert not out.exists()


def test_green_identity_nodes_count_against_the_budget(monkeypatch):
    import green3.cli as cli

    def no_task(cfg):
        raise AssertionError("green-identity tasks built")

    # a small budget, so the rejected count allocates nothing large
    monkeypatch.setattr(cli, "_WORK_BUDGET_BYTES", 10**6)
    monkeypatch.setitem(cli._TASK_BUILDERS, "green-identity", no_task)
    assert cli._work_bytes("green-identity", 1024) > 10**6
    code, stdout, stderr = main_capture(["green-identity", "--nodes", "1024"])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("green3: --nodes 1024 needs about ")
    assert stderr.endswith(" GiB of dense work arrays for green-identity, over the 0.000931323 "
                           "GiB budget\n")


def test_node_budget_keeps_every_documented_job():
    from green3.cli import _absorb_negative_values, _work_bytes, build_parser, config_from_args

    # the largest accepted counts, and every subcommand at N = 512
    assert _work_bytes("jumps", 2590) <= 2**30 < _work_bytes("jumps", 2592)
    assert _work_bytes("indicator", 2590) <= 2**30 < _work_bytes("indicator", 2592)
    assert _work_bytes("green-identity", 447392) <= 2**30 < _work_bytes("green-identity", 447393)
    for command in ("jumps", "dtn", "green-identity", "indicator", "krein", "rellich",
                    "interval"):
        assert RunConfig(subcommand=command, nodes=512).nodes == 512
    assert RunConfig(subcommand="green-identity", nodes=10**5).nodes == 10**5
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        jobs = [line.split()[1:] for line in fh if line.startswith("green3 ")]
    assert len(jobs) == 7
    for argv in jobs:
        config_from_args(build_parser().parse_args(_absorb_negative_values(argv)))


def test_dtn_rows_echo_one_z():
    # the mode rows and the point-source row echo the bundle's z, -0.0 normalized
    code, stdout, stderr = main_capture(["dtn", "--curve", "disk", "--nodes", "64", "--modes", "1",
                                         "--z", "-1,-0", "--omit-timing"])
    assert code == 0, stderr
    rows = json.loads(stdout)["checks"]
    assert sorted(row["check"] for row in rows) == ["weyl.dtn.mode", "weyl.dtn.mode",
                                                    "weyl.dtn.point_source"]
    assert {json.dumps(row["params"]["z"]) for row in rows} == {"[-1.0, 0.0]"}


@pytest.mark.parametrize("spec, modes", [("disk", 4), ("kite", 8)])
def test_jumps_reports_the_library_rows(spec, modes):
    # green3 jumps prints exactly the rows of jump_relation_residuals
    from green3.geometry import curve_from_spec
    from green3.potentials import jump_relation_residuals

    argv = ["jumps", "--curve", spec, "--nodes", "64", "--z", "-1,0.5", "--omit-timing"]
    code, stdout, stderr = main_capture(argv + (["--modes", str(modes)] if spec == "disk" else []))
    assert code == 0, stderr
    grid = curve_from_spec(spec, 64)
    report = jump_relation_residuals(grid, complex(-1.0, 0.5), modes).without_timing()
    assert json.loads(stdout)["checks"] == json.loads(report.to_json())["checks"]
    assert len(report.checks) == (10 if spec == "disk" else 4)


@pytest.mark.parametrize("spec", ["disk", "kite", "ellipse:1.5,0.8"])
@pytest.mark.parametrize("side", ["interior", "exterior"])
def test_dtn_quotients_equal_the_dense_map(spec, side):
    # the CLI never forms the dense map; its quotients must be those of it
    import numpy as np

    from green3.geometry import curve_from_spec
    from green3.potentials import _LayerOperators
    from green3.weyl import _mode_quotients

    z = complex(-1.0, 0.5)
    code, stdout, _ = main_capture(["dtn", "--curve", spec, "--side", side, "--z", "-1,0.5",
                                    "--nodes", "128", "--modes", "6", "--omit-timing"])
    assert code == 0
    reported = {row["params"]["m"]: complex(row["details"]["eigenvalue"]["re"],
                                            row["details"]["eigenvalue"]["im"])
                for row in json.loads(stdout)["checks"] if row["check"] == "weyl.dtn.mode"}
    assert sorted(reported) == list(range(7))
    grid = curve_from_spec(spec, 128)
    dense = _LayerOperators(grid, z).weyl_action(side, np.eye(grid.n))[0]
    want = []
    for m in range(7):  # the arc-weighted Rayleigh quotient ⟨φ, Mφ⟩_w / ⟨φ, φ⟩_w of e^{imθ}
        phi = np.exp(1j * m * grid.nodes)
        weighted = phi.conj() * grid.arc_weights
        want.append(weighted @ dense @ phi / (weighted @ phi))
    for quotients in (_mode_quotients(_LayerOperators(grid, z), side, 6)[0], reported):
        for m in range(7):
            assert abs(quotients[m] - want[m]) <= 1e-13 * abs(want[m])


def test_indicator_nan_fails_the_row(monkeypatch):
    import green3.cli as cli_mod

    monkeypatch.setattr(cli_mod.coupling, "eigenvalue_indicator", lambda *a, **k: math.nan)
    code, stdout, _ = main_capture(["indicator", "--z", "-1,0", "--nodes", "32"])
    assert code == 1
    (row,) = json.loads(stdout)["checks"]
    assert row["residual"] == "nan" and row["passed"] is False


def test_rellich_subcommand():
    code, stdout, _ = main_capture(["rellich", "--k", "1", "--k", "2"])
    assert code == 0
    doc = json.loads(stdout)
    assert [row["params"]["k"] for row in doc["checks"]] == [1, 2]
    assert doc["max_residual"] <= 1e-10


def test_green_identity_subcommand():
    code, stdout, _ = main_capture(["green-identity", "--curve", "disk", "--z", "-1,0",
                                    "--nodes", "192"])
    assert code == 0
    doc = json.loads(stdout)
    assert {row["check"] for row in doc["checks"]} == {
        "green.third.interior", "green.third.exterior"}


@pytest.mark.parametrize("check", ["krein", "mixed", "green3"])
def test_interval_checks_pass(check):
    code, stdout, _ = main_capture(["interval", "--check", check, "--z", "-1,0"])
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


@pytest.mark.parametrize("check, default", [
    ("krein", 1e-8), ("mixed", 1e-8), ("green3", 1e-8), ("suite", 1e-9)])
def test_interval_checks_scale_their_tolerance(check, default):
    code, stdout, _ = main_capture(["interval", "--check", check])
    assert code == 0
    assert {row["tolerance"] for row in json.loads(stdout)["checks"]} == {default}
    code, stdout, _ = main_capture(["interval", "--check", check, "--tol-scale", "1e-30"])
    assert code == 1
    assert {row["tolerance"] for row in json.loads(stdout)["checks"]} == {default * 1e-30}


def test_interval_green3_families_are_labelled():
    code, stdout, _ = main_capture(["interval", "--check", "green3"])
    assert code == 0
    doc = json.loads(stdout)
    assert {row["params"]["family"] for row in doc["checks"]} == {"smooth", "jump"}


def test_interval_pole_z_is_usage_error():
    code, _, stderr = main_capture(["interval", "--check", "krein",
                                    "--z", "2.4674011002723397,0"])
    assert code == 2
    assert "eigenvalue" in stderr


def test_interval_bad_shift_is_usage_error():
    code, _, _ = main_capture(["interval", "--check", "green3", "--c+", "-1.0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--check", "suite", "--z", "1e10,1"],
    ["--check", "suite", "--z", "1e3,1"],
    ["--check", "krein", "--z", "1e5,1"],
    ["--check", "mixed", "--z", "1e5,1"],
    ["--check", "krein", "--z", "-1e6,1"],
    ["--check", "mixed", "--z", "-1e6,1"],
    ["--check", "green3", "--c+", "1e6"],
])
def test_interval_beyond_its_accuracy_region_is_usage_error(tmp_path, argv):
    # each exited 1, on a broken identity or with an OverflowError traceback
    out = tmp_path / "r.json"
    code, stdout, stderr = main_capture(["interval", *argv, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("green3: |√(z − c)| = ")
    assert stderr.endswith(f"the accuracy region of the interval {argv[1]} check\n")
    assert stderr.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("z", ["-1e5,0", "1e5,1"])
def test_hankel_arguments_beyond_the_double_range_are_usage_errors(z):
    # exited 0 with every field underflowed to zero, and exited 1 on a lost phase
    code, stdout, stderr = main_capture(["green-identity", "--curve", "disk", "--z", z])
    assert (code, stdout) == (2, "")
    assert "overflow guard" in stderr and "internal error" not in stderr


def test_failed_check_sets_exit_one():
    code, stdout, _ = main_capture(["jumps", "--z", "-1,0", "--nodes", "64",
                                    "--tol-scale", "1e-12"])
    assert code == 1
    assert json.loads(stdout)["all_pass"] is False


def test_dtn_on_ellipse_at_large_z():
    # a benchmark job that crashed in bessel_j: |sqrt z| times the diameter exceeds 12
    code, stdout, stderr = run_cli("dtn", "--side", "interior", "--curve", "ellipse:1.5,0.8",
                                   "--z", "-24.8922,-1.78662", "--nodes", "256", "--omit-timing")
    assert code == 0, stderr
    doc = json.loads(stdout)
    assert doc["checks"] and all(math.isfinite(row["residual"]) for row in doc["checks"])
    assert doc["all_pass"] is True


def test_cli_import_starts_no_thread():
    # the worker pool is created on first use
    proc = subprocess.run(
        [sys.executable, "-c", "import threading, green3.cli; print(threading.active_count())"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("cap", ["2", "4"])
def test_indicator_scan_with_kernel_chunks_finishes(cap):
    # off the real axis, 192 nodes give 18 336 kernel pairs, three pair chunks
    # that each scan point runs in its own thread while other scan points run
    proc = subprocess.run(
        [sys.executable, "-m", "green3.cli", "indicator", "--zgrid", "-3:-1:6:0.5",
         "--nodes", "192"],
        capture_output=True, text=True, timeout=120, env=child_env(GREEN3_THREADS=cap))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["checks"]) == 6


def _scipy_loaded_by(argv=None):
    """In a fresh interpreter that imports ``green3.cli``: the exit code of
    ``main(argv)`` (None without argv), and the scipy modules loaded then."""
    run = "None" if argv is None else f"main({argv!r})"
    proc = subprocess.run(
        [sys.executable, "-c", "import contextlib, io, json, sys\n"
         "from green3.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
         f"    code = {run}\n"
         "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, loaded


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.linalg too: loading it costs about a fifth of the CLI's import time
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, green3.cli; "
         "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
    # nor any scipy module: scipy.special is imported on first use, by specfun
    assert _scipy_loaded_by() == (None, [])


@pytest.mark.parametrize("argv, code", [
    *[(["interval", "--check", check, "--omit-timing"], 0)
      for check in ("krein", "mixed", "green3", "suite")],
    (["jumps", "--curve", "nope"], 2),
])
def test_interval_runs_and_usage_errors_load_no_scipy(argv, code):
    # the 1D model reads only the numpy-only formula core
    assert _scipy_loaded_by(argv) == (code, [])


def test_a_krein_run_loads_scipy_special_on_first_use():
    code, loaded = _scipy_loaded_by(["krein", "--z", "2,1", "--mode", "1"])
    assert code == 0 and "scipy.special" in loaded


# ---------------------------------------------------------------- determinism


def test_repeat_runs_are_byte_identical_with_timing_omitted():
    args = ["interval", "--check", "suite", "--z", "0,1", "--omit-timing"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    doc = json.loads(first[1])
    assert doc["wall_time_s"] == 0.0
    assert all(row["wall_time_s"] == 0.0 for row in doc["checks"])


def test_one_parser_serves_every_run_without_carry_over():
    from green3 import cli

    def zs(stdout):
        return {tuple(row["params"]["z"]) for row in json.loads(stdout)["checks"]}

    first = main_capture(["krein", "--z", "1,1", "--modes", "2", "--omit-timing"])
    second = main_capture(["krein", "--modes", "2", "--omit-timing"])
    assert first[0] == second[0] == 0
    assert zs(first[1]) == {(1.0, 1.0)}
    assert zs(second[1]) == {(-1.0, 0.0)}  # the default z, not the earlier --z list
    code, stdout, stderr = main_capture(["krein", "--modes", "x"])
    assert code == 2 and stdout == "" and "invalid int value" in stderr
    assert main_capture(["krein", "--modes", "2", "--omit-timing"]) == second
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv", [
    ["krein", "--z", "0.5,-1.5", "--modes", "6", "--c", "2.5"],
    ["interval", "--check", "krein", "--z", "-2,1", "--c+", "0.5", "--c-", "2"],
    ["interval", "--check", "mixed", "--z", "3,-0.7", "--c+", "1.2", "--c-", "0"],
    ["interval", "--check", "green3", "--c+", "1.5", "--c-", "0.3"],
    ["interval", "--check", "suite", "--z", "1,2", "--z", "-3,-1", "--c+", "2", "--c-", "1"],
    ["rellich", "--k", "3"],
], ids=["krein", "interval-krein", "interval-mixed", "interval-green3", "interval-suite",
        "rellich"])
def test_closed_form_jobs_repeat_byte_identically_in_one_process(argv):
    # the parser, the Gauss-Legendre rules and nothing else outlive a run
    first = main_capture([*argv, "--omit-timing"])
    assert first[0] == 0 and first[1]
    assert main_capture([*argv, "--omit-timing"]) == first


def test_thread_cap_does_not_change_output(monkeypatch):
    import green3.cli as cli_mod

    jobs = [
        ["krein", "--z", "2,1", "--z", "-1,0", "--modes", "3", "--omit-timing"],
        # one task each, which builds its bundle in the calling thread at every cap
        ["dtn", "--curve", "kite", "--z", "-1,0.5", "--nodes", "160", "--omit-timing"],
        ["jumps", "--curve", "kite", "--z", "2,1", "--nodes", "160", "--omit-timing"],
        # four z-tasks on one grid, two or more of them at once
        ["indicator", "--curve", "kite", "--nodes", "160", "--zgrid", "-6:-1:4", "--omit-timing"],
    ]
    for args in jobs:
        outputs = []
        for cap in ("1", "2", "8"):
            monkeypatch.setenv("GREEN3_THREADS", cap)
            outputs.append(main_capture(args))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] == 0


@pytest.mark.parametrize("cap", ["1", "2"])
def test_indicator_scan_builds_the_pair_layout_once(monkeypatch, cap):
    import green3.geometry as geometry

    builds = []

    class Counted(geometry._PairLayout):
        def __init__(self, grid):
            builds.append(grid.n)
            super().__init__(grid)

    monkeypatch.setattr(geometry, "_PairLayout", Counted)
    monkeypatch.setenv("GREEN3_THREADS", cap)
    code, _, _ = main_capture(["indicator", "--curve", "kite", "--nodes", "96",
                               "--zgrid", "-6:-1:4", "--omit-timing"])
    assert code == 0
    assert builds == [96]


@pytest.mark.parametrize("cap", ["1", "2"])
def test_dtn_builds_each_pair_layout_once(monkeypatch, cap):
    # the N/2 reference grid off the disk is made once per run, not once per z
    import green3.geometry as geometry

    builds = []

    class Counted(geometry._PairLayout):
        def __init__(self, grid):
            builds.append(grid.n)
            super().__init__(grid)

    monkeypatch.setattr(geometry, "_PairLayout", Counted)
    monkeypatch.setenv("GREEN3_THREADS", cap)
    code, _, stderr = main_capture(["dtn", "--curve", "kite", "--nodes", "128", "--z", "-1,0.5",
                                    "--z", "-3,0", "--z", "2,1", "--omit-timing"])
    assert code == 0, stderr
    assert builds == [128, 64]


@pytest.mark.parametrize("cap", ["abc", "0", "-3", "1.5"])
def test_invalid_thread_cap_is_usage_error(monkeypatch, cap):
    monkeypatch.setenv("GREEN3_THREADS", cap)
    with pytest.raises(ConfigurationError):
        thread_cap()
    code, stdout, stderr = main_capture(["rellich", "--k", "1"])
    assert code == 2
    assert stdout == ""
    assert stderr == f"green3: GREEN3_THREADS must be an integer >= 1, got {cap!r}\n"


# ------------------------------------------------------------------- helpers


def main_capture(args):
    """Run main() in-process, catching SystemExit and capturing both streams."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()
