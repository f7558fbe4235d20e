"""Every row family catches a planted defect.

One table of (defect, CLI argv, check names): each defect is monkeypatched
into the package, the argv runs in process, and the run must end in exit 1, a
failed identity, with exactly the named checks failing.  The same argv
without the defect must exit 0, so a catch is never a row that fails anyway.
The README's check-name table must name every check these runs emit, each
with the plants that fail it.  A second table holds the known gaps, defects that a run still passes, as
strict xfails named by their ROADMAP item: once a row catches one, its xfail
fails and the entry moves to the first table with the names of the checks it
fails.  Sizes are small, so the file adds a few seconds.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import green3.coupling as coupling
import green3.geometry as geometry
import green3.interval_model as interval_model
import green3.potentials as potentials
import green3.weyl as weyl
from green3.cli import main


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--omit-timing"])
    return code, out.getvalue(), err.getvalue()


def _krein_without_rank_one(monkeypatch):
    # the Krein core returns R₀₊ ⊕ R₀₋ alone; both models read the core
    for module in (coupling, interval_model):
        monkeypatch.setattr(module, "_krein", lambda m_plus, m_minus, gamma, pairings,
                            decoupled: decoupled)


def _dirichlet_for_neumann(monkeypatch):
    # the − side keeps its Dirichlet condition where the mixed formula wants Neumann
    decoupled = coupling._ModeScalars._decoupled
    monkeypatch.setattr(coupling._ModeScalars, "_decoupled",
                        lambda self, neumann: decoupled(self, neumann=False))
    monkeypatch.setattr(interval_model._Side, "neumann", interval_model._Side.dirichlet)


def _unweighted_pairing(monkeypatch):
    # ∫γφ as a plain sum over the quadrature nodes
    def pairing(self, phi):
        nodes, _, _ = self._rule
        return np.sum(self.gamma(nodes) * phi(nodes), axis=-1)

    monkeypatch.setattr(interval_model._Side, "pairing", pairing)


def _gram_without_conjugate(monkeypatch):
    # ∫γ² for ∫|γ|², the Gram value of a bilinear pairing
    def gram(self):
        nodes, weights, _ = self._rule
        return float(np.sum(self.gamma(nodes) ** 2 * weights).real)

    monkeypatch.setattr(interval_model._Side, "gram", gram)


def _resolvent_negated(monkeypatch):
    # the 1D model's 𝒢 = (A − z)⁻¹ applied with the wrong sign
    apply_resolvent = interval_model.apply_resolvent
    monkeypatch.setattr(interval_model, "apply_resolvent",
                        lambda kernel, phi, xs: -apply_resolvent(kernel, phi, xs))


def _side_ignored(monkeypatch):
    # every Weyl action takes the interior Neumann trace, whatever the side
    action = potentials._LayerOperators.weyl_action
    monkeypatch.setattr(potentials._LayerOperators, "weyl_action",
                        lambda self, side, densities: action(self, "interior", densities))


def _exterior_k_sign_flipped(monkeypatch):
    # τ_D⁻𝒟 = −½I − K in place of −½I + K
    monkeypatch.setitem(potentials._TRACES, "double.dirichlet.exterior",
                        ("double_layer", -1.0, -0.5))


def _speed_dropped_from_s_diagonal(monkeypatch):
    # S_ii without the −ln|x'(t_i)|/(2π) of its split diagonal; the disk's speed is 1
    single_layer = potentials._LayerOperators.single_layer.func

    def planted(self):
        mat = single_layer(self)
        speed = self.grid.speed
        mat[np.diag_indices_from(mat)] += speed * np.log(speed) / self.grid.n
        return mat

    monkeypatch.setattr(potentials._LayerOperators, "single_layer", property(planted))


def _euler_constant_off(monkeypatch):
    # the Euler constant of S's split diagonal off by 1e-3: S_ii + 1e-3·s_i/N
    single_layer = potentials._LayerOperators.single_layer.func

    def planted(self):
        mat = single_layer(self)
        mat[np.diag_indices_from(mat)] += 1e-3 * self.grid.speed / self.grid.n
        return mat

    monkeypatch.setattr(potentials._LayerOperators, "single_layer", property(planted))


def _scale_operator(monkeypatch, name):
    # one layer operator of the bundle times 1.001
    operator = getattr(potentials._LayerOperators, name).func
    monkeypatch.setattr(potentials._LayerOperators, name,
                        property(lambda self: 1.001 * operator(self)))


def _double_layer_scaled(monkeypatch):
    _scale_operator(monkeypatch, "double_layer")


def _adjoint_double_layer_scaled(monkeypatch):
    _scale_operator(monkeypatch, "adjoint_double_layer")


def _k_derivative_scaled(monkeypatch):
    # K_m′(κ) of the disk-mode family times 1.001; every disk closed form reads it
    init = potentials._DiskMode.__init__

    def planted(self, *args):
        init(self, *args)
        self.dk_m = self.dk_m * 1.001

    monkeypatch.setattr(potentials._DiskMode, "__init__", planted)


def _normals_scaled(monkeypatch):
    # the grid's unit normals times 1.001: the Rellich weight 2⟨x, ν⟩ and the
    # Neumann traces of the point-source fields read them
    normals = geometry.QuadratureGrid.normals.func
    monkeypatch.setattr(geometry.QuadratureGrid, "normals",
                        property(lambda self: 1.001 * normals(self)))


def _unweighted_rayleigh_quotients(monkeypatch):
    # ⟨φ, Mφ⟩/⟨φ, φ⟩ as plain sums over the nodes, without the arc weights
    def quotients(grid, phis, images):
        return (np.einsum("ij,ij->j", phis.conj(), images)
                / np.einsum("ij,ij->j", phis.conj(), phis))

    monkeypatch.setattr(weyl, "_rayleigh_quotients", quotients)


def _singular_values_doubled(monkeypatch):
    # σ(S) at twice its value, so the indicator 1/σ_max(S) is halved
    values = potentials._LayerOperators.single_layer_singular_values.func
    monkeypatch.setattr(potentials._LayerOperators, "single_layer_singular_values",
                        property(lambda self: 2.0 * values(self)))


def _brackets_swapped(monkeypatch):
    # [Γ₀f] and [Γ₁f] trade places
    brackets = coupling.jump_brackets
    monkeypatch.setattr(coupling, "jump_brackets", lambda *args: (
        lambda jumps: coupling.JumpData(jumps.bracket1, jumps.bracket0))(brackets(*args)))


def _gamma1_sign_flipped(monkeypatch):
    # Γ₁ = +τ_N in place of −τ_N
    brackets = coupling.jump_brackets
    monkeypatch.setattr(coupling, "jump_brackets", lambda *args: (
        lambda jumps: coupling.JumpData(jumps.bracket0, -jumps.bracket1))(brackets(*args)))


def _scale_gradient_factor(monkeypatch, regime):
    # ∇E's radial factor from specfun._kernel times 1.001 at the z of one regime;
    # the bundle's K and K* and the off-curve fields read it through potentials
    kernel = potentials._kernel

    def planted(z, order, r, h=None):
        out = kernel(z, order, r, h)
        return out * 1.001 if order == 1 and regime(z) else out

    monkeypatch.setattr(potentials, "_kernel", planted)


def _laplace_gradient_scaled(monkeypatch):
    _scale_gradient_factor(monkeypatch, lambda z: z.is_laplace)


def _real_gradient_scaled(monkeypatch):
    _scale_gradient_factor(monkeypatch, lambda z: z.z.imag == 0.0 and not z.is_laplace)


def _complex_gradient_scaled(monkeypatch):
    _scale_gradient_factor(monkeypatch, lambda z: z.z.imag != 0.0)


_CURVES = ("disk", "kite", "ellipse:1.5,0.8")
_PLANAR = ["--nodes", "128", "--z", "-5,1"]

_GREEN = {"green.third.interior", "green.third.exterior"}
_DTN = {"weyl.dtn.mode", "weyl.dtn.point_source"}
_CALDERON = {"jump.calderon.interior", "jump.calderon.exterior"}

# (defect, argv, the check names that fail); dtn reads S and K* only, so the
# K entry runs jumps alone
DEFECTS = [
    (_side_ignored, ["dtn", "--side", "exterior", "--curve", "disk", *_PLANAR], _DTN),
    *[(_side_ignored, ["dtn", "--side", "exterior", "--curve", curve, *_PLANAR],
       {"weyl.dtn.point_source"}) for curve in _CURVES[1:]],
    *[(_side_ignored, ["jumps", "--curve", curve, *_PLANAR], {"weyl.dtn.point_source"})
      for curve in _CURVES],
    (_exterior_k_sign_flipped, ["jumps", "--curve", "disk", *_PLANAR],
     {"jump.calderon.exterior", "jump.double.dirichlet.exterior"}),
    *[(_exterior_k_sign_flipped, ["jumps", "--curve", curve, *_PLANAR], {"jump.calderon.exterior"})
      for curve in _CURVES[1:]],
    *[(_speed_dropped_from_s_diagonal, ["jumps", "--curve", curve, *_PLANAR],
       _CALDERON | {"weyl.dtn.point_source"}) for curve in _CURVES[1:]],
    *[(_speed_dropped_from_s_diagonal, ["dtn", "--side", side, "--curve", curve, *_PLANAR], _DTN)
      for side in ("interior", "exterior") for curve in _CURVES[1:]],
    # the disk's jump rows against the closed-form Bessel multipliers
    (_euler_constant_off, ["jumps", "--curve", "disk", *_PLANAR],
     _CALDERON | {"jump.single.dirichlet.interior", "jump.single.dirichlet.exterior",
                  "weyl.dtn.point_source"}),
    (_adjoint_double_layer_scaled, ["jumps", "--curve", "disk", *_PLANAR],
     {"jump.single.neumann.interior", "jump.single.neumann.exterior", "weyl.dtn.point_source"}),
    (_double_layer_scaled, ["jumps", "--curve", "disk", *_PLANAR],
     _CALDERON | {"jump.double.dirichlet.interior", "jump.double.dirichlet.exterior"}),
    (_k_derivative_scaled, ["jumps", "--curve", "disk", *_PLANAR],
     {"jump.double.dirichlet.interior", "jump.single.neumann.exterior"}),
    (_k_derivative_scaled, ["dtn", "--side", "exterior", "--curve", "disk", *_PLANAR],
     {"weyl.dtn.mode"}),
    (_k_derivative_scaled, ["krein", "--z", "2,1", "--mode", "1"],
     {"coupling.krein.mode", "coupling.mixed.mode"}),
    (_unweighted_rayleigh_quotients, ["dtn", "--side", "exterior", "--curve", "kite", *_PLANAR],
     {"weyl.dtn.mode"}),
    (_normals_scaled, ["rellich", "--k", "1"], {"coupling.rellich"}),
    (_normals_scaled, ["jumps", "--curve", "disk", *_PLANAR], _CALDERON | {"weyl.dtn.point_source"}),
    *[(plant, ["green-identity", "--curve", curve, *_PLANAR], _GREEN)
      for plant in (_brackets_swapped, _gamma1_sign_flipped) for curve in _CURVES],
    (_brackets_swapped, ["green-identity", "--curve", "disk", "--nodes", "128", "--z", "-100,0"],
     _GREEN),
    # ∇E scaled in one regime of the kernel: the off-curve fields at every z, and K and K*
    # too away from z = 0, where the bundle keeps the logarithm's closed form
    *[(plant, [*run, "--curve", "kite", "--nodes", "128", "--z", z], names)
      for plant, z, dtn in ((_laplace_gradient_scaled, "0,0", {"weyl.dtn.point_source"}),
                            (_real_gradient_scaled, "-1,0", _DTN),
                            (_complex_gradient_scaled, "-5,1", _DTN))
      for run, names in ((["jumps"], _CALDERON | {"weyl.dtn.point_source"}),
                         (["dtn", "--side", "interior"], dtn),
                         (["green-identity"],
                          {"green.third.exterior"} if z == "-5,1" else _GREEN))],
    (_krein_without_rank_one, ["krein", "--z", "2,1", "--mode", "1"], {"coupling.krein.mode"}),
    (_krein_without_rank_one, ["interval", "--check", "krein"], {"interval.krein"}),
    (_dirichlet_for_neumann, ["krein", "--z", "2,1", "--mode", "1"], {"coupling.mixed.mode"}),
    (_dirichlet_for_neumann, ["interval", "--check", "mixed"], {"interval.mixed", "interval.res01"}),
    (_unweighted_pairing, ["interval", "--check", "krein"], {"interval.krein"}),
    (_unweighted_pairing, ["interval", "--check", "suite"], {"interval.gsgs"}),
    (_gram_without_conjugate, ["interval", "--check", "suite"], {"interval.jaok2"}),
    (_resolvent_negated, ["interval", "--check", "green3"],
     {"interval.green3.minus", "interval.green3.plus"}),
]

# (defect, argv, the ROADMAP item that would close the gap and why the run passes)
GAPS = [
    *[(_unweighted_rayleigh_quotients, [*run, "--curve", curve, *_PLANAR],
       "item 17: the N/2 reference of the mode rows reads the same quotient")
      for run, curve in ((["dtn", "--side", "interior"], "kite"),
                         (["dtn", "--side", "interior"], "ellipse:1.5,0.8"),
                         (["dtn", "--side", "exterior"], "ellipse:1.5,0.8"))],
    (_singular_values_doubled, ["indicator", "--curve", "kite", "--nodes", "128", "--z", "-3,0"],
     "item 1: the indicator row only compares its value with a floor"),
    (_brackets_swapped, ["green-identity", "--curve", "disk", "--nodes", "128", "--z", "-400,0"],
     "item 3: absolute residuals of fields that decay like e^{−|Im √z|·d}"),
]


@pytest.mark.parametrize("argv", sorted({tuple(argv) for _, argv, *_ in DEFECTS + GAPS}))
def test_each_run_passes_without_a_defect(argv):
    code, _, stderr = _run(list(argv))
    assert code == 0, stderr


@pytest.mark.parametrize("plant, argv, names", [
    *[pytest.param(plant, argv, names, id=f"{plant.__name__}-{' '.join(argv)}")
      for plant, argv, names in DEFECTS],
    # a gap names no checks: its run passes, and a run that fails at all xpasses
    *[pytest.param(plant, argv, None, id=f"{plant.__name__}-{' '.join(argv)}",
                   marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP {gap}"))
      for plant, argv, gap in GAPS],
])
def test_a_planted_defect_fails_its_rows(monkeypatch, plant, argv, names):
    plant(monkeypatch)
    code, stdout, stderr = _run(argv)
    assert code == 1, stderr
    report = json.loads(stdout)
    assert not report["all_pass"]
    assert names is None or {row["check"] for row in report["checks"]
                             if not row["passed"]} == names


def test_the_doubled_singular_values_halve_the_indicator(monkeypatch):
    # the GAPS plant moves the value the row reports, so its xfail is a real gap
    argv = ["indicator", "--curve", "kite", "--nodes", "128", "--z", "-3,0"]

    def indicator():
        code, stdout, stderr = _run(argv)
        assert code == 0, stderr
        return json.loads(stdout)["checks"][0]["details"]["indicator"]

    plain = indicator()
    _singular_values_doubled(monkeypatch)
    assert indicator() == 0.5 * plain


def _catalog() -> dict:
    """The README's check-name table: each check name and its last cell."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Check names\n")[1].split("\n## ")[0]
    return dict(re.findall(r"^\| `([\w.]+)` \|.*\| ([^|]*) \|$", section, re.MULTILINE))


def test_the_readme_catalog_names_every_check_the_runs_emit():
    names = set()
    for argv in sorted({tuple(argv) for _, argv, *_ in DEFECTS + GAPS}):
        _, stdout, _ = _run(list(argv))
        names |= {row["check"] for row in json.loads(stdout)["checks"]}
    assert set(_catalog()) == names


def test_each_catalog_row_names_the_plants_that_fail_it_or_its_gap():
    gaps = {reason.split(":")[0] for *_, reason in GAPS}
    for name, cell in _catalog().items():
        plants = {plant.__name__ for plant, _, names in DEFECTS if name in names}
        assert set(re.findall(r"`(_\w+)`", cell)) == plants, name
        gap = re.fullmatch(r"`GAPS` (item \d+)", cell)
        assert plants or (gap and gap[1] in gaps), name
