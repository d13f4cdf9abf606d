"""Tests of the benchmark's own arithmetic: self times, cell counts, margins.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import levyhjm  # noqa: E402
from levyhjm.checks import CheckReport, identity_report, inequality_report  # noqa: E402
from perfbench import spans  # noqa: E402
from perfbench.spans import Recorder, Span, instrument, layer_totals, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, margin_se, min_margin_se  # noqa: E402


def test_self_time_of_nested_spans():
    tree = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("a.child", 2.0, 3.0, 1, "op"),
        Span("b", 5.0, 6.0, 0, "op"),
    ]
    assert self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("b", 3.0, 6.0, 0, "op"),
        Span("c", 9.0, 12.0, 0, "op"),  # reaches past its parent's end
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_and_sums_per_operation():
    rec = Recorder()
    rec.op = "op0"
    outer = rec.begin("outer")
    rec.end(rec.begin("inner"))
    rec.count("things", 3)
    rec.end(outer)
    assert [s.parent for s in rec.spans] == [-1, 0]
    totals = layer_totals(rec)["op0"]
    outer, inner = rec.spans
    assert totals["inner"] == pytest.approx(inner.end - inner.start)
    assert totals["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    assert totals["things"] == 3


def test_instrument_rebinds_every_alias_and_restores():
    original = levyhjm.curvespace.norm_H
    grid = levyhjm.make_grid(1.0, 11, 0.1)
    rec = Recorder()
    with instrument(rec):
        assert levyhjm.solver.norm_H is not original
        assert levyhjm.solver.norm_H is levyhjm.checks.norm_H
        value = levyhjm.solver.norm_H(np.ones((3, 11)), grid)
    assert levyhjm.curvespace.norm_H is original
    assert levyhjm.solver.norm_H is original
    np.testing.assert_array_equal(value, original(np.ones((3, 11)), grid))
    names = [s.name for s in rec.spans]
    assert names == ["curvespace.norm_H", "curvespace.grid_derivative"]
    assert rec.spans[1].parent == 0
    assert rec.counts[("", "curvespace.norm_H.curves")] == 3


def test_instrument_leaves_no_wrapper_in_a_module_it_imports():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import levyhjm\n"
        "assert 'levyhjm.cli' not in sys.modules\n"
        "from perfbench.spans import Recorder, instrument\n"
        "with instrument(Recorder()): pass\n"
        "import levyhjm.cli\n"
        "assert levyhjm.cli.verify_isometry is levyhjm.checks.verify_isometry\n"
        "assert not hasattr(levyhjm.cli.verify_isometry, '__wrapped__')\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT)], check=True, timeout=60
    )


def test_traced_euler_counts_steps_and_alive_paths():
    grid = levyhjm.make_grid(1.0, 11, 0.1)
    driver = levyhjm.build_driver([levyhjm.WienerComponent(1.0)], r_ball=2.0, delta=1.5)
    model = levyhjm.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=levyhjm.CumulantModel(driver),
        vol=levyhjm.constant_volatility([0.1]),
    )
    cfg = levyhjm.SolverConfig(horizon=0.5, n_steps=5, n_paths=4, seed=3)
    plain = levyhjm.euler_solve(model, np.full(11, 0.02), cfg)
    rec = Recorder()
    with instrument(rec):
        traced = levyhjm.solver.euler_solve(model, np.full(11, 0.02), cfg)
    np.testing.assert_array_equal(plain.curves, traced.curves)
    totals = layer_totals(rec)[""]
    assert totals["solver.steps"] == 5
    assert totals["solver.alive"] == 4 and totals["solver.paths"] == 4
    # one span per resume: the first computes the initial state, the last
    # finds the generator exhausted
    resumes = [s for s in rec.spans if s.name == "solver.euler_transitions"]
    assert len(resumes) == cfg.n_steps + 2


def test_every_target_exists():
    rec = Recorder()
    with instrument(rec):
        pass
    for module, attr, _layer in spans.TARGETS:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


@pytest.mark.parametrize(
    "name, cells",
    [
        # solver 48 x 16; isometry and bonds 8000 x 16 each; Bichteler-Jacod
        # and convolution 8000 paths x 2 orders x (8 + 16 + 32) steps each
        ("scenario_gamma", 321 * (48 * 16 + 8000 * (16 + 16 + 2 * 2 * (8 + 16 + 32)))),
        ("picard_ensemble", 2000 * 16 * 321),
        ("bond_arbiter", 4 * 10_000 * 20 * 121),
    ],
)
def test_cells_per_operation(name, cells):
    assert WORKLOADS[name].cells(ROOT, seed=1) == cells


def test_inputs_depend_on_the_seed_only(tmp_path):
    wl = WORKLOADS["picard_ensemble"]
    assert wl.configs(ROOT, 5) == wl.configs(ROOT, 5)
    assert wl.configs(ROOT, 5)[0]["seed"] == 5
    assert wl.configs(ROOT, 5) != wl.configs(ROOT, 6)
    # the checked scenario is the shipped file, whatever the seed
    (config,) = WORKLOADS["scenario_gamma"].write_inputs(ROOT, 5, tmp_path)
    assert config.read_bytes() == (ROOT / "configs" / "gamma_hjm.yaml").read_bytes()


def _report(name, mode, lhs, rhs, se, passed, tol=0.0):
    return CheckReport(name, mode, lhs, rhs, lhs / rhs, 100, se, tol, passed)


def test_min_margin_se_on_hand_built_reports():
    reports = [
        _report("ineq", "inequality", 1.0, 2.0, 0.5, True),  # (2 - 1)/0.5 + 3 = 5
        _report("ident", "identity", 1.2, 1.0, 0.1, True),  # -0.2/0.1 + 3 = 1
        _report("bichteler_jacod_p2_T1", "inequality", 9.0, 1.0, 0.1, True),
        _report("convolution_p4_T2", "inequality", 9.0, 1.0, 0.1, True),
        _report("deterministic", "inequality", 1.0, 2.0, 0.0, True),
    ]
    assert margin_se(reports[0]) == pytest.approx(5.0)
    assert margin_se(reports[1]) == pytest.approx(1.0)
    assert [margin_se(r) for r in reports[2:]] == [None, None, None]
    assert min_margin_se(reports) == pytest.approx(1.0)
    assert min_margin_se(reports[2:]) == 0.0
    # the sanity row of the convolution check is an ordinary inequality
    vs_plain = _report("convolution_vs_plain_p2_T1", "inequality", 1.0, 1.5, 0.25, True)
    assert margin_se(vs_plain) == pytest.approx(5.0)


@pytest.mark.parametrize("lhs", [0.5, 0.97, 1.0, 1.03, 1.2, 1.5])
def test_margin_sign_matches_the_package_pass_rules(lhs):
    for make in (inequality_report, identity_report):
        r = make("r", lhs, 1.0, n_samples=10, standard_error=0.01, tolerance=0.02)
        assert (margin_se(r) >= 0) == r.passed


def test_benchmark_json_matches_the_runner():
    from perfbench.run import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
