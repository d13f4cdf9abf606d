"""Scenario parsing, artifact schemas, exit codes, determinism."""

import contextlib
import copy
import csv
import ctypes
import hashlib
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import levyhjm as lh
from levyhjm import _children, cli
from levyhjm.checks import CheckReport, report_row
from levyhjm.cli import (
    CHECK_REGISTRY,
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    ScenarioError,
    _write_curves_csv,
    build_bundle,
    load_scenario,
    main,
    run_scenario,
    run_verify_suite,
    solver_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


BASE_CONFIG = {
    "seed": 11,
    "output_dir": "out",
    "grid": {"x_max": 5.0, "n_points": 51, "beta": 0.1},
    "driver": {
        "r_ball": 0.4,
        "delta": 1.5,
        "components": [{"kind": "gamma", "c": 1.0, "rate": 2.0}],
    },
    "volatility": {
        "name": "tanh_bounded",
        "drift_sign": -1,
        "params": {"scales": [0.05], "decays": [1.0]},
    },
    "solver": {
        "method": "euler",
        "horizon": 0.5,
        "n_steps": 5,
        "n_paths": 8,
        "initial_curve": {"short": 0.02, "long": 0.03, "decay": 0.5},
    },
}


# A geometric gamma family with every optional key set and a verify section
FAMILY_CONFIG = {
    **BASE_CONFIG,
    "driver": {
        "r_ball": 0.4,
        "delta": 1.5,
        "p_max": 4.0,
        "family": {
            "rule": "gamma_geometric", "c0": 1.0, "ratio": 0.5, "rate": 2.0, "d_trunc": 3
        },
    },
    "volatility": {
        "name": "tanh_bounded",
        "drift_sign": -1,
        "params": {"scales": [0.05] * 3, "decays": [1.0] * 3},
    },
    "solver": {**BASE_CONFIG["solver"], "picard_tol": 1e-8, "r_local": 100.0, "p": 4.0},
    "verify": {
        "checks": ["martingale_bonds", "bichteler_jacod"],
        "n_paths": 100,
        "n_steps": 4,
        "maturities": [2.0, 4.0],
        "orders": [2.0, 4.0],
        "horizons": [0.5, 1.0],
        "factor_cap": 3.0,
    },
}


def write_config(
    tmp_path: Path, overrides=None, name="scenario.yaml", base=BASE_CONFIG
) -> Path:
    cfg = yaml.safe_load(yaml.safe_dump(base))  # deep copy
    for dotted, value in (overrides or {}).items():
        node = cfg
        *head, last = dotted.split(".")
        for k in head:
            node = node.setdefault(k, {})
        node[last] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def config_leaves(node, path=()):
    """Key paths to every value in a config that is not a mapping, lists and
    their entries both included."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if not isinstance(child, dict):
            yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from config_leaves(child, path + (key,))


class TestScenarioParsing:
    def test_bundled_configs_parse(self):
        for name in ("gamma_hjm.yaml", "smoke.yaml"):
            sc = load_scenario(CONFIG_DIR / name)
            assert sc.seed >= 0
            assert len(sc.content_hash) == 40

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"surprise": 1})
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        # n_picard is no longer a setting: the Picard solve is two passes;
        # doob_margin is the constant 0.1
        for override in (
            {"solver.extra_knob": 2}, {"solver.n_picard": 12}, {"verify.doob_margin": 0.1}
        ):
            path = write_config(tmp_path, override)
            with pytest.raises(ScenarioError, match="unknown key"):
                load_scenario(path)

    def test_missing_required_key_rejected(self, tmp_path):
        cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
        del cfg["grid"]["x_max"]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ScenarioError, match="missing required"):
            load_scenario(path)

    def test_component_and_family_mutually_exclusive(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "driver.family": {
                    "rule": "gamma_geometric",
                    "c0": 1.0,
                    "ratio": 0.5,
                    "rate": 2.0,
                    "d_trunc": 3,
                }
            },
        )
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(path)

    def test_geometric_family_accepted(self, tmp_path):
        cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
        del cfg["driver"]["components"]
        cfg["driver"]["family"] = {
            "rule": "gamma_geometric",
            "c0": 1.0,
            "ratio": 0.5,
            "rate": 2.0,
            "d_trunc": 3,
        }
        cfg["volatility"]["params"] = {"scales": [0.05] * 3, "decays": [1.0] * 3}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        sc = load_scenario(path)
        assert sc.driver["family"]["d_trunc"] == 3

    def test_maturity_beyond_grid_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"verify": {"checks": ["martingale_bonds"], "maturities": [7.0]}},
        )
        with pytest.raises(ScenarioError, match="x_max"):
            load_scenario(path)

    def test_duplicate_maturities_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"verify": {"checks": ["martingale_bonds"], "maturities": [2.0, 2.0]}},
        )
        with pytest.raises(ScenarioError, match="distinct"):
            load_scenario(path)

    def test_one_verify_path_exits_2(self, tmp_path, capsys):
        # a standard error over one path is NaN, so every Monte Carlo row
        # would fail after the run; one solver path stays valid
        raw = yaml.safe_load((CONFIG_DIR / "gamma_hjm.yaml").read_text())
        raw["verify"].update(checks=["martingale_bonds", "isometry"], n_paths=1)
        path = tmp_path / "one_path.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == EXIT_CONFIG_ERROR
        assert "verify.n_paths must be an integer >= 2" in capsys.readouterr().err
        assert not out.exists()
        raw["solver"]["n_paths"], raw["verify"]["n_paths"] = 1, 2
        path.write_text(yaml.safe_dump(raw))
        assert load_scenario(path).solver["n_paths"] == 1

    def test_duplicate_check_names_exit_2(self, tmp_path, capsys):
        # a repeated name would run the check twice and repeat its rows
        path = write_config(tmp_path, {"verify": {"checks": ["isometry", "isometry"]}})
        with pytest.raises(ScenarioError, match="distinct"):
            load_scenario(path)
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: verify.checks must be distinct")
        assert not out.exists()

    def test_unknown_check_name_rejected(self, tmp_path):
        path = write_config(tmp_path, {"verify": {"checks": ["not_a_check"]}})
        with pytest.raises(ScenarioError, match="unknown check"):
            load_scenario(path)

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed")
        with pytest.raises(ScenarioError, match="YAML"):
            load_scenario(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, {"seed": -1})
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "key",
        [
            "solver.n_steps",
            "solver.n_paths",
            "verify.n_steps",
            "verify.n_paths",
            "grid.n_points",
            "driver.family.d_trunc",
        ],
    )
    @pytest.mark.parametrize("value", [5.7, 6.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_count_is_config_error(self, tmp_path, key, value):
        overrides = {key: value}
        if key.startswith("verify."):
            overrides["verify.checks"] = ["isometry"]
        base = FAMILY_CONFIG if key.startswith("driver.family") else BASE_CONFIG
        path = write_config(tmp_path, overrides, base=base)
        with pytest.raises(ScenarioError, match="must be an integer"):
            load_scenario(path)
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CONFIG_ERROR

    def test_default_orders_checked_at_load(self, tmp_path):
        # the maximal inequalities run at orders 2 and 4 unless told otherwise;
        # order 4 needs p_max >= 4, so p_max 3 is a config error before any run
        verify = {"checks": ["bichteler_jacod"], "horizons": [0.5], "n_paths": 100}
        path = write_config(tmp_path, {"driver.p_max": 3.0, "verify": verify})
        with pytest.raises(ScenarioError, match="moment order 4"):
            load_scenario(path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()
        # explicit orders within p_max, or checks that run at no order, load
        for overrides in ({"verify.orders": [2.0, 3.0]}, {"verify.checks": ["isometry"]}):
            path = write_config(
                tmp_path, {"driver.p_max": 3.0, "verify": verify, **overrides}
            )
            load_scenario(path)

    @pytest.mark.parametrize("base", [BASE_CONFIG, FAMILY_CONFIG], ids=["components", "family"])
    def test_bool_in_float_key_is_config_error(self, tmp_path, base):
        # YAML's true is no number: float(True) would read it as 1.0
        integer_keys = {"seed", "n_points", "n_steps", "n_paths", "d_trunc"}
        leaves = []
        for leaf in config_leaves(base):
            node = base
            for key in leaf:
                node = node[key]
            number = isinstance(node, (int, float)) and not isinstance(node, bool)
            if number and not set(leaf) & integer_keys:
                leaves.append(leaf)
        assert len(leaves) >= 13
        loaded = []
        for leaf in leaves:
            cfg = copy.deepcopy(base)
            node = cfg
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = True
            path = tmp_path / "scenario.yaml"
            path.write_text(yaml.safe_dump(cfg))
            try:
                load_scenario(path)
            except ScenarioError as exc:
                assert "must be a number" in str(exc), leaf
            else:
                loaded.append(leaf)
        assert not loaded

    def test_bool_grid_x_max_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"grid.x_max": True})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_initial_curve_outside_radius_is_config_error(self, tmp_path):
        # BASE_CONFIG's initial curve has |u0|_H = 0.0207
        path = write_config(tmp_path, {"solver.r_local": 0.02})
        with pytest.raises(ScenarioError, match="exceeds r_local"):
            load_scenario(path)
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CONFIG_ERROR

    def test_exponential_moment_violation_is_config_error(self, tmp_path):
        # gamma rate below delta * r_ball must be rejected at load time
        path = write_config(tmp_path, {"driver.r_ball": 2.0})
        with pytest.raises(ScenarioError, match="exponential moment"):
            load_scenario(path)

    @pytest.mark.parametrize("base", [BASE_CONFIG, FAMILY_CONFIG], ids=["components", "family"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, "x", None, [], True, -1], ids=repr
    )
    def test_only_scenario_error_leaves_load(self, tmp_path, base, value):
        # under the suite's error::RuntimeWarning filter a load that computes
        # with a NaN before rejecting it escapes too
        escapes = []
        for leaf in config_leaves(base):
            cfg = copy.deepcopy(base)
            node = cfg
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = value
            path = tmp_path / "scenario.yaml"
            path.write_text(yaml.safe_dump(cfg))
            try:
                load_scenario(path)
            except ScenarioError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception is the failure
                escapes.append(f"{leaf}: {type(exc).__name__}: {exc}")
        assert not escapes


class TestRunScenario:
    def test_zero_vol_curves_are_transport(self, tmp_path):
        path = write_config(
            tmp_path,
            {"volatility.params": {"scales": [0.0], "decays": [1.0]}, "solver.n_paths": 1},
        )
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == EXIT_OK
        rows = list(csv.DictReader(open(out / "curves.csv")))
        grid = lh.make_grid(5.0, 51, 0.1)
        u0 = 0.03 + (0.02 - 0.03) * np.exp(-0.5 * grid.nodes)
        last_t = max(float(r["t"]) for r in rows)
        final = np.array(
            [float(r["u"]) for r in rows if float(r["t"]) == last_t]
        )
        np.testing.assert_array_equal(final, lh.shift(u0, last_t, grid))

    def test_summary_row_count_matches_time_nodes(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == EXIT_OK
        rows = list(csv.reader(open(out / "summary.csv")))
        assert len(rows) == 1 + BASE_CONFIG["solver"]["n_steps"] + 1

    def test_empty_check_list_gives_header_only_checks_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        run_scenario(path, out_dir=out)
        rows = list(csv.reader(open(out / "checks.csv")))
        assert len(rows) == 1
        assert rows[0][0] == "name"

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "verify": {
                    "checks": ["isometry", "cumulant_derivatives"],
                    "n_paths": 2000,
                    "n_steps": 5,
                }
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_scenario(path, out_dir=out1) == EXIT_OK
        assert run_scenario(path, out_dir=out2) == EXIT_OK
        for name in ("curves.csv", "summary.csv", "checks.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(path, out_dir=out1)
        run_scenario(path, out_dir=out2, seed_override=99)
        assert (out1 / "curves.csv").read_bytes() != (out2 / "curves.csv").read_bytes()
        assert json.load(open(out2 / "manifest.json"))["seed"] == 99

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert run_scenario(path, out_dir=tmp_path / "a", seed_override=-1) == EXIT_CONFIG_ERROR
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "-1"]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "config error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"grid.x_max": -1.0})
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("key", ["solver.r_local", "solver.horizon"])
    def test_nan_solver_setting_is_config_error(self, tmp_path, key):
        path = write_config(tmp_path, {key: float("nan")})
        with pytest.raises(ScenarioError, match=key.split(".")[1]):
            load_scenario(path)
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "overrides",
        [
            {"driver.delta": math.nan},
            {"driver.r_ball": math.nan},
            {"grid.beta": math.nan},
            {"grid.beta": math.inf},
            {"grid.n_points": math.inf},
            {"volatility.params.scales": [math.nan]},
            {"volatility.name": "constant_vector", "volatility.params": {"levels": [math.nan]}},
            {"solver.initial_curve.short": "x"},
            {"verify": {"checks": ["bichteler_jacod"], "orders": [1.0]}},
            {"verify": {"checks": ["bichteler_jacod"], "orders": [math.nan]}},
            {"verify": {"checks": ["bichteler_jacod"], "horizons": [0.0]}},
            {"verify": {"checks": ["bichteler_jacod"], "factor_cap": "x"}},
            {"verify": {"checks": ["martingale_bonds"], "maturities": ["x"]}},
        ],
        ids=[
            "delta_nan", "r_ball_nan", "beta_nan", "beta_inf", "n_points_inf", "scales_nan",
            "levels_nan", "initial_curve_str", "order_1", "order_nan", "horizon_0",
            "factor_cap_str", "maturity_str",
        ],
    )
    def test_invalid_value_is_config_error(self, tmp_path, capsys, overrides):
        out = tmp_path / "out"
        assert run_scenario(write_config(tmp_path, overrides), out_dir=out) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert run_scenario(tmp_path / "nope.yaml") == EXIT_CONFIG_ERROR

    def test_failing_check_exit_code(self, tmp_path):
        # wrong drift sign: the martingale check must fail and exit 1
        path = write_config(
            tmp_path,
            {
                "volatility.drift_sign": 1,
                "volatility.name": "constant_vector",
                "volatility.params": {"levels": [0.05]},
                "solver.horizon": 1.0,
                "solver.n_steps": 10,
                "verify": {
                    "checks": ["martingale_bonds"],
                    "maturities": [4.0],
                    "n_paths": 20000,
                    "n_steps": 10,
                    "horizons": [1.0],
                },
            },
        )
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CHECK_FAILURE

    def test_bond_check_localizes_at_the_scenario_radius(self, tmp_path):
        # at r_local 0.025 the simulation keeps every path, while 39 of the
        # bond check's 1000 paths localize: more than its 0.1 % cap
        verify = {
            "checks": ["martingale_bonds"], "n_paths": 1000, "n_steps": 5, "maturities": [2.0, 4.0]
        }
        out = tmp_path / "out"
        path = write_config(tmp_path, {"solver.r_local": 0.025, "verify": verify})
        assert run_scenario(path, out_dir=out) == EXIT_CHECK_FAILURE
        assert json.loads((out / "manifest.json").read_text())["n_localized"] == 0
        rows = list(csv.DictReader((out / "checks.csv").read_text().splitlines()))
        assert {json.loads(r["config"])["n_localized"] for r in rows} == {39}
        # without the key the check localizes at the default radius
        path = write_config(tmp_path, {"verify": verify})
        assert run_scenario(path, out_dir=out) == EXIT_OK

    def test_picard_method_records_residuals(self, tmp_path):
        path = write_config(tmp_path, {"solver.method": "picard"})
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == EXIT_OK
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["picard"]["converged"]
        assert manifest["picard"]["residuals"]


# every check on a small scenario
ALL_CHECKS = {
    "checks": list(CHECK_REGISTRY),
    "n_paths": 200,
    "n_steps": 4,
    "maturities": [2.0, 4.0],
    "orders": [2.0, 4.0],
    "horizons": [0.5, 1.0],
}


def openblas_threads():
    """The thread count of the OpenBLAS this process has loaded, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(*args):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class ForkedCheckWarning(UserWarning):
    """A warning that only the tests below issue."""


class TestForkedChecks:
    """Each configured check runs in a forked worker process."""

    @pytest.mark.parametrize("scenario", ["gamma_hjm", "all_checks"])
    def test_reports_equal_those_run_in_process(self, tmp_path, scenario):
        if scenario == "gamma_hjm":
            path = CONFIG_DIR / "gamma_hjm.yaml"
        else:
            path = write_config(tmp_path, {"verify": ALL_CHECKS})
        sc = load_scenario(path)
        bundle = build_bundle(sc)
        assert sc.verify["checks"] == list(CHECK_REGISTRY)
        in_process = sorted(
            (r for name in sc.verify["checks"] for r in CHECK_REGISTRY[name](sc, bundle, sc.seed)),
            key=lambda r: r.name,
        )
        with run_verify_suite(sc, bundle, sc.seed, sc.verify["checks"]) as join:
            forked = join()
        # the reprs hold the types: np.float64 in a report's config is kept
        assert [repr(report_row(r)) for r in forked] == [
            repr(report_row(r)) for r in in_process
        ]
        assert [repr(r) for r in forked] == [repr(r) for r in in_process]

    def test_check_that_raises_exits_3_with_its_error(self, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setitem(CHECK_REGISTRY, "isometry", boom)
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == "runtime error: ValueError: boom\n"

    def test_check_killed_by_a_signal_exits_3_naming_it(self, tmp_path, capsys, monkeypatch):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(CHECK_REGISTRY, "exponential_moment", killed)
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == (
            "runtime error: RuntimeError: check 'exponential_moment' died from signal SIGKILL\n"
        )

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_simulation_that_raises_kills_running_checks(
        self, tmp_path, capsys, monkeypatch, error
    ):
        def hangs(*args):
            time.sleep(600)

        def fails(*args):
            raise error("solver failed")

        monkeypatch.setitem(CHECK_REGISTRY, "convolution", hangs)
        monkeypatch.setattr(cli, "euler_solve", fails)
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        # the hanging check is killed, not waited for
        with deadline(60):
            if error is KeyboardInterrupt:
                with pytest.raises(KeyboardInterrupt):
                    run_scenario(path, out_dir=tmp_path / "out")
            else:
                assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
                assert capsys.readouterr().err == "runtime error: RuntimeError: solver failed\n"

    def test_checks_run_on_one_blas_thread(self, tmp_path, monkeypatch):
        # a second OpenBLAS thread spins on the cores the checks need, in
        # each check process and in this one while it simulates; the caller
        # gets its own setting back when the block ends
        def threads_report(*args):
            return [CheckReport("t", "identity", openblas_threads(), 1.0, 0.0, 1, 0.0, 0.0, True)]

        if openblas_threads() is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        before = openblas_threads()
        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        monkeypatch.setitem(CHECK_REGISTRY, "isometry", threads_report)
        with run_verify_suite(sc, build_bundle(sc), sc.seed, ["isometry"]) as join:
            # the simulation runs on one thread too
            assert openblas_threads() == 1
            (report,) = join()
            assert openblas_threads() == 1
        assert report.lhs == 1
        assert openblas_threads() == before

    def test_reports_larger_than_a_pipe_buffer(self, tmp_path, monkeypatch):
        def many(name):
            def run(*args):
                return [
                    CheckReport(f"{name}_{i:05d}", "identity", 0.0, 0.0, 0.0, 1, 0.0, 0.0, True,
                                {"pad": "x" * 64})
                    for i in range(2000)
                ]
            return run

        reports = many("a")()
        assert len(pickle.dumps(reports)) > 2 * 65536
        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        registry = {"first": many("b"), "second": many("a")}
        monkeypatch.setattr(cli, "CHECK_REGISTRY", registry)
        with deadline(60), run_verify_suite(sc, build_bundle(sc), sc.seed, list(registry)) as join:
            merged = join()
        assert merged == reports + many("b")()

    def test_warnings_of_the_checks_reach_the_caller_in_order(self, tmp_path, monkeypatch):
        def warns(message, then=list):
            def run(*args):
                warnings.warn(message, ForkedCheckWarning)
                return then()
            return run

        def boom():
            raise ValueError("boom")

        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        registry = {"first": warns("from first"), "second": warns("from second", boom)}
        monkeypatch.setattr(cli, "CHECK_REGISTRY", registry)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            # the second check's warning is issued before its error is raised,
            # which comes back as the exception the check raised
            with pytest.raises(ValueError, match="^boom$"):
                with run_verify_suite(sc, build_bundle(sc), sc.seed, list(registry)) as join:
                    join()
        forwarded = [w for w in seen if w.category is ForkedCheckWarning]
        assert [str(w.message) for w in forwarded] == ["from first", "from second"]
        assert {(w.filename, w.lineno) for w in forwarded} == {
            (__file__, warns.__code__.co_firstlineno + 2)
        }

    def test_error_of_a_class_pickle_cannot_find_comes_back_by_name(self, tmp_path, monkeypatch):
        # the check's own exception comes back when it pickles (above); a
        # class defined in a function does not, and comes back as a
        # RuntimeError of its name and message
        class LocalError(ValueError):
            pass

        def boom(*args):
            raise LocalError("boom")

        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        monkeypatch.setattr(cli, "CHECK_REGISTRY", {"local": boom})
        with pytest.raises(RuntimeError, match="^boom$") as raised:
            with run_verify_suite(sc, build_bundle(sc), sc.seed, ["local"]) as join:
                join()
        assert type(raised.value).__name__ == "LocalError"

    def test_warning_of_a_category_pickle_cannot_find_reaches_the_caller(
        self, tmp_path, monkeypatch
    ):
        class Local(UserWarning):
            pass

        def warns(*args):
            warnings.warn("from a local class", Local)
            return []

        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        monkeypatch.setattr(cli, "CHECK_REGISTRY", {"local": warns})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with run_verify_suite(sc, build_bundle(sc), sc.seed, ["local"]) as join:
                assert join() == []
        # sent as a UserWarning that names the class
        assert [(w.category, str(w.message)) for w in seen if "local class" in str(w.message)] == [
            (UserWarning, f"{Local.__qualname__}: from a local class")
        ]


def pin_cores(monkeypatch, cores):
    """Let the suite use ``cores`` cores, whatever the host has; returns the
    list that a spy on ``os.fork`` appends one entry to per fork made in
    this process."""
    monkeypatch.setattr(_children, "_usable_cores", lambda: cores)
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def is_running(pid):
    """Whether ``pid`` is a process that has not ended; an ended one that
    no process has reaped yet (a zombie) counts as ended."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except (FileNotFoundError, ProcessLookupError):
        return False


class TestCheckPool:
    """The suite's jobs wait in one queue, longest first, served by one
    worker per usable core; the last is forked by the join."""

    @staticmethod
    def log_each_job(monkeypatch, log):
        """Have each check, and each bond shard, append its pid and name to
        ``log`` before it runs."""
        def logged(name, run):
            def job(*args):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {name}\n")
                return run(*args)
            return job

        for name, run in list(CHECK_REGISTRY.items()):
            monkeypatch.setitem(CHECK_REGISTRY, name, logged(name, run))
        monkeypatch.setattr(cli, "bond_prices", logged("martingale_bonds", cli.bond_prices))

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_one_worker_per_core_and_none_in_this_process(self, tmp_path, monkeypatch, cores):
        sc = load_scenario(write_config(tmp_path, {"verify": ALL_CHECKS}))
        bundle = build_bundle(sc)
        expected = sorted(
            (r for name in sc.verify["checks"] for r in CHECK_REGISTRY[name](sc, bundle, sc.seed)),
            key=lambda r: r.name,
        )
        log = tmp_path / "jobs.log"
        self.log_each_job(monkeypatch, log)
        forks = pin_cores(monkeypatch, cores)
        with deadline(60), run_verify_suite(sc, bundle, sc.seed, sc.verify["checks"]) as join:
            reports = join()
        assert [repr(r) for r in reports] == [repr(r) for r in expected]
        assert len(forks) <= cores
        pids, names = zip(*(line.split() for line in log.read_text().splitlines()))
        assert sorted(names) == sorted(sc.verify["checks"])  # one bond shard
        assert os.getpid() not in {int(pid) for pid in pids}
        assert len(set(pids)) <= cores
        if cores == 1:
            # one worker takes every job, longest first
            assert list(names) == [
                "martingale_bonds", "convolution", "bichteler_jacod",
                "exponential_moment", "cumulant_derivatives", "isometry",
            ]

    @pytest.mark.parametrize("raises", [["convolution"], ["isometry", "convolution"]])
    def test_one_workers_checks_replay_in_names_order(self, tmp_path, monkeypatch, raises):
        # the worker runs convolution before isometry; the caller still
        # issues isometry's warning first, and raises the first error in
        # the order of the names
        def warns(name):
            def run(*args):
                warnings.warn(f"from {name}", ForkedCheckWarning)
                if name in raises:
                    raise ValueError(f"{name} failed")
                return []
            return run

        names = ["isometry", "convolution"]
        for name in names:
            monkeypatch.setitem(CHECK_REGISTRY, name, warns(name))
        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": names}}))
        bundle = build_bundle(sc)
        forks = pin_cores(monkeypatch, 1)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{raises[0]} failed$"):
                with run_verify_suite(sc, bundle, sc.seed, names) as join:
                    join()
        assert len(forks) == 1
        replayed = [str(w.message) for w in seen if w.category is ForkedCheckWarning]
        assert replayed == [f"from {name}" for name in names[: names.index(raises[0]) + 1]]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_worker_killed_during_a_job_names_it(self, tmp_path, capsys, monkeypatch, cores):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(CHECK_REGISTRY, "exponential_moment", killed)
        pin_cores(monkeypatch, cores)
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        with deadline(60):
            assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == (
            "runtime error: RuntimeError: check 'exponential_moment' died from signal SIGKILL\n"
        )

    def test_late_worker_runs_on_one_blas_thread(self, tmp_path, monkeypatch, blas_pins):
        # on one core the join forks the only worker, under the pool's one
        # pin; the caller gets its own setting back once the block ends
        def threads_report(*args):
            return [CheckReport("t", "identity", openblas_threads(), 1.0, 0.0, 1, 0.0, 0.0, True)]

        if openblas_threads() is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        before = openblas_threads()
        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        monkeypatch.setitem(CHECK_REGISTRY, "isometry", threads_report)
        forks = pin_cores(monkeypatch, 1)
        with run_verify_suite(sc, build_bundle(sc), sc.seed, ["isometry"]) as join:
            assert forks == []
            (report,) = join()
        assert forks == [None]
        assert len(blas_pins) == 1
        assert report.lhs == 1
        assert openblas_threads() == before

    def test_one_blas_pin_spans_the_early_and_the_late_fork(self, tmp_path, monkeypatch, blas_pins):
        # the early worker holds one job until the late worker has run the
        # other, so the join always forks
        ran = tmp_path / "frees.ran"

        def holds(*args):
            while not ran.exists():
                time.sleep(0.01)
            return []

        def frees(*args):
            ran.touch()
            return []

        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        monkeypatch.setattr(cli, "CHECK_REGISTRY", {"holds": holds, "frees": frees})
        forks = pin_cores(monkeypatch, 2)
        bundle = build_bundle(sc)
        with deadline(60), run_verify_suite(sc, bundle, sc.seed, ["holds", "frees"]) as join:
            assert join() == []
        assert forks == [None, None]
        assert len(blas_pins) == 1

    def test_a_suite_without_checks_leaves_openblas_alone(self, tmp_path, monkeypatch, blas_pins):
        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        forks = pin_cores(monkeypatch, 2)
        with run_verify_suite(sc, build_bundle(sc), sc.seed, []) as join:
            assert join() == []
        assert forks == []
        assert blas_pins == []

    def test_a_body_that_raises_restores_the_count_and_kills_the_workers(
        self, tmp_path, monkeypatch
    ):
        pid_file = tmp_path / "worker.pid"

        def sleeps(*args):
            pid_file.with_suffix(".part").write_text(str(os.getpid()))
            os.replace(pid_file.with_suffix(".part"), pid_file)
            time.sleep(600)

        if openblas_threads() is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        before = openblas_threads()
        sc = load_scenario(write_config(tmp_path, {"verify": {"checks": ["isometry"]}}))
        monkeypatch.setattr(cli, "CHECK_REGISTRY", {"sleeps": sleeps})
        pin_cores(monkeypatch, 2)
        with deadline(60), pytest.raises(ValueError, match="^the body failed$"):
            with run_verify_suite(sc, build_bundle(sc), sc.seed, ["sleeps"]):
                while not pid_file.exists():
                    time.sleep(0.01)
                assert openblas_threads() == 1
                raise ValueError("the body failed")
        assert openblas_threads() == before
        assert not is_running(int(pid_file.read_text()))

    def test_workers_die_with_a_caller_stopped_by_sigterm(self, tmp_path):
        # SIGTERM ends the caller without running its finally blocks
        config = write_config(tmp_path, {"verify": {"checks": ["isometry"]}})
        pid_file = tmp_path / "worker.pid"
        script = (
            "import os, sys, time\n"
            "from levyhjm import cli\n"
            "def sleeps(*args):\n"
            f"    with open({str(pid_file)!r} + '.part', 'w') as fh:\n"
            "        fh.write(str(os.getpid()))\n"
            f"    os.replace({str(pid_file)!r} + '.part', {str(pid_file)!r})\n"
            "    time.sleep(600)\n"
            "cli.CHECK_REGISTRY['isometry'] = sleeps\n"
            f"sc = cli.load_scenario({str(config)!r})\n"
            "with cli.run_verify_suite(sc, cli.build_bundle(sc), sc.seed, ['isometry']) as join:\n"
            "    join()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(lh.__file__).resolve().parents[1])}
        caller = subprocess.Popen([sys.executable, "-c", script], env=env)
        worker = None
        try:
            start = time.monotonic()
            while not pid_file.exists():
                assert caller.poll() is None, "the caller ended before its check ran"
                assert time.monotonic() - start < 60, "the check never ran"
                time.sleep(0.01)
            worker = int(pid_file.read_text())
            caller.send_signal(signal.SIGTERM)
            assert caller.wait(timeout=60) == -signal.SIGTERM
            start = time.monotonic()
            while is_running(worker) and time.monotonic() - start < 10:
                time.sleep(0.01)
            assert not is_running(worker)
        finally:
            caller.kill()
            caller.wait()
            if worker is not None and is_running(worker):
                os.kill(worker, signal.SIGKILL)


# the bond check alone, on few paths, which the tests below split over
# processes; at its defaults it takes the readout cone
BOND_CHECK = {"checks": ["martingale_bonds"], "n_paths": 41, "n_steps": 5, "maturities": [2.0, 3.0]}

BOND_CASES = {
    "cone": {},
    "few_paths": {"verify.n_paths": 2},
    "two_components": {
        "driver.components": [{"kind": "gamma", "c": 1.0, "rate": 2.0}] * 2,
        "volatility.params": {"scales": [0.05, 0.03], "decays": [1.0, 0.5]},
    },
    "interpolating": {"verify.n_steps": 7},
    "wrong_sign": {"volatility.drift_sign": 1},
    "mild": {"volatility.name": "constant_vector", "volatility.params": {"levels": [0.05]}},
    "localizing": {"solver.r_local": 0.025},
    "infinite_increment": {},
}


def bond_reports_both_ways(sc, bundle):
    """The bond check's reports and non-finite warnings, run by the suite
    and in this process."""
    both = []
    for suite in (True, False):
        with warnings.catch_warnings(record=True) as seen, np.errstate(invalid="ignore"):
            warnings.simplefilter("always")
            if suite:
                with run_verify_suite(sc, bundle, sc.seed, ["martingale_bonds"]) as join:
                    reports = join()
            else:
                reports = sorted(
                    cli._run_martingale_bonds(sc, bundle, sc.seed), key=lambda r: r.name
                )
        messages = [str(w.message) for w in seen if "non-finite curves" in str(w.message)]
        both.append((reports, messages))
    return both


def split_bond_check(monkeypatch, n_shards, n_nodes):
    """Let the suite split the bond check over ``n_shards`` cores, with the
    paths stepped one row per block on the full grid."""
    monkeypatch.setattr(_children, "_usable_cores", lambda: n_shards)
    monkeypatch.setattr(lh.solver, "_BLOCK_VALUES", n_nodes)


class TestSplitBondCheck:
    """The suite splits the bond check's paths into contiguous rows, one
    shard per core, and gets bitwise the reports of one process."""

    @pytest.mark.parametrize("case", list(BOND_CASES))
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_reports_equal_the_unsplit_check(self, tmp_path, monkeypatch, n_shards, case):
        # a copy: the case's "verify." keys write into it
        sc = load_scenario(write_config(tmp_path, {"verify": dict(BOND_CHECK), **BOND_CASES[case]}))
        bundle = build_bundle(sc)
        split_bond_check(monkeypatch, n_shards, bundle.grid.n_nodes)
        n_paths = sc.verify["n_paths"]
        shards = cli._bond_shards(sc, bundle, sc.seed)
        # no more shards than paths, and every path in one of them, in order
        assert len(shards) == min(n_shards, n_paths)
        assert [p for rows in shards for p in range(rows.start, rows.stop)] == list(range(n_paths))
        if case == "infinite_increment":
            # a path in the first shard and one in the last at step 2: the
            # check steps the full grid, and both paths exit there
            table = lh.checks.increment_table

            def with_infinities(*args):
                dM = table(*args)
                dM[2, [6, 30], 0] = np.inf
                return dM

            monkeypatch.setattr(lh.checks, "increment_table", with_infinities)
        (split, split_warnings), (whole, whole_warnings) = bond_reports_both_ways(sc, bundle)
        # the reprs hold the types: np.float64 in a report's config is kept
        assert [repr(report_row(r)) for r in split] == [repr(report_row(r)) for r in whole]
        assert [repr(r) for r in split] == [repr(r) for r in whole]
        assert split_warnings == whole_warnings
        n_localized = whole[0].config["n_localized"]
        if case == "infinite_increment":
            # one warning with the total over every path, not one per shard
            assert whole_warnings == [
                "2 path(s) produced non-finite curves at step 2; frozen at their last finite state"
            ]
            assert n_localized == 2
        else:
            assert whole_warnings == []
            assert (n_localized > 0) == (case == "localizing")

    def test_route_that_fails_on_a_shard_prices_every_path_at_once(self, tmp_path, monkeypatch):
        # the readout cone certified at the default radius, stepped at
        # 0.02495: paths 12 and 26 exit on the cut grid, so the check steps
        # every path on the full grid, where path 39 exits too; the last of
        # three shards (paths 27 to 40) sees no exit on the cut grid, and
        # only the join can tell it to fall back
        sc = load_scenario(write_config(tmp_path, {"verify": BOND_CHECK}))
        bundle = build_bundle(sc)
        maturities = BOND_CHECK["maturities"]
        seen = {}
        certify = lh.checks._no_path_localizes
        monkeypatch.setattr(
            lh.checks, "_no_path_localizes", lambda *args: seen.setdefault("certified", certify(*args))
        )
        cfg = cli._bond_config(sc, sc.seed)
        lh.checks.bond_prices(bundle.model, bundle.u0, maturities, cfg, slice(None))
        assert seen["certified"] is True
        tight = load_scenario(
            write_config(tmp_path, {"verify": BOND_CHECK, "solver.r_local": 0.02495})
        )
        split_bond_check(monkeypatch, 3, bundle.grid.n_nodes)
        tight_cfg = cli._bond_config(tight, tight.seed)
        parts = [
            lh.checks.bond_prices(bundle.model, bundle.u0, maturities, tight_cfg, rows)
            for rows in cli._bond_shards(tight, bundle, tight.seed)
        ]
        assert [part is None for part in parts] == [True, True, False]
        (split, _), (whole, _) = bond_reports_both_ways(tight, bundle)
        assert [repr(r) for r in split] == [repr(r) for r in whole]
        assert whole[0].config["n_localized"] == 3

    @pytest.mark.parametrize("cpu_count, cores", [(5, 5), (None, 1)])
    def test_cores_without_an_affinity_call(self, monkeypatch, cpu_count, cores):
        # a platform without sched_getaffinity counts every cpu
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert _children._usable_cores() == cores

    @staticmethod
    def _fail_after_the_first_shard(monkeypatch, failure):
        """Split the bond check of ALL_CHECKS over two shards, and run
        ``failure`` in every shard but the first, which prices its rows."""
        prices = cli.bond_prices

        def fail(model, u0, maturities, cfg, rows):
            if rows.start > 0:
                failure()
            return prices(model, u0, maturities, cfg, rows)

        split_bond_check(monkeypatch, 2, BASE_CONFIG["grid"]["n_points"])
        monkeypatch.setattr(cli, "bond_prices", fail)

    def test_shard_that_raises_exits_3_with_its_error(self, tmp_path, capsys, monkeypatch):
        def boom():
            raise ValueError("boom")

        self._fail_after_the_first_shard(monkeypatch, boom)
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == "runtime error: ValueError: boom\n"

    def test_shard_killed_by_a_signal_exits_3_naming_the_check(
        self, tmp_path, capsys, monkeypatch
    ):
        self._fail_after_the_first_shard(
            monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL)
        )
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == (
            "runtime error: RuntimeError: check 'martingale_bonds' died from signal SIGKILL\n"
        )

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_simulation_that_raises_kills_running_shards(
        self, tmp_path, capsys, monkeypatch, error
    ):
        def fails(*args):
            raise error("solver failed")

        self._fail_after_the_first_shard(monkeypatch, lambda: time.sleep(600))
        monkeypatch.setattr(cli, "euler_solve", fails)
        path = write_config(tmp_path, {"verify": ALL_CHECKS})
        # the hanging shard is killed, not waited for
        with deadline(60):
            if error is KeyboardInterrupt:
                with pytest.raises(KeyboardInterrupt):
                    run_scenario(path, out_dir=tmp_path / "out")
            else:
                assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_RUNTIME_ERROR
                assert capsys.readouterr().err == "runtime error: RuntimeError: solver failed\n"


def reference_write_curves_csv(path, ensemble):
    """curves.csv as a csv.writer loop, one row and two reprs at a time.

    The reference that ``_write_curves_csv`` must match byte for byte.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "t", "x", "u"])
        nodes = ensemble.grid.nodes
        for p in range(ensemble.n_paths):
            for j, t in enumerate(ensemble.times):
                row_t = repr(float(t))
                curve = ensemble.curves[p, j]
                for i, x in enumerate(nodes):
                    w.writerow([str(p), row_t, repr(float(x)), repr(float(curve[i]))])


def reference_curves_bytes(tmp_path, ensemble) -> bytes:
    path = tmp_path / "reference_curves.csv"
    reference_write_curves_csv(path, ensemble)
    return path.read_bytes()


def solve_scenario(config_path):
    """The ensemble ``simulate`` writes for a config at its own seed."""
    sc = load_scenario(config_path)
    bundle = build_bundle(sc)
    cfg = solver_config(sc, sc.seed)
    if sc.solver.get("method", "euler") == "picard":
        return lh.picard_solve(bundle.model, bundle.u0, cfg).ensemble
    return lh.euler_solve(bundle.model, bundle.u0, cfg)


class TestCurvesCsvWriter:
    """``_write_curves_csv`` writes the bytes of the csv.writer reference."""

    def assert_matches_reference(self, tmp_path, ensemble):
        path = tmp_path / "curves.csv"
        _write_curves_csv(path, ensemble)
        assert path.read_bytes() == reference_curves_bytes(tmp_path, ensemble)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"solver.method": "euler"},
            {"solver.method": "picard"},
            {"solver.n_paths": 1},
            {"solver.horizon": 1.0, "solver.n_steps": 3},
        ],
        ids=["euler", "picard", "single_path", "non_dyadic_times"],
    )
    def test_solver_ensembles(self, tmp_path, overrides):
        ensemble = solve_scenario(write_config(tmp_path, overrides))
        self.assert_matches_reference(tmp_path, ensemble)

    def test_frozen_paths(self, tmp_path):
        path = write_config(tmp_path, {"solver.r_local": 0.0224})
        ensemble = solve_scenario(path)
        frozen = ensemble.exit_index <= BASE_CONFIG["solver"]["n_steps"]
        assert frozen.any() and not frozen.all()
        self.assert_matches_reference(tmp_path, ensemble)

    def test_special_values(self, tmp_path):
        cells = [
            np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2,
            1e-300, 1.2345678901234567e20, -1.0, 123456789.0,
        ]
        grid = lh.make_grid(5.0, len(cells), 0.1)
        curves = np.array([[cells, cells[::-1]], [cells[3:] + cells[:3], cells]])
        ensemble = lh.SolutionEnsemble(
            grid=grid,
            times=np.array([0.0, 1.0 / 3.0]),
            curves=curves,
            exit_index=np.array([2, 2]),
            increments=np.zeros((1, 2, 1)),
            seed=0,
        )
        self.assert_matches_reference(tmp_path, ensemble)
        text = (tmp_path / "curves.csv").read_bytes()
        for token in (b",nan\r\n", b",inf\r\n", b",-inf\r\n", b",-0.0\r\n", b",5e-324\r\n"):
            assert token in text

    @pytest.mark.parametrize("name", ["gamma_hjm.yaml", "smoke.yaml"])
    def test_simulate_bundled_configs(self, tmp_path, name):
        # the shipped checks run too, and pass at the configs' seeds
        out = tmp_path / "out"
        assert run_scenario(CONFIG_DIR / name, out_dir=out) == EXIT_OK
        expected = reference_curves_bytes(tmp_path, solve_scenario(CONFIG_DIR / name))
        assert (out / "curves.csv").read_bytes() == expected

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(write_config(tmp_path)), "--out", str(out)]
        assert main(argv + ["--param", "solver.n_steps", "--values", "5,10"]) == EXIT_OK
        for sub in ("solver_n_steps_5", "solver_n_steps_10"):
            expected = reference_curves_bytes(
                tmp_path, solve_scenario(out / sub / "scenario.yaml")
            )
            assert (out / sub / "curves.csv").read_bytes() == expected


class TestMainEntry:
    def test_simulate_subcommand(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert (tmp_path / "o" / "curves.csv").exists()

    def test_verify_subcommand_skips_simulation(self, tmp_path):
        path = write_config(
            tmp_path,
            {"verify": {"checks": ["cumulant_derivatives"]}},
        )
        out = tmp_path / "o"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert code == EXIT_OK
        assert not (out / "curves.csv").exists()
        assert (out / "checks.csv").exists()

    def test_bundled_gamma_checks_csv_fields_parse_as_plain_numbers(self, tmp_path):
        out = tmp_path / "gamma"
        code = main(
            ["verify", "--config", str(CONFIG_DIR / "gamma_hjm.yaml"), "--out", str(out)]
        )
        assert code == EXIT_OK
        with open(out / "checks.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "cumulant_grad_fd" in {r["name"] for r in rows}
        for r in rows:
            for col in ("lhs", "rhs", "ratio", "standard_error", "tolerance"):
                float(r[col])
            int(r["n_samples"])
            assert int(r["passed"]) == 1, r["name"]
            json.loads(r["config"])

    def test_sweep_subcommand(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(path),
                "--param",
                "solver.n_steps",
                "--values",
                "5,10",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [r["value"] for r in rows] == ["5", "10"]
        assert all(r["exit_code"] == "0" for r in rows)
        assert (out / "solver_n_steps_10" / "summary.csv").exists()

    def test_sweep_unknown_param_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        # an unknown key, a missing file, and a path through a non-mapping
        for config, param in [
            (path, "solver.bogus"),
            (tmp_path / "missing.yaml", "solver.n_steps"),
            (path, "seed.x"),
        ]:
            code = main(
                [
                    "sweep",
                    "--config",
                    str(config),
                    "--param",
                    param,
                    "--values",
                    "1",
                    "--out",
                    str(tmp_path / "s"),
                ]
            )
            assert code == EXIT_CONFIG_ERROR
            assert "config error: " in capsys.readouterr().err
            # the config is read and overridden before any directory is made
            assert not (tmp_path / "s").exists()

    def test_bundled_gamma_artifact_digests(self, tmp_path):
        # two reruns can agree while both differ from the shipped bytes
        out = tmp_path / "gamma"
        assert run_scenario(CONFIG_DIR / "gamma_hjm.yaml", out_dir=out) == EXIT_OK
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("curves.csv", "summary.csv", "checks.csv", "manifest.json")
        }
        assert digests == {
            "curves.csv": "590ac0a72b9c882bd53465e241a175e8c693cbf24f6412fb3520038cd263e315",
            "summary.csv": "7a9223d699cf9529c6dc45a7661cc8aa45daf1b2aab0a3343fc551b5dcb4f72d",
            "checks.csv": "9289f48cdfc8c7e4b7c329654b973c9fe1ed4f84af49e3f17cef3998044d6460",
            "manifest.json": "cd445e0badfdd961e52711c4e0eeb44c2e4b7927fe8836e3caf45f2359132502",
        }

    def test_bundled_smoke_scenario_runs_clean(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIG_DIR / "smoke.yaml"),
                "--out",
                str(tmp_path / "smoke"),
            ]
        )
        assert code == EXIT_OK

    def test_import_does_not_load_scipy_integrate(self):
        # scipy.integrate took a third of the start-up time of every run
        src = str(Path(lh.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, levyhjm; sys.exit('scipy.integrate' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert run.returncode == 0

    def test_import_does_not_load_scipy(self):
        # scipy.special alone took half of the start-up time of every run
        src = str(Path(lh.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, levyhjm; "
            "sys.exit(any(m.startswith('scipy') for m in sys.modules))"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert run.returncode == 0
