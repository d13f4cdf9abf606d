"""Scenario parsing, artifact schemas, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import levyhjm as lh
from levyhjm.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    ScenarioError,
    _write_curves_csv,
    build_bundle,
    load_scenario,
    main,
    run_scenario,
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


def write_config(tmp_path: Path, overrides=None, name="scenario.yaml") -> Path:
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))  # deep copy
    for dotted, value in (overrides or {}).items():
        node = cfg
        *head, last = dotted.split(".")
        for k in head:
            node = node.setdefault(k, {})
        node[last] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


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
        "key", ["solver.n_steps", "solver.n_paths", "verify.n_steps", "verify.n_paths"]
    )
    @pytest.mark.parametrize("value", [5.7, 6.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_count_is_config_error(self, tmp_path, key, value):
        overrides = {key: value}
        if key.startswith("verify."):
            overrides["verify.checks"] = ["isometry"]
        path = write_config(tmp_path, overrides)
        with pytest.raises(ScenarioError, match="must be an integer"):
            load_scenario(path)
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CONFIG_ERROR

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
        with pytest.raises(ScenarioError, match="solver settings"):
            load_scenario(path)
        assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_CONFIG_ERROR

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

    def test_picard_method_records_residuals(self, tmp_path):
        path = write_config(tmp_path, {"solver.method": "picard"})
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == EXIT_OK
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["picard"]["converged"]
        assert manifest["picard"]["residuals"]


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
        # the verify suite does not touch curves.csv, so it is skipped here
        out = tmp_path / "out"
        assert run_scenario(CONFIG_DIR / name, out_dir=out, verify=False) == EXIT_OK
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

    def test_sweep_unknown_param_is_config_error(self, tmp_path):
        path = write_config(tmp_path)
        code = main(
            [
                "sweep",
                "--config",
                str(path),
                "--param",
                "solver.bogus",
                "--values",
                "1",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_CONFIG_ERROR

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
