"""Verification suite mechanics, positive checks and negative controls."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import levyhjm as lh
from levyhjm import checks, cli, solver
from levyhjm.checks import (
    _quadratic_forms,
    identity_report,
    inequality_report,
    report_row,
    stability_report,
    step_integrands,
    verify_bichteler_jacod,
    verify_convolution_inequality,
    verify_isometry_predictability_control,
)
from levyhjm.curvespace import _shift_reach, _shift_values

BETA = 0.1


@pytest.fixture(scope="module")
def grid():
    return lh.make_grid(10.0, 161, BETA)  # h = 1/16


@pytest.fixture(scope="module")
def drivers():
    return {
        "wiener": lh.build_driver([lh.WienerComponent(1.0)], r_ball=1.0, delta=1.5),
        "gamma": lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5),
        "cpp": lh.build_driver(
            [lh.CompoundPoissonComponent(1.0, 1.0)], r_ball=1.0, delta=1.5
        ),
    }


class TestReportRules:
    def test_inequality_pass_boundary(self):
        assert inequality_report("x", 1.0, 1.0).passed
        assert not inequality_report("x", 1.001, 1.0).passed
        assert inequality_report("x", 1.001, 1.0, standard_error=0.001).passed
        assert inequality_report("x", 1.05, 1.0, tolerance=0.1).passed

    def test_identity_pass_boundary(self):
        assert identity_report("x", 1.0, 1.0).passed
        assert not identity_report("x", 1.1, 1.0).passed
        assert identity_report("x", 1.1, 1.0, standard_error=0.05).passed
        assert identity_report("x", 1.1, 1.0, tolerance=0.06).passed

    def test_stability_rule(self):
        assert stability_report("x", {"a": 1.0, "b": 2.5}, factor_cap=3.0).passed
        assert not stability_report("x", {"a": 1.0, "b": 3.5}, factor_cap=3.0).passed
        assert not stability_report("x", {"a": 1.0, "b": math.inf}, 3.0).passed

    def test_row_serialization_roundtrips(self):
        rep = identity_report("name", 1.25, 1.25, n_samples=7, config={"k": 1})
        row = report_row(rep)
        assert row[0] == "name"
        assert float(row[2]) == 1.25
        assert row[-1] == '{"k": 1}'


class TestIsometry:
    @pytest.mark.parametrize("name", ["wiener", "gamma", "cpp"])
    def test_identity_within_three_se(self, grid, drivers, name):
        F = step_integrands(grid, 1, 8, seed=21)
        rep = lh.verify_isometry(grid, drivers[name], F, 1.0, n_paths=20000, seed=5)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 3 * rep.standard_error

    def test_zero_integrand_trivial(self, grid, drivers):
        F = np.zeros((4, grid.n_nodes, 1))
        rep = lh.verify_isometry(grid, drivers["wiener"], F, 1.0, n_paths=100, seed=1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.passed

    def test_constant_integrand_matches_covariance(self, grid, drivers):
        # constant-in-x, constant-in-time integrand: both sides equal T * Q * F^2
        F = np.full((4, grid.n_nodes, 1), 0.7)
        rep = lh.verify_isometry(grid, drivers["wiener"], F, 1.0, n_paths=20000, seed=2)
        assert rep.rhs == pytest.approx(0.49, rel=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("name", ["wiener", "gamma", "cpp"])
    def test_wrong_covariance_fails(self, grid, drivers, name):
        # same sampled law, covariance declared 1.5x too large: the sampler
        # reads the components, the rhs the cached covariance_diag
        driver = drivers[name]
        wrong = dataclasses.replace(driver)
        vars(wrong)["covariance_diag"] = 1.5 * driver.covariance_diag
        F = step_integrands(grid, 1, 8, seed=21)
        ok = lh.verify_isometry(grid, driver, F, 1.0, n_paths=20000, seed=5)
        bad = lh.verify_isometry(grid, wrong, F, 1.0, n_paths=20000, seed=5)
        assert ok.passed
        assert bad.lhs == ok.lhs and bad.rhs == pytest.approx(1.5 * ok.rhs, rel=1e-14)
        assert not bad.passed

    def test_predictable_control_passes_right_endpoint_fails(self, grid, drivers):
        ok = verify_isometry_predictability_control(
            grid, drivers["gamma"], 1.0, 16, 20000, seed=6, predictable=True
        )
        bad = verify_isometry_predictability_control(
            grid, drivers["gamma"], 1.0, 16, 20000, seed=6, predictable=False
        )
        assert ok.passed
        assert not bad.passed  # anticipating integrand breaks the identity

    @pytest.mark.parametrize("control", [False, True], ids=["isometry", "predictability"])
    def test_one_path_rejected(self, grid, drivers, control):
        # a standard error over one path is NaN
        with pytest.raises(ValueError, match="isometry check needs at least 2 paths, got 1"):
            if control:
                verify_isometry_predictability_control(grid, drivers["gamma"], 1.0, 4, 1, seed=6)
            else:
                F = step_integrands(grid, 1, 4, seed=21)
                lh.verify_isometry(grid, drivers["gamma"], F, 1.0, n_paths=1, seed=1)


class TestMaximalInequalities:
    def test_bichteler_jacod_one_path_rejected(self, grid, drivers):
        # one path used to give a NaN standard error on a passing row
        F = step_integrands(grid, 1, 4, seed=21)
        with pytest.raises(ValueError, match="Bichteler-Jacod check needs at least 2 paths"):
            verify_bichteler_jacod(grid, drivers["wiener"], F, 2.0, 1.0, 1, seed=1)

    def test_convolution_one_path_rejected(self, grid, drivers):
        F = step_integrands(grid, 1, 4, seed=21, vanish_at_end=True)
        with pytest.raises(ValueError, match="convolution check needs at least 2 paths"):
            verify_convolution_inequality(grid, drivers["wiener"], F, 2.0, 1.0, 1, seed=1)

    def test_doob_bound_at_p2(self, grid, drivers):
        F = step_integrands(grid, 1, 16, seed=22)
        for name, driver in drivers.items():
            rep = verify_bichteler_jacod(grid, driver, F, 2.0, 1.0, 8000, seed=7)
            assert rep.passed
            assert rep.ratio <= 4.0 * 1.1 + 3 * rep.standard_error, name

    def test_zero_integrand(self, grid, drivers):
        F = np.zeros((4, grid.n_nodes, 1))
        rep = verify_bichteler_jacod(grid, drivers["gamma"], F, 2.0, 1.0, 50, seed=1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_implied_constant_monotone_in_horizon(self, grid, drivers):
        # more time, larger sup: N-hat non-decreasing in T up to MC slack
        prev = {}
        for T in (0.5, 1.0, 2.0):
            F = step_integrands(grid, 1, int(16 * T), seed=23)
            for name, driver in drivers.items():
                rep = verify_bichteler_jacod(grid, driver, F, 2.0, T, 8000, seed=8)
                if name in prev:
                    assert rep.ratio >= prev[name] * 0.9
                prev[name] = rep.ratio

    def test_convolution_contraction_sanity(self, grid, drivers):
        F = step_integrands(grid, 1, 16, seed=24, vanish_at_end=True)
        for name, driver in drivers.items():
            main, vs_plain = verify_convolution_inequality(
                grid, driver, F, 2.0, 1.0, 4000, seed=9
            )
            assert main.passed
            assert vs_plain.passed, name  # convolved sup within 1.5x plain sup

    def test_moment_order_above_cap_propagates(self, grid, drivers):
        F = step_integrands(grid, 1, 4, seed=25)
        with pytest.raises(ValueError, match="p_max"):
            verify_bichteler_jacod(grid, drivers["gamma"], F, 8.0, 1.0, 50, seed=1)


def _loop_reference(grid, driver, F, p, horizon, n_paths, seed):
    """(lhs, rhs) of the isometry, Bichteler-Jacod and convolution checks, and
    the mean p-th power of the unconvolved |.|_* sup, by the per-step loop.

    Builds every running integral on the grid at every step and takes its
    norm, the direct evaluation the quadratic-form checks must reproduce.
    """
    m = F.shape[0]
    dt = horizon / m
    dM = lh.increment_table(driver, dt, m, n_paths, seed)
    X = np.zeros((n_paths, grid.n_nodes))
    conv = np.zeros((n_paths, grid.n_nodes))
    sup_H = np.zeros(n_paths)
    sup_conv = np.zeros(n_paths)
    sup_plain = np.zeros(n_paths)
    for i in range(m):
        term = np.einsum("nd,pd->pn", F[i], dM[i])
        X = X + term
        conv = _shift_values(conv + term, dt, grid)
        sup_H = np.maximum(sup_H, lh.norm_H(X, grid))
        sup_conv = np.maximum(sup_conv, lh.norm_star(conv, grid))
        sup_plain = np.maximum(sup_plain, lh.norm_star(X, grid))
    comps_H = lh.norm_H(F.transpose(0, 2, 1), grid)  # (m, d)
    comps_star = lh.norm_star(F.transpose(0, 2, 1), grid)
    iso = (
        float(np.square(lh.norm_H(X, grid)).mean()),
        float((np.square(comps_H) @ driver.covariance_diag).sum() * dt),
    )
    mp = lh.moment_mp(driver, p)
    bj = (
        float((sup_H**p).mean()),
        float(mp * (np.sqrt(np.square(comps_H).sum(-1)) ** p).sum() * dt),
    )
    cv = (
        float((sup_conv**p).mean()),
        float(mp * (np.sqrt(np.square(comps_star).sum(-1)) ** p).sum() * dt),
    )
    return iso, bj, cv, float((sup_plain**p).mean())


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestQuadraticFormEquivalence:
    """Gram-matrix evaluation against the per-step curve loop."""

    @pytest.fixture(scope="class")
    def fine_grid(self):
        return lh.make_grid(4.0, 129, BETA)  # h = 1/32

    @pytest.fixture(scope="class")
    def two_component(self):
        return lh.build_driver(
            [lh.WienerComponent(1.0), lh.GammaComponent(0.5, 3.0)], r_ball=0.5, delta=1.5
        )

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("horizon", [6 / 32, 0.5], ids=["aligned", "dt_1_12"])
    def test_matches_loop(self, fine_grid, drivers, two_component, dim, horizon):
        driver = drivers["gamma"] if dim == 1 else two_component
        g, m, n_paths, seed, p = fine_grid, 6, 400, 31, 4.0
        F = step_integrands(g, dim, m, seed=32, vanish_at_end=True)
        (iso_l, iso_r), (bj_l, bj_r), (cv_l, cv_r), plain_l = _loop_reference(
            g, driver, F, p, horizon, n_paths, seed
        )
        iso = lh.verify_isometry(g, driver, F, horizon, n_paths, seed)
        bj = verify_bichteler_jacod(g, driver, F, p, horizon, n_paths, seed)
        cv, vs_plain = verify_convolution_inequality(g, driver, F, p, horizon, n_paths, seed)
        for rep, lhs, rhs in ((iso, iso_l, iso_r), (bj, bj_l, bj_r), (cv, cv_l, cv_r)):
            assert _rel(rep.lhs, lhs) <= 1e-12, rep.name
            assert _rel(rep.rhs, rhs) <= 1e-12, rep.name
            assert _rel(rep.ratio, lhs / rhs) <= 1e-12, rep.name
        assert _rel(vs_plain.rhs, 1.5 * plain_l) <= 1e-12

    @pytest.mark.parametrize("wrong", ["missing", "reversed"])
    def test_wrong_shift_fails_loop_comparison(self, fine_grid, drivers, wrong, monkeypatch):
        from levyhjm import checks

        def missing(v, t, grid):
            return v.copy()

        def reversed_shift(v, t, grid):
            # u(x - t), flat below x = 0: transport away from maturity 0
            k = int(round(t / grid.spacing))
            return np.concatenate(
                [np.repeat(v[..., :1], k, axis=-1), v[..., : v.shape[-1] - k]], axis=-1
            )

        g, m, n_paths, seed, p = fine_grid, 6, 400, 31, 4.0
        horizon = 6 / 32  # node-aligned steps
        F = step_integrands(g, 1, m, seed=32, vanish_at_end=True)
        driver = drivers["gamma"]
        _, _, (cv_l, cv_r), _ = _loop_reference(g, driver, F, p, horizon, n_paths, seed)
        shift = missing if wrong == "missing" else reversed_shift
        monkeypatch.setattr(checks, "_shift_values", shift)
        cv, _ = verify_convolution_inequality(g, driver, F, p, horizon, n_paths, seed)
        assert _rel(cv.rhs, cv_r) <= 1e-12  # the bound does not see the shift
        assert _rel(cv.lhs, cv_l) > 1e-3, wrong

    def test_tiny_integrand_gives_finite_nonnegative_lhs(self, grid, drivers):
        F = 1e-150 * step_integrands(grid, 1, 8, seed=33, vanish_at_end=True)
        driver = drivers["gamma"]
        reps = [
            lh.verify_isometry(grid, driver, F, 1.0, 200, seed=3),
            verify_bichteler_jacod(grid, driver, F, 2.0, 1.0, 200, seed=3),
            verify_convolution_inequality(grid, driver, F, 2.0, 1.0, 200, seed=3)[0],
        ]
        for rep in reps:
            assert math.isfinite(rep.lhs) and rep.lhs >= 0.0, rep.name

    def test_round_off_clamped_and_nan_propagates(self):
        # coefficients in the null space of a rank-one Gram: exact forms are 0,
        # computed ones scatter around it in round-off
        rng = np.random.default_rng(0)
        v = rng.normal(size=6)
        c = rng.normal(size=(1000, 6))
        c -= np.outer(c @ v / (v @ v), v)
        c[7, 2] = np.nan
        q = _quadratic_forms(c, [np.outer(v, v)])[:, 0]
        assert np.isnan(q[7])
        q = np.delete(q, 7)
        assert (q >= 0.0).all() and (q == 0.0).any() and q.max() < 1e-14

    def test_nan_integrand_fails_loudly(self, grid, drivers):
        F = step_integrands(grid, 1, 4, seed=34, vanish_at_end=True)
        F[2, 40, 0] = np.nan
        driver = drivers["gamma"]
        reps = [
            lh.verify_isometry(grid, driver, F, 1.0, 100, seed=4),
            verify_bichteler_jacod(grid, driver, F, 2.0, 1.0, 100, seed=4),
            verify_convolution_inequality(grid, driver, F, 2.0, 1.0, 100, seed=4)[0],
        ]
        for rep in reps:
            assert not rep.passed, rep.name

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_infinite_rhs_fails_with_finite_lhs(self, grid, drivers):
        # |F|^4 overflows in the rhs while the short-horizon lhs stays finite
        F = 1e78 * step_integrands(grid, 1, 4, seed=35, vanish_at_end=True)
        driver = drivers["gamma"]
        bj = verify_bichteler_jacod(grid, driver, F, 4.0, 1e-6, 100, seed=5)
        cv, _ = verify_convolution_inequality(grid, driver, F, 4.0, 1e-6, 100, seed=5)
        for rep in (bj, cv):
            assert math.isfinite(rep.lhs) and rep.rhs == math.inf, rep.name
            assert not rep.passed, rep.name


@pytest.fixture(scope="module")
def bond_grid():
    return lh.make_grid(6.0, 121, BETA)  # h = 0.05


@pytest.fixture(scope="module")
def u0(bond_grid):
    return 0.02 + 0.015 * (1.0 - np.exp(-0.4 * bond_grid.nodes))


class TestMartingaleBonds:
    @staticmethod
    def _model(grid, sign, kind="wiener"):
        if kind == "wiener":
            driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=2.0, delta=1.5)
            vol = lh.constant_volatility([0.2])
        else:
            driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.4, delta=1.5)
            vol = lh.constant_volatility([0.05])
        return lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=vol,
            drift_sign=sign,
        )

    def test_zero_volatility_discounted_bond_exactly_constant(self, bond_grid, u0):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=2.0, delta=1.5)
        m = lh.HjmModel(
            grid=bond_grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.0]),
        )
        cfg = lh.SolverConfig(horizon=1.0, n_steps=20, n_paths=2, seed=3)
        reports = lh.verify_martingale_bonds(m, u0, [2.0], cfg)
        slope = next(r for r in reports if r.name.startswith("bond_slope"))
        endpoint = next(r for r in reports if r.name.startswith("bond_endpoint"))
        # transport cancels rolling-bond discounting identically
        assert abs(slope.lhs) < 1e-13
        assert abs(endpoint.lhs) < 1e-13

    def test_correct_sign_passes(self, bond_grid, u0):
        m = self._model(bond_grid, -1.0)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=20, n_paths=20000, seed=3)
        reports = lh.verify_martingale_bonds(m, u0, [2.0, 5.0], cfg)
        assert all(r.passed for r in reports)

    def test_wrong_sign_fails(self, bond_grid, u0):
        m = self._model(bond_grid, +1.0)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=20, n_paths=20000, seed=3)
        reports = lh.verify_martingale_bonds(m, u0, [5.0], cfg)
        slope = next(r for r in reports if r.name.startswith("bond_slope"))
        assert not slope.passed
        assert abs(slope.lhs) > 10 * slope.standard_error

    def test_wrong_sign_fails_for_jump_driver(self, bond_grid, u0):
        m = self._model(bond_grid, +1.0, kind="gamma")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=20, n_paths=20000, seed=3)
        reports = lh.verify_martingale_bonds(m, u0, [5.0], cfg)
        slope = next(r for r in reports if r.name.startswith("bond_slope"))
        assert not slope.passed

    def test_localized_fraction_above_cap_fails_every_row(self, bond_grid, u0):
        # negative control: a radius that one path in a hundred reaches
        # freezes ten times the cap, and the correct sign must then fail
        from levyhjm.checks import _LOCALIZED_CAP

        m = self._model(bond_grid, -1.0)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=20, n_paths=4000, seed=3)
        assert all(r.passed for r in lh.verify_martingale_bonds(m, u0, [2.0, 5.0], cfg))
        free = lh.euler_solve(m, u0, cfg)
        r_local = float(np.quantile(lh.norm_H(free.curves, bond_grid).max(axis=1), 0.99))
        tight = dataclasses.replace(cfg, r_local=r_local)
        reports = lh.verify_martingale_bonds(m, u0, [2.0, 5.0], tight)
        assert len(reports) == 4
        for r in reports:
            assert r.config["n_localized"] > _LOCALIZED_CAP * cfg.n_paths
            assert r.config["n_localized"] < cfg.n_paths
            assert not r.passed, r.name

    def test_maturity_beyond_grid_rejected(self, bond_grid, u0):
        m = self._model(bond_grid, -1.0)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=2, seed=1)
        with pytest.raises(ValueError, match="beyond the grid"):
            lh.verify_martingale_bonds(m, u0, [7.5], cfg)

    def test_horizon_beyond_maturity_rejected(self, bond_grid, u0):
        m = self._model(bond_grid, -1.0)
        cfg = lh.SolverConfig(horizon=3.0, n_steps=4, n_paths=2, seed=1)
        with pytest.raises(ValueError, match="exceeds maturity"):
            lh.verify_martingale_bonds(m, u0, [2.0], cfg)

    def test_duplicate_maturities_rejected(self, bond_grid, u0):
        # two rows of one name would reach checks.csv
        m = self._model(bond_grid, -1.0)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=2, seed=1)
        with pytest.raises(ValueError, match="distinct"):
            lh.verify_martingale_bonds(m, u0, [2.0, 5.0, 2.0], cfg)

    def test_one_path_rejected(self, bond_grid, u0):
        # a standard error over one path is NaN
        m = self._model(bond_grid, -1.0)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=1, seed=1)
        with pytest.raises(ValueError, match="at least 2 paths"):
            lh.verify_martingale_bonds(m, u0, [2.0], cfg)


def _bond_route(monkeypatch, model, u0, cfg, maturities=(2.0, 5.0)):
    """The bond check's reports and its route: the weights and noise it read,
    the certificate's arguments and verdict (None when no shortcut was
    offered), the mild readouts it priced from (None when it did not), the
    readout cone it was offered, the prices of every path, how many times
    it stepped, and on how many nodes each time."""
    seen = {"steps": 0, "widths": [], "certified": None, "readouts": None}
    table, certify, readouts, cone, transitions, prices = (
        checks.increment_table, checks._no_path_localizes, checks._mild_readouts,
        checks._readout_cone, checks.euler_transitions, checks.bond_prices,
    )

    def spy_table(*args):
        seen["dM"] = table(*args)
        return seen["dM"]

    def spy_certify(*args):
        seen["certify_args"], seen["certified"] = args, certify(*args)
        return seen["certified"]

    def spy_readouts(*args):
        seen["weights"], seen["readouts"] = args[3], readouts(*args)
        return seen["readouts"]

    def spy_cone(*args):
        seen["weights"], seen["cone"] = args[3], cone(*args)
        return seen["cone"]

    def spy_transitions(*args, **kwargs):
        seen["steps"] += 1
        seen["widths"].append(args[0].grid.n_nodes)
        return transitions(*args, **kwargs)

    def spy_prices(*args):
        seen["priced"] = prices(*args)
        return seen["priced"]

    with monkeypatch.context() as patch:
        patch.setattr(checks, "increment_table", spy_table)
        patch.setattr(checks, "_no_path_localizes", spy_certify)
        patch.setattr(checks, "_mild_readouts", spy_readouts)
        patch.setattr(checks, "_readout_cone", spy_cone)
        patch.setattr(checks, "euler_transitions", spy_transitions)
        patch.setattr(checks, "bond_prices", spy_prices)
        reports = lh.verify_martingale_bonds(model, u0, list(maturities), cfg)
    return reports, seen


def _stepped_reports(monkeypatch, model, u0, cfg, maturities=(2.0, 5.0)):
    """The bond check's reports with its certificate refused: every path
    steps the full grid."""
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_no_path_localizes", lambda *args: False)
        return lh.verify_martingale_bonds(model, u0, list(maturities), cfg)


class _Routed(Exception):
    """The route a bond check took: ("mild",), or ("stepped", n) on n nodes."""


def _stop_at_the_route(monkeypatch):
    """Make the bond check raise _Routed when it has chosen its route,
    before it prices any path."""

    def mild(*args):
        raise _Routed("mild")

    def stepped(model, *args):
        raise _Routed("stepped", model.grid.n_nodes)

    monkeypatch.setattr(checks, "_mild_readouts", mild)
    monkeypatch.setattr(checks, "_stepped_integrals", stepped)


def _bond_model(grid, vol_kind, dim, driver_kind, level=0.1, sign=-1.0, r_ball=1.0):
    levels = [level, 0.5 * level][:dim]
    if vol_kind == "constant":
        vol = lh.constant_volatility(levels)
    elif vol_kind == "exp_decay":
        vol = lh.exp_decay_volatility(levels, [0.5, 1.0][:dim])
    else:
        vol = lh.tanh_volatility(levels, [0.5, 1.0][:dim])
    if driver_kind == "wiener":
        comps = [lh.WienerComponent(1.0) for _ in range(dim)]
    else:
        comps = [lh.GammaComponent(1.0, 2.0) for _ in range(dim)]
    driver = lh.build_driver(comps, r_ball=r_ball, delta=1.5)
    return lh.HjmModel(
        grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=vol, drift_sign=sign
    )


def _ball_flags_hold(model, cfg):
    """Every step's ball flag of a state-free sigma: where they all hold,
    stepping at the default radius localizes no path."""
    zero = np.zeros(model.grid.n_nodes)
    return all(
        lh.drift_functional(model, model.vol.sigma_at(t, model.grid.nodes, zero))[1].all()
        for t in cfg.times[:-1]
    )


class TestMildBondRoute:
    """A state-free bond check reads its integrals from the discrete mild form
    when no path can localize, and steps otherwise."""

    @pytest.mark.parametrize("n_steps", [10, 7], ids=["aligned", "interpolating"])
    @pytest.mark.parametrize("driver_kind", ["wiener", "gamma"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("vol_kind", ["constant", "exp_decay"])
    def test_mild_prices_match_stepping(
        self, monkeypatch, bond_grid, u0, vol_kind, dim, driver_kind, n_steps
    ):
        model = _bond_model(bond_grid, vol_kind, dim, driver_kind)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=n_steps, n_paths=40, seed=9)
        stepped = _stepped_reports(monkeypatch, model, u0, cfg)
        first = None
        for rows in (1, 7, cfg.n_paths):
            monkeypatch.setattr(solver, "_BLOCK_VALUES", rows * bond_grid.n_nodes)
            reports, seen = _bond_route(monkeypatch, model, u0, cfg)
            assert seen["readouts"] is not None and seen["steps"] == 0
            # the stepped D is the reference, on the check's own weights and noise
            mild, n_mild, _n_bad = seen["priced"]
            step, n_step = _stepped_prices(model, u0, cfg, seen["weights"], seen["dM"])
            assert n_mild == n_step == 0
            np.testing.assert_allclose(mild, step, rtol=1e-12, atol=0.0)
            assert [r.passed for r in reports] == [r.passed for r in stepped]
            for r, s in zip(reports, stepped):
                assert r.lhs == pytest.approx(s.lhs, rel=1e-9, abs=1e-15)
            # the integrals are accumulated elementwise: bitwise in the block
            assert first is None or mild.tobytes() == first
            first = mild.tobytes()

    @pytest.mark.parametrize("n_steps", [10, 7], ids=["aligned", "interpolating"])
    @pytest.mark.parametrize("driver_kind", ["wiener", "gamma"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("vol_kind", ["constant", "exp_decay"])
    def test_certified_wherever_every_ball_flag_holds(
        self, monkeypatch, bond_grid, u0, vol_kind, dim, driver_kind, n_steps
    ):
        model = _bond_model(bond_grid, vol_kind, dim, driver_kind)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=n_steps, n_paths=200, seed=9)
        assert _ball_flags_hold(model, cfg)
        _stop_at_the_route(monkeypatch)
        with pytest.raises(_Routed) as routed:
            lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)
        assert routed.value.args == ("mild",)

    @pytest.mark.parametrize(
        "driver_kind, level, r_ball", [("gamma", 0.45, 1.0), ("wiener", 0.9, 2.0)]
    )
    def test_decaying_sigma_certified_by_its_integral(
        self, monkeypatch, bond_grid, u0, driver_kind, level, r_ball
    ):
        # int_0^6 level e^{-x/2} dx = 1.9 level stays inside the ball, while
        # x_max max|sigma| = 6 level does not: a ball test on the latter
        # would step this check
        model = _bond_model(bond_grid, "exp_decay", 1, driver_kind, level=level, r_ball=r_ball)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=200, seed=9)
        assert _ball_flags_hold(model, cfg)
        assert bond_grid.x_max * level > r_ball
        _stop_at_the_route(monkeypatch)
        with pytest.raises(_Routed) as routed:
            lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)
        assert routed.value.args == ("mild",)

    def test_fallback_at_a_reached_radius_is_bitwise_stepping(self, monkeypatch):
        # on 7 nodes (sup_gain 3.7) the drift alone keeps the certificate's
        # bound inside the radius that 1 % of the free paths reach, so a
        # bound without its noise term would certify every path
        grid = lh.make_grid(6.0, 7, BETA)
        u0 = 0.002 + 0.0015 * (1.0 - np.exp(-0.4 * grid.nodes))
        model = _bond_model(grid, "constant", 1, "wiener", level=0.05, r_ball=0.4)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=400, seed=3)
        free = lh.euler_solve(model, u0, cfg)
        r_local = float(np.quantile(lh.norm_H(free.curves, grid).max(axis=1), 0.99))
        tight = dataclasses.replace(cfg, r_local=r_local)
        zero = np.zeros_like(free.increments)
        assert solver._no_path_localizes(model, u0, tight, zero, grid.sup_gain)
        reports, seen = _bond_route(monkeypatch, model, u0, tight)
        assert seen["certified"] is False and seen["readouts"] is None and seen["steps"] == 1
        assert 0 < reports[0].config["n_localized"] < cfg.n_paths
        assert reports == _stepped_reports(monkeypatch, model, u0, tight)

    def test_fallback_under_a_ball_violation_is_bitwise_stepping(self, monkeypatch, bond_grid, u0):
        # int_0^6 of 0.5 is 3 > r_ball = 1: every path exits at step 0
        model = _bond_model(bond_grid, "constant", 1, "gamma", level=0.5)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=50, seed=3)
        reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["certified"] is False and seen["readouts"] is None and seen["steps"] == 1
        assert reports[0].config["n_localized"] == cfg.n_paths
        assert [report_row(r) for r in reports] == [
            report_row(r) for r in _stepped_reports(monkeypatch, model, u0, cfg)
        ]

    def test_state_dependent_volatility_steps(self, monkeypatch, bond_grid, u0):
        driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=1.0, delta=1.5)
        model = lh.HjmModel(
            grid=bond_grid, driver=driver, cumulant=lh.CumulantModel(driver),
            vol=lh.tanh_volatility([0.12], [1.0]),
        )
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=3, seed=1)
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["readouts"] is None and seen["steps"] == 1

    def test_mild_form_costlier_than_stepping_steps(self, monkeypatch):
        # d K n_steps / 2 = 1 * 5 * 40 / 2 = 100 readout products per path and
        # step against 25 nodes: the mild form would cost more than stepping
        grid = lh.make_grid(6.0, 25, BETA)
        u0 = 0.02 + 0.015 * (1.0 - np.exp(-0.4 * grid.nodes))
        model = _bond_model(grid, "constant", 1, "wiener")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=40, n_paths=50, seed=3)
        maturities = (2.0, 3.0, 4.0, 5.0)
        reports, seen = _bond_route(monkeypatch, model, u0, cfg, maturities)
        assert seen["readouts"] is None and seen["steps"] == 1
        assert reports[0].config["n_localized"] == 0
        assert [report_row(r) for r in reports] == [
            report_row(r) for r in _stepped_reports(monkeypatch, model, u0, cfg, maturities)
        ]
        # the same check at 4 steps and one maturity is cheaper in mild form
        short = dataclasses.replace(cfg, n_steps=4)
        _reports, seen = _bond_route(monkeypatch, model, u0, short, (2.0,))
        assert seen["readouts"] is not None and seen["steps"] == 0

    @pytest.mark.parametrize(
        "shape",
        ["bond_arbiter_wiener", "bond_arbiter_gamma", "criterion_04_wiener", "criterion_04_gamma"],
    )
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_shipped_bond_checks_take_the_mild_route(self, monkeypatch, bond_grid, u0, shape, sign):
        # the bond_arbiter benchmark's configs (10k paths) and acceptance
        # criterion 04 (100k paths), with their own noise; the route is
        # decided before any price, so the check stops there
        component, r_ball, level = {
            "bond_arbiter_wiener": (lh.WienerComponent(1.0), 2.0, 0.2),
            "bond_arbiter_gamma": (lh.GammaComponent(1.0, 2.0), 1.0, 0.12),
            "criterion_04_wiener": (lh.WienerComponent(1.0), 2.0, 0.2),
            "criterion_04_gamma": (lh.GammaComponent(1.0, 2.0), 0.4, 0.05),
        }[shape]
        driver = lh.build_driver([component], r_ball=r_ball, delta=1.5)
        model = lh.HjmModel(
            grid=bond_grid, driver=driver, cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([level]), drift_sign=sign,
        )
        n_paths = 10_000 if shape.startswith("bond_arbiter") else 100_000
        cfg = lh.SolverConfig(horizon=1.0, n_steps=20, n_paths=n_paths, seed=401)
        _stop_at_the_route(monkeypatch)
        with pytest.raises(_Routed) as routed:
            lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)
        assert routed.value.args == ("mild",)

    def test_nonfinite_integral_refuses_the_mild_prices(self, bond_grid, u0):
        model = _bond_model(bond_grid, "constant", 1, "wiener")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=5, n_paths=6, seed=1)
        weights = np.ones((cfg.n_steps + 1, 2, bond_grid.n_nodes))
        dM = lh.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, cfg.seed)
        readouts = solver._mild_readouts(model, u0, cfg, weights)
        D = np.empty((cfg.n_paths, cfg.n_steps + 1, 1))

        def n_exited():
            integrals = checks._mild_integrals(readouts, dM, bond_grid.n_nodes)
            return checks._fill_prices(D, integrals, cfg.n_steps)

        assert n_exited() == 0
        dM[2, 4, 0] = np.inf
        assert n_exited() == 1


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _stepped_prices(model, u0, cfg, weights, dM):
    """D and the localized count from stepping every path on ``model``'s
    grid, with a warning per step of its non-finite exits."""
    D = np.empty((cfg.n_paths, cfg.n_steps + 1, weights.shape[1] - 1))
    n_bad = np.zeros(cfg.n_steps, dtype=int)
    integrals = checks._stepped_integrals(model, u0, cfg, weights, dM, n_bad)
    n_localized = checks._fill_prices(D, integrals, cfg.n_steps)
    solver._warn_nonfinite(n_bad)
    return D, n_localized


class TestConeBondRoute:
    """A bond check that steps runs Euler on the first n' nodes, those its
    readouts can reach, when the noise certifies that no path localizes, and
    reads every state bitwise as stepping the full grid would."""

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["correct_sign", "wrong_sign"])
    @pytest.mark.parametrize("n_steps", [10, 7], ids=["aligned", "interpolating"])
    @pytest.mark.parametrize("driver_kind", ["wiener", "gamma"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cone_prices_bitwise_full_stepping(
        self, monkeypatch, bond_grid, u0, dim, driver_kind, n_steps, sign
    ):
        model = _bond_model(bond_grid, "tanh", dim, driver_kind, sign=sign)
        # 300 paths: the default block reads its states in three padded chunks
        cfg = lh.SolverConfig(horizon=1.0, n_steps=n_steps, n_paths=300, seed=9)
        full = [report_row(r) for r in _stepped_reports(monkeypatch, model, u0, cfg)]
        default_block = solver._BLOCK_VALUES
        width = None
        for rows in (1, 7, None):
            if width is not None:
                monkeypatch.setattr(
                    solver, "_BLOCK_VALUES", default_block if rows is None else rows * width
                )
            reports, seen = _bond_route(monkeypatch, model, u0, cfg)
            assert seen["readouts"] is None and seen["certified"] is True
            width = seen["cone"][0].grid.n_nodes
            assert width < bond_grid.n_nodes and seen["widths"] == [width]
            assert [report_row(r) for r in reports] == full
            # D itself, on the check's own weights and noise
            reference, n_full = _stepped_prices(model, u0, cfg, seen["weights"], seen["dM"])
            D, n_localized, _n_bad = seen["priced"]
            assert n_localized == n_full == 0
            assert D.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", [None, 402, 1234], ids=["config_seed", "402", "1234"])
    def test_shipped_gamma_bond_check_takes_the_cone_route(self, monkeypatch, seed):
        # configs/gamma_hjm.yaml's bond check (tanh sigma, 8000 paths), with
        # its own noise; the route is decided before any price, so the
        # check stops there
        sc = cli.load_scenario(CONFIG_DIR / "gamma_hjm.yaml")
        bundle = cli.build_bundle(sc)
        _stop_at_the_route(monkeypatch)
        with pytest.raises(_Routed) as routed:
            cli._run_martingale_bonds(sc, bundle, sc.seed if seed is None else seed)
        # maturity 5 reaches node 160 of 321, one node less per one-cell step
        assert routed.value.args == ("stepped", 161)

    @pytest.mark.parametrize("n_steps", [20, 10, 7], ids=["one_cell", "two_cells", "interpolating"])
    def test_width_one_reach_short_changes_a_bond_integral(self, monkeypatch, bond_grid, u0, n_steps):
        # negative control: the bitwise test above can fail
        model = _bond_model(bond_grid, "tanh", 1, "gamma")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=n_steps, n_paths=40, seed=9)
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        weights, dM = seen["weights"], seen["dM"]
        reference, _ = _stepped_prices(model, u0, cfg, weights, dM)
        width = seen["cone"][0].grid.n_nodes
        for cut, same in ((width, True), (width - _shift_reach(bond_grid, cfg.dt), False)):
            narrow = dataclasses.replace(model, grid=solver._cut_grid(bond_grid, cut))
            D, n_localized = _stepped_prices(narrow, u0[:cut], cfg, weights, dM)
            assert n_localized == 0
            assert (D.tobytes() == reference.tobytes()) is same

    def test_localizing_radius_falls_back_to_full_stepping(self, monkeypatch, bond_grid, u0):
        model = _bond_model(bond_grid, "tanh", 1, "gamma", level=0.3)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=400, seed=3)
        free = lh.euler_solve(model, u0, cfg)
        r_local = float(np.quantile(lh.norm_H(free.curves, bond_grid).max(axis=1), 0.99))
        tight = dataclasses.replace(cfg, r_local=r_local)
        expected = [report_row(r) for r in _stepped_reports(monkeypatch, model, u0, tight)]
        reports, seen = _bond_route(monkeypatch, model, u0, tight)
        assert seen["certified"] is False and seen["widths"] == [bond_grid.n_nodes]
        assert 0 < reports[0].config["n_localized"] < cfg.n_paths
        assert [report_row(r) for r in reports] == expected
        # the cone certified at the default radius, stepped at the tight one,
        # localizes paths, and the check then steps the full grid as well
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["certified"] is True
        width = seen["cone"][0].grid.n_nodes
        monkeypatch.setattr(checks, "_no_path_localizes", lambda *args: True)
        reports, seen = _bond_route(monkeypatch, model, u0, tight)
        assert seen["widths"] == [width, bond_grid.n_nodes]
        assert [report_row(r) for r in reports] == expected

    def test_ball_bound_beyond_the_ball_falls_back_to_full_stepping(self, monkeypatch, bond_grid, u0):
        # gamma_seq M_0 x_max = 1.77 * 3 * 0.035 * 6 > r_ball = 1, while
        # |S| <= 3 tanh(max|u|) / 10 stays far inside: no path exits
        driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=1.0, delta=1.5)
        model = lh.HjmModel(
            grid=bond_grid, driver=driver, cumulant=lh.CumulantModel(driver),
            vol=lh.tanh_volatility([3.0], [10.0]),
        )
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=50, seed=3)
        reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["certified"] is False and seen["widths"] == [bond_grid.n_nodes]
        assert reports[0].config["n_localized"] == 0
        assert [report_row(r) for r in reports] == [
            report_row(r) for r in _stepped_reports(monkeypatch, model, u0, cfg)
        ]
        reference, n_full = _stepped_prices(model, u0, cfg, seen["weights"], seen["dM"])
        D, n_localized, _n_bad = seen["priced"]
        assert n_localized == n_full == 0
        assert D.tobytes() == reference.tobytes()

    def test_cut_grid_that_shifts_otherwise_falls_back_to_full_stepping(self, monkeypatch):
        # uniform (h = 0.05) up to x = 4, coarser beyond: the full grid
        # interpolates a 0.05 shift, a cut inside the uniform part would copy
        # whole cells, and the two round differently
        nodes = np.concatenate([np.linspace(0.0, 4.0, 81), 4.0 + 0.1 * np.arange(1, 21)])
        quad = np.full(nodes.size, nodes[-1] / nodes.size)
        grid = lh.WeightGrid(nodes=nodes, weight_beta=BETA, quad_weights=quad)
        u0 = 0.02 + 0.015 * (1.0 - np.exp(-0.4 * nodes))
        model = _bond_model(grid, "tanh", 1, "gamma")
        cfg = lh.SolverConfig(horizon=0.5, n_steps=10, n_paths=50, seed=3)
        reports, seen = _bond_route(monkeypatch, model, u0, cfg, (2.0,))
        assert seen["cone"] is None and seen["widths"] == [grid.n_nodes]
        assert [report_row(r) for r in reports] == [
            report_row(r) for r in _stepped_reports(monkeypatch, model, u0, cfg, (2.0,))
        ]
        weights, dM = seen["weights"], seen["dM"]
        reference, _ = _stepped_prices(model, u0, cfg, weights, dM)
        narrow = dataclasses.replace(model, grid=solver._cut_grid(grid, 60))
        D, n_localized = _stepped_prices(narrow, u0[:60], cfg, weights, dM)
        assert n_localized == 0
        assert D.tobytes() != reference.tobytes()

    def test_infinite_increment_falls_back_to_full_stepping(self, monkeypatch, bond_grid, u0):
        model = _bond_model(bond_grid, "tanh", 1, "gamma")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=40, seed=9)
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["certified"] is True
        weights, dM = seen["weights"], seen["dM"].copy()
        dM[4, 6, 0] = np.inf
        with pytest.warns(RuntimeWarning, match="non-finite curves at step 4"):
            reference, n_full = _stepped_prices(model, u0, cfg, weights, dM)
        # the check's own noise table, with the infinity
        monkeypatch.setattr(checks, "increment_table", lambda *args: dM)
        with pytest.warns(RuntimeWarning, match="non-finite curves at step 4"):
            _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["certified"] is False and seen["widths"] == [bond_grid.n_nodes]
        D, n_localized, n_bad = priced = seen["priced"]
        assert n_localized == n_full == 1
        assert n_bad.tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
        assert D.tobytes() == reference.tobytes()
        with pytest.warns(RuntimeWarning, match="non-finite curves at step 4"):
            checks.bond_join(model, u0, [2.0, 5.0], cfg, [priced])


def _bond_parts(n_paths, n_parts):
    return [slice(i * n_paths // n_parts, (i + 1) * n_paths // n_parts) for i in range(n_parts)]


class TestBondPriceRows:
    """``bond_prices`` on contiguous rows of the paths gives bitwise those
    rows of pricing every path at once, on every route; a route that fails
    on some path gives None for a part, which cannot see the others."""

    @pytest.mark.parametrize("n_parts", [1, 2, 3])
    @pytest.mark.parametrize(
        "route, vol_kind, dim, n_steps",
        [
            ("mild", "constant", 1, 10),
            ("cone", "tanh", 1, 10),
            ("cone", "tanh", 2, 7),
            ("full", "tanh", 1, 10),
        ],
        ids=["mild", "cone", "cone_d2_interpolating", "full_localizing"],
    )
    def test_parts_are_bitwise_the_whole(
        self, monkeypatch, bond_grid, u0, route, vol_kind, dim, n_steps, n_parts
    ):
        level = 0.3 if route == "full" else 0.1
        model = _bond_model(bond_grid, vol_kind, dim, "gamma", level=level)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=n_steps, n_paths=41, seed=9)
        if route == "full":
            # a radius that 5 % of the free paths reach: no route certifies it
            free = lh.euler_solve(model, u0, cfg)
            r_local = float(np.quantile(lh.norm_H(free.curves, bond_grid).max(axis=1), 0.95))
            cfg = dataclasses.replace(cfg, r_local=r_local)
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        taken = (
            "mild" if seen["readouts"] is not None
            else "cone" if seen["widths"] == [seen["cone"][0].grid.n_nodes]
            else "full"
        )
        assert taken == route
        whole, n_whole, _n_bad = checks.bond_prices(model, u0, [2.0, 5.0], cfg, slice(None))
        assert (n_whole > 0) == (route == "full")
        parts = [
            checks.bond_prices(model, u0, [2.0, 5.0], cfg, rows)
            for rows in _bond_parts(cfg.n_paths, n_parts)
        ]
        assert np.concatenate([D for D, _n, _b in parts]).tobytes() == whole.tobytes()
        assert sum(n for _D, n, _b in parts) == n_whole

    def test_non_finite_exits_gathered_not_warned(self, monkeypatch, bond_grid, u0):
        model = _bond_model(bond_grid, "tanh", 1, "gamma")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=41, seed=9)
        table = checks.increment_table

        def with_infinities(*args):
            dM = table(*args)
            dM[4, [6, 30], 0] = np.inf
            return dM

        monkeypatch.setattr(checks, "increment_table", with_infinities)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "[0-9]+ path.s. produced non-finite")
            whole, n_whole, whole_bad = checks.bond_prices(model, u0, [2.0, 5.0], cfg, slice(None))
            parts = [
                checks.bond_prices(model, u0, [2.0, 5.0], cfg, rows)
                for rows in _bond_parts(cfg.n_paths, 2)
            ]
        parts_bad = sum(n_bad for _D, _n, n_bad in parts)
        assert parts_bad.tolist() == whole_bad.tolist() == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
        assert sum(n for _D, n, _b in parts) == n_whole == 2
        assert np.concatenate([D for D, _n, _b in parts]).tobytes() == whole.tobytes()
        # the join warns once, with the total over both parts
        with pytest.warns(RuntimeWarning, match="^2 path.s. produced non-finite curves at step 4"):
            checks.bond_join(model, u0, [2.0, 5.0], cfg, parts)

    def test_exit_on_the_cut_grid_gives_none_for_the_part(self, monkeypatch, bond_grid, u0):
        # the cone certified at the default radius, stepped at a tight one
        model = _bond_model(bond_grid, "tanh", 1, "gamma", level=0.3)
        cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=400, seed=3)
        free = lh.euler_solve(model, u0, cfg)
        r_local = float(np.quantile(lh.norm_H(free.curves, bond_grid).max(axis=1), 0.99))
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["certified"] is True
        monkeypatch.setattr(checks, "_no_path_localizes", lambda *args: True)
        tight = dataclasses.replace(cfg, r_local=r_local)
        parts = [
            checks.bond_prices(model, u0, [2.0, 5.0], tight, rows)
            for rows in _bond_parts(cfg.n_paths, 10)
        ]
        assert None in parts and any(part is not None for part in parts)
        # every path at once steps the full grid, as the check does
        whole, n_whole, _n_bad = checks.bond_prices(model, u0, [2.0, 5.0], tight, slice(None))
        reference, n_full = _stepped_prices(model, u0, tight, seen["weights"], seen["dM"])
        assert n_whole == n_full > 0 and whole.tobytes() == reference.tobytes()

    def test_non_finite_mild_integral_gives_none_for_the_part(self, monkeypatch, bond_grid, u0):
        # the certificate as on finite noise, the prices on noise with an infinity
        model = _bond_model(bond_grid, "constant", 1, "wiener")
        cfg = lh.SolverConfig(horizon=1.0, n_steps=5, n_paths=6, seed=1)
        _reports, seen = _bond_route(monkeypatch, model, u0, cfg)
        assert seen["readouts"] is not None
        table = checks.increment_table

        def with_infinity(*args):
            dM = table(*args)
            dM[2, 4, 0] = np.inf
            return dM

        monkeypatch.setattr(checks, "_no_path_localizes", lambda *args: True)
        monkeypatch.setattr(checks, "increment_table", with_infinity)
        first, last = _bond_parts(cfg.n_paths, 2)
        assert checks.bond_prices(model, u0, [2.0, 5.0], cfg, first) is not None
        assert checks.bond_prices(model, u0, [2.0, 5.0], cfg, last) is None
        # every path at once falls back to the full grid, where path 4 exits
        dM = checks.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, cfg.seed)
        with pytest.warns(RuntimeWarning, match="non-finite curves at step 2"):
            reference, n_full = _stepped_prices(model, u0, cfg, seen["weights"], dM)
        whole, n_whole, n_bad = checks.bond_prices(model, u0, [2.0, 5.0], cfg, slice(None))
        assert n_whole == n_full == 1 and n_bad.tolist() == [0, 0, 1, 0, 0]
        assert whole.tobytes() == reference.tobytes()


class TestCumulantDerivativeChecks:
    def test_gamma_reports_pass(self):
        driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
        reports = lh.verify_cumulant_derivatives(lh.CumulantModel(driver), 50, seed=4)
        by_name = {r.name: r for r in reports}
        assert by_name["cumulant_grad_fd"].passed
        assert by_name["cumulant_hess_fd"].passed
        assert by_name["cumulant_hess_lipschitz"].passed

    def test_mixed_driver_reports_pass(self):
        driver = lh.build_driver(
            [lh.WienerComponent(1.0), lh.GammaComponent(0.5, 3.0)],
            r_ball=0.5,
            delta=1.5,
        )
        reports = lh.verify_cumulant_derivatives(lh.CumulantModel(driver), 50, seed=5)
        assert all(r.passed for r in reports)


class TestReproducibility:
    def test_reports_bitwise_reproducible(self, grid, drivers):
        F = step_integrands(grid, 1, 8, seed=26)
        a = lh.verify_isometry(grid, drivers["gamma"], F, 1.0, 5000, seed=11)
        b = lh.verify_isometry(grid, drivers["gamma"], F, 1.0, 5000, seed=11)
        assert a == b
