"""Verification suite mechanics, positive checks and negative controls."""

import math

import numpy as np
import pytest

import levyhjm as lh
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
from levyhjm.curvespace import _shift_values

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

    def test_predictable_control_passes_right_endpoint_fails(self, grid, drivers):
        ok = verify_isometry_predictability_control(
            grid, drivers["gamma"], 1.0, 16, 20000, seed=6, predictable=True
        )
        bad = verify_isometry_predictability_control(
            grid, drivers["gamma"], 1.0, 16, 20000, seed=6, predictable=False
        )
        assert ok.passed
        assert not bad.passed  # anticipating integrand breaks the identity


class TestMaximalInequalities:
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
