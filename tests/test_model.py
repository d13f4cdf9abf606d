"""Volatility specs, noise operator, no-arbitrage drift, regularity audits."""

import dataclasses
import math

import numpy as np
import pytest

import levyhjm as lh
from levyhjm.model import BallViolationError, drift_functional

BETA = 0.1


@pytest.fixture(scope="module")
def grid():
    return lh.make_grid(10.0, 201, BETA)


@pytest.fixture(scope="module")
def wiener_model(grid):
    driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
    return lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.constant_volatility([0.2]),
    )


@pytest.fixture(scope="module")
def tanh_model(grid):
    driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
    return lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.tanh_volatility([0.2], [1.0]),
    )


def _shape(x, u):
    return np.broadcast_shapes(np.shape(x), np.shape(u))


def _custom_spec(name, dim, sigma, **kw):
    return lh.VolatilitySpec(name=name, dim=dim, sigma=sigma, **kw)


class TestVolatilityBuiltins:
    def test_registry_contents(self):
        assert set(lh.VOLATILITY_BUILTINS) == {
            "constant_vector",
            "exp_decay",
            "tanh_bounded",
        }

    def test_from_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown volatility"):
            lh.volatility_from_config("bespoke_lambda", {})

    def test_constant_shape_and_values(self, grid):
        vol = lh.constant_volatility([0.1, -0.2])
        out = vol.sigma_at(0.0, grid.nodes, np.zeros(grid.n_nodes))
        assert out.shape == (grid.n_nodes, 2)
        np.testing.assert_allclose(out[0], [0.1, -0.2])

    def test_exp_decay_derivative_consistency(self, grid):
        vol = lh.exp_decay_volatility([0.3], [0.7])
        x = grid.nodes[5]
        fd = (vol.sigma_at(0, x + 1e-6, 0.0) - vol.sigma_at(0, x - 1e-6, 0.0)) / 2e-6
        np.testing.assert_allclose(vol.sigma_x_at(0, x, 0.0), fd, rtol=1e-8)

    def test_tanh_bounds_are_respected(self):
        vol = lh.tanh_volatility([0.4], [1.0])
        us = np.linspace(-30, 30, 501)
        su = np.abs(vol.sigma_u_at(0.0, 0.0, us))
        suu = np.abs(vol.sigma_uu_at(0.0, 0.0, us))
        assert np.all(su + suu <= vol.gamma_seq + 1e-12)

    def test_fd_fallback_used_when_derivatives_missing(self, grid):
        vol = _custom_spec(
            "bare",
            1,
            lambda t, x, u: np.broadcast_to(
                np.sin(np.asarray(u, float))[..., None], _shape(x, u) + (1,)
            ).copy(),
        )
        got = vol.sigma_u_at(0.0, 0.0, 0.3)
        assert got[0] == pytest.approx(math.cos(0.3), rel=1e-5)

    def test_state_free_read_from_gamma_seq(self):
        assert lh.constant_volatility([0.1, 0.2]).state_free
        assert lh.exp_decay_volatility([0.3], [0.7]).state_free
        assert not lh.tanh_volatility([0.4], [1.0]).state_free
        bare = _custom_spec("bare", 1, lambda t, x, u: np.zeros(_shape(x, u) + (1,)))
        assert not bare.state_free  # undeclared gamma_seq


class TestApplyB:
    def test_zero_vector_gives_zero_curve(self, wiener_model, grid):
        u = np.full(grid.n_nodes, 0.02)
        out = lh.apply_B(wiener_model, 0.0, u, np.zeros(1))
        np.testing.assert_array_equal(out, np.zeros(grid.n_nodes))

    def test_constant_sigma_gives_constant_curve(self, grid):
        driver = lh.build_driver(
            [lh.WienerComponent(1.0), lh.WienerComponent(2.0)], r_ball=3.0, delta=1.5
        )
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.1, 0.3]),
        )
        out = lh.apply_B(m, 0.0, np.zeros(grid.n_nodes), np.array([2.0, -1.0]))
        np.testing.assert_allclose(out, np.full(grid.n_nodes, 0.1 * 2.0 - 0.3))

    def test_exp_decay_unit_vector(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.exp_decay_volatility([0.5], [1.0]),
        )
        out = lh.apply_B(m, 0.0, np.zeros(grid.n_nodes), np.ones(1))
        np.testing.assert_allclose(out, 0.5 * np.exp(-grid.nodes), rtol=1e-12)

    def test_linearity(self, wiener_model, grid):
        rng = np.random.default_rng(0)
        u = lh.random_curves(grid, 1, rng)[0]
        phi, eta = np.array([0.7]), np.array([-1.3])
        left = lh.apply_B(wiener_model, 0.0, u, 2.0 * phi + 3.0 * eta)
        right = 2.0 * lh.apply_B(wiener_model, 0.0, u, phi) + 3.0 * lh.apply_B(
            wiener_model, 0.0, u, eta
        )
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_dimension_mismatch(self, wiener_model, grid):
        with pytest.raises(ValueError, match="components"):
            lh.apply_B(wiener_model, 0.0, np.zeros(grid.n_nodes), np.zeros(2))


class TestHsNorm:
    def test_zero_volatility(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.0]),
        )
        assert lh.hs_norm_B(m, 0.0, np.zeros(grid.n_nodes)) == 0.0

    def test_linear_sigma_equals_scaled_seminorm(self, grid):
        g0 = 0.3
        spec = _custom_spec(
            "linear",
            1,
            lambda t, x, u: np.broadcast_to(
                (g0 * np.asarray(u, float))[..., None], _shape(x, u) + (1,)
            ).copy(),
            sigma_u=lambda t, x, u: np.full(_shape(x, u) + (1,), g0),
            sigma_uu=lambda t, x, u: np.zeros(_shape(x, u) + (1,)),
            sigma_x=lambda t, x, u: np.zeros(_shape(x, u) + (1,)),
            beta_curve=lambda x: np.zeros(np.shape(x) + (1,)),
            gamma_seq=np.array([g0]),
        )
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=spec)
        u = lh.random_curves(grid, 1, np.random.default_rng(1))[0]
        assert lh.hs_norm_B(m, 0.0, u) == pytest.approx(
            g0 * lh.seminorm_H(u, grid), rel=1e-12
        )

    def test_operator_bound_on_random_curves(self, tanh_model, grid):
        # |B(t,u)|_HS^2 <= |beta|^2 |u|_H^2 + |sigma(t,.,0)|^2 on sampled curves
        vol = tanh_model.vol
        beta_sq = float(
            (np.square(vol.beta_curve(grid.nodes)).sum(axis=-1)) @ grid.weighted_quad
        )
        sigma0 = vol.sigma_at(0.0, grid.nodes, np.zeros(grid.n_nodes))
        zero_level_sq = lh.norm_frak_H(sigma0, grid) ** 2
        curves = lh.random_curves(grid, 100, np.random.default_rng(2))
        lhs = np.square(lh.hs_norm_B(tanh_model, 0.0, curves))
        rhs = beta_sq * np.square(lh.norm_H(curves, grid)) + zero_level_sq
        assert np.all(lhs <= rhs * (1.0 + 1e-9) + 1e-12)


class TestDrift:
    def test_zero_volatility_zero_drift(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.0]),
        )
        np.testing.assert_array_equal(
            lh.hjm_drift(m, 0.0, np.zeros(grid.n_nodes)), np.zeros(grid.n_nodes)
        )

    def test_wiener_constant_sigma_classical_form(self, wiener_model, grid):
        u = np.full(grid.n_nodes, 0.03)
        f = lh.hjm_drift(wiener_model, 0.0, u)
        np.testing.assert_allclose(f, 0.04 * grid.nodes, atol=1e-12)

    def test_gamma_constant_sigma_closed_form_value(self, grid):
        driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=1.05, delta=1.8)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.1]),
        )
        f = lh.hjm_drift(m, 0.0, np.full(grid.n_nodes, 0.02))
        node_at_1 = int(np.argmin(np.abs(grid.nodes - 1.0)))
        expected = -1.0 * 0.1 * (1.0 / 2.1 - 0.5)  # -sign * sigma0 * Dpsi(-0.1)
        assert f[node_at_1] == pytest.approx(expected, rel=1e-12)

    def test_drift_sign_flips_sign(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        kw = dict(grid=grid, driver=driver, cumulant=lh.CumulantModel(driver),
                  vol=lh.constant_volatility([0.2]))
        minus = lh.HjmModel(drift_sign=-1.0, **kw)
        plus = lh.HjmModel(drift_sign=+1.0, **kw)
        u = np.full(grid.n_nodes, 0.03)
        np.testing.assert_allclose(
            lh.hjm_drift(minus, 0.0, u), -lh.hjm_drift(plus, 0.0, u), rtol=1e-14
        )

    def test_gaussian_reduction_random_specs(self, grid):
        # pure Brownian driver: drift equals sigma * R * running-integral in
        # closed form, for every builtin volatility shape
        rng = np.random.default_rng(3)
        for trial in range(10):
            d = int(rng.integers(1, 4))
            variances = rng.uniform(0.2, 2.0, d)
            driver = lh.build_driver(
                [lh.WienerComponent(v) for v in variances], r_ball=50.0, delta=1.5
            )
            kind = ("constant_vector", "exp_decay", "tanh_bounded")[trial % 3]
            if kind == "constant_vector":
                vol = lh.constant_volatility(rng.uniform(-0.3, 0.3, d))
            elif kind == "exp_decay":
                vol = lh.exp_decay_volatility(
                    rng.uniform(-0.3, 0.3, d), rng.uniform(0.5, 2.0, d)
                )
            else:
                vol = lh.tanh_volatility(
                    rng.uniform(0.05, 0.4, d), rng.uniform(0.5, 2.0, d)
                )
            m = lh.HjmModel(
                grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=vol
            )
            u = lh.random_curves(grid, 1, rng)[0] * 0.05
            sig = vol.sigma_at(0.0, grid.nodes, u)
            S = lh.cumulative_integral(sig, grid, axis=-2)
            closed = (sig * (variances * S)).sum(axis=-1)
            np.testing.assert_allclose(lh.hjm_drift(m, 0.0, u), closed, atol=1e-10)

    def test_ball_violation_raises(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=0.5, delta=1.5)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.2]),  # running integral reaches 2.0
        )
        with pytest.raises(BallViolationError, match="cumulant ball"):
            lh.hjm_drift(m, 0.0, np.zeros(grid.n_nodes))

    def test_drift_functional_flags_instead_of_raising(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=0.5, delta=1.5)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.2]),
        )
        sig = np.full((2, grid.n_nodes, 1), 0.2)
        sig[1] = 0.01  # second batch entry stays inside the ball
        f, ok = drift_functional(m, sig)
        assert not ok[0] and ok[1]
        assert np.all(np.isfinite(f))

    def test_clamped_gradient_bitwise_as_always_scaled(self, grid):
        # the ball norm is computed once and vectors are scaled only when some
        # lie outside the ball; the reference always scales, by 1.0 inside
        from levyhjm.levy import grad_components
        from levyhjm.model import running_volatility_integral

        driver = lh.build_driver(
            [lh.WienerComponent(1.0), lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5
        )
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.01, 0.02]),
        )

        def reference(z):
            norms = np.sqrt(np.square(z).sum(axis=-1, keepdims=True))
            limit = m.cumulant.r_ball * (1.0 - 1e-9)
            factor = np.where(norms > limit, limit / np.maximum(norms, 1e-300), 1.0)
            return grad_components(m.cumulant, z * factor)

        rng = np.random.default_rng(5)
        inside = rng.uniform(-0.03, 0.03, size=(3, grid.n_nodes, 2))
        mixed = rng.uniform(0.0, 0.2, size=(3, grid.n_nodes, 2))
        mixed[0] *= 0.01
        mixed[2, 4:9] = np.nan
        for sig, in_ball in ((inside, [True] * 3), (mixed, [True, False, False])):
            zeta = -running_volatility_integral(m, sig)
            ref = reference(zeta)
            np.testing.assert_array_equal(grad_components(m.cumulant, zeta, clamp=True), ref)
            f, ok = drift_functional(m, sig)
            expected = m.drift_sign * np.einsum("...nd,...nd->...n", sig, ref)
            np.testing.assert_array_equal(f, expected)
            assert ok.tolist() == in_ball

    def test_budget_exceeding_ball_rejected_at_construction(self, grid):
        driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.1, delta=1.5)
        with pytest.raises(ValueError, match="budget"):
            lh.HjmModel(
                grid=grid,
                driver=driver,
                cumulant=lh.CumulantModel(driver),
                vol=lh.tanh_volatility([0.4], [1.0]),  # budget 0.4 > 0.1
            )


class TestHypothesesAudit:
    def test_tanh_passes_all(self, tanh_model):
        report = lh.check_hypotheses(tanh_model, 2000, seed=0)
        assert report.all_passed
        assert report["sigma_x_lipschitz"].worst_margin <= 1e-10

    def test_zero_volatility_trivially_passes(self, grid):
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(
            grid=grid,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([0.0]),
        )
        assert lh.check_hypotheses(m, 500, seed=1).all_passed

    def test_quadratic_sigma_fails_bounded_derivatives(self, grid):
        # sigma ~ u^2 has unbounded u-derivative; the audit must catch it
        spec = _custom_spec(
            "quadratic",
            1,
            lambda t, x, u: np.broadcast_to(
                (0.1 * np.square(np.asarray(u, float)))[..., None], _shape(x, u) + (1,)
            ).copy(),
            sigma_u=lambda t, x, u: np.broadcast_to(
                (0.2 * np.asarray(u, float))[..., None], _shape(x, u) + (1,)
            ).copy(),
            sigma_uu=lambda t, x, u: np.full(_shape(x, u) + (1,), 0.2),
            sigma_x=lambda t, x, u: np.zeros(_shape(x, u) + (1,)),
            beta_curve=lambda x: np.zeros(np.shape(x) + (1,)),
            gamma_seq=np.array([0.5]),  # claimed bound, violated for |u| > ~1.5
        )
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=spec)
        report = lh.check_hypotheses(m, 2000, seed=2)
        check = report["u_derivatives_bounded"]
        assert not check.passed
        assert check.worst_margin > 1.0  # violation grows with the sampled |u|

    def test_false_state_free_declaration_fails(self, grid):
        # gamma_seq = 0 claims sigma ignores u (the solvers then evaluate it
        # once per step); a tanh(u) volatility breaks that claim
        tanh = lh.tanh_volatility([0.2], [1.0])
        spec = dataclasses.replace(tanh, name="tanh_state_free", gamma_seq=np.zeros(1))
        assert spec.state_free
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
        m = lh.HjmModel(grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=spec)
        check = lh.check_hypotheses(m, 2000, seed=2)["u_derivatives_bounded"]
        assert not check.passed
        assert check.worst_margin > 0.1  # |sigma_u| reaches 0.2 near u = 0


class TestLipschitzEstimates:
    def test_noise_operator_sweep_normalized_bounded(self, tanh_model):
        normalized = {}
        for radius in (1.0, 2.0, 4.0, 8.0):
            est = lh.lipschitz_estimate(tanh_model, "B", radius, n_pairs=150, seed=5)
            normalized[radius] = est.normalized
            assert est.pairs_used > 0
        values = list(normalized.values())
        assert max(values) / min(values) < 3.0  # empirical margin ~2.3
        assert all(math.isfinite(v) for v in values)

    def test_drift_functional_sweep_envelope_dominates(self, tanh_model):
        # the (1 + R^2) envelope must dominate: the normalized quotient never
        # grows beyond its small-radius value (ball-constrained inputs make it
        # decay, so the upward direction is the informative one)
        normalized = {}
        for radius in (1.0, 2.0, 4.0, 8.0):
            est = lh.lipschitz_estimate(tanh_model, "g", radius, n_pairs=120, seed=6)
            normalized[radius] = est.normalized
        first = normalized[1.0]
        assert all(v <= 3.0 * first for v in normalized.values())

    def test_degenerate_pairs_rejected(self, tanh_model):
        with pytest.raises(ValueError):
            lh.lipschitz_estimate(tanh_model, "B", radius=-1.0)

    def test_unknown_kind_rejected(self, tanh_model):
        with pytest.raises(ValueError, match="which"):
            lh.lipschitz_estimate(tanh_model, "Q", radius=1.0)
