"""Driver construction, cumulant calculus, moments, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyhjm as lh
from levyhjm.levy import CumulantDomainError, DriverConfigError

# MC tolerances are 3-sigma CLT bands at the stated draw counts
N_DRAWS = 200_000


@pytest.fixture(scope="module")
def gamma_driver():
    # delta * r = 1.89 < rate = 2, so z = 1 is inside the evaluation ball
    return lh.build_driver([lh.GammaComponent(c=1.0, rate=2.0)], r_ball=1.05, delta=1.8)


@pytest.fixture(scope="module")
def gamma_model(gamma_driver):
    return lh.CumulantModel(gamma_driver)


class TestBuildDriver:
    def test_single_wiener_any_ball(self):
        d = lh.build_driver([lh.WienerComponent(1.0)], r_ball=100.0, delta=2.0)
        assert d.dim == 1
        assert d.trace_Q == pytest.approx(1.0)

    def test_geometric_gamma_family_accepted(self):
        comps, tail = lh.gamma_geometric_family(c0=0.5, ratio=0.5, rate=2.0, d_trunc=4)
        d = lh.build_driver(comps, r_ball=0.5, delta=1.5, tail_second_moment=tail)
        assert d.dim == 4
        # neglected tail of sum_k c_k / rate^2 beyond the truncation
        assert d.tail_second_moment == pytest.approx(0.5 * 0.5**4 / 0.5 / 4.0)

    def test_gamma_rate_below_delta_r_rejected(self):
        with pytest.raises(DriverConfigError, match="exponential moment"):
            lh.build_driver([lh.GammaComponent(1.0, 0.5)], r_ball=1.0, delta=1.5)

    def test_geometric_ratio_at_least_one_rejected(self):
        with pytest.raises(DriverConfigError, match="summability"):
            lh.gamma_geometric_family(c0=1.0, ratio=1.0, rate=2.0, d_trunc=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"components": [], "r_ball": 1.0, "delta": 1.5},
            {"components": [lh.WienerComponent(1.0)], "r_ball": 0.0, "delta": 1.5},
            {"components": [lh.WienerComponent(1.0)], "r_ball": 1.0, "delta": 1.0},
            {"components": [lh.WienerComponent(-1.0)], "r_ball": 1.0, "delta": 1.5},
            {"components": [lh.GammaComponent(0.0, 1.0)], "r_ball": 0.1, "delta": 1.5},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(DriverConfigError):
            lh.build_driver(**kwargs)

    def test_compensator_drifts_reported(self, gamma_driver):
        np.testing.assert_allclose(gamma_driver.compensator_drifts, [0.5])


class TestCumulantClosedForms:
    def test_zero_point(self, gamma_model):
        assert lh.cumulant(gamma_model, [0.0]) == 0.0
        np.testing.assert_array_equal(lh.cumulant_grad(gamma_model, [0.0]), [0.0])

    def test_gamma_log_form_at_one(self, gamma_model):
        # uncompensated value -log(1 - 1/2) = log 2; compensation subtracts z c / rate
        val = lh.cumulant(gamma_model, [1.0])
        assert val == pytest.approx(math.log(2.0) - 0.5, rel=1e-12)

    def test_gamma_gradient(self, gamma_model):
        g = lh.cumulant_grad(gamma_model, [1.0])
        assert g[0] == pytest.approx(1.0 / (2.0 - 1.0) - 0.5, rel=1e-12)

    def test_gamma_hessian_at_zero_is_second_moment(self, gamma_model):
        e1 = [1.0]
        h = lh.cumulant_hess(gamma_model, [0.0], e1, e1)
        assert h == pytest.approx(0.25, rel=1e-12)  # c / rate^2

    def test_wiener_closed_forms(self):
        d = lh.build_driver([lh.WienerComponent(4.0)], r_ball=1.0, delta=1.5)
        m = lh.CumulantModel(d)
        assert lh.cumulant(m, [0.5]) == pytest.approx(0.5, rel=1e-14)  # r z^2 / 2
        assert lh.cumulant_grad(m, [0.3])[0] == pytest.approx(1.2, rel=1e-14)
        assert lh.cumulant_hess(m, [0.7], [1.0], [1.0]) == pytest.approx(4.0)

    def test_compound_poisson_closed_forms(self):
        d = lh.build_driver(
            [lh.CompoundPoissonComponent(intensity=2.0, jump_std=0.5)],
            r_ball=1.0,
            delta=1.5,
        )
        m = lh.CumulantModel(d)
        z = 0.8
        s2 = 0.25
        assert lh.cumulant(m, [z]) == pytest.approx(
            2.0 * (math.exp(0.5 * z * z * s2) - 1.0), rel=1e-12
        )
        assert lh.cumulant_grad(m, [z])[0] == pytest.approx(
            2.0 * z * s2 * math.exp(0.5 * z * z * s2), rel=1e-12
        )

    def test_additivity_over_components(self):
        comps = [lh.WienerComponent(1.0), lh.GammaComponent(1.0, 4.0)]
        d = lh.build_driver(comps, r_ball=1.0, delta=1.5)
        m = lh.CumulantModel(d)
        singles = [
            lh.CumulantModel(lh.build_driver([c], r_ball=1.0, delta=1.5)) for c in comps
        ]
        z = np.array([0.4, -0.6])
        total = lh.cumulant(m, z)
        parts = lh.cumulant(singles[0], z[:1]) + lh.cumulant(singles[1], z[1:])
        assert total == pytest.approx(parts, rel=1e-14)

    def test_domain_errors(self, gamma_model):
        with pytest.raises(CumulantDomainError):
            lh.cumulant(gamma_model, [1.2])
        with pytest.raises(ValueError, match="components"):
            lh.cumulant(gamma_model, [0.1, 0.1])


class TestQuadratureMode:
    @pytest.mark.parametrize("z", [0.0, 0.3, -0.9, 1.0])
    def test_gamma_quadrature_matches_closed_form(self, gamma_driver, z):
        closed = lh.CumulantModel(gamma_driver)
        quad = lh.CumulantModel(gamma_driver, modes=("quadrature",))
        assert lh.cumulant(quad, [z]) == pytest.approx(
            lh.cumulant(closed, [z]), abs=1e-10
        )
        assert lh.cumulant_grad(quad, [z])[0] == pytest.approx(
            lh.cumulant_grad(closed, [z])[0], abs=1e-10
        )
        assert lh.cumulant_hess(quad, [z], [1.0], [1.0]) == pytest.approx(
            lh.cumulant_hess(closed, [z], [1.0], [1.0]), abs=1e-10
        )

    def test_compound_poisson_quadrature(self):
        d = lh.build_driver(
            [lh.CompoundPoissonComponent(1.0, 1.0)], r_ball=1.0, delta=1.5
        )
        closed = lh.CumulantModel(d)
        quad = lh.CumulantModel(d, modes=("quadrature",))
        for z in (0.0, 0.5, -1.0):
            assert lh.cumulant(quad, [z]) == pytest.approx(
                lh.cumulant(closed, [z]), abs=1e-10
            )

    def test_quadrature_zero_conditions(self, gamma_driver):
        quad = lh.CumulantModel(gamma_driver, modes=("quadrature",))
        assert abs(lh.cumulant(quad, [0.0])) < 1e-10
        assert abs(lh.cumulant_grad(quad, [0.0])[0]) < 1e-10

    def test_quadrature_rejected_for_wiener(self):
        d = lh.build_driver([lh.WienerComponent(1.0)], r_ball=1.0, delta=1.5)
        with pytest.raises(ValueError, match="jump components"):
            lh.CumulantModel(d, modes=("quadrature",))


class TestDerivativeConsistency:
    def test_gradient_matches_finite_differences(self, gamma_model):
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(100):
            z = rng.uniform(-0.9, 0.9, size=1)
            g = lh.cumulant_grad(gamma_model, z)[0]
            fd = (
                lh.cumulant(gamma_model, z + h) - lh.cumulant(gamma_model, z - h)
            ) / (2 * h)
            assert abs(g - fd) / (1.0 + abs(g)) < 1e-6

    def test_hessian_matches_second_differences(self, gamma_model):
        rng = np.random.default_rng(1)
        h = 1e-4
        for _ in range(100):
            z = rng.uniform(-0.9, 0.9, size=1)
            d2 = lh.cumulant_hess(gamma_model, z, [1.0], [1.0])
            fd = (
                lh.cumulant(gamma_model, z + h)
                - 2 * lh.cumulant(gamma_model, z)
                + lh.cumulant(gamma_model, z - h)
            ) / h**2
            assert abs(d2 - fd) / (1.0 + abs(d2)) < 1e-6

    def test_hessian_at_zero_is_covariance(self):
        comps = [lh.WienerComponent(0.7), lh.GammaComponent(2.0, 3.0)]
        d = lh.build_driver(comps, r_ball=0.5, delta=1.5)
        m = lh.CumulantModel(d)
        phi = np.array([0.3, -1.1])
        expected = float(phi @ lh.covariance(d).Q @ phi)
        assert lh.cumulant_hess(m, [0.0, 0.0], phi, phi) == pytest.approx(
            expected, rel=1e-12
        )

    @given(
        a=st.floats(-0.5, 0.5),
        b=st.floats(-0.5, 0.5),
        c=st.floats(-0.5, 0.5),
        d_=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_hessian_symmetry_and_bilinearity(self, a, b, c, d_):
        drv = lh.build_driver(
            [lh.WienerComponent(1.0), lh.GammaComponent(1.0, 4.0)],
            r_ball=0.5,
            delta=1.5,
        )
        m = lh.CumulantModel(drv)
        z = [0.1, -0.2]
        phi, eta = np.array([a, b]), np.array([c, d_])
        assert lh.cumulant_hess(m, z, phi, eta) == pytest.approx(
            lh.cumulant_hess(m, z, eta, phi), rel=1e-12, abs=1e-15
        )
        assert lh.cumulant_hess(m, z, 2 * phi, eta) == pytest.approx(
            2 * lh.cumulant_hess(m, z, phi, eta), rel=1e-12, abs=1e-15
        )


class TestCovarianceAndMoments:
    def test_wiener_covariance(self):
        d = lh.build_driver([lh.WienerComponent(1.0)], r_ball=1.0, delta=1.5)
        cov = lh.covariance(d)
        np.testing.assert_allclose(cov.Q, [[1.0]])
        assert cov.trace == 1.0

    def test_gamma_covariance_value_and_mc(self, gamma_driver):
        cov = lh.covariance(gamma_driver)
        assert cov.Q[0, 0] == pytest.approx(0.25)
        draws = lh.sample_increment_array(
            gamma_driver, 1.0, N_DRAWS, lh.step_generator(3, 0)
        )
        assert draws[:, 0].var() == pytest.approx(0.25, rel=0.01)

    def test_trace_additive_over_components(self):
        d = lh.build_driver(
            [lh.WienerComponent(0.5), lh.GammaComponent(1.0, 2.0)],
            r_ball=0.5,
            delta=1.5,
        )
        assert lh.covariance(d).trace == pytest.approx(0.5 + 0.25)

    def test_moment_factor_gamma_unit_rate(self):
        d = lh.build_driver([lh.GammaComponent(1.0, 1.0)], r_ball=0.3, delta=1.5)
        # p = 2: no Gaussian part, int x^2 m = Gamma(2) = 1, plus 1^(p/2)
        assert lh.moment_mp(d, 2.0) == pytest.approx(2.0)
        assert lh.moment_mp(d, 4.0) == pytest.approx(6.0 + 1.0)

    def test_moment_factor_pure_wiener(self):
        d = lh.build_driver([lh.WienerComponent(1.0)], r_ball=1.0, delta=1.5)
        assert lh.moment_mp(d, 2.0) == pytest.approx(1.0)

    def test_moment_order_above_declared_cap_rejected(self, gamma_driver):
        with pytest.raises(ValueError, match="p_max"):
            lh.moment_mp(gamma_driver, 6.0)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_levy_moments_match_scipy_gamma(self, p):
        from scipy.special import gamma

        g = lh.GammaComponent(1.3, 2.0)
        expected = g.c * gamma(p) / g.rate**p
        assert g.levy_moment(p) == pytest.approx(expected, rel=1e-15, abs=0)
        cp = lh.CompoundPoissonComponent(0.7, 0.4)
        s = cp.jump_std
        expected = cp.intensity * s**p * 2 ** (p / 2) * gamma((p + 1) / 2) / math.sqrt(math.pi)
        assert cp.levy_moment(p) == pytest.approx(expected, rel=1e-15, abs=0)


class TestSampling:
    def test_martingale_mean(self, gamma_driver):
        draws = lh.sample_increment_array(
            gamma_driver, 1.0, N_DRAWS, lh.step_generator(5, 0)
        )
        se = draws[:, 0].std() / math.sqrt(N_DRAWS)
        assert abs(draws[:, 0].mean()) < 3 * se

    def test_variance_scales_with_dt(self, gamma_driver):
        dt = 0.25
        draws = lh.sample_increment_array(
            gamma_driver, dt, N_DRAWS, lh.step_generator(6, 0)
        )
        assert draws[:, 0].var() == pytest.approx(0.25 * dt, rel=0.02)

    def test_mgf_identity_all_kinds(self):
        comps = [
            lh.WienerComponent(1.0),
            lh.GammaComponent(1.0, 2.0),
            lh.CompoundPoissonComponent(1.0, 0.5),
        ]
        d = lh.build_driver(comps, r_ball=0.5, delta=1.5)
        m = lh.CumulantModel(d)
        rng = np.random.default_rng(7)
        zetas = rng.normal(size=(5, 3))
        zetas = 0.45 * zetas / np.linalg.norm(zetas, axis=1, keepdims=True)
        means, ses = lh.empirical_mgf(d, zetas, N_DRAWS, seed=11)
        for z, mean, se in zip(zetas, means, ses):
            assert mean == pytest.approx(math.exp(lh.cumulant(m, z)), abs=3 * se)

    def test_increment_table_reproducible_bitwise(self, gamma_driver):
        a = lh.increment_table(gamma_driver, 0.1, 4, 10, seed=9)
        b = lh.increment_table(gamma_driver, 0.1, 4, 10, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_step_streams_differ_and_key_on_seed_and_step(self, gamma_driver):
        t = lh.increment_table(gamma_driver, 0.1, 3, 10, seed=9)
        assert not np.array_equal(t[0], t[1])
        other = lh.increment_table(gamma_driver, 0.1, 3, 10, seed=10)
        assert not np.array_equal(t, other)

    def test_nonpositive_dt_rejected(self, gamma_driver):
        with pytest.raises(ValueError):
            lh.sample_increment_array(gamma_driver, 0.0, 4, lh.step_generator(1, 0))


class TestExponentialMoment:
    def test_sampled_finiteness_on_enlarged_ball(self, gamma_driver):
        report = lh.verify_exponential_moment(gamma_driver, n_draws=50_000, seed=2)
        assert report.passed
        assert math.isfinite(report.lhs)
