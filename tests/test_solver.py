"""Solver schemes: transport exactness, oracles, localization, norms."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import levyhjm as lh
from levyhjm.solver import PicardDivergenceError, _step_kernel

BETA = 0.1


def aligned_grid(x_max: float, dt: float) -> lh.WeightGrid:
    """Grid whose spacing equals dt, so shifts are exact rotations."""
    return lh.make_grid(x_max, int(round(x_max / dt)) + 1, BETA)


@pytest.fixture(scope="module")
def zero_model():
    grid = aligned_grid(10.0, 0.1)
    driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=3.0, delta=1.5)
    return lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.constant_volatility([0.0]),
    )


@pytest.fixture(scope="module")
def gamma_model():
    grid = aligned_grid(10.0, 1.0 / 32.0)
    driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
    return lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.tanh_volatility([0.05], [1.0]),
    )


def initial_curve(grid):
    return 0.02 + 0.015 * (1.0 - np.exp(-0.4 * grid.nodes))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0.0, "n_steps": 4, "n_paths": 2},
            {"horizon": 1.0, "n_steps": 0, "n_paths": 2},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 0},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "picard_tol": 0.0},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "r_local": -1.0},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "p": 1.0},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "seed": -3},
            {"horizon": math.nan, "n_steps": 4, "n_paths": 2},
            {"horizon": math.inf, "n_steps": 4, "n_paths": 2},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "picard_tol": math.nan},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "r_local": math.nan},
            {"horizon": 1.0, "n_steps": 4, "n_paths": 2, "p": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            lh.SolverConfig(**kwargs)

    def test_infinite_radius_turns_localization_off(self):
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=2, r_local=math.inf)
        assert cfg.r_local == math.inf

    def test_times_and_dt(self):
        cfg = lh.SolverConfig(horizon=1.0, n_steps=4, n_paths=1)
        assert cfg.dt == 0.25
        np.testing.assert_allclose(cfg.times, [0, 0.25, 0.5, 0.75, 1.0])


class TestTransportExactness:
    def test_euler_zero_vol_is_bitwise_transport(self, zero_model):
        grid = zero_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=5, n_paths=3, seed=1)
        ens = lh.euler_solve(zero_model, u0, cfg)
        for j, t in enumerate(cfg.times):
            expected = lh.shift(u0, float(t), grid)
            for p in range(cfg.n_paths):
                np.testing.assert_array_equal(ens.curves[p, j], expected)

    def test_picard_matches_euler_bitwise_for_zero_vol(self, zero_model):
        u0 = initial_curve(zero_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=5, n_paths=3, seed=1)
        ens = lh.euler_solve(zero_model, u0, cfg)
        res = lh.picard_solve(zero_model, u0, cfg)
        # certification always runs, even when the causal pass is pure transport
        assert res.sweeps == 2
        assert res.residuals == (0.0, 0.0)
        assert res.converged
        np.testing.assert_array_equal(res.ensemble.curves, ens.curves)

    def test_same_seed_reproduces_bitwise(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.25, n_steps=8, n_paths=16, seed=9)
        a = lh.euler_solve(gamma_model, u0, cfg)
        b = lh.euler_solve(gamma_model, u0, cfg)
        np.testing.assert_array_equal(a.curves, b.curves)
        np.testing.assert_array_equal(a.increments, b.increments)


class TestAdditiveGaussianOracle:
    def closed_form(self, grid, u0, sigma0, times, increments):
        """Exact solution for constant scalar volatility and Brownian noise."""
        x_max = grid.x_max
        W = np.vstack(
            [np.zeros(increments.shape[1]), np.cumsum(increments[:, :, 0], axis=0)]
        ).T  # (P, m+1)
        out = np.empty((W.shape[0], len(times), grid.n_nodes))
        for j, t in enumerate(times):
            tstar = np.minimum(np.maximum(x_max - grid.nodes, 0.0), t)
            drift_int = grid.nodes * tstar + 0.5 * tstar**2 + (t - tstar) * x_max
            base = lh.shift(u0, float(t), grid) + sigma0**2 * drift_int
            out[:, j] = base + sigma0 * W[:, j, None]
        return out

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_pathwise_match_first_order(self, solver):
        sigma0 = 0.2
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=2.0, delta=1.5)
        errs = []
        for n_steps in (16, 32, 64):
            dt = 0.5 / n_steps
            grid = aligned_grid(2.0, dt)
            model = lh.HjmModel(
                grid=grid,
                driver=driver,
                cumulant=lh.CumulantModel(driver),
                vol=lh.constant_volatility([sigma0]),
            )
            u0 = initial_curve(grid)
            cfg = lh.SolverConfig(horizon=0.5, n_steps=n_steps, n_paths=4, seed=3)
            if solver == "euler":
                ens = lh.euler_solve(model, u0, cfg)
            else:
                ens = lh.picard_solve(model, u0, cfg).ensemble
            exact = self.closed_form(grid, u0, sigma0, cfg.times, ens.increments)
            err = lh.norm_H(ens.curves - exact, grid).max()
            errs.append(float(err))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 1.6 < r < 2.5  # first order in dt


class TestSchemeAgreement:
    def test_picard_euler_distance_first_order(self, gamma_model):
        # common random numbers across refinement levels: coarse increments
        # are sums of the finest ones, so every level sees the same noise path
        driver = gamma_model.driver
        n_fine = 32
        fine = lh.increment_table(driver, 0.5 / n_fine, n_fine, 32, seed=4)
        dists = []
        for n_steps in (8, 16, 32):
            factor = n_fine // n_steps
            inc = fine.reshape(n_steps, factor, *fine.shape[1:]).sum(axis=1)
            dt = 0.5 / n_steps
            grid = aligned_grid(10.0, dt)
            model = lh.HjmModel(
                grid=grid,
                driver=driver,
                cumulant=gamma_model.cumulant,
                vol=gamma_model.vol,
            )
            u0 = initial_curve(grid)
            cfg = lh.SolverConfig(
                horizon=0.5, n_steps=n_steps, n_paths=32, seed=4, picard_tol=1e-10
            )
            res = lh.picard_solve(model, u0, cfg, increments=inc)
            ens = lh.euler_solve(model, u0, cfg, increments=inc)
            gap = lh.norm_H(res.ensemble.curves - ens.curves, grid).max(axis=1)
            dists.append(float(np.sqrt(np.square(gap).mean())))
        ratios = [dists[i] / dists[i + 1] for i in range(len(dists) - 1)]
        for r in ratios:
            assert 1.5 < r < 2.8


def pass_dependent_kernel(n_steps):
    """``_step_kernel`` stand-in whose drift is bumped by 1e-3, then 5e-4.

    Each pass of a block calls the kernel once per step, and a block runs
    its causal pass before its certifying pass, so the pass is
    ``(calls // n_steps) % 2`` for any block size.  The bumped map differs
    between the passes, so its certifying residual is not 0.0.
    """
    calls = 0

    def factory(model, times):
        kernel = _step_kernel(model, times)

        def bumped(j, U):
            nonlocal calls
            sig, f, ok = kernel(j, U)
            bump = (1e-3, 5e-4)[(calls // n_steps) % 2]
            calls += 1
            return sig, f + bump, ok

        return bumped

    return factory


class TestPicardIteration:
    def test_common_noise_reused_across_sweeps(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.25, n_steps=8, n_paths=8, seed=6)
        res = lh.picard_solve(gamma_model, u0, cfg)
        expected = lh.increment_table(gamma_model.driver, cfg.dt, 8, 8, seed=6)
        np.testing.assert_array_equal(res.ensemble.increments, expected)

    def test_pass_dependent_drift_fails_certification(self, gamma_model, monkeypatch):
        # negative control: a map that changes between the causal and the
        # certifying pass has no common fixed point, and must not pass
        from levyhjm import solver

        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=8, seed=7)
        monkeypatch.setattr(solver, "_step_kernel", pass_dependent_kernel(cfg.n_steps))
        with pytest.raises(PicardDivergenceError, match="certifying pass residual"):
            lh.picard_solve(gamma_model, u0, cfg)


def _two_buffer_jacobi(model, u0, cfg, kernel, dM):
    """Test-side Picard solve that keeps each iterate in its own buffer.

    Sweep 0 is the causal pass; sweep 1 reads only the causal iterate and
    never writes it.  The whole ensemble is one block.  Returns the causal
    iterate's curves and exit indices, and the residuals of both sweeps.
    """
    from levyhjm.solver import _shift_values

    grid, m, P = model.grid, cfg.n_steps, cfg.n_paths
    transported = np.array([_shift_values(u0, float(t), grid) for t in cfg.times])
    prev = np.broadcast_to(transported, (P, m + 1, grid.n_nodes))
    residuals = []
    for sweep in range(2):
        new = np.empty((P, m + 1, grid.n_nodes))
        new[:, 0] = u0
        src = new if sweep == 0 else prev
        exits = np.full(P, m + 1)
        conv = np.zeros((P, grid.n_nodes))
        for j in range(1, m + 1):
            sig, f, ok = kernel(j - 1, src[:, j - 1])
            exits[(exits > m) & ~np.broadcast_to(ok, (P,))] = j - 1
            G = f * cfg.dt + np.einsum("pnd,pd->pn", sig, dM[j - 1])
            conv = _shift_values(conv + G, cfg.dt, grid)
            new[:, j] = transported[j] + conv
            assert np.isfinite(new[:, j]).all()
            exits[(exits > m) & (lh.norm_H(new[:, j], grid) > cfg.r_local)] = j
            frozen = np.nonzero(exits <= j)[0]
            new[frozen, j] = new[frozen, exits[frozen]]
        diff = lh.norm_H(new - prev, grid)
        residuals.append(float(np.sqrt(np.square(diff).mean(axis=0).max())))
        if sweep == 0:
            prev, causal_exits = new, exits
    return prev, causal_exits, tuple(residuals)


class TestOneBufferSweeps:
    """The certifying pass reads only the causal iterate, never its own rows."""

    @pytest.mark.parametrize("block_rows", [3, 64], ids=["blocks_of_3", "one_block"])
    @pytest.mark.parametrize("r_local", [1e6, 0.0239], ids=["all_alive", "some_frozen"])
    def test_multi_sweep_matches_two_buffer_jacobi(
        self, gamma_model, monkeypatch, block_rows, r_local
    ):
        # the drift bump differs between the passes, so the certifying pass
        # moves the iterate; tanh makes sigma read the state, so a certifying
        # step that read its own rows instead of the causal iterate would differ
        from levyhjm import solver

        grid = gamma_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(
            horizon=0.5, n_steps=8, n_paths=10, seed=7, picard_tol=1.0, r_local=r_local,
        )
        monkeypatch.setattr(solver, "_BLOCK_VALUES", block_rows * grid.n_nodes)
        monkeypatch.setattr(solver, "_step_kernel", pass_dependent_kernel(cfg.n_steps))
        res = lh.picard_solve(gamma_model, u0, cfg)
        ref_kernel = pass_dependent_kernel(cfg.n_steps)(gamma_model, cfg.times[:-1])
        curves, exits, residuals = _two_buffer_jacobi(
            gamma_model, u0, cfg, ref_kernel, res.ensemble.increments
        )
        assert res.sweeps == 2 and res.converged
        assert residuals[1] > 0.0
        frozen = exits <= cfg.n_steps
        assert frozen.any() == (r_local < 1.0) and not frozen.all()
        # some paths freeze before the last step, so frozen rows are copied
        assert (exits < cfg.n_steps).any() == (r_local < 1.0)
        assert np.array_equal(res.ensemble.curves, curves)
        assert np.array_equal(res.ensemble.exit_index, exits)
        assert res.residuals == residuals


class TestOnePassSolve:
    """The first sweep is the causal pass to the fixed point; the second certifies it."""

    def test_second_sweep_certifies_with_zero_residual(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=32, seed=5)
        res = lh.picard_solve(gamma_model, u0, cfg)
        assert res.sweeps == 2
        assert res.residuals[0] > cfg.picard_tol
        assert res.residuals[1] == 0.0
        assert res.converged

    def test_matches_left_endpoint_recursion(self, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=6, seed=11)
        res = lh.picard_solve(gamma_model, u0, cfg)
        ens = res.ensemble
        assert (ens.exit_index == cfg.n_steps + 1).all()
        dt = cfg.dt
        for p in range(cfg.n_paths):
            u, conv = u0, np.zeros(grid.n_nodes)
            for j in range(1, cfg.n_steps + 1):
                t = float(cfg.times[j - 1])
                sig = gamma_model.vol.sigma_at(t, grid.nodes, u)
                f, ok = lh.drift_functional(gamma_model, sig)
                assert ok
                conv = lh.shift(conv + f * dt + sig @ ens.increments[j - 1, p], dt, grid)
                u = lh.shift(u0, float(cfg.times[j]), grid) + conv
                np.testing.assert_allclose(ens.curves[p, j], u, rtol=0, atol=1e-14)


class TestLocalization:
    def test_paths_freeze_and_stay_frozen(self, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        r_local = lh.norm_H(u0, grid) * 1.0001  # barely above the initial norm
        cfg = lh.SolverConfig(
            horizon=0.5, n_steps=16, n_paths=32, seed=8, r_local=float(r_local)
        )
        ens = lh.euler_solve(gamma_model, u0, cfg)
        exited = ens.exit_index <= cfg.n_steps
        assert exited.any()
        for p in np.nonzero(exited)[0]:
            j = ens.exit_index[p]
            frozen = ens.curves[p, j]
            for k in range(j, cfg.n_steps + 1):
                np.testing.assert_array_equal(ens.curves[p, k], frozen)
        assert np.isinf(ens.exit_times[~exited]).all()

    def test_stored_norms_bounded_by_radius_plus_one_step(self, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        r_local = float(lh.norm_H(u0, grid) * 1.0001)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=32, seed=8, r_local=r_local)
        ens = lh.euler_solve(gamma_model, u0, cfg)
        norms = lh.norm_H(ens.curves, grid)
        one_step = 0.05  # generous bound on a single increment at this scale
        assert norms.max() <= r_local + one_step

    def test_exit_times_monotone_in_radius_on_common_noise(self, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        base = float(lh.norm_H(u0, grid))
        inc = lh.increment_table(gamma_model.driver, 0.5 / 16, 16, 32, seed=8)
        cfg_small = lh.SolverConfig(
            horizon=0.5, n_steps=16, n_paths=32, seed=8, r_local=base * 1.0001
        )
        cfg_large = lh.SolverConfig(
            horizon=0.5, n_steps=16, n_paths=32, seed=8, r_local=base * 1.01
        )
        small = lh.euler_solve(gamma_model, u0, cfg_small, increments=inc)
        large = lh.euler_solve(gamma_model, u0, cfg_large, increments=inc)
        assert np.all(large.exit_index >= small.exit_index)


def stochastic_convolution(grid, integrand_curves, noise, t_index, dt):
    """Left-endpoint convolution sum sum_{i < t_index} shift(<F_i, dM_i>, t - s_i).

    ``integrand_curves`` holds per-step vector curves (n_steps, n_nodes, d)
    evaluated at the left endpoints (predictable convention); ``noise`` the
    matching (n_steps, d) increments, or (n_steps, n_paths, d) for a batch.
    Returns the convolution curve at time index ``t_index``.
    """
    from levyhjm.curvespace import _shift_values

    F = np.asarray(integrand_curves, dtype=float)
    dM = np.asarray(noise, dtype=float)
    shape = (dM.shape[1], grid.n_nodes) if dM.ndim == 3 else (grid.n_nodes,)
    out = np.zeros(shape)
    for i in range(t_index):
        term = np.einsum("nd,...d->...n", F[i], dM[i])
        out = out + _shift_values(term, (t_index - i) * dt, grid)
    return out


class TestStochasticConvolution:
    def test_zero_noise_gives_zero_curve(self, gamma_model):
        grid = gamma_model.grid
        F = lh.step_integrands(grid, 1, 4, seed=1)
        out = stochastic_convolution(grid, F, np.zeros((4, 1)), 4, dt=0.25)
        np.testing.assert_array_equal(out, np.zeros(grid.n_nodes))

    def test_single_step_is_shifted_pairing(self, gamma_model):
        grid = gamma_model.grid
        F = lh.step_integrands(grid, 1, 1, seed=2)
        dm = np.array([[0.37]])
        out = stochastic_convolution(grid, F, dm, 1, dt=grid.spacing)
        expected = lh.shift(F[0, :, 0] * 0.37, grid.spacing, grid)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_variance_matches_covariance_quadrature(self):
        # second moment of the convolution against the shifted covariance sum
        grid = aligned_grid(10.0, 0.125)
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=1.0, delta=1.5)
        n_steps, n_paths = 8, 20000
        dt = 0.125
        F = lh.step_integrands(grid, 1, n_steps, seed=3)
        dM = lh.increment_table(driver, dt, n_steps, n_paths, seed=4)
        out = stochastic_convolution(grid, F, dM, n_steps, dt=dt)
        sq = np.square(lh.norm_H(out, grid))
        mc, se = float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n_paths))
        expected = sum(
            dt * lh.norm_H(lh.shift(F[i, :, 0], (n_steps - i) * dt, grid), grid) ** 2
            for i in range(n_steps)
        )
        assert mc == pytest.approx(expected, abs=3 * se)


class TestEnsembleNorms:
    def test_deterministic_ensemble_norms_coincide(self, zero_model):
        u0 = initial_curve(zero_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=5, n_paths=4, seed=1)
        ens = lh.euler_solve(zero_model, u0, cfg)
        script = lh.norm_script_Hp(ens, 2.0)
        bb = lh.norm_bb_Hp(ens, 2.0)
        sup_exact = max(
            lh.norm_H(lh.shift(u0, float(t), zero_model.grid), zero_model.grid)
            for t in cfg.times
        )
        assert script.value == pytest.approx(sup_exact, rel=1e-12)
        assert bb.value == pytest.approx(sup_exact, rel=1e-12)
        assert script.standard_error == 0.0

    def test_pathwise_sup_dominates_sup_of_means(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=128, seed=10, p=4.0)
        ens = lh.euler_solve(gamma_model, u0, cfg)
        for p in (2.0, 4.0):
            script = lh.norm_script_Hp(ens, p)
            bb = lh.norm_bb_Hp(ens, p)
            assert bb.value >= script.value
            assert math.isfinite(bb.standard_error)

    def test_order_above_declared_cap_rejected(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.25, n_steps=4, n_paths=4, seed=1, p=2.0)
        ens = lh.euler_solve(gamma_model, u0, cfg)
        with pytest.raises(ValueError, match="order"):
            lh.norm_script_Hp(ens, 4.0)

    def test_norm_stability_under_path_doubling(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        values = {}
        for n_paths in (256, 512):
            cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=n_paths, seed=11)
            ens = lh.euler_solve(gamma_model, u0, cfg)
            est = lh.norm_bb_Hp(ens, 2.0)
            values[n_paths] = est
        a, b = values[256], values[512]
        tol = 2.0 * math.hypot(a.standard_error, b.standard_error) + 1e-9
        assert abs(a.value - b.value) <= max(tol, 2e-4)


class TestInitialDatumLipschitz:
    def test_identical_initial_curves_rejected(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.25, n_steps=8, n_paths=8, seed=1)
        with pytest.raises(ValueError, match="differ"):
            lh.lipschitz_in_initial_datum(gamma_model, u0, u0, cfg)

    def test_transport_only_ratio_bounded_by_norm_equivalence(self, zero_model):
        grid = zero_model.grid
        u0 = initial_curve(grid)
        v0 = u0 + 0.01 * np.exp(-grid.nodes)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=5, n_paths=2, seed=1)
        ratio = lh.lipschitz_in_initial_datum(zero_model, u0, v0, cfg)
        delta = u0 - v0
        bound = max(
            lh.norm_H(lh.shift(delta, float(t), grid), grid) for t in cfg.times
        ) / lh.norm_H(delta, grid)
        assert ratio == pytest.approx(bound, rel=1e-10)

    def test_bounded_over_perturbation_directions(self, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        rng = np.random.default_rng(12)
        dirs = lh.random_curves(grid, 5, rng)
        dirs = lh.rescale_to_norm(dirs, grid, 1.0)
        cfg = lh.SolverConfig(horizon=0.25, n_steps=8, n_paths=64, seed=13)
        ratios = [
            lh.lipschitz_in_initial_datum(gamma_model, u0, u0 + 0.01 * d, cfg)
            for d in dirs
        ]
        assert max(ratios) < 5.0


def _solve(solver, model, u0, cfg, increments=None):
    if solver == "euler":
        return lh.euler_solve(model, u0, cfg, increments=increments)
    return lh.picard_solve(model, u0, cfg, increments=increments).ensemble


def _model(grid, vol, r_ball=1.0):
    comps = [lh.WienerComponent(1.0), lh.GammaComponent(1.0, 2.0)][: vol.dim]
    driver = lh.build_driver(comps, r_ball=r_ball, delta=1.5)
    return lh.HjmModel(grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=vol)


def _linear_vol(c):
    """sigma = c u: state dependent, so paths leave the ball one by one."""
    sig = lambda t, x, u: (c * np.asarray(u, float))[..., None]
    return lh.VolatilitySpec(name="linear", dim=1, sigma=sig, gamma_seq=np.array([c]))


def _ramp_vol(level, rate):
    """sigma = level (1 + rate t): state-free, so every path leaves the ball at once."""

    def sig(t, x, u):
        shape = np.broadcast_shapes(np.shape(x), np.shape(u)) + (1,)
        return np.full(shape, level * (1.0 + rate * t))

    return lh.VolatilitySpec(name="ramp", dim=1, sigma=sig, gamma_seq=np.zeros(1))


def _assert_frozen_at_exit(ens, n_steps):
    """Each exited path keeps its state at exit_index for every later time."""
    for p in np.nonzero(ens.exit_index <= n_steps)[0]:
        j = ens.exit_index[p]
        for k in range(j, n_steps + 1):
            np.testing.assert_array_equal(ens.curves[p, k], ens.curves[p, j])


class TestStateFreeKernel:
    """The once-per-step evaluation equals the per-path one bit for bit."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("builder", ["constant", "exp_decay"])
    def test_bitwise_equal_to_per_path(self, builder, d):
        grid = aligned_grid(10.0, 1.0 / 16.0)
        if builder == "constant":
            vol = lh.constant_volatility([0.02, 0.01][:d])
        else:
            vol = lh.exp_decay_volatility([0.05, 0.03][:d], [0.5, 1.0][:d])
        per_path = dataclasses.replace(vol, gamma_seq=None)
        assert vol.state_free and not per_path.state_free
        u0 = initial_curve(grid)
        # r_local just above the initial norm, so some paths localize
        cfg = lh.SolverConfig(
            horizon=0.5, n_steps=8, n_paths=64, seed=4,
            r_local=float(lh.norm_H(u0, grid) * 1.001),
        )
        runs = []
        for v in (vol, per_path):
            model = _model(grid, v)
            euler = lh.euler_solve(model, u0, cfg)
            picard = lh.picard_solve(model, u0, cfg)
            bonds = lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)
            runs.append((euler, picard, bonds))
        (e1, p1, b1), (e2, p2, b2) = runs
        assert (e1.exit_index <= cfg.n_steps).any()
        np.testing.assert_array_equal(e1.curves, e2.curves)
        np.testing.assert_array_equal(e1.exit_index, e2.exit_index)
        np.testing.assert_array_equal(p1.ensemble.curves, p2.ensemble.curves)
        np.testing.assert_array_equal(p1.ensemble.exit_index, p2.ensemble.exit_index)
        assert p1.residuals == p2.residuals
        assert b1 == b2


class TestExitConventions:
    """The state at exit_index is kept; what triggered the exit holds there."""

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_norm_exit(self, solver, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        r_local = float(lh.norm_H(u0, grid) * 1.0001)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=32, seed=8, r_local=r_local)
        ens = _solve(solver, gamma_model, u0, cfg)
        exited = np.nonzero(ens.exit_index <= cfg.n_steps)[0]
        assert exited.size > 0
        _assert_frozen_at_exit(ens, cfg.n_steps)
        norms = lh.norm_H(ens.curves, grid)
        for p in exited:
            j = ens.exit_index[p]
            assert norms[p, j] > r_local
            assert np.all(norms[p, :j] <= r_local)
        # no path alive at t_j is over the radius there, t_m included
        alive = ens.exit_index[:, None] > np.arange(cfg.n_steps + 1)
        assert not (alive & (norms > r_local)).any()

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_norm_exit_at_last_step(self, solver, gamma_model):
        # a radius between a path's running max through t_{m-1} and its norm
        # at t_m: that path exits at m, and every path exits where its
        # unlocalized norm first exceeds the radius
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=32, seed=8)
        m = cfg.n_steps
        free = _solve(solver, gamma_model, u0, cfg)
        assert (free.exit_index == m + 1).all()
        norms = lh.norm_H(free.curves, grid)
        p = int(np.argmax(norms[:, m] > norms[:, :m].max(axis=1)))
        assert norms[p, m] > norms[p, :m].max()
        r_local = float(0.5 * (norms[p, :m].max() + norms[p, m]))
        cfg = dataclasses.replace(cfg, r_local=r_local)
        ens = _solve(solver, gamma_model, u0, cfg, increments=free.increments)
        over = norms > r_local
        first = np.where(over.any(axis=1), np.argmax(over, axis=1), m + 1)
        assert ens.exit_index[p] == m
        np.testing.assert_array_equal(ens.exit_index, first)
        np.testing.assert_array_equal(ens.curves[p], free.curves[p])

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_initial_curve_outside_radius_rejected(self, solver, gamma_model):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        r_local = float(lh.norm_H(u0, grid) * 0.9)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=4, n_paths=4, seed=8, r_local=r_local)
        with pytest.raises(ValueError, match="exceeds r_local"):
            _solve(solver, gamma_model, u0, cfg)

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_ball_exit(self, solver):
        grid = aligned_grid(10.0, 1.0 / 16.0)
        u0 = initial_curve(grid)
        vol = _linear_vol(1.0)
        sig0 = vol.sigma_at(0.0, grid.nodes, u0)
        s0 = float(lh.cumulative_integral(sig0, grid, axis=-2).max())
        model = _model(grid, vol, r_ball=1.02 * s0)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=32, seed=2)
        ens = _solve(solver, model, u0, cfg)
        exited = np.nonzero(ens.exit_index <= cfg.n_steps)[0]
        assert 0 < exited.size < cfg.n_paths
        _assert_frozen_at_exit(ens, cfg.n_steps)
        sig = vol.sigma_at(0.0, grid.nodes, ens.curves)
        _, ok = lh.drift_functional(model, sig)
        for p in exited:
            j = ens.exit_index[p]
            assert not ok[p, j]
            assert ok[p, :j].all()

    def test_nonfinite_exit(self):
        # both schemes warn once and keep the last finite (pre-step) state
        grid = aligned_grid(10.0, 0.1)
        model = _model(grid, lh.constant_volatility([0.01]))
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=5, n_paths=4, seed=1)
        inc = lh.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, seed=1)
        inc[2, 1, 0] = np.inf
        messages = {
            "euler": "1 path(s) produced non-finite curves at step 2; "
            "frozen at their last finite state",
            "picard": "1 path(s) produced non-finite curves in the causal pass; "
            "frozen at their last finite state",
        }
        for solver, message in messages.items():
            with np.errstate(invalid="ignore"), warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                ens = _solve(solver, model, u0, cfg, increments=inc)
            assert [str(w.message) for w in seen if "non-finite" in str(w.message)] == [
                message
            ]
            np.testing.assert_array_equal(ens.exit_index, [6, 2, 6, 6])
            _assert_frozen_at_exit(ens, cfg.n_steps)
            assert np.isfinite(ens.curves).all()

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_nonfinite_exit_warns_only_the_localization(self, solver):
        # no numpy warning from computing with the non-finite path afterwards
        grid = aligned_grid(10.0, 0.1)
        model = _model(grid, lh.constant_volatility([0.01]))
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=5, n_paths=4, seed=1)
        inc = lh.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, seed=1)
        inc[2, 1, 0] = np.inf
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _solve(solver, model, u0, cfg, increments=inc)
        assert len(seen) == 1
        assert "non-finite" in str(seen[0].message)

    @pytest.mark.parametrize("solver", ["euler", "picard"])
    def test_state_free_ball_exit_is_common(self, solver):
        # max|S| = 10 * 0.01 (1 + t) crosses r_ball between t_4 and t_5
        grid = aligned_grid(10.0, 1.0 / 8.0)
        vol = _ramp_vol(0.01, 1.0)
        model = _model(grid, vol, r_ball=0.156)
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(
            horizon=1.0, n_steps=8, n_paths=64, seed=3,
            r_local=float(lh.norm_H(u0, grid) * 1.0005),
        )
        ens = _solve(solver, model, u0, cfg)
        per_path_vol = dataclasses.replace(vol, gamma_seq=None)
        per_path = _solve(solver, _model(grid, per_path_vol, r_ball=0.156), u0, cfg)
        np.testing.assert_array_equal(ens.exit_index, per_path.exit_index)
        np.testing.assert_array_equal(ens.curves, per_path.curves)
        early = ens.exit_index < 5
        assert early.any() and not early.all()
        assert np.all(ens.exit_index[~early] == 5)
        _assert_frozen_at_exit(ens, cfg.n_steps)


class TestBlockInvariance:
    """Stepping the paths in row blocks of any size gives the whole-ensemble results."""

    N_PATHS = 30  # not a multiple of 7: the last 7-row block is short
    STEP = 3  # where the non-finite increments are injected

    @staticmethod
    def _setup(vol_name):
        grid = aligned_grid(10.0, 1.0 / 16.0)
        u0 = initial_curve(grid)
        if vol_name == "tanh_bounded":
            model = _model(grid, lh.tanh_volatility([0.05], [1.0]))
        elif vol_name == "constant_vector":
            model = _model(grid, lh.constant_volatility([0.02]))
        else:  # state dependent and unbounded, so paths leave the ball one by one
            vol = _linear_vol(0.3)
            sig0 = vol.sigma_at(0.0, grid.nodes, u0)
            s0 = float(lh.cumulative_integral(sig0, grid, axis=-2).max())
            model = _model(grid, vol, r_ball=1.1 * s0)
        step = TestBlockInvariance.STEP
        cfg = lh.SolverConfig(
            horizon=0.5, n_steps=8, n_paths=TestBlockInvariance.N_PATHS, seed=3
        )
        inc = lh.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, seed=3)
        # half of the paths exceed r_local at some step
        unlocalized = lh.euler_solve(model, u0, cfg, increments=inc)
        r_local = float(np.median(lh.norm_H(unlocalized.curves, grid).max(axis=1)))
        cfg = dataclasses.replace(cfg, r_local=r_local)
        # non-finite increments at one step on two paths still alive there, in
        # the first and the last 7-row block
        alive = lh.euler_solve(model, u0, cfg, increments=inc).exit_index > step
        bad = [int(np.argmax(alive)), int(len(alive) - 1 - np.argmax(alive[::-1]))]
        assert bad[0] // 7 != bad[1] // 7
        inc[step, bad, 0] = np.inf
        return model, u0, cfg, inc, bad

    @pytest.mark.parametrize("vol_name", ["tanh_bounded", "constant_vector", "linear"])
    def test_bitwise_equal_across_block_sizes(self, vol_name, monkeypatch):
        from levyhjm import solver

        model, u0, cfg, inc, bad = self._setup(vol_name)
        n = model.grid.n_nodes
        runs = []
        for rows in (1, 7, cfg.n_paths + 5):
            monkeypatch.setattr(solver, "_BLOCK_VALUES", rows * n)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.filterwarnings("ignore", "[0-9]+ path.s. produced non-finite")
                euler = lh.euler_solve(model, u0, cfg, increments=inc)
                picard = lh.picard_solve(model, u0, cfg, increments=inc)
            bonds = lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)
            runs.append((euler, picard, bonds))

        # norm, ball and non-finite exits fall in different 7-row blocks
        euler, picard, _ = runs[0]
        exits = euler.exit_index
        sig = model.vol.sigma_at(0.0, model.grid.nodes, euler.curves)
        _, ok = lh.drift_functional(model, sig)
        norms = lh.norm_H(euler.curves, model.grid)
        exited = np.nonzero(exits <= cfg.n_steps)[0]
        ball = [p for p in exited if not ok[p, exits[p]]]
        over = [p for p in exited if p not in ball and norms[p, exits[p]] > cfg.r_local]
        np.testing.assert_array_equal(exits[bad], self.STEP)
        np.testing.assert_array_equal(picard.ensemble.exit_index[bad], self.STEP)
        assert len({p // 7 for p in over}) > 1
        assert (len({p // 7 for p in ball}) > 1) == (vol_name == "linear")

        e1, p1, b1 = runs[-1]
        for e2, p2, b2 in runs[:-1]:
            assert np.array_equal(e1.curves, e2.curves)
            assert np.array_equal(e1.exit_index, e2.exit_index)
            assert np.array_equal(p1.ensemble.curves, p2.ensemble.curves)
            assert np.array_equal(p1.ensemble.exit_index, p2.ensemble.exit_index)
            assert p1.residuals == p2.residuals
            assert b1 == b2

    def test_nonfinite_paths_in_two_blocks_warn_once(self, monkeypatch):
        from levyhjm import solver

        model, u0, cfg, inc, _bad = self._setup("constant_vector")
        monkeypatch.setattr(solver, "_BLOCK_VALUES", 7 * model.grid.n_nodes)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            lh.euler_solve(model, u0, cfg, increments=inc)
        assert [str(w.message) for w in seen if "non-finite" in str(w.message)] == [
            f"2 path(s) produced non-finite curves at step {self.STEP}; "
            "frozen at their last finite state"
        ]


_THREAD_RUN = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import levyhjm as lh
from levyhjm.checks import report_row

grid = lh.make_grid(6.0, 121, 0.1)
driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=1.0, delta=1.5)
model = lh.HjmModel(
    grid=grid, driver=driver, cumulant=lh.CumulantModel(driver),
    vol=lh.tanh_volatility([0.12], [1.0]),
)
u0 = 0.02 + 0.015 * (1.0 - np.exp(-0.4 * grid.nodes))
cfg = lh.SolverConfig(
    horizon=1.0, n_steps=10, n_paths=1500, seed=5,
    r_local=float(lh.norm_H(u0, grid)) * 1.2,
)
ens = lh.euler_solve(model, u0, cfg)
rows = [report_row(r) for r in lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)]
big = lh.make_grid(10.0, 321, 0.1)
curves = lh.random_curves(big, 2003, np.random.default_rng(3))
h = hashlib.sha256()
for a in (ens.curves, ens.exit_index, lh.norm_H(curves, big),
          lh.partial_integral(curves, big, 2.3)):
    h.update(np.ascontiguousarray(a).tobytes())
exited = int((ens.exit_index <= cfg.n_steps).sum())
print(h.hexdigest(), exited, repr(rows))
"""


class TestBlasThreadInvariance:
    def test_same_outputs_with_one_and_two_blas_threads(self):
        """Curves, exits, bond reports, norms and quadratures, per BLAS thread count.

        The batch of 2003 curves on 321 nodes is large enough for a threaded
        BLAS matrix-vector product to split its rows across threads.
        """
        src = str(Path(lh.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-c", _THREAD_RUN, src],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outs.append(run.stdout)
        _digest, exited, _rows = outs[0].split(" ", 2)
        assert 0 < int(exited) < 1500  # the norm localizes some paths, not all
        assert outs[0] == outs[1]
