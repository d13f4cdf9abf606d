"""Solver schemes: transport exactness, oracles, localization, norms."""

import contextlib
import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import levyhjm as lh
from levyhjm import _children
from levyhjm.solver import PicardDivergenceError, _shares, _step_kernel

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


class TestPicardIteration:
    def test_common_noise_reused_across_sweeps(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.25, n_steps=8, n_paths=8, seed=6)
        res = lh.picard_solve(gamma_model, u0, cfg)
        expected = lh.increment_table(gamma_model.driver, cfg.dt, 8, 8, seed=6)
        np.testing.assert_array_equal(res.ensemble.increments, expected)

    # the negative controls below split the paths over two processes, and
    # corrupt the curves of one process's share only: the certificate rows
    # that process computes must be the ones that raise
    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_euler_curves_fail_certification(self, gamma_model, monkeypatch, where):
        # negative control: Euler's curves on the same noise are not the fixed
        # point of F, and the certificate must reject them
        from levyhjm import solver

        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=32, seed=5)
        _set_block_rows(monkeypatch, 8, cfg.n_paths, gamma_model.grid.n_nodes)
        _pin_processes(monkeypatch, 2)
        caller, child = _shares(cfg.n_paths, gamma_model.grid.n_nodes)
        fixed_point = lh.picard_solve(gamma_model, u0, cfg).ensemble
        transitions, parent = solver.euler_transitions, os.getpid()

        def euler_order(*args, **kwargs):
            if (os.getpid() == parent) == (where == "caller"):
                kwargs["_exponential"] = False
            return transitions(*args, **kwargs)

        monkeypatch.setattr(solver, "euler_transitions", euler_order)
        with pytest.raises(PicardDivergenceError, match="certificate residual"):
            lh.picard_solve(gamma_model, u0, cfg)
        # the certificate saw exactly Euler's curves on that process's share,
        # the fixed point on the other's, and misses them by far more than
        # rounding
        loose = lh.picard_solve(gamma_model, u0, dataclasses.replace(cfg, picard_tol=1.0))
        euler = lh.euler_solve(gamma_model, u0, cfg, increments=loose.ensemble.increments)
        stepped, exact = (caller, child) if where == "caller" else (child, caller)
        assert np.array_equal(loose.ensemble.curves[stepped], euler.curves[stepped])
        assert np.array_equal(loose.ensemble.curves[exact], fixed_point.curves[exact])
        assert not np.array_equal(euler.curves[exact], fixed_point.curves[exact])
        assert loose.residuals[1] > 100 * cfg.picard_tol

    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_certificate_reads_the_exit_index(self, gamma_model, monkeypatch, where):
        # negative control: a path whose curve froze one step before its exit
        # index differs from F of it only at and after that index
        from levyhjm import solver

        grid = gamma_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=10, seed=7)
        _set_block_rows(monkeypatch, 5, cfg.n_paths, grid.n_nodes)
        _pin_processes(monkeypatch, 2)
        shares = _shares(cfg.n_paths, grid.n_nodes)
        free = lh.picard_solve(gamma_model, u0, cfg).ensemble
        r_local = _radius_for_exit_at(lh.norm_H(free.curves, grid), 4)
        cfg = dataclasses.replace(cfg, r_local=r_local)
        localized = lh.picard_solve(gamma_model, u0, cfg)
        assert localized.converged
        # the path that freezes early: the first to exit in that process's share
        rows = shares[where == "child"]
        exits = localized.ensemble.exit_index[rows]
        assert len(shares) == 2 and 1 < exits.min() <= cfg.n_steps
        p = int(np.argmin(exits))
        e = exits[p]
        transitions, parent = solver.euler_transitions, os.getpid()
        certified_here = []  # the share sizes this process certified

        def frozen_early(model, u0, share, increments=None, *, _watch=None, **kwargs):
            # the certified loop is the one whose kernel is watched
            if _watch is not None:
                certified_here.append(share.n_paths)
            items = transitions(model, u0, share, increments, _watch=_watch, **kwargs)
            if _watch is None or (os.getpid() == parent) != (where == "caller"):
                yield from items
                return
            for j, block, states, block_exits in items:
                if block.start <= p < block.stop:
                    if j == e - 1:
                        held = states[p - block.start].copy()
                    elif j >= e:  # stored as frozen from e on, the loop unchanged
                        states = states.copy()
                        states[p - block.start] = held
                yield j, block, states, block_exits

        monkeypatch.setattr(solver, "euler_transitions", frozen_early)
        with pytest.raises(PicardDivergenceError, match="certificate residual"):
            lh.picard_solve(gamma_model, u0, cfg)
        # this process certified its own share alone; the child the other
        assert certified_here == [shares[0].stop - shares[0].start]


class TestOneSteppingLoop:
    """Picard steps the exponential-Euler recursion through Euler's loop."""

    @pytest.mark.parametrize("block_rows", [3, 64], ids=["blocks_of_3", "one_block"])
    @pytest.mark.parametrize("some_frozen", [False, True], ids=["all_alive", "some_frozen"])
    def test_picard_is_the_exponential_euler_recursion(
        self, gamma_model, monkeypatch, block_rows, some_frozen
    ):
        # tanh makes sigma read the state, so a step evaluated on any state
        # but the recursion's own would differ
        from levyhjm import solver

        grid = gamma_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=10, seed=7)
        monkeypatch.setattr(solver, "_BLOCK_VALUES", block_rows * grid.n_nodes)
        if some_frozen:
            free = lh.picard_solve(gamma_model, u0, cfg).ensemble
            norms = lh.norm_H(free.curves, grid)
            # half of the paths exceed it at some step
            cfg = dataclasses.replace(cfg, r_local=float(np.median(norms.max(axis=1))))
        res = lh.picard_solve(gamma_model, u0, cfg)
        curves, exits = _step_every_norm(
            gamma_model, u0, cfg, res.ensemble.increments, exponential=True
        )
        assert res.sweeps == 2 and res.converged
        frozen = exits <= cfg.n_steps
        assert frozen.any() == some_frozen and not frozen.all()
        # some paths freeze before the last step, so frozen rows are copied
        assert (exits < cfg.n_steps).any() == some_frozen
        assert np.array_equal(res.ensemble.curves, curves)
        assert np.array_equal(res.ensemble.exit_index, exits)


class TestOnePassSolve:
    """The stepping loop reaches the fixed point; the certificate confirms it."""

    def test_certificate_residual_is_rounding(self, gamma_model):
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=16, n_paths=32, seed=5)
        res = lh.picard_solve(gamma_model, u0, cfg)
        assert res.sweeps == 2
        assert res.residuals[0] > cfg.picard_tol
        assert res.residuals[1] <= 1e-14
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


def _two_pass_gaps(model, cfg, curves, exit_index, dM):
    """Test-side certificate of stored curves, the one picard_solve made in a
    second pass: sigma and the drift evaluated again on the stored states, a
    block of rows at a time.  Returns the (2, n_paths, n_steps + 1)
    distances to S^j u0 and to F(u), up to each exit index."""
    from levyhjm.solver import _row_blocks, _shift_values

    grid, dt, m = model.grid, cfg.dt, cfg.n_steps
    gaps = np.zeros((2, len(curves), m + 1))
    kernel = _step_kernel(model, cfg.times[:-1])
    transported = np.empty((m + 1, grid.n_nodes))
    transported[0] = curves[0, 0]
    for j in range(m):
        _shift_values(transported[j], dt, grid, out=transported[j + 1])
    for rows in _row_blocks(len(curves), grid.n_nodes):
        u, exits, noise = curves[rows], exit_index[rows], dM[:, rows]
        conv = np.zeros((len(u), grid.n_nodes))
        for j in range(1, m + 1):
            live = exits >= j
            sig, f, _ok = kernel(j - 1, u[:, j - 1])
            G = np.einsum("pnd,pd->pn", sig, np.where(live[:, None], noise[j - 1], 0.0))
            G += f * dt
            G[~live] = 0.0
            G += conv
            _shift_values(G, dt, grid, out=conv)
            gap = u[:, j] - transported[j]
            gaps[0, rows, j] = lh.norm_H(gap, grid)
            gap -= conv
            gaps[1, rows, j] = np.where(live, lh.norm_H(gap, grid), 0.0)
    return gaps


def _certified(monkeypatch, model, u0, cfg, increments=None):
    """picard_solve's result, or the error it raised, and its certificate gaps."""
    from levyhjm import solver

    collect, seen = solver._collect, {}

    def spy(*args, **kwargs):
        seen["ensemble"], seen["gaps"] = collect(*args, **kwargs)
        return seen["ensemble"], seen["gaps"]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_collect", spy)
        try:
            out = lh.picard_solve(model, u0, cfg, increments=increments)
        except PicardDivergenceError as exc:
            out = exc
    return out, seen["gaps"]


def _watched_in(monkeypatch, where, wrap):
    """Make the certified loop of one process, the caller's or the child's,
    call ``wrap(kernel)`` in place of the kernel its certificate watches."""
    from levyhjm import solver

    transitions, parent = solver.euler_transitions, os.getpid()

    def mutated(*args, _watch=None, **kwargs):
        if _watch is not None and (os.getpid() == parent) == (where == "caller"):
            return transitions(*args, _watch=lambda kernel: wrap(_watch(kernel)), **kwargs)
        return transitions(*args, _watch=_watch, **kwargs)

    monkeypatch.setattr(solver, "euler_transitions", mutated)


class TestInLoopCertificate:
    """picard_solve certifies each stored state inside the stepping loop,
    from the sigma and drift the loop evaluated, under a guard that the
    loop evaluated them at the right time on the stored state."""

    N_PATHS = 30

    @staticmethod
    def _model(vol_name, driver_kind):
        grid = aligned_grid(10.0, 1.0 / 16.0)
        vol = {
            "tanh": lh.tanh_volatility([0.05], [1.0]),
            "exp_decay": lh.exp_decay_volatility([0.05], [0.5]),
            "constant": lh.constant_volatility([0.02]),
            "ramp": _ramp_vol(0.02, 1.0),
        }[vol_name]
        comp = lh.WienerComponent(1.0) if driver_kind == "wiener" else lh.GammaComponent(1.0, 2.0)
        driver = lh.build_driver([comp], r_ball=1.0, delta=1.5)
        return lh.HjmModel(grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=vol)

    @classmethod
    def _split(cls, monkeypatch, model, k=2):
        """Step 7-row blocks over ``k`` processes; the shares."""
        _set_block_rows(monkeypatch, 7, cls.N_PATHS, model.grid.n_nodes)
        _pin_processes(monkeypatch, k)
        return _shares(cls.N_PATHS, model.grid.n_nodes)

    @pytest.mark.parametrize("driver_kind", ["wiener", "gamma"])
    @pytest.mark.parametrize("vol_name", ["tanh", "exp_decay", "constant"])
    def test_gaps_bitwise_those_of_the_two_pass_certificate(
        self, monkeypatch, vol_name, driver_kind
    ):
        model = self._model(vol_name, driver_kind)
        u0 = initial_curve(model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=self.N_PATHS, seed=3)
        inc = lh.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, seed=3)
        free = lh.picard_solve(model, u0, cfg, increments=inc).ensemble
        cfg = dataclasses.replace(
            cfg, r_local=_radius_for_exit_at(lh.norm_H(free.curves, model.grid), 4)
        )
        # a non-finite exit at t_2 in each share, on a path alive there
        alive = lh.picard_solve(model, u0, cfg, increments=inc).ensemble.exit_index > 2
        bad = [int(np.argmax(alive)), 15 + int(np.argmax(alive[15:]))]
        assert alive[bad].all()
        inc[2, bad, 0] = np.inf
        runs = []
        for k in (1, 2):
            shares = self._split(monkeypatch, model, k)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.filterwarnings("ignore", "[0-9]+ path.s. produced non-finite")
                res, gaps = _certified(monkeypatch, model, u0, cfg, increments=inc)
            ens = res.ensemble
            exits = ens.exit_index
            assert len(shares) == k
            assert (exits[bad] == 2).all()
            assert ((exits > 2) & (exits <= cfg.n_steps)).any()
            expected = _two_pass_gaps(model, cfg, ens.curves, exits, ens.increments)
            assert gaps.tobytes() == expected.tobytes()
            assert res.residuals == tuple(
                float(np.sqrt(np.square(g).mean(axis=0).max())) for g in expected
            )
            runs.append(gaps.tobytes())
        assert runs[0] == runs[1]

    def test_kernel_called_once_per_block_and_step(self, monkeypatch):
        from levyhjm import solver

        model = self._model("tanh", "gamma")
        u0 = initial_curve(model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=self.N_PATHS, seed=3)
        self._split(monkeypatch, model, 1)
        calls, drifts = [], []
        make, drift = solver._step_kernel, solver.drift_functional

        def counted(*args):
            kernel = make(*args)
            return lambda j, U: calls.append((j, len(U))) or kernel(j, U)

        monkeypatch.setattr(solver, "_step_kernel", counted)
        monkeypatch.setattr(solver, "drift_functional", lambda *a: drifts.append(1) or drift(*a))
        lh.picard_solve(model, u0, cfg)
        # blocks of 7, 7, 7, 7 and 2 rows, each through every step once
        sizes = [7, 7, 7, 7, 2]
        assert calls == [(j, n) for n in sizes for j in range(cfg.n_steps)]
        assert len(drifts) == len(sizes) * cfg.n_steps

    # negative controls: each corrupts the loop of one process only, and
    # only the guard can see it, since the certificate's G reuses what the
    # loop evaluated; the rows that process certifies must be the ones that
    # raise
    def _raises_in(self, monkeypatch, model, where):
        u0 = initial_curve(model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=self.N_PATHS, seed=3)
        shares = self._split(monkeypatch, model)
        err, gaps = _certified(monkeypatch, model, u0, cfg)
        assert isinstance(err, PicardDivergenceError)
        assert "certificate residual inf" in str(err)
        hit, other = (shares[0], shares[1]) if where == "caller" else (shares[1], shares[0])
        assert np.isinf(gaps[1, hit]).any()
        assert np.isfinite(gaps[1, other]).all() and gaps[1, other].max() <= 1e-14

    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_kernel_fed_the_previous_state_raises(self, monkeypatch, where):
        def fed_previous(kernel):
            held = []

            def stale(j, U):
                state = held[0] if j > 0 else U
                held[:] = [U.copy()]
                return kernel(j, state)

            return stale

        _watched_in(monkeypatch, where, fed_previous)
        self._raises_in(monkeypatch, self._model("tanh", "gamma"), where)

    @pytest.mark.parametrize("where", ["caller", "child"])
    @pytest.mark.parametrize("vol_name", ["tanh", "ramp"], ids=["builtin", "time_dependent"])
    def test_kernel_at_a_wrong_time_index_raises(self, monkeypatch, vol_name, where):
        # tanh ignores t, so its sigma and drift at any time are the loop's:
        # only the recorded index tells the call apart
        n_steps = 8
        _watched_in(monkeypatch, where, lambda kernel: lambda j, U: kernel((j + 1) % n_steps, U))
        self._raises_in(monkeypatch, self._model(vol_name, "gamma"), where)

    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_stored_row_corrupted_after_its_kernel_call_raises(self, monkeypatch, where):
        from levyhjm import solver

        arrays, shared = [], solver._shared_arrays  # the curves are arrays[-1][0]
        monkeypatch.setattr(
            solver, "_shared_arrays", lambda layout: arrays.append(shared(layout)) or arrays[-1]
        )

        def corrupt_after(kernel):
            def call(j, U):
                out = kernel(j, U)
                if j == 3:  # the stored state of the block's first row at t_3
                    curves = arrays[-1][0]
                    row = np.flatnonzero((curves[:, j] == U[0]).all(axis=-1))
                    assert len(row) == 1
                    curves[row, j, 5] += 1e-12
                return out

            return call

        _watched_in(monkeypatch, where, corrupt_after)
        self._raises_in(monkeypatch, self._model("tanh", "gamma"), where)


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
        message = (
            "1 path(s) produced non-finite curves at step 2; "
            "frozen at their last finite state"
        )
        for solver in ("euler", "picard"):
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


# Block sizes of the block-major contract: one row, a short block, all rows.
_BLOCK_ROWS = pytest.mark.parametrize(
    "rows", [1, 7, None], ids=["rows_1", "rows_7", "all_rows"]
)


def _pin_processes(monkeypatch, k):
    """Let a solve split its paths over at most ``k`` processes, whatever the
    cores; a test that counts calls through a spy pins one, so that every
    call runs in this process."""
    monkeypatch.setattr(_children, "_usable_cores", lambda: k)


def _set_block_rows(monkeypatch, rows, n_paths, n_nodes):
    from levyhjm import solver

    monkeypatch.setattr(solver, "_BLOCK_VALUES", (rows or n_paths) * n_nodes)


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
        for rows, processes in ((1, (1, 2)), (7, (1, 2)), (cfg.n_paths + 5, (2,))):
            monkeypatch.setattr(solver, "_BLOCK_VALUES", rows * n)
            for k in processes:
                _pin_processes(monkeypatch, k)
                # one row block is never split
                assert len(_shares(cfg.n_paths, n)) == (1 if rows > cfg.n_paths else k)
                with np.errstate(invalid="ignore"), warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "[0-9]+ path.s. produced non-finite")
                    euler = lh.euler_solve(model, u0, cfg, increments=inc)
                    picard = lh.picard_solve(model, u0, cfg, increments=inc)
                runs.append((euler, picard))
            runs[-1] += (lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg),)

        # norm, ball and non-finite exits fall in different 7-row blocks, and
        # norm and non-finite exits in both processes' shares
        euler, picard = runs[0]
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
        half = cfg.n_paths // 2  # where the second process's share starts
        assert {p >= half for p in bad} == {p >= half for p in over} == {False, True}

        e1, p1, b1 = runs[-1]
        assert not any(r.passed for r in b1)  # half the paths exited: above the cap
        for e2, p2, *b2 in runs[:-1]:
            assert np.array_equal(e1.curves, e2.curves)
            assert np.array_equal(e1.exit_index, e2.exit_index)
            assert np.array_equal(p1.ensemble.curves, p2.ensemble.curves)
            assert np.array_equal(p1.ensemble.exit_index, p2.ensemble.exit_index)
            assert p1.residuals == p2.residuals
            assert b2 in ([], [b1])

    @pytest.mark.parametrize("rows", [1, 7], ids=["rows_1", "rows_7"])
    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_nonfinite_paths_in_two_blocks_warn_once(
        self, monkeypatch, solver_name, rows
    ):
        model, u0, cfg, inc, bad = self._setup("constant_vector")
        step = self.STEP
        # one more non-finite increment, two steps later, on a path still
        # alive then, in a 7-row block of its own
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "[0-9]+ path.s. produced non-finite")
            alive = lh.euler_solve(model, u0, cfg, increments=inc).exit_index > step + 2
        late = next(p for p in np.flatnonzero(alive) if p // 7 not in {b // 7 for b in bad})
        inc[step + 2, late, 0] = np.inf
        _set_block_rows(monkeypatch, rows, cfg.n_paths, model.grid.n_nodes)
        assert len({p // rows for p in [*bad, late]}) == 3
        expected = [
            f"{n} path(s) produced non-finite curves at step {j}; "
            "frozen at their last finite state"
            for n, j in ((2, step), (1, step + 2))
        ]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            transitions = lh.euler_transitions(
                model, u0, cfg, increments=inc, _exponential=solver_name == "picard"
            )
            # the items yielded before any warning: all of them
            n_items = sum(1 for _ in transitions if not seen)
            messages = [str(w.message) for w in seen]
        assert n_items == -(-cfg.n_paths // rows) * (cfg.n_steps + 1)
        assert messages == expected
        # in one process, and split over two, where the step's two paths
        # fall one in each share: one warning, with the total of both
        for k in (1, 2):
            _pin_processes(monkeypatch, k)
            shares = _shares(cfg.n_paths, model.grid.n_nodes)
            assert len(shares) == k
            assert [sum(b in range(r.start, r.stop) for b in bad) for r in shares] == [2 // k] * k
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                ens = _solve(solver_name, model, u0, cfg, increments=inc)
            assert [str(w.message) for w in seen] == expected
            np.testing.assert_array_equal(ens.exit_index[bad], step)
            assert ens.exit_index[late] == step + 2


@contextlib.contextmanager
def _deadline(seconds):
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


class TestSplitSolveFailures:
    """A solve split over two processes fails as one process does, and
    leaves no child behind (the autouse ``no_child_left`` checks)."""

    N_PATHS = 30

    @classmethod
    def _setup(cls, monkeypatch, trip, marked):
        """A model whose sigma calls ``trip()`` on any block that holds a
        curve above 1, and noise that lifts each ``marked`` path above it at
        t_2; the paths run in 7-row blocks over two processes."""

        def sig(t, x, u):
            if np.abs(u).max() > 1.0:
                trip()
            return (0.01 * np.asarray(u, float))[..., None]

        grid = aligned_grid(10.0, 1.0 / 16.0)
        model = _model(grid, lh.VolatilitySpec(name="tripwire", dim=1, sigma=sig,
                                               gamma_seq=np.array([0.01])))
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=cls.N_PATHS, seed=3)
        inc = lh.increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, seed=3)
        inc[1, marked, 0] = 1e4
        _set_block_rows(monkeypatch, 7, cfg.n_paths, grid.n_nodes)
        _pin_processes(monkeypatch, 2)
        shares = _shares(cfg.n_paths, grid.n_nodes)
        assert shares == [slice(0, 15), slice(15, 30)]
        return model, initial_curve(grid), cfg, inc, shares

    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_error_in_the_childs_share_is_raised_as_in_one_process(
        self, monkeypatch, solver_name
    ):
        def trip():
            raise ValueError("a curve above 1")

        model, u0, cfg, inc, (_, child) = self._setup(monkeypatch, trip, marked=[25])
        assert 25 in range(child.start, child.stop)
        errors = []
        for k in (2, 1):
            _pin_processes(monkeypatch, k)
            with pytest.raises(Exception) as raised:
                _solve(solver_name, model, u0, cfg, increments=inc)
            errors.append((type(raised.value), str(raised.value)))
        assert errors == [(ValueError, "a curve above 1")] * 2

    def test_child_killed_by_a_signal_raises_naming_the_solver(self, monkeypatch):
        parent = os.getpid()

        def trip():
            if os.getpid() != parent:  # never this process
                os.kill(os.getpid(), signal.SIGKILL)

        model, u0, cfg, inc, (_, child) = self._setup(monkeypatch, trip, marked=[25])
        assert 25 in range(child.start, child.stop)
        with pytest.raises(RuntimeError) as raised:
            lh.euler_solve(model, u0, cfg, increments=inc)
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == "solver rows 15:30 died from signal SIGKILL"

    def test_interrupt_in_this_process_kills_the_child(self, monkeypatch):
        parent = os.getpid()

        def trip():
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(600)

        model, u0, cfg, inc, _ = self._setup(monkeypatch, trip, marked=[5, 25])
        # the child's share hangs, and is killed, not waited for
        with _deadline(60), pytest.raises(KeyboardInterrupt):
            lh.picard_solve(model, u0, cfg, increments=inc)


@pytest.mark.parametrize("k", [1, 2])
def test_a_split_solve_pins_openblas_once(monkeypatch, blas_pins, k):
    # the pin spans the child's fork and this process's share; a solve in
    # one process leaves OpenBLAS alone
    grid = aligned_grid(10.0, 1.0 / 16.0)
    model = _model(grid, lh.tanh_volatility([0.05], [1.0]))
    cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=30, seed=3)
    _set_block_rows(monkeypatch, 7, cfg.n_paths, grid.n_nodes)
    _pin_processes(monkeypatch, k)
    lh.euler_solve(model, initial_curve(grid), cfg)
    assert len(blas_pins) == k - 1


class TestBlockMajorOrder:
    """``euler_transitions`` steps one block of rows through every time step before the next."""

    @_BLOCK_ROWS
    def test_blocks_follow_in_path_order_through_every_step(
        self, gamma_model, monkeypatch, rows
    ):
        grid = gamma_model.grid
        u0 = initial_curve(grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=30, seed=7)
        free = lh.euler_solve(gamma_model, u0, cfg)
        cfg = dataclasses.replace(
            cfg, r_local=_radius_for_exit_at(lh.norm_H(free.curves, grid), 4)
        )
        _set_block_rows(monkeypatch, rows, cfg.n_paths, grid.n_nodes)
        steps, slices, blocks, exits = [], [], [], []
        for j, block, states, block_exits in lh.euler_transitions(
            gamma_model, u0, cfg, increments=free.increments
        ):
            assert states.shape == (block.stop - block.start, grid.n_nodes)
            slices.append(block)
            if j == 0:
                blocks.append(np.empty((cfg.n_steps + 1,) + states.shape))
            blocks[-1][j] = states
            steps.append(j)
            if j == cfg.n_steps:
                exits.append(block_exits.copy())
        size = rows or cfg.n_paths
        starts = range(0, cfg.n_paths, size)
        assert [len(b[0]) for b in blocks] == [min(size, cfg.n_paths - start) for start in starts]
        assert steps == list(range(cfg.n_steps + 1)) * len(blocks)
        assert slices == [
            slice(start, min(start + size, cfg.n_paths))
            for start in starts
            for _ in range(cfg.n_steps + 1)
        ]
        ens = lh.euler_solve(gamma_model, u0, cfg, increments=free.increments)
        assert (ens.exit_index <= cfg.n_steps).any()
        assert np.array_equal(np.concatenate(blocks, axis=1).swapaxes(0, 1), ens.curves)
        assert np.array_equal(np.concatenate(exits), ens.exit_index)


class TestPeakMemory:
    """The stepping loop holds block-sized state, never a whole-ensemble copy of it.

    tracemalloc sees numpy's allocations.  One (n_paths, n_nodes) float64
    array at 4000 x 321 is 10.3 MB; a loop that kept the ensemble's state at
    one time, let alone two, would exceed it.
    """

    N_PATHS, N_STEPS = 4000, 4

    @classmethod
    def _run(cls):
        grid = lh.make_grid(10.0, 321, BETA)
        driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
        model = lh.HjmModel(
            grid=grid, driver=driver, cumulant=lh.CumulantModel(driver),
            vol=lh.tanh_volatility([0.05], [1.0]),
        )
        cfg = lh.SolverConfig(horizon=0.125, n_steps=cls.N_STEPS, n_paths=cls.N_PATHS, seed=2)
        return model, initial_curve(grid), cfg, cls.N_PATHS * grid.n_nodes * 8

    @staticmethod
    def _peak(fn):
        """``fn()`` and the peak of its traced allocations over what was live before."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_bond_check_peak_below_one_ensemble_state(self):
        model, u0, cfg, state_bytes = self._run()
        reports, peak = self._peak(
            lambda: lh.verify_martingale_bonds(model, u0, [2.0, 5.0], cfg)
        )
        assert all(r.passed for r in reports)
        assert peak < state_bytes, (peak, state_bytes)

    def test_euler_peak_above_its_curves_by_less_than_one_ensemble_state(self, monkeypatch):
        # in one process, so that every step's allocations are traced; the
        # curves live in a shared mapping, which tracemalloc does not see,
        # so the whole traced peak is above them
        _pin_processes(monkeypatch, 1)
        model, u0, cfg, state_bytes = self._run()
        ens, peak = self._peak(lambda: lh.euler_solve(model, u0, cfg))
        assert ens.curves.nbytes == state_bytes * (cfg.n_steps + 1)
        assert peak < state_bytes, (peak, state_bytes)


def _step_every_norm(model, u0, cfg, dM, exponential=False):
    """Test-side solve that takes every live path's norm at every step.

    Euler's step is shift(u) + f dt + <sigma, dM>; the exponential-Euler step
    of Picard is shift(u + (f dt + <sigma, dM>)).  Each sums in the solver's
    order, so curves and exit indices must equal the solver's bitwise
    whatever norms the solver skips.
    """
    from levyhjm.solver import _shift_values

    grid, m, P = model.grid, cfg.n_steps, cfg.n_paths
    kernel = _step_kernel(model, cfg.times[:-1])
    curves = np.empty((P, m + 1, grid.n_nodes))
    curves[:, 0] = u0
    exits = np.full(P, m + 1)
    for j in range(m):
        u = curves[:, j]
        sig, f, ok = kernel(j, u)
        noise = np.einsum("pnd,pd->pn", sig, dM[j])
        if exponential:
            cand = _shift_values(u + (noise + f * cfg.dt), cfg.dt, grid)
        else:
            cand = _shift_values(u, cfg.dt, grid)
            cand += f * cfg.dt
            cand += noise
        assert np.isfinite(cand).all()
        exits[(exits > m) & ~np.broadcast_to(ok, (P,))] = j
        frozen = exits <= m
        cand[frozen] = u[frozen]
        exits[~frozen & (lh.norm_H(cand, grid) > cfg.r_local)] = j + 1
        curves[:, j + 1] = cand
    return curves, exits


def _radius_for_exit_at(norms, k):
    """A radius at which some path's first norm over it is at step k.

    ``norms`` are the unlocalized (paths, times) norms; the radius lies
    between a path's running max through t_{k-1} and its norm at t_k.
    """
    before = norms[:, :k].max(axis=1)
    p = int(np.argmax(norms[:, k] - before))
    assert norms[p, k] > before[p]
    return float(0.5 * (before[p] + norms[p, k]))


class TestCertifiedNormSkip:
    """Both schemes skip norms their bound certifies, with exits and curves unchanged."""

    N_STEPS = 8

    @pytest.fixture(autouse=True)
    def one_process(self, monkeypatch):
        # the spies below count and check calls in this process, and
        # TestBlockInvariance covers the split
        _pin_processes(monkeypatch, 1)

    @staticmethod
    def _setup(vol_name, aligned, u0_kind):
        # aligned: dt is one cell, the shift an index rotation; otherwise the
        # shift interpolates between nodes (1.25 cells).  A rough initial
        # curve carries a damped checkerboard, whose curve norm the aligned
        # shift amplifies 1.73x, and which the sup-norm bound must cover.
        grid = aligned_grid(10.0, 1.0 / 16.0) if aligned else lh.make_grid(10.0, 201, BETA)
        if vol_name == "constant":
            vol = lh.constant_volatility([0.1])
        else:
            vol = lh.exp_decay_volatility([0.08, 0.05], [0.5, 1.0])
        assert vol.state_free
        model = _model(grid, vol)
        u0 = initial_curve(grid)
        if u0_kind == "rough":
            board = (-1.0) ** np.arange(grid.n_nodes) * np.exp(-0.5 * grid.nodes)
            board[0] = board[1] / 3.0
            u0 = u0 + 0.01 * board
        cfg = lh.SolverConfig(
            horizon=0.5, n_steps=TestCertifiedNormSkip.N_STEPS, n_paths=40, seed=21
        )
        assert math.isclose(cfg.dt * 16, 1.0) and (grid.spacing == cfg.dt) == aligned
        return model, u0, cfg

    @staticmethod
    def _count_norms(monkeypatch):
        """Record the solver's norms: curves by call, in all and in localization.

        Also records, per localization, the paths that needed their norm: a
        taken norm replaces the bound bitwise, and a certified bound stays
        strictly above the norm.
        """
        from levyhjm import solver

        counts, localizing, needed = [], [], []
        localize = solver._localize

        def counting(curve, grid):
            counts.append(int(np.prod(np.shape(curve)[:-1])))
            return lh.norm_H(curve, grid)

        def recording(exits, frozen, ok, candidate, prev, i, grid, r_local, bound):
            before = len(counts)
            out = localize(exits, frozen, ok, candidate, prev, i, grid, r_local, bound)
            localizing.extend(counts[before:])
            needed.append(int((bound == lh.norm_H(candidate, grid)).sum()))
            return out

        monkeypatch.setattr(solver, "norm_H", counting)
        monkeypatch.setattr(solver, "_localize", recording)
        return counts, localizing, needed

    @pytest.mark.parametrize("u0_kind", ["smooth", "rough"])
    @pytest.mark.parametrize(
        "block_rows", [1, 7, 1000], ids=["blocks_of_1", "blocks_of_7", "one_block"]
    )
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "interpolating"])
    @pytest.mark.parametrize("vol_name", ["constant", "exp_decay"])
    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_exits_and_curves_bitwise_those_of_every_norm(
        self, solver_name, vol_name, aligned, block_rows, u0_kind, monkeypatch
    ):
        from levyhjm import solver

        model, u0, cfg = self._setup(vol_name, aligned, u0_kind)
        m = cfg.n_steps
        monkeypatch.setattr(solver, "_BLOCK_VALUES", block_rows * model.grid.n_nodes)
        free = _solve(solver_name, model, u0, cfg)
        norms = lh.norm_H(free.curves, model.grid)
        radii = {
            "first": _radius_for_exit_at(norms, 1),
            "middle": _radius_for_exit_at(norms, m // 2),
            "last": _radius_for_exit_at(norms, m),
            "just_above_u0": float(norms[0, 0]) * 1.0000001,
            "sentinel": 1e6,
        }
        for name, r_local in radii.items():
            run = dataclasses.replace(cfg, r_local=r_local)
            ens = _solve(solver_name, model, u0, run, increments=free.increments)
            curves, exits = _step_every_norm(
                model, u0, run, free.increments, exponential=solver_name == "picard"
            )
            assert np.array_equal(ens.exit_index, exits), name
            assert np.array_equal(ens.curves, curves), name
            step = {"first": 1, "middle": m // 2, "last": m}.get(name)
            if step is not None:
                assert (exits == step).any(), name
                assert (exits > step).any(), name
        assert (exits == m + 1).all()

    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "interpolating"])
    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_skips_what_the_bound_certifies(self, solver_name, aligned, monkeypatch):
        model, u0, cfg = self._setup("exp_decay", aligned, "smooth")
        counts, localizing, needed = self._count_norms(monkeypatch)
        # the initial curve's check, and no norm per step outside
        # localization; Picard's certificate adds two norms of every path
        # per step
        fixed = 1
        if solver_name == "picard":
            fixed += 2 * cfg.n_steps * cfg.n_paths
        for r_local in (1e6, math.inf):
            counts.clear()
            localizing.clear()
            _solve(solver_name, model, u0, dataclasses.replace(cfg, r_local=r_local))
            assert sum(counts) == fixed
            assert localizing == [] and not any(needed)
        # a radius some paths reach by the last step: some paths need their
        # norm, not all of them at every step, and a norm is taken of the
        # whole block (one block here)
        free = _solve(solver_name, model, u0, cfg)
        r_local = _radius_for_exit_at(lh.norm_H(free.curves, model.grid), cfg.n_steps)
        counts.clear()
        localizing.clear()
        needed.clear()
        _solve(solver_name, model, u0, dataclasses.replace(cfg, r_local=r_local))
        assert sum(counts) == fixed + sum(localizing)
        assert localizing and set(localizing) == {cfg.n_paths}
        assert 0 < sum(needed) < cfg.n_paths * cfg.n_steps

    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_state_dependent_norm_taken_where_the_sup_bound_exceeds_the_radius(
        self, solver_name, gamma_model, monkeypatch
    ):
        # tanh sigma reads the state; the bound is K max|candidate| as for
        # any sigma, and a live path's norm is taken exactly where that, with
        # its slack, exceeds r_local, and then replaces it
        from levyhjm import solver

        localize = solver._localize
        taken = []

        def recording(exits, frozen, ok, candidate, prev, i, grid, r_local, bound):
            assert np.array_equal(bound, grid.sup_gain * np.abs(candidate).max(axis=-1))
            before = bound.copy()
            live = ~frozen & ok & np.isfinite(candidate).all(axis=-1)
            out = localize(exits, frozen, ok, candidate, prev, i, grid, r_local, bound)
            need = live & (before * solver._BOUND_SLACK > r_local)
            assert np.array_equal(bound[need], lh.norm_H(candidate[need], grid))
            assert np.array_equal(bound[~need], before[~need])
            taken.append((int(need.sum()), int(live.sum())))
            return out

        monkeypatch.setattr(solver, "_localize", recording)
        u0 = initial_curve(gamma_model.grid)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=32, seed=8)
        free = _solve(solver_name, gamma_model, u0, cfg)
        assert taken and not any(n for n, _ in taken)  # the default radius, 1e6
        # a radius that paths reach: K max|u| is far above every norm, so
        # every live path's norm is taken
        r_local = _radius_for_exit_at(lh.norm_H(free.curves, gamma_model.grid), 4)
        taken.clear()
        ens = _solve(solver_name, gamma_model, u0, dataclasses.replace(cfg, r_local=r_local))
        assert len(set(ens.exit_index.tolist())) > 1  # paths leave at different steps
        assert all(n == live for n, live in taken)
        taken.clear()
        _solve(solver_name, gamma_model, u0, dataclasses.replace(cfg, r_local=math.inf))
        assert taken and not any(n for n, _ in taken)
        # the bundled shape's bounds are all near K times its long rate; on
        # rough curves they spread, and a radius inside their range has some
        # norms taken and others certified
        model, u0, cfg = self._rough_tanh_setup()
        free = _solve(solver_name, model, u0, cfg)
        sup_bounds = model.grid.sup_gain * np.abs(free.curves[:, 1:]).max(axis=-1)
        taken.clear()
        r_local = float(np.quantile(sup_bounds, 0.75))
        _solve(solver_name, model, u0, dataclasses.replace(cfg, r_local=r_local))
        assert 0 < sum(n for n, _ in taken) < sum(live for _, live in taken)

    @staticmethod
    def _rough_tanh_setup():
        """A tanh model that keeps a rough curve rough, so |u|_H is near K max|u|.

        u0 alternates in pairs (+a, +a, -a, -a, ...), so every centered
        difference is 2a and the curve's norm nearly attains the sup-norm
        bound.  A nearly flat envelope on a Wiener driver scales that pattern
        by about 1 + 0.5 dW per step, so norms rise and fall along a path.
        """
        grid = aligned_grid(10.0, 1.0 / 16.0)
        driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=60.0, delta=1.5)
        model = lh.HjmModel(
            grid=grid, driver=driver, cumulant=lh.CumulantModel(driver),
            vol=lh.tanh_volatility([0.5], [0.01]),
        )
        u0 = 0.01 * np.where(np.arange(grid.n_nodes) % 4 < 2, 1.0, -1.0)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=40, seed=21)
        assert lh.norm_H(u0, grid) > 0.9 * grid.sup_gain * 0.01
        return model, u0, cfg

    @staticmethod
    def _exits_against_every_norm(solver_name, model, u0, cfg):
        """Exit indices and curves of the solver and of taking every norm, per radius."""
        m = cfg.n_steps
        free = _solve(solver_name, model, u0, cfg)
        norms = lh.norm_H(free.curves, model.grid)
        radii = {
            "first": _radius_for_exit_at(norms, 1),
            "middle": _radius_for_exit_at(norms, m // 2),
            "last": _radius_for_exit_at(norms, m),
            "sentinel": 1e6,
        }
        out = {}
        for name, r_local in radii.items():
            run = dataclasses.replace(cfg, r_local=r_local)
            ens = _solve(solver_name, model, u0, run, increments=free.increments)
            every = _step_every_norm(
                model, u0, run, free.increments, exponential=solver_name == "picard"
            )
            out[name] = (ens.exit_index, ens.curves) + every
        return out

    @pytest.mark.parametrize("block_rows", [1, None], ids=["blocks_of_1", "default_blocks"])
    @pytest.mark.parametrize("case", ["bundled_tanh", "rough_tanh"])
    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_state_dependent_exits_and_curves_bitwise_those_of_every_norm(
        self, solver_name, case, block_rows, gamma_model, monkeypatch
    ):
        from levyhjm import solver

        if case == "bundled_tanh":
            model, u0 = gamma_model, initial_curve(gamma_model.grid)
            cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=32, seed=8)
        else:
            model, u0, cfg = self._rough_tanh_setup()
        if block_rows is not None:
            monkeypatch.setattr(solver, "_BLOCK_VALUES", block_rows * model.grid.n_nodes)
        m = cfg.n_steps
        for name, (exits, curves, every_curves, every_exits) in self._exits_against_every_norm(
            solver_name, model, u0, cfg
        ).items():
            assert np.array_equal(exits, every_exits), name
            assert np.array_equal(curves, every_curves), name
            step = {"first": 1, "middle": m // 2, "last": m}.get(name)
            if step is not None:
                assert (exits == step).any(), name
        assert (exits == m + 1).all()

    @staticmethod
    def _rough_state_free_setup():
        """``_rough_tanh_setup`` with a state-free sigma of the initial curve's pair pattern."""
        model, u0, cfg = TestCertifiedNormSkip._rough_tanh_setup()
        pairs = np.where(np.arange(model.grid.n_nodes) % 4 < 2, 1.0, -1.0)
        assert np.array_equal(u0, 0.01 * pairs)

        def sig(t, x, u):
            shape = np.broadcast_shapes(np.shape(x), np.shape(u))
            return np.broadcast_to(0.005 * pairs, shape)[..., None].copy()

        vol = lh.VolatilitySpec(name="pairs", dim=1, sigma=sig, gamma_seq=np.zeros(1))
        assert vol.state_free
        return dataclasses.replace(model, vol=vol), u0, cfg

    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_half_the_sup_gain_misses_exits(self, solver_name, monkeypatch):
        # the control: a bound of K/2 max|u| sits below the rough curves'
        # norms, certifies paths past the radius and loses their exits, with
        # a state-dependent sigma and a state-free one alike
        for case in (self._rough_tanh_setup, self._rough_state_free_setup):
            model, u0, cfg = case()
            monkeypatch.setitem(vars(model.grid), "sup_gain", 0.5 * model.grid.sup_gain)
            runs = self._exits_against_every_norm(solver_name, model, u0, cfg)
            assert any(
                not np.array_equal(exits, every_exits)
                for exits, _curves, _every_curves, every_exits in runs.values()
            ), case.__name__

    @staticmethod
    def _dominance_checked(monkeypatch):
        """Wrap ``_localize`` to assert each kept live candidate's norm is within its bound."""
        from levyhjm import solver

        localize = solver._localize
        seen = []

        def checked(exits, frozen, ok, candidate, prev, i, grid, r_local, bound):
            before, was_frozen = bound.copy(), frozen.copy()
            out = localize(exits, frozen, ok, candidate, prev, i, grid, r_local, bound)
            live = ~was_frozen & (exits != i)  # the paths whose candidate is kept
            seen.append(live.sum())
            assert np.all(lh.norm_H(candidate[live], grid) <= before[live])
            return out

        monkeypatch.setattr(solver, "_localize", checked)
        return seen

    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_bound_covers_a_shifted_checkerboard_increment(self, solver_name, monkeypatch):
        # a zero initial curve and a checkerboard sigma: every increment is
        # the mode whose curve norm the aligned shift amplifies most, and
        # Picard shifts it after adding it; K max|u| must still cover it
        def sig(t, x, u):
            board = (-1.0) ** np.arange(np.shape(x)[-1]) * np.exp(-0.5 * np.asarray(x))
            board[0] = board[1] / 3.0
            shape = np.broadcast_shapes(np.shape(x), np.shape(u))
            return np.broadcast_to(0.05 * board, shape)[..., None].copy()

        vol = lh.VolatilitySpec(name="board", dim=1, sigma=sig, gamma_seq=np.zeros(1))
        model = _model(aligned_grid(10.0, 1.0 / 16.0), vol)
        assert vol.state_free
        seen = self._dominance_checked(monkeypatch)
        cfg = lh.SolverConfig(horizon=0.5, n_steps=8, n_paths=40, seed=21)
        _solve(solver_name, model, np.zeros(model.grid.n_nodes), cfg)
        assert sum(seen) == cfg.n_paths * cfg.n_steps

    @pytest.mark.parametrize("u0_kind", ["smooth", "rough"])
    @pytest.mark.parametrize("block_rows", [7, 1000], ids=["blocks_of_7", "one_block"])
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "interpolating"])
    @pytest.mark.parametrize("vol_name", ["constant", "exp_decay"])
    @pytest.mark.parametrize("solver_name", ["euler", "picard"])
    def test_bound_dominates_every_live_norm(
        self, solver_name, vol_name, aligned, block_rows, u0_kind, monkeypatch
    ):
        from levyhjm import solver

        model, u0, cfg = self._setup(vol_name, aligned, u0_kind)
        grid = model.grid
        monkeypatch.setattr(solver, "_BLOCK_VALUES", block_rows * grid.n_nodes)
        seen = self._dominance_checked(monkeypatch)
        free = _solve(solver_name, model, u0, cfg)
        r_local = _radius_for_exit_at(lh.norm_H(free.curves, grid), cfg.n_steps // 2)
        for r in (1e6, r_local):
            _solve(solver_name, model, u0, dataclasses.replace(cfg, r_local=r))
        assert sum(seen) > 0


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
# a constant sigma's bond check reads its integrals from the mild form
flat = lh.HjmModel(
    grid=grid, driver=driver, cumulant=lh.CumulantModel(driver),
    vol=lh.constant_volatility([0.05]),
)
flat_cfg = lh.SolverConfig(horizon=1.0, n_steps=10, n_paths=1500, seed=5)
mild_route, widths = lh.checks._mild_readouts, []
lh.checks._mild_readouts = lambda *args: widths.append(0) or mild_route(*args)
stepped = lh.checks._stepped_integrals
lh.checks._stepped_integrals = (
    lambda model, *args: widths.append(model.grid.n_nodes) or stepped(model, *args)
)
rows += [report_row(r) for r in lh.verify_martingale_bonds(flat, u0, [2.0, 5.0], flat_cfg)]
mild = widths == [0]
# the tanh sigma's bond check at the default radius steps its readout cone
rows += [report_row(r) for r in lh.verify_martingale_bonds(model, u0, [2.0, 5.0], flat_cfg)]
cone = len(widths) == 2 and 0 < widths[1] < grid.n_nodes
big = lh.make_grid(10.0, 321, 0.1)
curves = lh.random_curves(big, 2003, np.random.default_rng(3))
h = hashlib.sha256()
for a in (ens.curves, ens.exit_index, lh.norm_H(curves, big),
          lh.partial_integral(curves, big, 2.3)):
    h.update(np.ascontiguousarray(a).tobytes())
exited = int((ens.exit_index <= cfg.n_steps).sum())
print(h.hexdigest(), exited, mild, cone, repr(rows))
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
        _digest, exited, mild, cone, _rows = outs[0].split(" ", 4)
        assert 0 < int(exited) < 1500  # the norm localizes some paths, not all
        assert mild == cone == "True"
        assert outs[0] == outs[1]
