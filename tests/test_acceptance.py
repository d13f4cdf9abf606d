"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
are produced.  Every tolerance is fixed here; Monte Carlo checks use 3-sigma
bands at the stated path counts, closed-form comparisons use the stated
absolute/relative bounds.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np

import levyhjm as lh
from levyhjm.checks import (
    step_integrands,
    verify_bichteler_jacod,
    verify_convolution_inequality,
    verify_isometry,
    verify_martingale_bonds,
)
from levyhjm.cli import build_bundle, load_scenario, run_scenario
from levyhjm.solver import SolverConfig

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gamma_hjm.yaml"

BETA = 0.1


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def aligned_grid(x_max: float, dt: float) -> lh.WeightGrid:
    return lh.make_grid(x_max, int(round(x_max / dt)) + 1, BETA)


def sweep_drivers() -> dict:
    return {
        "wiener": lh.build_driver([lh.WienerComponent(1.0)], r_ball=1.0, delta=1.5),
        "gamma": lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5),
        "cpp": lh.build_driver(
            [lh.CompoundPoissonComponent(1.0, 1.0)], r_ball=1.0, delta=1.5
        ),
    }


def initial_curve(grid: lh.WeightGrid) -> np.ndarray:
    return 0.02 + 0.015 * (1.0 - np.exp(-0.4 * grid.nodes))


def test_criterion_01_cumulant_calculus():
    # gamma family c_k = 2^{-k}, common rate 2; 20 random points in the ball
    comps = [lh.GammaComponent(c=2.0 ** -(k + 1), rate=2.0) for k in range(3)]
    driver = lh.build_driver(comps, r_ball=0.5, delta=1.5)
    model = lh.CumulantModel(driver)
    quad = lh.CumulantModel(driver, modes=("quadrature",) * 3)
    rng = np.random.default_rng(101)
    zetas = rng.normal(size=(20, 3))
    zetas *= (0.95 * driver.r_ball * rng.uniform(0.2, 1.0, (20, 1))) / np.linalg.norm(
        zetas, axis=1, keepdims=True
    )

    worst_fd_grad, worst_fd_hess, worst_quad = 0.0, 0.0, 0.0
    h1, h2 = 1e-5, 1e-4
    for z in zetas:
        worst_quad = max(worst_quad, abs(lh.cumulant(model, z) - lh.cumulant(quad, z)))
        g = lh.cumulant_grad(model, z)
        hd = np.array([lh.cumulant_hess(model, z, e, e) for e in np.eye(3)])
        for k in range(3):
            e = np.eye(3)[k]
            fd1 = (lh.cumulant(model, z + h1 * e) - lh.cumulant(model, z - h1 * e)) / (
                2 * h1
            )
            worst_fd_grad = max(worst_fd_grad, abs(fd1 - g[k]) / (1 + abs(g[k])))
            fd2 = (
                lh.cumulant(model, z + h2 * e)
                - 2 * lh.cumulant(model, z)
                + lh.cumulant(model, z - h2 * e)
            ) / h2**2
            worst_fd_hess = max(worst_fd_hess, abs(fd2 - hd[k]) / (1 + abs(hd[k])))

    means, ses = lh.empirical_mgf(driver, zetas, 1_000_000, seed=102)
    mgf_margins = [
        abs(mean - math.exp(lh.cumulant(model, z))) - 3 * se
        for z, mean, se in zip(zetas, means, ses)
    ]
    ok = (
        worst_fd_grad <= 1e-6
        and worst_fd_hess <= 1e-6
        and worst_quad <= 1e-8
        and max(mgf_margins) <= 0.0
    )
    _line(
        1,
        "cumulant calculus",
        ok,
        f"fd_grad={worst_fd_grad:.2e} fd_hess={worst_fd_hess:.2e} "
        f"quad={worst_quad:.2e} worst_mgf_margin={max(mgf_margins):.2e}",
    )
    assert worst_fd_grad <= 1e-6
    assert worst_fd_hess <= 1e-6
    assert worst_quad <= 1e-8
    assert max(mgf_margins) <= 0.0, "MC moment-generating check outside 3 s.e."


def test_criterion_02_isometry():
    grid = lh.make_grid(10.0, 321, BETA)
    results = {}
    for name, driver in sweep_drivers().items():
        F = step_integrands(grid, 1, 8, seed=201)
        rep = verify_isometry(grid, driver, F, horizon=1.0, n_paths=100_000, seed=202)
        results[name] = rep
    ok = all(r.passed for r in results.values())
    detail = " ".join(
        f"{n}:|d|={abs(r.lhs - r.rhs):.2e}<=3se={3 * r.standard_error:.2e}"
        for n, r in results.items()
    )
    _line(2, "stochastic-integral isometry", ok, detail)
    for name, rep in results.items():
        assert rep.passed, f"isometry failed for {name}"


def test_criterion_03_maximal_inequalities():
    grid = lh.make_grid(10.0, 321, BETA)
    drivers = sweep_drivers()
    n_paths = 8000
    cells_plain: dict = {}
    cells_conv: dict = {}
    doob: dict = {}
    for T in (0.5, 1.0, 2.0):
        n_steps = int(T * 32)
        s = np.arange(n_steps) * T / n_steps
        profile = np.exp(-2.0 * s)[:, None, None]
        F_plain = step_integrands(grid, 1, n_steps, seed=301) * profile
        F_conv = (
            step_integrands(grid, 1, n_steps, seed=302, vanish_at_end=True) * profile
        )
        for p in (2.0, 4.0):
            for name, driver in drivers.items():
                rep = verify_bichteler_jacod(
                    grid, driver, F_plain, p, T, n_paths, seed=303
                )
                cells_plain.setdefault((p, T), {})[name] = rep.ratio
                if p == 2.0:
                    doob[(name, T)] = (rep.ratio, rep.standard_error)
                conv, _ = verify_convolution_inequality(
                    grid, driver, F_conv, p, T, n_paths, seed=304
                )
                cells_conv.setdefault((p, T), {})[name] = conv.ratio

    worst_var_plain = max(
        max(c.values()) / min(c.values()) for c in cells_plain.values()
    )
    worst_var_conv = max(max(c.values()) / min(c.values()) for c in cells_conv.values())
    finite = all(
        math.isfinite(v) for c in (*cells_plain.values(), *cells_conv.values())
        for v in c.values()
    )
    doob_ok = all(r <= 4.0 * 1.1 + 3 * se for r, se in doob.values())
    ok = worst_var_plain < 3.0 and worst_var_conv < 3.0 and doob_ok and finite
    _line(
        3,
        "maximal-inequality implied constants",
        ok,
        f"cross-driver variation: plain={worst_var_plain:.2f} conv={worst_var_conv:.2f} "
        f"(cap 3); doob_max={max(r for r, _ in doob.values()):.2f} (cap 4.4)",
    )
    assert finite
    assert worst_var_plain < 3.0
    assert worst_var_conv < 3.0
    assert doob_ok


def bond_model(kind: str, sign: float, grid: lh.WeightGrid) -> lh.HjmModel:
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


def test_criterion_04_no_arbitrage_drift():
    grid = lh.make_grid(6.0, 121, BETA)
    u0 = initial_curve(grid)
    cfg = SolverConfig(horizon=1.0, n_steps=20, n_paths=100_000, seed=401)
    outcomes = {}
    for kind in ("wiener", "gamma"):
        good = verify_martingale_bonds(bond_model(kind, -1.0, grid), u0, [2.0, 5.0], cfg)
        bad = verify_martingale_bonds(bond_model(kind, +1.0, grid), u0, [2.0, 5.0], cfg)
        bad_slopes = [r for r in bad if r.name.startswith("bond_slope")]
        outcomes[kind] = (
            all(r.passed for r in good),
            all(not r.passed for r in bad_slopes),
        )
    ok = all(g and b for g, b in outcomes.values())
    _line(
        4,
        "discounted-bond drift",
        ok,
        " ".join(
            f"{k}: sign-1={'ok' if g else 'FAIL'} sign+1_detected={'ok' if b else 'FAIL'}"
            for k, (g, b) in outcomes.items()
        ),
    )
    for kind, (good_ok, bad_detected) in outcomes.items():
        assert good_ok, f"{kind}: correct sign rejected"
        assert bad_detected, f"{kind}: wrong sign not detected"


def test_criterion_05_gaussian_reduction():
    grid = lh.make_grid(10.0, 201, BETA)
    rng = np.random.default_rng(501)
    worst = 0.0
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
            vol = lh.exp_decay_volatility(rng.uniform(-0.3, 0.3, d), rng.uniform(0.5, 2, d))
        else:
            vol = lh.tanh_volatility(rng.uniform(0.05, 0.4, d), rng.uniform(0.5, 2, d))
        model = lh.HjmModel(
            grid=grid, driver=driver, cumulant=lh.CumulantModel(driver), vol=vol
        )
        u = 0.05 * lh.random_curves(grid, 1, rng)[0]
        sig = vol.sigma_at(0.0, grid.nodes, u)
        S = lh.cumulative_integral(sig, grid, axis=-2)
        closed = (sig * (variances * S)).sum(axis=-1)
        worst = max(worst, float(np.abs(lh.hjm_drift(model, 0.0, u) - closed).max()))
    ok = worst <= 1e-10
    _line(5, "Brownian-driver drift closed form", ok, f"worst |diff|={worst:.2e} (cap 1e-10)")
    assert worst <= 1e-10


def test_criterion_06_solver_correctness():
    # (a) zero volatility: bitwise transport per step, both schemes
    grid = aligned_grid(10.0, 0.1)
    driver = lh.build_driver([lh.WienerComponent(1.0)], r_ball=2.0, delta=1.5)
    model0 = lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.constant_volatility([0.0]),
    )
    u0 = initial_curve(grid)
    cfg = SolverConfig(horizon=0.5, n_steps=5, n_paths=2, seed=601)
    euler = lh.euler_solve(model0, u0, cfg)
    picard = lh.picard_solve(model0, u0, cfg).ensemble
    transport_ok = True
    for j, t in enumerate(cfg.times):
        expected = lh.shift(u0, float(t), grid)
        transport_ok &= bool(np.array_equal(euler.curves[0, j], expected))
        transport_ok &= bool(np.array_equal(picard.curves[0, j], expected))

    # (b) additive-Gaussian closed form, dt in {1/64, 1/128, 1/256}
    sigma0 = 0.2
    errs = []
    for n_steps in (32, 64, 128):  # horizon 0.5 => dt = 1/64, 1/128, 1/256
        dt = 0.5 / n_steps
        g = aligned_grid(2.0, dt)
        m = lh.HjmModel(
            grid=g,
            driver=driver,
            cumulant=lh.CumulantModel(driver),
            vol=lh.constant_volatility([sigma0]),
        )
        uu0 = initial_curve(g)
        c = SolverConfig(horizon=0.5, n_steps=n_steps, n_paths=4, seed=602)
        ens = lh.euler_solve(m, uu0, c)
        W = np.vstack(
            [np.zeros(c.n_paths), np.cumsum(ens.increments[:, :, 0], axis=0)]
        ).T
        sup_err = 0.0
        for j, t in enumerate(c.times):
            tstar = np.minimum(np.maximum(g.x_max - g.nodes, 0.0), float(t))
            drift_int = g.nodes * tstar + 0.5 * tstar**2 + (float(t) - tstar) * g.x_max
            exact = (
                lh.shift(uu0, float(t), g)
                + sigma0**2 * drift_int
                + sigma0 * W[:, j, None]
            )
            sup_err = max(sup_err, float(lh.norm_H(ens.curves[:, j] - exact, g).max()))
        errs.append(sup_err)
    oracle_ratios = [errs[i] / errs[i + 1] for i in range(2)]
    oracle_ok = all(1.8 < r < 2.2 for r in oracle_ratios)

    # (c) Picard vs Euler on common noise for the gamma example, O(dt)
    gamma_driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
    vol = lh.tanh_volatility([0.05], [1.0])
    n_fine = 32
    fine = lh.increment_table(gamma_driver, 0.5 / n_fine, n_fine, 64, seed=603)
    dists = []
    for n_steps in (8, 16, 32):
        inc = fine.reshape(n_steps, n_fine // n_steps, *fine.shape[1:]).sum(axis=1)
        g = aligned_grid(10.0, 0.5 / n_steps)
        m = lh.HjmModel(
            grid=g,
            driver=gamma_driver,
            cumulant=lh.CumulantModel(gamma_driver),
            vol=vol,
        )
        c = SolverConfig(horizon=0.5, n_steps=n_steps, n_paths=64, seed=603, picard_tol=1e-10)
        pe = lh.picard_solve(m, initial_curve(g), c, increments=inc)
        ee = lh.euler_solve(m, initial_curve(g), c, increments=inc)
        gap = lh.norm_H(pe.ensemble.curves - ee.curves, g).max(axis=1)
        dists.append(float(np.sqrt(np.square(gap).mean())))
    agreement_ratios = [dists[i] / dists[i + 1] for i in range(2)]
    agreement_ok = all(1.5 < r < 2.8 for r in agreement_ratios)

    ok = transport_ok and oracle_ok and agreement_ok
    _line(
        6,
        "solver correctness",
        ok,
        f"transport_bitwise={transport_ok} "
        f"oracle_ratios={[f'{r:.2f}' for r in oracle_ratios]} "
        f"picard_vs_euler_ratios={[f'{r:.2f}' for r in agreement_ratios]}",
    )
    assert transport_ok
    assert oracle_ok, f"additive-oracle ratios {oracle_ratios} not ~2"
    assert agreement_ok, f"scheme-agreement ratios {agreement_ratios} not O(dt)"


def _left_endpoint_recursion(model, u0, cfg, increments) -> np.ndarray:
    """Curves of the discrete fixed point, path by path from the definition.

    conv_j = S(conv_{j-1} + f(t_{j-1}, u_{j-1}) dt + sigma(t_{j-1}, u_{j-1}) dM_{j-1})
    and u_j = S(u0, t_j) + conv_j, with S the shift by dt: no solver code.
    """
    grid, dt = model.grid, cfg.dt
    out = np.empty((cfg.n_paths, cfg.n_steps + 1, grid.n_nodes))
    for p in range(cfg.n_paths):
        u, conv = u0, np.zeros(grid.n_nodes)
        out[p, 0] = u0
        for j in range(1, cfg.n_steps + 1):
            sig = model.vol.sigma_at(float(cfg.times[j - 1]), grid.nodes, u)
            f, _ok = lh.drift_functional(model, sig)
            conv = lh.shift(conv + f * dt + sig @ increments[j - 1, p], dt, grid)
            u = lh.shift(u0, float(cfg.times[j]), grid) + conv
            out[p, j] = u
    return out


def test_criterion_07_picard_contraction():
    sc = load_scenario(CONFIG)
    bundle = build_bundle(sc)
    cfg = SolverConfig(
        horizon=0.5,
        n_steps=int(sc.solver["n_steps"]),
        n_paths=128,
        seed=701,
        picard_tol=1e-10,
    )
    res = lh.picard_solve(bundle.model, bundle.u0, cfg)
    r = res.residuals
    decreasing = all(r[i + 1] < r[i] for i in range(len(r) - 1))
    terminal_ratio = r[-1] / r[-2] if len(r) >= 2 else 0.0
    # the residuals reach 0.0 by construction once the causal pass is exact,
    # so the solve is also compared with the recursion it must equal, and a
    # wrong-sign recursion must fail that comparison
    ens = res.ensemble
    all_alive = bool((ens.exit_index == cfg.n_steps + 1).all())
    exact = _left_endpoint_recursion(bundle.model, bundle.u0, cfg, ens.increments)
    flipped = dataclasses.replace(bundle.model, drift_sign=-bundle.model.drift_sign)
    control = _left_endpoint_recursion(flipped, bundle.u0, cfg, ens.increments)
    gap = float(np.abs(ens.curves - exact).max())
    control_gap = float(np.abs(ens.curves - control).max())
    atol = 1e-14
    ok = (
        res.converged
        and decreasing
        and terminal_ratio < 1.0
        and all_alive
        and gap <= atol < control_gap
    )
    _line(
        7,
        "fixed-point contraction on the bundled scenario",
        ok,
        f"sweeps={res.sweeps} residuals={[f'{x:.1e}' for x in r]} "
        f"terminal_ratio={terminal_ratio:.3g} recursion_gap={gap:.1e} "
        f"wrong_sign_gap={control_gap:.1e}",
    )
    assert res.converged
    assert decreasing
    assert terminal_ratio < 1.0
    assert all_alive
    assert gap <= atol, "solve differs from the left-endpoint recursion"
    assert control_gap > atol, "the comparison cannot tell the drift sign"


def test_criterion_08_local_lipschitz_structure():
    grid = lh.make_grid(6.0, 241, BETA)
    driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
    model = lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.tanh_volatility([0.2], [1.0]),
    )
    radii = (1.0, 2.0, 4.0, 8.0)
    b_norm = {R: lh.lipschitz_estimate(model, "B", R, n_pairs=250, seed=801).normalized
              for R in radii}
    g_norm = {R: lh.lipschitz_estimate(model, "g", R, n_pairs=200, seed=802).normalized
              for R in radii}
    b_variation = max(b_norm.values()) / min(b_norm.values())
    g_growth = max(g_norm.values()) / g_norm[radii[0]]
    finite = all(math.isfinite(v) for v in (*b_norm.values(), *g_norm.values()))

    # pointwise-norm domination on 1000 vector curves, two grid resolutions
    margins = {}
    for label, g in (("coarse", grid), ("fine", grid.refine(2))):
        vecs = lh.random_vector_curves(g, 1000, 2, np.random.default_rng(803))
        lhs = lh.norm_H(lh.pointwise_norm_curve(vecs), g)
        rhs = lh.norm_frak_H(vecs, g)
        margins[label] = float((lhs - rhs).max())
    eps_grid = 1e-10
    domination_ok = margins["coarse"] <= eps_grid and margins["fine"] <= eps_grid

    ok = finite and b_variation < 3.0 and g_growth < 3.0 and domination_ok
    _line(
        8,
        "local-Lipschitz structure",
        ok,
        f"noise-op variation={b_variation:.2f} (cap 3), drift-envelope growth="
        f"{g_growth:.2f} (cap 3), domination margins={margins['coarse']:.1e}/"
        f"{margins['fine']:.1e} (cap {eps_grid:g})",
    )
    assert finite
    assert b_variation < 3.0
    assert g_growth < 3.0
    assert domination_ok


def test_criterion_09_embedding_ratios():
    grid = lh.make_grid(20.0, 401, BETA)
    fine = grid.refine(2)
    fam = lh.random_harmonic_family(grid, 1000, np.random.default_rng(901), max_frequency=2.0)
    coarse_curves = fam.sample(grid)
    fine_curves = fam.sample(fine)
    worst_delta = 0.0
    worst_ratio = 0.0
    for i in range(1000):
        rc = lh.check_embeddings(coarse_curves[i], grid)
        rf = lh.check_embeddings(fine_curves[i], fine)
        for a, b in (
            (rc.sup_ratio, rf.sup_ratio),
            (rc.l1_ratio, rf.l1_ratio),
            (rc.sq_ratio, rf.sq_ratio),
        ):
            worst_delta = max(worst_delta, abs(a - b) / (1.0 + a))
            worst_ratio = max(worst_ratio, b)
    ok = worst_delta < 0.01 and math.isfinite(worst_ratio)
    _line(
        9,
        "embedding ratios",
        ok,
        f"max ratio={worst_ratio:.3f}, worst refinement change={worst_delta:.2%} (cap 1%)",
    )
    assert worst_delta < 0.01
    assert math.isfinite(worst_ratio)


def test_criterion_10_initial_datum_lipschitz():
    grid = lh.make_grid(10.0, 321, BETA)
    driver = lh.build_driver([lh.GammaComponent(1.0, 2.0)], r_ball=0.5, delta=1.5)
    model = lh.HjmModel(
        grid=grid,
        driver=driver,
        cumulant=lh.CumulantModel(driver),
        vol=lh.tanh_volatility([0.05], [1.0]),
    )
    u0 = initial_curve(grid)
    dirs = lh.rescale_to_norm(
        lh.random_curves(grid, 10, np.random.default_rng(1001)), grid, 1.0
    )
    maxima = {}
    for n_steps in (8, 16):
        cfg = SolverConfig(
            horizon=0.5, n_steps=n_steps, n_paths=256, seed=1002, picard_tol=1e-9
        )
        ratios = [
            lh.lipschitz_in_initial_datum(model, u0, u0 + 0.01 * d, cfg) for d in dirs
        ]
        maxima[n_steps] = max(ratios)
    bounded = all(v < 5.0 for v in maxima.values())
    drift = abs(maxima[8] - maxima[16]) / maxima[16]
    ok = bounded and drift < 0.05
    _line(
        10,
        "initial-datum Lipschitz ratio",
        ok,
        f"max ratios={ {k: f'{v:.4f}' for k, v in maxima.items()} }, "
        f"dt-halving change={drift:.2%} (cap 5%)",
    )
    assert bounded
    assert drift < 0.05


def test_criterion_11_reproducibility(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = run_scenario(CONFIG, out_dir=out1)
    code2 = run_scenario(CONFIG, out_dir=out2)
    identical = {
        name: (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("curves.csv", "summary.csv", "checks.csv", "manifest.json")
    }
    ok = code1 == 0 and code2 == 0 and all(identical.values())
    _line(
        11,
        "bundled-scenario reproducibility",
        ok,
        f"exit codes=({code1},{code2}), byte-identical={identical}",
    )
    assert code1 == 0 and code2 == 0
    assert all(identical.values()), identical
