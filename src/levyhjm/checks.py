"""Empirical verification suite.

Each check turns one structural identity or inequality of the model into a
seeded Monte Carlo experiment and returns a :class:`CheckReport`:

* ``verify_isometry``                E |int F dM|^2 = int |F|_Q^2 ds for
  deterministic step integrands (exact for martingale transforms, so the
  test is pure Monte Carlo error), plus a right-endpoint negative control
  that must fail for jump drivers.
* ``verify_bichteler_jacod``         implied constant of the moment bound
  E sup |int F dM|^p <= N * m_p * int |F|^p ds.  The constant is reported,
  not asserted against a fixed number; suites assert its stability across
  drivers at fixed (p, T), and Doob's L2 bound pins it at p = 2.
* ``verify_convolution_inequality``  same bound for the shift-convolved
  integral, measured in the boundary-value-at-xmax norm where the shift
  semigroup is a contraction (integrands vanish at x_max).
* ``verify_martingale_bonds``        discounted zero-coupon bonds along
  simulated paths have zero drift slope; the decisive arbiter for the sign
  of the drift functional.  Every row fails when localization froze more
  than ``_LOCALIZED_CAP`` of the paths.  The check is ``bond_join`` of the
  ``bond_prices`` of any contiguous rows, bitwise those of all of them.
* ``verify_cumulant_derivatives``    closed-form cumulant derivatives against
  finite differences, and an empirical Lipschitz constant of the Hessian.
* ``verify_exponential_moment``      sampled finiteness of E e^{|<z, M(1)>|}
  on the enlarged ball.

The three stochastic-integral checks integrate deterministic step integrands,
so each sampled norm is a quadratic form c^T G_k c in the noise increments c,
with the Gram matrix G_k of step k's integrands computed once; per-path cost
does not depend on the grid size.  Shifted integrands come from the same
repeated one-step shift, exact on node-aligned steps, interpolating otherwise.

Pass rules: inequality checks pass when lhs <= rhs * (1 + tol) + 3 se,
identity checks when |lhs - rhs| <= tol * (1 + |rhs|) + 3 se; the implied
constants pass when both sides are finite and rhs > 0.  Every report is
reproducible bitwise under a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvespace import (
    WeightGrid,
    grid_derivative,
    norm_H,  # unused here; perfbench's tracer test reads the levyhjm.checks alias
    random_harmonic_family,
    rescale_to_norm,
    _partial_weights,
    _shift_values,
)
from .levy import (
    CumulantModel,
    LevyDriver,
    cumulant,
    cumulant_grad,
    hessian_diag,
    increment_table,
    moment_mp,
    step_generator,
    sample_increment_array,
)
from .model import HjmModel
from .solver import (
    SolverConfig,
    euler_transitions,
    _initial_curve,
    _mild_readouts,
    _no_path_localizes,
    _readout_cone,
    _row_blocks,
    _warn_nonfinite,
)

__all__ = [
    "CheckReport",
    "inequality_report",
    "identity_report",
    "stability_report",
    "step_integrands",
    "verify_isometry",
    "verify_isometry_predictability_control",
    "verify_bichteler_jacod",
    "verify_convolution_inequality",
    "verify_martingale_bonds",
    "bond_prices",
    "bond_join",
    "verify_cumulant_derivatives",
    "verify_exponential_moment",
    "CHECKS_CSV_COLUMNS",
    "report_row",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification experiment."""

    name: str
    mode: str  # "inequality" | "identity"
    lhs: float
    rhs: float
    ratio: float
    n_samples: int
    standard_error: float
    tolerance: float
    passed: bool
    config: dict = field(default_factory=dict)


def _report(name, mode, lhs, rhs, n_samples, standard_error, tolerance, passed, config):
    """CheckReport with every numeric field a plain Python number."""
    lhs, rhs = float(lhs), float(rhs)
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    return CheckReport(
        name=name,
        mode=mode,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        n_samples=int(n_samples),
        standard_error=float(standard_error),
        tolerance=float(tolerance),
        passed=bool(passed),
        config=dict(config or {}),
    )


def inequality_report(
    name: str,
    lhs: float,
    rhs: float,
    n_samples: int = 0,
    standard_error: float = 0.0,
    tolerance: float = 0.0,
    config: dict | None = None,
) -> CheckReport:
    passed = lhs <= rhs * (1.0 + tolerance) + 3.0 * standard_error
    return _report(
        name, "inequality", lhs, rhs, n_samples, standard_error, tolerance, passed, config
    )


def identity_report(
    name: str,
    lhs: float,
    rhs: float,
    n_samples: int = 0,
    standard_error: float = 0.0,
    tolerance: float = 0.0,
    config: dict | None = None,
) -> CheckReport:
    passed = abs(lhs - rhs) <= tolerance * (1.0 + abs(rhs)) + 3.0 * standard_error
    return _report(
        name, "identity", lhs, rhs, n_samples, standard_error, tolerance, passed, config
    )


def stability_report(
    name: str, values: dict[str, float], factor_cap: float, config: dict | None = None
) -> CheckReport:
    """Max over a sweep must stay within ``factor_cap`` times the min."""
    vals = np.array(list(values.values()), dtype=float)
    if not np.all(np.isfinite(vals)):
        lo, hi = 0.0, math.inf
    else:
        lo, hi = float(vals.min()), float(vals.max())
    cfg = dict(config or {})
    cfg["sweep_values"] = {k: float(v) for k, v in values.items()}
    return inequality_report(
        name, lhs=hi, rhs=factor_cap * lo, n_samples=len(vals), config=cfg
    )


# ---------------------------------------------------------------------------
# Step integrands shared by the stochastic-integral checks
# ---------------------------------------------------------------------------


def step_integrands(
    grid: WeightGrid,
    dim: int,
    n_steps: int,
    seed: int,
    vanish_at_end: bool = False,
    scale: float = 1.0,
) -> np.ndarray:
    """Deterministic per-step vector curves, shape (n_steps, n_nodes, d).

    Smooth damped harmonics, unit-scale; with ``vanish_at_end`` the curves
    and their slopes vanish at x_max (needed wherever the shift semigroup
    must contract the boundary-value norm).
    """
    rng = np.random.default_rng(seed)
    fam = random_harmonic_family(
        grid,
        n_steps * dim,
        rng,
        n_modes=3,
        max_frequency=1.5,
        offset_scale=0.0 if vanish_at_end else 0.5,
        vanish_at_end=vanish_at_end,
    )
    flat = fam.sample(grid)
    flat = rescale_to_norm(flat, grid, scale)
    return flat.reshape(n_steps, dim, grid.n_nodes).transpose(0, 2, 1)


def _require_paths(n_paths: int, check: str) -> None:
    """A check's standard errors take ddof = 1, so they need at least 2 paths."""
    if n_paths < 2:
        raise ValueError(f"the {check} check needs at least 2 paths, got {n_paths}")


def _step_integral_data(driver, F, horizon, n_paths, seed) -> tuple[np.ndarray, np.ndarray]:
    """Integrand rows (m*d, n_nodes) and noise coefficients (n_paths, m*d).

    Index i*d + k is component k of step i, so c[:, :K] @ rows[:K] integrates
    steps 0..k for K = (k + 1) d.
    """
    F = np.asarray(F, dtype=float)
    m = F.shape[0]
    dM = increment_table(driver, horizon / m, m, n_paths, seed)
    rows = F.transpose(0, 2, 1).reshape(-1, F.shape[1])
    return rows, dM.transpose(1, 0, 2).reshape(n_paths, -1)


def _gram(rows: np.ndarray, grid: WeightGrid, star: bool = False) -> np.ndarray:
    """Gram matrix of curve rows in |.|_H, or |.|_* with ``star``, on the norms' stencil."""
    du = grid_derivative(rows, grid)
    edge = rows[:, -1 if star else 0]
    return (du * grid.weighted_quad) @ du.T + np.outer(edge, edge)


def _quadratic_forms(c: np.ndarray, grams: list[np.ndarray]) -> np.ndarray:
    """Squared norms q[p, k] = c[p, :K] G_k c[p, :K] with K = len(G_k).

    The cost per path does not depend on the grid.  Round-off below zero is
    clamped; NaN propagates.
    """
    q = np.empty((c.shape[0], len(grams)))
    for k, G in enumerate(grams):
        ck = c[:, : G.shape[0]]
        q[:, k] = np.einsum("pi,pi->p", ck @ G, ck)
    return np.maximum(q, 0.0)


def _sup_p(c: np.ndarray, grams: list[np.ndarray], p: float) -> np.ndarray:
    """Per-path sup over steps of the integral's norm, to the power p."""
    return np.sqrt(_quadratic_forms(c, grams).max(axis=1)) ** p


def _prefix_grams(G: np.ndarray, d: int) -> list[np.ndarray]:
    """Leading blocks of G, one per step: the integrands up to that step."""
    return [G[:K, :K] for K in range(d, len(G) + 1, d)]


# ---------------------------------------------------------------------------
# Isometry
# ---------------------------------------------------------------------------


def verify_isometry(
    grid: WeightGrid,
    driver: LevyDriver,
    F: np.ndarray,
    horizon: float,
    n_paths: int,
    seed: int,
    name: str = "isometry",
) -> CheckReport:
    """Monte Carlo second moment of int F dM against the covariance quadrature.

    The standard error needs at least 2 paths.
    """
    _require_paths(n_paths, "isometry")
    m = len(F)
    rows, c = _step_integral_data(driver, F, horizon, n_paths, seed)
    G = _gram(rows, grid)
    sq = _quadratic_forms(c, [G])[:, 0]
    lhs = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_paths))
    comp_norms = np.diagonal(G).reshape(m, -1)  # |F_i^k|_H^2
    rhs = float((comp_norms @ driver.covariance_diag).sum() * (horizon / m))
    return identity_report(
        name,
        lhs,
        rhs,
        n_samples=n_paths,
        standard_error=se,
        tolerance=0.0,
        config={"horizon": horizon, "n_steps": m, "seed": seed},
    )


def verify_isometry_predictability_control(
    grid: WeightGrid,
    driver: LevyDriver,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    predictable: bool = False,
) -> CheckReport:
    """Isometry test with the running sum itself as integrand.

    With ``predictable=True`` the integrand uses the left endpoint M(s_i)
    (a martingale transform; the identity holds exactly).  Otherwise it uses
    the right endpoint M(s_{i+1}), which anticipates the increment it
    multiplies; for jump drivers the extra quadratic-variation term breaks
    the identity by an O(1) amount.  Both sides are estimated by Monte
    Carlo on the same draws.
    """
    _require_paths(n_paths, "isometry")
    dt = horizon / n_steps
    dM = increment_table(driver, dt, n_steps, n_paths, seed)[..., :1]  # first component
    M = np.concatenate([np.zeros((1, n_paths, 1)), np.cumsum(dM, axis=0)], axis=0)
    idx = slice(0, n_steps) if predictable else slice(1, n_steps + 1)
    weights = M[idx, :, 0]  # (m, P)
    integral = (weights * dM[:, :, 0]).sum(axis=0)  # scalar per path (constant curve)
    sq = np.square(integral)
    lhs = float(sq.mean())
    se_l = float(sq.std(ddof=1) / math.sqrt(n_paths))
    q = float(driver.covariance_diag[0])
    rhs_samples = q * dt * np.square(weights).sum(axis=0)
    rhs = float(rhs_samples.mean())
    se_r = float(rhs_samples.std(ddof=1) / math.sqrt(n_paths))
    se = math.hypot(se_l, se_r)
    tag = "predictable" if predictable else "right_endpoint"
    return identity_report(
        f"isometry_{tag}",
        lhs,
        rhs,
        n_samples=n_paths,
        standard_error=se,
        tolerance=0.0,
        config={"horizon": horizon, "n_steps": n_steps, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Maximal inequalities
# ---------------------------------------------------------------------------


def _implied_constant_report(name, driver, sup_p, G, p, horizon, seed) -> CheckReport:
    """Report of E sup^p against m_p int |F|^p ds, |F_i| from G's diagonal blocks."""
    m = G.shape[0] // driver.dim
    n_paths = sup_p.size
    lhs = float(sup_p.mean())
    se = float(sup_p.std(ddof=1) / math.sqrt(n_paths))
    hs = np.sqrt(np.diagonal(G).reshape(m, -1).sum(axis=-1))
    rhs = float(moment_mp(driver, p) * (hs**p).sum() * (horizon / m))
    passed = math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0
    se = se / rhs if rhs > 0 else math.inf
    config = {"p": p, "horizon": horizon, "n_steps": m, "seed": seed}
    return _report(name, "inequality", lhs, rhs, n_paths, se, 0.0, passed, config)


def verify_bichteler_jacod(
    grid: WeightGrid,
    driver: LevyDriver,
    F: np.ndarray,
    p: float,
    horizon: float,
    n_paths: int,
    seed: int,
    name: str | None = None,
) -> CheckReport:
    """Implied constant of E sup_t |int_0^t F dM|^p <= N m_p int |F|^p ds.

    The report's ratio is the implied constant N-hat = lhs / rhs; ``passed``
    only asserts finiteness.  Stability across drivers and the Doob bound at
    p = 2 are asserted by the caller over a sweep of these reports.  The
    standard error needs at least 2 paths.
    """
    _require_paths(n_paths, "Bichteler-Jacod")
    rows, c = _step_integral_data(driver, F, horizon, n_paths, seed)
    G = _gram(rows, grid)
    sup_p = _sup_p(c, _prefix_grams(G, driver.dim), p)
    name = name or f"bichteler_jacod_p{p:g}_T{horizon:g}"
    return _implied_constant_report(name, driver, sup_p, G, p, horizon, seed)


def verify_convolution_inequality(
    grid: WeightGrid,
    driver: LevyDriver,
    F: np.ndarray,
    p: float,
    horizon: float,
    n_paths: int,
    seed: int,
) -> tuple[CheckReport, CheckReport]:
    """Implied constant for the shift-convolved integral, plus a sanity bound.

    The convolution sup is measured in the boundary-value norm on curves
    that vanish at x_max, where the shift semigroup contracts.  The second
    report asserts the convolved sup stays within 1.5 times the unconvolved
    sup on the same noise (a dilation-free sanity bound).  The standard
    errors need at least 2 paths.
    """
    _require_paths(n_paths, "convolution")
    d, dt, plain_factor_cap = driver.dim, horizon / len(F), 1.5
    rows, c = _step_integral_data(driver, F, horizon, n_paths, seed)
    # after step k the convolved integral is sum_{i <= k} S^{k-i+1} F_i dM_i
    # (S the one-step shift): the previous integrands and F_k, shifted once
    conv_rows, conv_grams = rows[:0], []
    for i in range(0, len(rows), d):
        conv_rows = _shift_values(np.concatenate([conv_rows, rows[i : i + d]]), dt, grid)
        conv_grams.append(_gram(conv_rows, grid, star=True))
    conv_p = _sup_p(c, conv_grams, p)
    G = _gram(rows, grid, star=True)
    main = _implied_constant_report(
        f"convolution_p{p:g}_T{horizon:g}", driver, conv_p, G, p, horizon, seed
    )
    plain_p = _sup_p(c, _prefix_grams(G, d), p)
    se_pair = float((conv_p - plain_factor_cap * plain_p).std(ddof=1) / math.sqrt(n_paths))
    vs_plain = inequality_report(
        f"convolution_vs_plain_p{p:g}_T{horizon:g}",
        main.lhs,
        plain_factor_cap * float(plain_p.mean()),
        n_samples=n_paths,
        standard_error=se_pair,
        tolerance=0.0,
        config={"p": p, "horizon": horizon, "factor_cap": plain_factor_cap, "seed": seed},
    )
    return main, vs_plain


# ---------------------------------------------------------------------------
# Discounted bond martingale test
# ---------------------------------------------------------------------------


# Largest fraction of paths localization may freeze in the bond check.  A
# frozen curve stands still while its discount keeps accruing, so its
# discounted bond falls at about its short rate, a few percent a year: a
# fraction phi of paths frozen for the whole run moves the mean slope by up
# to about 0.03 phi, a few standard errors of the bundled scenario's slope
# (8e-6 at 8000 paths) at phi = 1e-3.  Above the cap every row fails.
_LOCALIZED_CAP = 1e-3


def _bond_maturities(maturities, grid: WeightGrid, horizon: float) -> list[float]:
    """The bond check's maturities as floats: at least one, distinct, each in [horizon, x_max]."""
    maturities = [float(T) for T in np.atleast_1d(maturities)]
    if not maturities:
        raise ValueError("the bond check needs at least one maturity")
    if len(set(maturities)) < len(maturities):
        raise ValueError(f"bond maturities must be distinct, got {maturities}")
    for T in maturities:
        if not T <= grid.x_max:
            raise ValueError(f"maturity {T} beyond the grid truncation x_max = {grid.x_max}")
        if not horizon <= T:
            raise ValueError(f"simulation horizon {horizon} exceeds maturity {T}")
    return maturities


def _discount(step: np.ndarray, disc: np.ndarray, out: np.ndarray) -> None:
    """One step's discounted prices from its (K + 1, rows) integrals I.

    out[p, k] = exp(-disc[p] - I[k, p]) for k < K: the bond integral under
    the rolling one-period discount disc, the sum of the earlier steps'
    I[K], to which this step's I[K] is then added.
    """
    np.exp(-disc - step[:-1], out=out.T)
    disc += step[-1]


def _stepped_integrals(model, u0, cfg, weights, dM, n_bad):
    """(j, rows, I, exits) of Euler on ``model``'s grid, I the live (K + 1, rows)
    integrals of ``weights[j]``; ``n_bad`` is ``euler_transitions``'s ``_n_bad``.
    The integrals read the states on the nodes up to the last any weight
    touches, or the grid's last, as if the states were zero beyond it: the
    readout cone (``_readout_cone``) keeps every touched node, so its
    readouts sum the same terms as the full grid's, in the same order."""
    touched = weights.any(axis=(0, 1))[::-1]
    width = min(len(touched) - int(touched.argmax()), model.grid.n_nodes)
    narrow = weights[..., :width]
    for j, rows, U, exits in euler_transitions(model, u0, cfg, increments=dM, _n_bad=n_bad):
        if j == 0:  # a new block of rows
            step = np.empty((weights.shape[1], len(U)))
        # partial_integral's one pass over U, on this step's weights
        step[...] = np.einsum("...n,kn->...k", U[:, :width], narrow[j]).T
        yield j, rows, step, exits


def _mild_integrals(readouts, dM, n_nodes):
    """(j, rows, I, exits) from the mild readouts (a0, coef), a block of rows at a time.

    I, a live buffer, is a0 plus the noise times coef, summed elementwise in
    one fixed order, so no value depends on the block or the BLAS thread
    count.  A path with a non-finite integral exits at 0 and reads 0.
    """
    a0, coef = readouts
    m, dim = coef.shape[:2]
    blocks = list(_row_blocks(dM.shape[1], n_nodes))
    buffer = np.empty(a0.shape + (blocks[0].stop,))  # reused: a new one per block is slower
    for rows in blocks:
        integrals = buffer[..., : rows.stop - rows.start]
        integrals[:] = a0[..., None]
        for i in range(m):
            for d in range(dim):
                integrals[i + 1 :] += coef[i, d, i + 1 :, :, None] * dM[i, rows, d]
        finite = np.isfinite(integrals).all(axis=(0, 1))
        integrals[..., ~finite] = 0.0
        exits = np.where(finite, m + 1, 0)
        for j in range(m + 1):
            yield j, rows, integrals[j], exits


def _fill_prices(D, integrals, n_steps: int) -> int:
    """Fill D from the (j, rows, I, exits) of ``integrals``; returns how many paths exited."""
    n_exited = 0
    for j, rows, step, exits in integrals:
        if j == 0:  # a new block of rows
            disc = np.zeros(rows.stop - rows.start)
        _discount(step, disc, D[rows, j])
        if j == n_steps:
            n_exited += int((exits <= n_steps).sum())
    return n_exited


def bond_prices(
    model: HjmModel, u0, maturities, cfg: SolverConfig, rows: slice
) -> tuple[np.ndarray, int, np.ndarray] | None:
    """The bond check's prices of the paths ``rows``, a contiguous slice of them.

    Returns (D, n_localized, n_bad): D[p, j, k] is the discounted bond of
    maturity k at t_j of the p-th path of ``rows``, n_localized how many of
    those paths localized, and n_bad, of shape (n_steps,), how many exited
    on a non-finite curve at each step, which ``bond_join`` warns about.

    Every integral is a weight vector applied to u(t_j), built once per
    check.  The route is chosen over every path, from the whole noise
    table, and one loop discounts its integrals into D:

    * the discrete mild form (``solver._mild_readouts``), for a state-free
      volatility whose mild form costs no more than stepping: no curve is
      stepped, and D differs from stepping's only by rounding;
    * else Euler on the nodes the integrals reach (``solver._readout_cone``),
      bitwise the full grid's prices;
    * else, or when ``solver._no_path_localizes`` cannot certify that no
      path localizes, as both shortcuts need, Euler on the full grid.

    A shortcut on which a path exits anyway (a non-finite mild integral, an
    exit on the cut grid) falls back to the full grid for every path, or
    gives None for a part, which cannot see the other parts' paths.  Each
    row of D depends only on that row's noise, so the rows of any split are
    bitwise those of pricing every path at once.
    """
    _require_paths(cfg.n_paths, "bond")
    grid = model.grid
    maturities = _bond_maturities(maturities, grid, cfg.horizon)
    # each step's node weights of the bond integrals and the one-period
    # integral, as partial_integral builds them, once for the check
    weights = np.array([
        [_partial_weights(grid, float(T - t_j)) for T in maturities]
        + [_partial_weights(grid, float(cfg.dt))]
        for t_j in cfg.times
    ])
    u0 = _initial_curve(u0, cfg, grid)
    dM = increment_table(model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, cfg.seed)
    part = dM[:, rows]
    own = replace(cfg, n_paths=part.shape[1])
    D = np.empty((own.n_paths, cfg.n_steps + 1, len(maturities)))
    n_bad = np.zeros(cfg.n_steps, dtype=int)
    mild = model.vol.state_free and (
        model.driver.dim * weights.shape[1] * cfg.n_steps <= 2 * grid.n_nodes
    )
    cone = None if mild else _readout_cone(model, u0, cfg, weights)
    gain = grid.sup_gain if cone is None else max(grid.sup_gain, cone[0].grid.sup_gain)
    if (mild or cone is not None) and _no_path_localizes(model, u0, cfg, dM, gain):
        if mild:
            route = _mild_integrals(_mild_readouts(model, u0, cfg, weights), part, grid.n_nodes)
        else:
            route = _stepped_integrals(*cone, own, weights, part, n_bad)
        if _fill_prices(D, route, cfg.n_steps) == 0:
            return D, 0, n_bad
        if own.n_paths < cfg.n_paths:
            return None
        n_bad[:] = 0  # the full grid counts its own exits
    full = _stepped_integrals(model, u0, own, weights, part, n_bad)
    return D, _fill_prices(D, full, cfg.n_steps), n_bad


def bond_join(model: HjmModel, u0, maturities, cfg: SolverConfig, parts) -> list[CheckReport]:
    """The bond check's reports from the ``bond_prices`` of contiguous rows
    that cover every path, in row order.

    The parts' prices D are concatenated and their counts summed, or, when
    any part is None, every path is priced at once.  The non-finite exits
    are warned about once per step, with the totals over every path.  Two
    rows per maturity, the mean slope of D against time and the mean of
    D(horizon) - D(0), each against 0 within three standard errors.  Every
    row fails when more than ``_LOCALIZED_CAP`` of the paths localized.
    """
    if any(part is None for part in parts):
        parts = [bond_prices(model, u0, maturities, cfg, slice(None))]
    D = parts[0][0] if len(parts) == 1 else np.concatenate([D for D, _, _ in parts])
    n_localized = sum(n for _, n, _ in parts)
    _warn_nonfinite(sum(n_bad for _, _, n_bad in parts))
    maturities = _bond_maturities(maturities, model.grid, cfg.horizon)
    centered_t = cfg.times - cfg.times.mean()
    slope_weights = centered_t / np.square(centered_t).sum()
    reports = []
    for im, T in enumerate(maturities):
        d = D[:, :, im]
        slopes = d @ slope_weights
        slope = float(slopes.mean())
        se_slope = float(slopes.std(ddof=1) / math.sqrt(cfg.n_paths))
        endpoint = d[:, -1] - d[:, 0]
        diff = float(endpoint.mean())
        se_diff = float(endpoint.std(ddof=1) / math.sqrt(cfg.n_paths))
        config = {
            "maturity": T,
            "drift_sign": model.drift_sign,
            "n_steps": cfg.n_steps,
            "n_paths": cfg.n_paths,
            "seed": cfg.seed,
            "n_localized": n_localized,
        }
        reports.append(
            identity_report(
                f"bond_slope_T{T:g}", slope, 0.0,
                n_samples=cfg.n_paths, standard_error=se_slope, config=config,
            )
        )
        reports.append(
            identity_report(
                f"bond_endpoint_T{T:g}", diff, 0.0,
                n_samples=cfg.n_paths, standard_error=se_diff, config=config,
            )
        )
    if n_localized <= _LOCALIZED_CAP * cfg.n_paths:
        return reports
    return [replace(r, passed=False) for r in reports]


def verify_martingale_bonds(
    model: HjmModel,
    u0,
    maturities,
    cfg: SolverConfig,
) -> list[CheckReport]:
    """Drift test for discounted zero-coupon bonds along simulated paths.

    For each maturity the discounted price D(t) = exp(-int_0^t short) *
    exp(-int_0^{T-t} u(t, y) dy) is tracked along Euler paths; the check
    requires the per-path regression slope of D against time, and the
    endpoint difference D(horizon) - D(0), to vanish within three standard
    errors.  With the wrong drift sign the slope is of the order of twice
    the drift magnitude and the test must fail.  Localized paths bias the
    slope, so every row fails when more than ``_LOCALIZED_CAP`` of the paths
    exited.  The standard errors need at least 2 paths.

    The bank account is discretized by rolling one-period bonds,
    exp(int_0^dt u(t_j, y) dy) per step, a consistent quadrature of the
    short-rate integral that makes D exactly constant when the volatility
    vanishes.

    The prices come from ``bond_prices``, which describes their routes; the
    check is the ``bond_join`` of one part that covers every path.
    """
    whole = bond_prices(model, u0, maturities, cfg, slice(None))
    return bond_join(model, u0, maturities, cfg, [whole])


# ---------------------------------------------------------------------------
# Cumulant derivative checks
# ---------------------------------------------------------------------------


def _random_ball_points(
    dim: int, radius: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    z = rng.normal(size=(n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (radius * rng.uniform(0.1, 1.0, size=(n, 1)))


def verify_cumulant_derivatives(
    model: CumulantModel, n_points: int = 100, seed: int = 0
) -> list[CheckReport]:
    """Finite-difference agreement for the cumulant gradient and Hessian.

    Also reports the empirical Lipschitz constant of the Hessian over random
    pairs at full and halved sampling radius (it must stay finite and of the
    same size under halving).
    """
    rng = np.random.default_rng(seed)
    d = model.driver.dim
    r = 0.9 * model.r_ball
    pts = _random_ball_points(d, r, n_points, rng)
    h_grad, h_hess = 1e-5, 1e-4

    worst_grad = 0.0
    worst_hess = 0.0
    for z in pts:
        g = cumulant_grad(model, z)
        diag = hessian_diag(model, z)
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1.0
            fd = (cumulant(model, z + h_grad * e) - cumulant(model, z - h_grad * e)) / (
                2 * h_grad
            )
            worst_grad = max(worst_grad, abs(fd - g[k]) / (1.0 + abs(g[k])))
            fd2 = (
                cumulant(model, z + h_hess * e)
                - 2.0 * cumulant(model, z)
                + cumulant(model, z - h_hess * e)
            ) / h_hess**2
            worst_hess = max(worst_hess, abs(fd2 - diag[k]) / (1.0 + abs(diag[k])))

    reports = [
        inequality_report(
            "cumulant_grad_fd", worst_grad, 1e-6, n_samples=n_points,
            config={"fd_step": h_grad, "seed": seed},
        ),
        inequality_report(
            "cumulant_hess_fd", worst_hess, 1e-6, n_samples=n_points,
            config={"fd_step": h_hess, "seed": seed},
        ),
    ]

    lip = {}
    for label, radius in (("full", r), ("half", 0.5 * r)):
        a = _random_ball_points(d, radius, n_points, rng)
        b = _random_ball_points(d, radius, n_points, rng)
        num = np.abs(hessian_diag(model, a) - hessian_diag(model, b)).max(axis=-1)
        den = np.linalg.norm(a - b, axis=-1)
        keep = den > 1e-12
        lip[label] = float((num[keep] / den[keep]).max())
    reports.append(
        stability_report(
            "cumulant_hess_lipschitz", lip, factor_cap=3.0, config={"seed": seed}
        )
    )
    return reports


def verify_exponential_moment(
    driver: LevyDriver, n_draws: int = 200_000, n_dirs: int = 16, seed: int = 0
) -> CheckReport:
    """Sampled finiteness of E e^{|<z, M(1)>|} on the enlarged ball.

    Evaluated at directions on the sphere of radius just inside
    delta * r_ball; only finiteness is asserted (no explicit constant is
    available).
    """
    rng = np.random.default_rng(seed)
    d = driver.dim
    dirs = rng.normal(size=(n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs *= 0.99 * driver.delta * driver.r_ball
    draws = sample_increment_array(driver, 1.0, n_draws, step_generator(seed, 0))
    worst = 0.0
    for z in dirs:
        worst = max(worst, float(np.exp(np.abs(draws @ z)).mean()))
    return inequality_report(
        "exponential_moment_finite",
        worst,
        math.inf,
        n_samples=n_draws,
        config={"n_dirs": n_dirs, "radius": 0.99 * driver.delta * driver.r_ball},
    )


# ---------------------------------------------------------------------------
# CSV row schema
# ---------------------------------------------------------------------------


CHECKS_CSV_COLUMNS = [
    "name",
    "mode",
    "lhs",
    "rhs",
    "ratio",
    "n_samples",
    "standard_error",
    "tolerance",
    "passed",
    "config",
]


def report_row(report: CheckReport) -> list[str]:
    return [
        report.name,
        report.mode,
        repr(report.lhs),
        repr(report.rhs),
        repr(report.ratio),
        str(report.n_samples),
        repr(report.standard_error),
        repr(report.tolerance),
        str(int(report.passed)),
        json.dumps(report.config, sort_keys=True),
    ]
