"""Model layer: volatility specification, noise operator, no-arbitrage drift.

The curve dynamics in transport form are

    du(t) = [d/dx u(t) + f(t, u(t))] dt + B(t, u(t)) dM(t),

where ``[B(t,u) phi](x) = <sigma(t, x, u(x)), phi>`` multiplies the noise and
the drift is pinned to the volatility by absence of arbitrage.  Writing
S(x) = int_0^x sigma(t, y, u(y)) dy and psi for the driver cumulant, the raw
drift functional is

    g(x) = <sigma(t, x, u(x)), Dpsi(-S(x))>,

and the discounted-bond martingale condition int_0^x f = psi(-S(x)) forces
f = -g (``drift_sign = -1``; for a Brownian driver this is the classical
sigma * R * int sigma).  Both signs are runnable so the martingale check in
:mod:`levyhjm.checks` can act as the arbiter.

Volatilities are declared, not inferred: a spec carries sigma and its
partial derivatives (closed form, or finite-difference fallbacks where none
is declared), a dominating curve ``beta_curve`` for the u-Lipschitz bound of
sigma_x, a bounding sequence ``gamma_seq`` for |sigma_u| + |sigma_uu|, and a
budget for the running integral |S(x)|.  ``check_hypotheses`` audits these
declarations by sampling; audits can falsify, not certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curvespace import (
    WeightGrid,
    _slope_energy,
    _values,
    cumulative_integral,
    norm_H,
    norm_frak_H,
    random_harmonic_family,
    rescale_to_norm,
)
from .levy import CumulantModel, LevyDriver, _ball_scale, _component_value, moment_mp

__all__ = [
    "BallViolationError",
    "VolatilitySpec",
    "HjmModel",
    "constant_volatility",
    "exp_decay_volatility",
    "tanh_volatility",
    "VOLATILITY_BUILTINS",
    "volatility_from_config",
    "apply_B",
    "hs_norm_B",
    "hjm_drift",
    "drift_functional",
    "running_volatility_integral",
    "HypothesisCheck",
    "HypothesisReport",
    "check_hypotheses",
    "LipschitzEstimate",
    "lipschitz_estimate",
]

_FD_STEP = 1e-6  # relative finite-difference step for derivative fallbacks


class BallViolationError(RuntimeError):
    """Running volatility integral left the cumulant ball."""


@dataclass(frozen=True)
class VolatilitySpec:
    """Pointwise volatility sigma(t, x, u) with declared regularity data.

    Callables take (t, x, u) with x and u broadcastable arrays and return an
    array of shape broadcast(x, u).shape + (dim,).  ``beta_curve`` maps x to
    the (dim,) dominating values of the u-Lipschitz constant of sigma_x, and
    ``gamma_seq`` bounds |sigma_u| + |sigma_uu| componentwise.  ``r_budget``
    bounds |int_0^x sigma| over the grid and admissible curves.
    """

    name: str
    dim: int
    sigma: Callable
    sigma_x: Callable | None = None
    sigma_u: Callable | None = None
    sigma_uu: Callable | None = None
    beta_curve: Callable | None = None
    gamma_seq: np.ndarray | None = None
    r_budget: float = math.inf
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gamma_seq is not None and not np.all(np.asarray(self.gamma_seq, float) >= 0):
            raise ValueError(f"gamma_seq must be nonnegative, got {self.gamma_seq}")

    @property
    def state_free(self) -> bool:
        """``gamma_seq`` declared all zero: sigma ignores u (audited by check_hypotheses)."""
        return self.gamma_seq is not None and not np.any(self.gamma_seq)

    def sigma_at(self, t: float, x, u) -> np.ndarray:
        out = np.asarray(self.sigma(t, np.asarray(x, float), np.asarray(u, float)), float)
        if out.shape[-1] != self.dim:
            raise ValueError(
                f"volatility returned {out.shape[-1]} components, declared dim {self.dim}"
            )
        return out

    def sigma_u_at(self, t: float, x, u) -> np.ndarray:
        if self.sigma_u is not None:
            return np.asarray(self.sigma_u(t, x, u), float)
        return self._fd(t, x, u, which="u", order=1)

    def sigma_uu_at(self, t: float, x, u) -> np.ndarray:
        if self.sigma_uu is not None:
            return np.asarray(self.sigma_uu(t, x, u), float)
        return self._fd(t, x, u, which="u", order=2)

    def sigma_x_at(self, t: float, x, u) -> np.ndarray:
        if self.sigma_x is not None:
            return np.asarray(self.sigma_x(t, x, u), float)
        return self._fd(t, x, u, which="x", order=1)

    def _fd(self, t: float, x, u, which: str, order: int) -> np.ndarray:
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        if which == "u":
            h = _FD_STEP * (1.0 + np.abs(u))
            up, dn = u + h, u - h
            if order == 1:
                return (self.sigma_at(t, x, up) - self.sigma_at(t, x, dn)) / (
                    2.0 * h[..., None]
                )
            mid = self.sigma_at(t, x, u)
            return (self.sigma_at(t, x, up) - 2.0 * mid + self.sigma_at(t, x, dn)) / (
                np.square(h)[..., None]
            )
        h = _FD_STEP * (1.0 + np.abs(x))
        return (self.sigma_at(t, x + h, u) - self.sigma_at(t, x - h, u)) / (
            2.0 * h[..., None]
        )


def constant_volatility(levels) -> VolatilitySpec:
    """sigma^k(t, x, u) = levels_k, independent of everything."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if not np.all(np.isfinite(levels)):
        raise ValueError(f"levels must be finite, got {levels.tolist()}")
    d = levels.size
    zeros = lambda t, x, u: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(u)) + (d,))
    return VolatilitySpec(
        name="constant_vector",
        dim=d,
        sigma=lambda t, x, u: np.broadcast_to(
            levels, np.broadcast_shapes(np.shape(x), np.shape(u)) + (d,)
        ).copy(),
        sigma_x=zeros,
        sigma_u=zeros,
        sigma_uu=zeros,
        beta_curve=lambda x: np.zeros(np.shape(x) + (d,)),
        gamma_seq=np.zeros(d),
        r_budget=math.inf,  # grows with x; finite only after grid truncation
        params={"levels": levels.tolist()},
    )


def _envelope_params(scales, decays) -> tuple[np.ndarray, np.ndarray]:
    """Finite ``scales`` and positive finite ``decays`` of one length, as arrays."""
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    decays = np.atleast_1d(np.asarray(decays, dtype=float))
    if scales.shape != decays.shape:
        raise ValueError("scales and decays must have matching length")
    if not np.all(np.isfinite(scales)):
        raise ValueError(f"scales must be finite, got {scales.tolist()}")
    if not np.all((0 < decays) & (decays < np.inf)):
        raise ValueError(f"decays must be positive and finite, got {decays.tolist()}")
    return scales, decays


def exp_decay_volatility(scales, decays) -> VolatilitySpec:
    """sigma^k(t, x, u) = scales_k * exp(-decays_k * x), u independent."""
    scales, decays = _envelope_params(scales, decays)
    d = scales.size

    def sig(t, x, u):
        x = np.asarray(x, float)
        shape = np.broadcast_shapes(x.shape, np.shape(u))
        base = scales * np.exp(-np.multiply.outer(x, decays))
        return np.broadcast_to(base, shape + (d,)).copy()

    def sig_x(t, x, u):
        x = np.asarray(x, float)
        shape = np.broadcast_shapes(x.shape, np.shape(u))
        base = -decays * scales * np.exp(-np.multiply.outer(x, decays))
        return np.broadcast_to(base, shape + (d,)).copy()

    zeros = lambda t, x, u: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(u)) + (d,))
    return VolatilitySpec(
        name="exp_decay",
        dim=d,
        sigma=sig,
        sigma_x=sig_x,
        sigma_u=zeros,
        sigma_uu=zeros,
        beta_curve=lambda x: np.zeros(np.shape(x) + (d,)),
        gamma_seq=np.zeros(d),
        r_budget=float(np.sqrt(np.square(scales / decays).sum())),
        params={"scales": scales.tolist(), "decays": decays.tolist()},
    )


# max of |2 sech^2(u) tanh(u)| over u, attained at u = asinh(1/sqrt(2))
_TANH_UU_MAX = 4.0 / (3.0 * math.sqrt(3.0))


def tanh_volatility(scales, decays) -> VolatilitySpec:
    """sigma^k(t, x, u) = scales_k * tanh(u) * exp(-decays_k * x).

    Bounded with bounded u-derivatives: |sigma_u| <= |scales_k|,
    |sigma_uu| <= 0.7698 |scales_k|, and sigma_x is u-Lipschitz with
    dominating curve decays_k * scales_k * exp(-decays_k x).
    """
    scales, decays = _envelope_params(scales, decays)
    d = scales.size

    def envelope(x):
        return scales * np.exp(-np.multiply.outer(np.asarray(x, float), decays))

    def sig(t, x, u):
        return np.tanh(np.asarray(u, float))[..., None] * envelope(x)

    def sig_x(t, x, u):
        return -decays * np.tanh(np.asarray(u, float))[..., None] * envelope(x)

    def sig_u(t, x, u):
        sech2 = 1.0 / np.square(np.cosh(np.asarray(u, float)))
        return sech2[..., None] * envelope(x)

    def sig_uu(t, x, u):
        u = np.asarray(u, float)
        sech2 = 1.0 / np.square(np.cosh(u))
        return (-2.0 * sech2 * np.tanh(u))[..., None] * envelope(x)

    return VolatilitySpec(
        name="tanh_bounded",
        dim=d,
        sigma=sig,
        sigma_x=sig_x,
        sigma_u=sig_u,
        sigma_uu=sig_uu,
        beta_curve=lambda x: decays * envelope(x),
        gamma_seq=(1.0 + _TANH_UU_MAX) * np.abs(scales),
        r_budget=float(np.sqrt(np.square(scales / decays).sum())),
        params={"scales": scales.tolist(), "decays": decays.tolist()},
    )


VOLATILITY_BUILTINS = {
    "constant_vector": constant_volatility,
    "exp_decay": exp_decay_volatility,
    "tanh_bounded": tanh_volatility,
}


def volatility_from_config(name: str, params: dict) -> VolatilitySpec:
    """Build a named builtin volatility; arbitrary callables are rejected."""
    if name not in VOLATILITY_BUILTINS:
        raise ValueError(
            f"unknown volatility {name!r}; builtins: {sorted(VOLATILITY_BUILTINS)}"
        )
    return VOLATILITY_BUILTINS[name](**params)


@dataclass(frozen=True)
class HjmModel:
    """Grid + driver + cumulant + volatility, with the drift sign declared."""

    grid: WeightGrid
    driver: LevyDriver
    cumulant: CumulantModel
    vol: VolatilitySpec
    drift_sign: float = -1.0

    def __post_init__(self) -> None:
        if self.vol.dim != self.driver.dim:
            raise ValueError(
                f"volatility has {self.vol.dim} components, driver has {self.driver.dim}"
            )
        if self.drift_sign not in (-1.0, 1.0):
            raise ValueError(f"drift_sign must be +1 or -1, got {self.drift_sign}")
        if self.cumulant.driver is not self.driver:
            raise ValueError("cumulant model must wrap the same driver")
        if math.isfinite(self.vol.r_budget) and self.vol.r_budget > self.driver.r_ball:
            raise ValueError(
                f"volatility integral budget {self.vol.r_budget:g} exceeds the "
                f"cumulant ball radius {self.driver.r_ball:g}"
            )


def apply_B(model: HjmModel, t: float, u, phi) -> np.ndarray:
    """Noise operator: curve x -> <sigma(t, x, u(x)), phi>; linear in phi."""
    u_vals = _values(u)
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1] != model.driver.dim:
        raise ValueError(
            f"phi has {phi.shape[-1]} components, driver has {model.driver.dim}"
        )
    sig = model.vol.sigma_at(t, model.grid.nodes, u_vals)
    return np.einsum("...nd,...d->...n", sig, phi)


def hs_norm_B(model: HjmModel, t: float, u) -> np.ndarray | float:
    """Hilbert-Schmidt size of the noise operator on the grid.

    Sum over components of the weighted derivative integral of the composed
    curves x -> sigma^k(t, x, u(x)); the derivative is taken numerically on
    the composite, matching the seminorm convention of the operator bound.
    """
    u_vals = _values(u)
    sig = model.vol.sigma_at(t, model.grid.nodes, u_vals)
    out = np.sqrt(_slope_energy(sig, model.grid, axis=-2))
    return float(out) if np.ndim(out) == 0 else out


def running_volatility_integral(model: HjmModel, sig: np.ndarray) -> np.ndarray:
    """S(x_i) = int_0^{x_i} sigma dy by cumulative trapezoid, shape (..., n, d)."""
    return cumulative_integral(sig, model.grid, axis=-2)


def drift_functional(model: HjmModel, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift curves from vector-curve values nu of shape (..., n, d).

    Returns (drift, ok) where drift has shape (..., n) and ok flags the batch
    entries whose running integral stayed inside the cumulant ball.  Entries
    with ok == False contain clamped-evaluation values and must be discarded
    by the caller (path localization).

    After the running integral, each step runs on one component's (..., n)
    slab of -S at a time: the squared ball norm summed over k in index
    order, the clamp of the vectors beyond the ball, and the gradient
    component times sigma^k, accumulated in k order.
    """
    nu = np.asarray(nu, dtype=float)
    cumulant = model.cumulant
    zeta = running_volatility_integral(model, nu)
    np.negative(zeta, out=zeta)
    slabs = [zeta[..., k] for k in range(nu.shape[-1])]
    sq = np.square(slabs[0])
    for z_k in slabs[1:]:
        sq += np.square(z_k)
    norms = np.sqrt(sq, out=sq)
    ok = norms.max(axis=-1) <= model.driver.r_ball * (1.0 + 1e-9)
    scale = _ball_scale(cumulant, norms)
    if scale is not None:
        for z_k in slabs:
            z_k *= scale
    terms = (
        _component_value(cumulant, k, z_k, order=1) * nu[..., k]
        for k, z_k in enumerate(slabs)
    )
    g = next(terms)
    for term in terms:
        g += term
    g *= model.drift_sign
    return g, ok


def hjm_drift(model: HjmModel, t: float, u) -> np.ndarray:
    """No-arbitrage drift curve f(t, x) along u; raises if the ball is left.

    f(x) = drift_sign * <sigma(t, x, u(x)), Dpsi(-S(x))> with S the running
    volatility integral.  For a pure Brownian driver and drift_sign = -1 this
    is the classical sigma * R * int_0^x sigma.
    """
    u_vals = _values(u)
    sig = model.vol.sigma_at(t, model.grid.nodes, u_vals)
    f, ok = drift_functional(model, sig)
    if not np.all(ok):
        raise BallViolationError(
            "running volatility integral left the cumulant ball of radius "
            f"{model.driver.r_ball:g}; shrink the volatility or enlarge the ball"
        )
    return f


# ---------------------------------------------------------------------------
# Hypothesis audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst_margin: float
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_hypotheses(
    model: HjmModel, sample_budget: int = 2000, seed: int = 0
) -> HypothesisReport:
    """Sampled audit of the declared volatility regularity.

    Randomized (t, x, u, v) samples probe: smoothness of the declared
    derivatives against finite differences; the u-Lipschitz bound of sigma_x
    by beta_curve; the gamma_seq bound on |sigma_u| + |sigma_uu|; finiteness
    of the zero-level norm |sigma(t, ., 0)|; and finiteness of the driver
    moment factors up to p_max.  Failures come back as report entries.
    """
    rng = np.random.default_rng(seed)
    vol = model.vol
    grid = model.grid
    n = sample_budget
    ts = rng.uniform(0.0, 10.0, size=n)
    xs = rng.uniform(0.0, grid.x_max, size=n)
    # u samples span moderate and large values to expose unbounded derivatives
    scales = np.array([0.05, 0.5, 5.0, 50.0])
    us = rng.normal(size=n) * rng.choice(scales, size=n)
    vs = rng.normal(size=n) * rng.choice(scales, size=n)

    checks = []

    # (i) declared derivatives agree with finite differences
    worst = 0.0
    detail = "closed-form derivatives"
    if vol.sigma_u is None or vol.sigma_x is None:
        detail = "finite-difference fallback in use; smoothness asserted, not checked"
        passed = True
    else:
        for t, x, u in zip(ts[:200], xs[:200], us[:200]):
            h = 1e-5 * (1.0 + abs(u))
            fd_u = (vol.sigma_at(t, x, u + h) - vol.sigma_at(t, x, u - h)) / (2 * h)
            err = np.abs(fd_u - vol.sigma_u_at(t, x, u)).max()
            worst = max(worst, float(err / (1.0 + np.abs(fd_u).max())))
            hx = 1e-5 * (1.0 + abs(x))
            fd_x = (vol.sigma_at(t, x + hx, u) - vol.sigma_at(t, x - hx, u)) / (2 * hx)
            errx = np.abs(fd_x - vol.sigma_x_at(t, x, u)).max()
            worst = max(worst, float(errx / (1.0 + np.abs(fd_x).max())))
        passed = worst <= 1e-6
    checks.append(HypothesisCheck("smoothness", passed, worst, detail))

    # (ii) |sigma_x(t,x,u) - sigma_x(t,x,v)| <= beta(x) |u - v|
    if vol.beta_curve is None:
        checks.append(
            HypothesisCheck("sigma_x_lipschitz", False, math.inf, "no beta_curve declared")
        )
    else:
        lhs = np.abs(
            vol.sigma_x_at(0.0, xs, us) - vol.sigma_x_at(0.0, xs, vs)
        )
        rhs = np.abs(np.asarray(vol.beta_curve(xs), float)) * np.abs(us - vs)[:, None]
        margin = float((lhs - rhs).max())
        checks.append(
            HypothesisCheck("sigma_x_lipschitz", margin <= 1e-10, margin)
        )

    # (iii) |sigma_u| + |sigma_uu| <= gamma_seq
    if vol.gamma_seq is None:
        checks.append(
            HypothesisCheck("u_derivatives_bounded", False, math.inf, "no gamma_seq declared")
        )
    else:
        total = np.abs(vol.sigma_u_at(0.0, xs, us)) + np.abs(vol.sigma_uu_at(0.0, xs, us))
        margin = float((total - np.asarray(vol.gamma_seq, float)).max())
        checks.append(
            HypothesisCheck("u_derivatives_bounded", margin <= 1e-8, margin)
        )

    # (iv) |sigma(t, ., 0)| finite in the vector-curve norm, stable over t
    vals = []
    for t in np.linspace(0.0, 10.0, 5):
        sig0 = vol.sigma_at(t, grid.nodes, np.zeros(grid.n_nodes))
        vals.append(norm_frak_H(sig0, grid))
    worst = float(np.max(vals))
    checks.append(
        HypothesisCheck("zero_level_bounded", math.isfinite(worst), worst)
    )

    # moment condition of the driver up to the declared order
    try:
        worst = max(
            moment_mp(model.driver, p) for p in (2.0, model.driver.p_max)
        )
        ok = math.isfinite(worst)
    except ValueError:
        worst, ok = math.inf, False
    checks.append(HypothesisCheck("driver_moments", ok, worst))

    return HypothesisReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# Local Lipschitz estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzEstimate:
    which: str
    radius: float
    constant: float          # max empirical quotient over sampled pairs
    normalized: float        # constant / (1 + R)  for B,  / (1 + R^2)  for g
    pairs_used: int


def _hs_diff(model: HjmModel, t: float, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt distance of the noise operators along curve batches."""
    sig_u = model.vol.sigma_at(t, model.grid.nodes, U)
    sig_v = model.vol.sigma_at(t, model.grid.nodes, V)
    return np.sqrt(_slope_energy(sig_u - sig_v, model.grid, axis=-2))


def _curve_pairs_in_ball(
    grid: WeightGrid, radius: float, n_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of curves with norm <= radius, mixing scale- and slope-dominated shapes.

    Half of the curves carry their norm in large values, the other half in
    fast oscillation with values of order one, which is where u-derivative
    terms of the noise operator bite.
    """
    half = max(n_pairs // 2, 1)
    smooth = random_harmonic_family(grid, half, rng, max_frequency=2.0).sample(grid)
    smooth = rescale_to_norm(smooth, grid, radius * rng.uniform(0.4, 1.0, half))
    osc = random_harmonic_family(
        grid, n_pairs - half, rng, max_frequency=max(3.0, 1.5 * radius), offset_scale=0.3
    ).sample(grid)
    osc = rescale_to_norm(osc, grid, radius * rng.uniform(0.5, 1.0, n_pairs - half))
    base = np.concatenate([smooth, osc], axis=0)
    # partners: small perturbations and independent draws, alternating
    bumps = random_harmonic_family(grid, n_pairs, rng, max_frequency=2.5).sample(grid)
    bumps = rescale_to_norm(bumps, grid, 1.0)
    eps = rng.choice([1e-3, 1e-2, 0.1 * radius], size=n_pairs)
    partner = base + bumps * eps[:, None]
    swap = rng.random(n_pairs) < 0.3
    partner[swap] = np.roll(base, 1, axis=0)[swap]
    return base, partner


def _vector_pairs_in_ball(
    model: HjmModel, radius: float, n_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vector-curve pairs with frak-norm <= radius and running integral inside the ball.

    Curves are exact derivatives of smooth potentials, so the running
    integral telescopes to a difference of potential values; scaling the
    oscillation frequency with radius keeps that difference small while the
    frak-norm grows.
    """
    grid = model.grid
    d = model.driver.dim
    r_safe = 0.8 * model.driver.r_ball
    # frequency high enough that rescaling to the target norm keeps the
    # potential (hence the running integral) within the safe radius
    freq = max(3.0, 2.0 * math.sqrt(max(radius, 1.0) / r_safe))

    def draw(n: int) -> np.ndarray:
        fam = random_harmonic_family(
            grid, n * d, rng, n_modes=3, max_frequency=freq, offset_scale=0.0
        )
        nu = fam.derivative_at(grid.nodes).reshape(n, d, grid.n_nodes).transpose(0, 2, 1)
        nu = rescale_to_norm(nu, grid, radius * rng.uniform(0.4, 1.0, n), norm="frak")
        S = cumulative_integral(nu, grid, axis=-2)
        s_max = np.sqrt(np.square(S).sum(axis=-1)).max(axis=-1)
        over = s_max > r_safe
        if np.any(over):
            nu[over] *= (r_safe / s_max[over])[:, None, None]
        return nu

    base = draw(n_pairs)
    partner = draw(n_pairs)
    mix = rng.random(n_pairs) < 0.5
    eps = rng.choice([1e-3, 1e-2], size=n_pairs)
    partner[mix] = base[mix] + (partner[mix] - base[mix]) * eps[mix, None, None]
    return base, partner


def lipschitz_estimate(
    model: HjmModel,
    which: str,
    radius: float,
    n_pairs: int = 200,
    seed: int = 0,
) -> LipschitzEstimate:
    """Empirical local Lipschitz quotient of the noise operator or the drift.

    ``which='B'``: max of |B(t,u) - B(t,v)|_HS / |u - v|_H over curve pairs
    in the radius-R ball, normalized by (1 + R).  ``which='g'``: max of
    |g(nu) - g(rho)|_H / |nu - rho|_frak over vector curves in the radius-R
    ball of the vector-curve norm whose running integrals respect the
    cumulant ball, normalized by (1 + R^2).  Degenerate pairs are filtered.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    rng = np.random.default_rng(seed)
    grid = model.grid
    if which == "B":
        U, V = _curve_pairs_in_ball(grid, radius, n_pairs, rng)
        num = _hs_diff(model, 0.0, U, V)
        den = norm_H(U - V, grid)
        norm_factor = 1.0 + radius
    elif which == "g":
        NU, RHO = _vector_pairs_in_ball(model, radius, n_pairs, rng)
        # |g(nu) - g(rho)|_H does not depend on the drift sign: negation is exact
        g_nu, ok1 = drift_functional(model, NU)
        g_rho, ok2 = drift_functional(model, RHO)
        keep = ok1 & ok2
        num = norm_H(g_nu - g_rho, grid)[keep]
        den = norm_frak_H(NU - RHO, grid)[keep]
        norm_factor = 1.0 + radius**2
    else:
        raise ValueError(f"which must be 'B' or 'g', got {which!r}")
    valid = den > 1e-12
    num, den = num[valid], den[valid]
    if num.size == 0:
        raise ValueError("all sampled pairs were degenerate")
    quot = float((num / den).max())
    return LipschitzEstimate(
        which=which,
        radius=radius,
        constant=quot,
        normalized=quot / norm_factor,
        pairs_used=int(num.size),
    )
