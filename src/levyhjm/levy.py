"""Driving noise: independent scalar Levy martingales and their cumulant.

The noise is M(t) = (xi^1(t), ..., xi^d(t)) with independent components, each
one of

* ``wiener``            Brownian motion with variance rate r,
* ``gamma``             compensated Gamma process, jump density c x^{-1} e^{-rate x}
                        on x > 0, compensator c/rate per unit time,
* ``compound_poisson``  compensated compound Poisson with Gaussian N(0, s^2)
                        jumps at a given intensity.

Every component is a mean-zero martingale with stationary independent
increments.  The cumulant (log-Laplace exponent) of M(1) is

    psi(z) = sum_k psi_k(z_k),
    psi_k(z) = r z^2 / 2 + int (e^{zx} - 1 - zx) m_k(dx),

so psi(0) = 0 and Dpsi(0) = 0; the Gaussian part enters the gradient as r z
and the Hessian as the constant r.  Evaluation is restricted to the ball
|z| <= r_ball declared on the driver; anything outside raises, never
extrapolates.  Closed forms are used for all three kinds, and a quadrature
mode (Gauss-Legendre against the jump density) is available as an
independent cross check for the jump components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "DriverConfigError",
    "CumulantDomainError",
    "WienerComponent",
    "GammaComponent",
    "CompoundPoissonComponent",
    "LevyComponent",
    "LevyDriver",
    "CumulantModel",
    "CovarianceModel",
    "build_driver",
    "gamma_geometric_family",
    "cumulant",
    "cumulant_grad",
    "cumulant_hess",
    "covariance",
    "moment_mp",
    "sample_increment",
    "sample_increment_array",
    "increment_table",
    "step_generator",
    "empirical_mgf",
]


class DriverConfigError(ValueError):
    """Driver construction rejected (summability or moment condition)."""


class CumulantDomainError(ValueError):
    """Cumulant evaluation requested outside the declared ball."""


@dataclass(frozen=True)
class WienerComponent:
    """Brownian component with variance rate ``variance``."""

    variance: float

    kind = "wiener"

    def validate(self) -> None:
        if self.variance < 0:
            raise DriverConfigError(f"wiener variance must be >= 0, got {self.variance}")

    @property
    def gaussian_variance(self) -> float:
        return self.variance

    @property
    def compensator_drift(self) -> float:
        return 0.0

    @property
    def mgf_bound(self) -> float:
        return math.inf

    def levy_moment(self, p: float) -> float:
        return 0.0

    def cumulant(self, z):
        return 0.5 * self.variance * np.square(z)

    def cumulant_grad(self, z):
        return self.variance * np.asarray(z, dtype=float)

    def cumulant_hess(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.variance)

    def sample(self, rng: np.random.Generator, dt: float, size) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(self.variance * dt), size=size)

    def params(self) -> dict:
        return {"kind": self.kind, "variance": self.variance}


@dataclass(frozen=True)
class GammaComponent:
    """Compensated Gamma component, jump density c x^{-1} e^{-rate x} on x > 0."""

    c: float
    rate: float

    kind = "gamma"

    def validate(self) -> None:
        if self.c <= 0 or self.rate <= 0:
            raise DriverConfigError(
                f"gamma component needs c > 0 and rate > 0, got c={self.c}, rate={self.rate}"
            )

    @property
    def gaussian_variance(self) -> float:
        return 0.0

    @property
    def compensator_drift(self) -> float:
        # mean of the raw Gamma process per unit time, subtracted at source
        return self.c / self.rate

    @property
    def mgf_bound(self) -> float:
        return self.rate

    def levy_moment(self, p: float) -> float:
        """int x^p m(dx) = c Gamma(p) / rate^p."""
        return self.c * math.gamma(p) / self.rate**p

    def cumulant(self, z):
        z = np.asarray(z, dtype=float)
        return -self.c * np.log1p(-z / self.rate) - self.c * z / self.rate

    def cumulant_grad(self, z):
        z = np.asarray(z, dtype=float)
        return self.c / (self.rate - z) - self.c / self.rate

    def cumulant_hess(self, z):
        z = np.asarray(z, dtype=float)
        return self.c / np.square(self.rate - z)

    def levy_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            d = np.where(x > 0, self.c / np.where(x > 0, x, 1.0) * np.exp(-self.rate * x), 0.0)
        return d

    def quad_interval(self, z_max: float) -> tuple[float, float]:
        # integrands carry e^{z x}; the slowest tail decay is rate - z_max
        gap = max(self.rate - min(z_max, 0.999 * self.rate), 1e-12)
        return (0.0, max(45.0 / self.rate, 35.0 / gap))

    def sample(self, rng: np.random.Generator, dt: float, size) -> np.ndarray:
        raw = rng.gamma(shape=self.c * dt, scale=1.0 / self.rate, size=size)
        return raw - self.compensator_drift * dt

    def params(self) -> dict:
        return {"kind": self.kind, "c": self.c, "rate": self.rate}


@dataclass(frozen=True)
class CompoundPoissonComponent:
    """Compensated compound Poisson with mean-zero Gaussian jumps N(0, jump_std^2)."""

    intensity: float
    jump_std: float

    kind = "compound_poisson"

    def validate(self) -> None:
        if self.intensity <= 0 or self.jump_std <= 0:
            raise DriverConfigError(
                "compound_poisson component needs intensity > 0 and jump_std > 0, "
                f"got intensity={self.intensity}, jump_std={self.jump_std}"
            )

    @property
    def gaussian_variance(self) -> float:
        return 0.0

    @property
    def compensator_drift(self) -> float:
        return 0.0  # jumps are mean zero already

    @property
    def mgf_bound(self) -> float:
        return math.inf

    def levy_moment(self, p: float) -> float:
        """int |x|^p m(dx) = intensity * E|N(0, s^2)|^p."""
        s = self.jump_std
        abs_moment = s**p * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
        return self.intensity * abs_moment

    def cumulant(self, z):
        z = np.asarray(z, dtype=float)
        return self.intensity * np.expm1(0.5 * np.square(z * self.jump_std))

    def cumulant_grad(self, z):
        z = np.asarray(z, dtype=float)
        s2 = self.jump_std**2
        return self.intensity * z * s2 * np.exp(0.5 * np.square(z) * s2)

    def cumulant_hess(self, z):
        z = np.asarray(z, dtype=float)
        s2 = self.jump_std**2
        return self.intensity * (s2 + np.square(z) * s2**2) * np.exp(0.5 * np.square(z) * s2)

    def levy_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = self.jump_std
        return self.intensity * np.exp(-0.5 * np.square(x / s)) / (s * math.sqrt(2 * math.pi))

    def quad_interval(self, z_max: float) -> tuple[float, float]:
        half = (12.0 + z_max * self.jump_std) * self.jump_std
        return (-half, half)

    def sample(self, rng: np.random.Generator, dt: float, size) -> np.ndarray:
        counts = rng.poisson(self.intensity * dt, size=size)
        # sum of N iid N(0, s^2) jumps given N = counts
        return rng.normal(0.0, 1.0, size=size) * self.jump_std * np.sqrt(counts)

    def params(self) -> dict:
        return {"kind": self.kind, "intensity": self.intensity, "jump_std": self.jump_std}


LevyComponent = WienerComponent | GammaComponent | CompoundPoissonComponent


@dataclass(frozen=True)
class LevyDriver:
    """Independent component list plus the cumulant domain declaration.

    ``r_ball`` is the evaluation radius of the cumulant and ``delta > 1`` the
    margin of the exponential-moment condition E e^{|<z, M(1)>|} < inf on the
    enlarged ball |z| <= delta * r_ball.  For gamma components this requires
    delta * r_ball strictly below the smallest jump decay rate.
    ``tail_second_moment`` records the neglected sum_k int x^2 m_k(dx) when
    the component list truncates a closed-form infinite family.
    """

    components: tuple[LevyComponent, ...]
    r_ball: float
    delta: float
    p_max: float = 4.0
    tail_second_moment: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.components)

    @cached_property
    def covariance_diag(self) -> np.ndarray:
        """Diagonal of the covariance of M(1): r_k + int x^2 m_k(dx)."""
        q = np.array(
            [c.gaussian_variance + c.levy_moment(2.0) for c in self.components]
        )
        q.flags.writeable = False
        return q

    @property
    def trace_Q(self) -> float:
        return float(self.covariance_diag.sum())

    @property
    def gaussian_trace(self) -> float:
        """Trace |R|_1 of the Brownian covariance."""
        return float(sum(c.gaussian_variance for c in self.components))

    @property
    def compensator_drifts(self) -> np.ndarray:
        return np.array([c.compensator_drift for c in self.components])


def build_driver(
    components: Sequence[LevyComponent],
    r_ball: float,
    delta: float,
    p_max: float = 4.0,
    tail_second_moment: float = 0.0,
) -> LevyDriver:
    """Validate and assemble a driver.

    Rejections name the failing condition: non-finite summability data
    (compensator drifts, Gaussian variances, truncated-jump mass) or an
    exponential-moment violation delta * r_ball >= min gamma rate.
    """
    comps = tuple(components)
    if not comps:
        raise DriverConfigError("driver needs at least one component")
    if r_ball <= 0:
        raise DriverConfigError(f"r_ball must be positive, got {r_ball}")
    if delta <= 1:
        raise DriverConfigError(f"delta must exceed 1, got {delta}")
    if p_max < 2:
        raise DriverConfigError(f"p_max must be at least 2, got {p_max}")
    for c in comps:
        c.validate()

    drifts = np.array([c.compensator_drift for c in comps])
    variances = np.array([c.gaussian_variance for c in comps])
    if not np.all(np.isfinite(drifts)):
        raise DriverConfigError("summability violated: compensator drifts not square summable")
    if not np.all(np.isfinite(variances)):
        raise DriverConfigError("summability violated: Gaussian variances not square summable")
    truncated_mass = sum(_truncated_jump_mass(c) for c in comps) + tail_second_moment
    if not math.isfinite(truncated_mass):
        raise DriverConfigError(
            "summability violated: sum_k int (1 ^ x^2) m_k(dx) diverges"
        )

    bound = min(c.mgf_bound for c in comps)
    if delta * r_ball >= bound:
        raise DriverConfigError(
            "exponential moment condition fails: delta * r_ball = "
            f"{delta * r_ball:g} must stay below the smallest jump decay rate {bound:g}"
        )
    moments = [c.levy_moment(p_max) for c in comps]
    if not all(math.isfinite(m) for m in moments):
        raise DriverConfigError(f"jump moments of order {p_max} are not finite")
    return LevyDriver(
        components=comps,
        r_ball=float(r_ball),
        delta=float(delta),
        p_max=float(p_max),
        tail_second_moment=float(tail_second_moment),
    )


def _truncated_jump_mass(comp: LevyComponent) -> float:
    """int (1 ^ x^2) m(dx), bounded above by the second jump moment."""
    if isinstance(comp, WienerComponent):
        return 0.0
    return comp.levy_moment(2.0)


def gamma_geometric_family(
    c0: float, ratio: float, rate: float, d_trunc: int
) -> tuple[list[GammaComponent], float]:
    """Truncate the infinite Gamma family c_k = c0 * ratio^(k-1), common rate.

    Returns the first ``d_trunc`` components and the neglected tail of
    sum_k int x^2 m_k(dx) = sum_{k > d} c_k / rate^2 (geometric, closed form),
    so the truncation error is quantified at construction.
    """
    if not (0 < ratio < 1):
        raise DriverConfigError(
            f"summability violated: geometric ratio must lie in (0, 1), got {ratio}"
        )
    if c0 <= 0 or rate <= 0:
        raise DriverConfigError("gamma family needs c0 > 0 and rate > 0")
    if d_trunc < 1:
        raise DriverConfigError("gamma family needs at least one component")
    comps = [GammaComponent(c=c0 * ratio**k, rate=rate) for k in range(d_trunc)]
    tail = c0 * ratio**d_trunc / (1.0 - ratio) / rate**2
    return comps, tail


# ---------------------------------------------------------------------------
# Cumulant model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceModel:
    Q: np.ndarray
    trace: float


@dataclass(frozen=True)
class CumulantModel:
    """Evaluator of psi, Dpsi, D^2psi on the ball |z| <= driver.r_ball.

    ``modes[k]`` is ``closed_form`` or ``quadrature`` per component; the
    quadrature mode integrates against the jump density with a 400-node
    Gauss-Legendre rule and is available for the jump components only.
    """

    driver: LevyDriver
    modes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        modes = self.modes or tuple("closed_form" for _ in self.driver.components)
        if len(modes) != self.driver.dim:
            raise ValueError("one evaluation mode per component required")
        for mode, comp in zip(modes, self.driver.components):
            if mode not in ("closed_form", "quadrature"):
                raise ValueError(f"unknown evaluation mode {mode!r}")
            if mode == "quadrature" and isinstance(comp, WienerComponent):
                raise ValueError("quadrature mode applies to jump components only")
        object.__setattr__(self, "modes", tuple(modes))

    @property
    def r_ball(self) -> float:
        return self.driver.r_ball

    @cached_property
    def _quad_rules(self) -> tuple:
        rules = []
        for mode, comp in zip(self.modes, self.driver.components):
            if mode == "quadrature":
                lo, hi = comp.quad_interval(self.driver.r_ball)
                x, w = np.polynomial.legendre.leggauss(400)
                x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
                w = 0.5 * (hi - lo) * w * comp.levy_density(x)
                rules.append((x, w))
            else:
                rules.append(None)
        return tuple(rules)


def _check_domain(model: CumulantModel, zeta: np.ndarray) -> np.ndarray:
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape[-1] != model.driver.dim:
        raise ValueError(
            f"zeta has {zeta.shape[-1]} components, driver has {model.driver.dim}"
        )
    norms = np.sqrt(np.square(zeta).sum(axis=-1))
    if np.any(norms > model.r_ball * (1.0 + 1e-12)):
        worst = float(np.max(norms))
        raise CumulantDomainError(
            f"|zeta| = {worst:g} outside the evaluation ball of radius {model.r_ball:g}"
        )
    return zeta


def _component_value(model: CumulantModel, k: int, z: np.ndarray, order: int) -> np.ndarray:
    comp = model.driver.components[k]
    if model.modes[k] == "closed_form":
        if order == 0:
            return comp.cumulant(z)
        if order == 1:
            return comp.cumulant_grad(z)
        return comp.cumulant_hess(z)
    x, w = model._quad_rules[k]
    z = np.asarray(z, dtype=float)
    zx = np.multiply.outer(z, x)
    r = comp.gaussian_variance
    if order == 0:
        jump = (np.exp(zx) - 1.0 - zx) @ w
        return 0.5 * r * np.square(z) + jump
    if order == 1:
        jump = ((np.exp(zx) - 1.0) * x) @ w
        return r * z + jump
    jump = (np.exp(zx) * np.square(x)) @ w
    return r + jump


def cumulant(model: CumulantModel, zeta) -> np.ndarray | float:
    """psi(zeta) = sum_k psi_k(zeta_k); batched over leading axes of zeta."""
    zeta = _check_domain(model, zeta)
    out = sum(
        _component_value(model, k, zeta[..., k], order=0) for k in range(model.driver.dim)
    )
    return float(out) if np.ndim(out) == 0 else out


def cumulant_grad(model: CumulantModel, zeta) -> np.ndarray:
    """Gradient of psi; component k is r_k z_k + int x (e^{z_k x} - 1) m_k(dx)."""
    zeta = _check_domain(model, zeta)
    cols = [
        _component_value(model, k, zeta[..., k], order=1) for k in range(model.driver.dim)
    ]
    return np.stack(cols, axis=-1)


def cumulant_hess(model: CumulantModel, zeta, phi, eta) -> np.ndarray | float:
    """Bilinear Hessian D^2 psi(zeta)(phi, eta); diagonal in the component basis."""
    zeta = _check_domain(model, zeta)
    phi = np.asarray(phi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    diag = hessian_diag(model, zeta)
    out = (diag * phi * eta).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def hessian_diag(model: CumulantModel, zeta) -> np.ndarray:
    """Diagonal entries r_k + int x^2 e^{z_k x} m_k(dx) of the Hessian."""
    zeta = _check_domain(model, zeta)
    cols = [
        _component_value(model, k, zeta[..., k], order=2) for k in range(model.driver.dim)
    ]
    return np.stack(cols, axis=-1)


def grad_components(model: CumulantModel, z: np.ndarray, clamp: bool = False) -> np.ndarray:
    """Componentwise gradient on batched vectors z of shape (..., d).

    With ``clamp=True`` vectors outside the ball are radially projected onto
    it before evaluation; callers use this together with a validity mask when
    localizing paths, so the clamped values never enter reported results.
    """
    z = np.asarray(z, dtype=float)
    if clamp:
        return _clamped_grad(model, z, np.sqrt(np.square(z).sum(axis=-1)))
    return _grad(model, _check_domain(model, z))


def _clamped_grad(model: CumulantModel, z: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient at z radially projected onto the ball; ``norms`` holds |z|.

    Only vectors beyond the ball are scaled; when there are none z is used as
    is, which is exactly scaling by 1.0.  NaN norms compare false and keep
    their vectors.
    """
    limit = model.r_ball * (1.0 - 1e-9)
    over = norms > limit
    if over.any():
        z = z * np.where(over, limit / np.maximum(norms, 1e-300), 1.0)[..., None]
    return _grad(model, z)


def _grad(model: CumulantModel, z: np.ndarray) -> np.ndarray:
    cols = [
        _component_value(model, k, z[..., k], order=1) for k in range(model.driver.dim)
    ]
    return np.stack(cols, axis=-1)


def covariance(driver: LevyDriver) -> CovarianceModel:
    """Covariance of M(1): diagonal Q with Q_kk = r_k + int x^2 m_k(dx)."""
    diag = driver.covariance_diag
    return CovarianceModel(Q=np.diag(diag), trace=float(diag.sum()))


def moment_mp(driver: LevyDriver, p: float) -> float:
    """Driver moment factor |R|_1^{p/2} + int |x|^p m + (int x^2 m)^{p/2}."""
    if p < 2:
        raise ValueError(f"moment order must be >= 2, got {p}")
    if p > driver.p_max:
        raise ValueError(
            f"moment order {p} exceeds the driver's declared p_max {driver.p_max}"
        )
    jump_p = sum(c.levy_moment(p) for c in driver.components)
    jump_2 = sum(c.levy_moment(2.0) for c in driver.components)
    return driver.gaussian_trace ** (p / 2) + jump_p + jump_2 ** (p / 2)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_increment(driver: LevyDriver, dt: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of M(t + dt) - M(t) as a (d,) vector."""
    return sample_increment_array(driver, dt, 1, rng)[0]


def sample_increment_array(
    driver: LevyDriver, dt: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n independent increments, shape (n, d); components independent."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = np.empty((n, driver.dim))
    for k, comp in enumerate(driver.components):
        out[:, k] = comp.sample(rng, dt, n)
    return out


def step_generator(seed: int, step: int) -> np.random.Generator:
    """Counter-based stream for one time step, keyed by (seed, step).

    Philox is counter based, so the draw at a given (seed, step) never
    depends on how many variates other steps consumed; paths drawn as rows
    of one step's block are reproducible for a fixed path count.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, step])))


def increment_table(
    driver: LevyDriver, dt: float, n_steps: int, n_paths: int, seed: int
) -> np.ndarray:
    """Noise record of shape (n_steps, n_paths, d), one stream per step."""
    out = np.empty((n_steps, n_paths, driver.dim))
    for j in range(n_steps):
        out[j] = sample_increment_array(driver, dt, n_paths, step_generator(seed, j))
    return out


def empirical_mgf(
    driver: LevyDriver, zetas: np.ndarray, n_draws: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of E exp(<zeta, M(1)>) for each row of zetas.

    Returns (means, standard errors).  One pooled sample of M(1) is reused
    across all zeta rows.
    """
    zetas = np.atleast_2d(np.asarray(zetas, dtype=float))
    draws = sample_increment_array(driver, 1.0, n_draws, step_generator(seed, 0))
    means = np.empty(len(zetas))
    ses = np.empty(len(zetas))
    for i, z in enumerate(zetas):
        vals = np.exp(draws @ z)
        means[i] = vals.mean()
        ses[i] = vals.std(ddof=1) / math.sqrt(n_draws)
    return means, ses
