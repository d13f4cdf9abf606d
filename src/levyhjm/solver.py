"""Path solvers for the transport-plus-noise curve dynamics.

Two schemes on a shared time grid t_j = j * dt:

* ``euler_solve``   explicit stepping
      u_{j+1} = shift(u_j, dt) + f(t_j, u_j) dt + B(t_j, u_j) dM_j,
* ``picard_solve``  the fixed point of the variation-of-constants map
      (F u)(t_j) = shift(u0, t_j)
                   + sum_{i<j} shift(f(t_i, u(t_i)) dt + B(t_i, u(t_i)) dM_i,
                                t_j - t_i),
  on one fixed noise record shared by both passes.  F is causal: (F u)(t_j)
  reads u only before t_j.  So a causal pass, which evaluates each step on
  the iterate it is building, returns the exact fixed point u* of the
  discrete map (in exact arithmetic the exponential-Euler recursion
  u_{j+1} = shift(u_j + f(t_j, u_j) dt + B(t_j, u_j) dM_j, dt)).  A second,
  certifying pass applies F to u* with the same operations; its residual is
  0.0, and a residual not below the tolerance raises.

Integrands are evaluated at the left endpoint of each step (predictable
convention; anything else biases jump terms), and the drift time integral
uses the matching left-endpoint rectangle rule.  Paths are localized by one
rule, the same in both schemes, so ensemble estimators stay well defined: on
the step t_i -> t_{i+1} a live path exits at i if its running volatility
integral at t_i leaves the cumulant ball or its state at t_{i+1} is not
finite (with a warning), and at i + 1 if that state's curve norm exceeds
``r_local``.  A path keeps its state at the exit index from then on.  The
initial curve must lie within ``r_local``, so every index 0 .. n_steps is
tested once.

Both schemes take sigma and the drift of each step from one kernel, which
evaluates a state-free volatility (``VolatilitySpec.state_free``) and its
drift once per step for all paths, bitwise as the per-path evaluation would.

Paths are independent, so both schemes step them in blocks of rows sized to
stay in cache.  Picard runs all time steps of both passes on one block
before the next; the causal pass writes the curves buffer, the certifying
pass one block-sized scratch buffer.  Curves, exit indices and Picard
residuals are bitwise those of stepping the whole ensemble at once: every
operation is per path, and the residual's mean over paths is one reduction
over all of them.

When dt is an integer number of grid cells, every shift is an exact index
rotation: with zero volatility both schemes reproduce pure transport
bitwise, and rerunning with the same seed reproduces every curve bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .curvespace import WeightGrid, norm_H, _shift_values, _values
from .levy import increment_table
from .model import HjmModel, drift_functional

__all__ = [
    "PicardDivergenceError",
    "SolverConfig",
    "SolutionEnsemble",
    "PicardResult",
    "NormEstimate",
    "euler_solve",
    "euler_transitions",
    "picard_solve",
    "norm_script_Hp",
    "norm_bb_Hp",
    "lipschitz_in_initial_datum",
]


class PicardDivergenceError(RuntimeError):
    """The certifying Picard pass moved the causal iterate by ``picard_tol`` or more."""


@dataclass(frozen=True)
class SolverConfig:
    """Time grid, path budget, fixed-point and localization controls.

    ``picard_tol`` bounds the certifying Picard pass's residual: the
    sup-in-time root mean square curve norm of its distance to the causal
    iterate.  ``r_local`` is the localization radius in the curve norm
    (infinite turns localization off); ``p`` the moment order the run is
    meant to support (must not exceed the driver's declared p_max).  A NaN
    in any of them, or a non-finite horizon, is rejected.
    """

    horizon: float
    n_steps: int
    n_paths: int
    picard_tol: float = 1e-8
    r_local: float = 1e6
    p: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not self.picard_tol > 0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if not self.r_local > 0:
            raise ValueError(f"r_local must be positive, got {self.r_local}")
        if not self.p >= 2:
            raise ValueError(f"moment order p must be >= 2, got {self.p}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass
class SolutionEnsemble:
    """Simulated curves, exit bookkeeping, and the noise record that made them.

    ``curves`` has shape (n_paths, n_steps + 1, n_nodes).  ``exit_index[p]``
    is the first time index at which path p froze (curves are constant from
    there on); the sentinel n_steps + 1 means the path never exited and its
    exit time is reported as infinity.  ``increments`` is the (n_steps,
    n_paths, d) noise record, reusable across solvers and Picard sweeps.
    """

    grid: WeightGrid
    times: np.ndarray
    curves: np.ndarray
    exit_index: np.ndarray
    increments: np.ndarray
    seed: int
    p_order: float = 2.0

    @property
    def n_paths(self) -> int:
        return self.curves.shape[0]

    @property
    def n_times(self) -> int:
        return self.curves.shape[1]

    @property
    def exit_times(self) -> np.ndarray:
        """Per-path exit time, +inf for paths that never left the ball."""
        out = np.full(self.n_paths, np.inf)
        hit = self.exit_index < self.n_times
        out[hit] = self.times[self.exit_index[hit]]
        return out


@dataclass(frozen=True)
class PicardResult:
    """The causal iterate u* and the residuals of the two passes that made it.

    ``residuals`` holds the causal pass's distance to the transported initial
    curve and the certifying pass's distance to u*.  ``sweeps`` counts the
    passes, always 2; ``converged`` is always True, since a failed
    certification raises.
    """

    ensemble: SolutionEnsemble
    sweeps: int
    residuals: tuple[float, ...]
    converged: bool


def _initial_curve(u0, cfg: SolverConfig, grid: WeightGrid) -> np.ndarray:
    """The values of u0, which must be one finite curve on the grid within r_local."""
    v = _values(u0)
    if v.ndim != 1 or v.size != grid.n_nodes:
        raise ValueError("initial curve must be a single curve on the model grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("initial curve must be finite")
    norm = norm_H(v, grid)
    if norm > cfg.r_local:
        raise ValueError(f"initial curve norm {norm:.6g} exceeds r_local {cfg.r_local:.6g}")
    return v


def _noise(model: HjmModel, cfg: SolverConfig, increments) -> np.ndarray:
    if increments is None:
        return increment_table(
            model.driver, cfg.dt, cfg.n_steps, cfg.n_paths, cfg.seed
        )
    increments = np.asarray(increments, dtype=float)
    expected = (cfg.n_steps, cfg.n_paths, model.driver.dim)
    if increments.shape != expected:
        raise ValueError(f"increments must have shape {expected}, got {increments.shape}")
    return increments


# Float64 values in one (rows, n_nodes) block array, 512 KiB: the solvers
# step the paths a block of rows at a time, so a step's temporaries stay in
# cache instead of streaming whole-ensemble arrays through memory.
_BLOCK_VALUES = 1 << 16


def _row_blocks(n_paths: int, n_nodes: int) -> Iterator[slice]:
    """Consecutive slices of the path axis, about _BLOCK_VALUES / n_nodes rows each."""
    rows = max(1, _BLOCK_VALUES // n_nodes)
    for start in range(0, n_paths, rows):
        yield slice(start, start + rows)


def _step_kernel(model: HjmModel, times: np.ndarray):
    """Step kernel ``kernel(j, U) -> (sigma, f, ok)`` at ``times[j]``.

    Left-endpoint sigma, drift f and ball flag ok of the paths U.  A
    state-free sigma is evaluated once per time, on the zero curve (finite
    whatever the paths hold), and its (1, n, d) sigma, (1, n) drift and (1,)
    ball flag broadcast over any block of paths.
    """

    def per_path(j: int, U: np.ndarray) -> tuple:
        sig = model.vol.sigma_at(float(times[j]), model.grid.nodes, U)
        f, ok = drift_functional(model, sig)
        return sig, f, ok

    if not model.vol.state_free:
        return per_path
    zero = np.zeros((1, model.grid.n_nodes))
    shared = [per_path(j, zero) for j in range(len(times))]
    return lambda j, U: shared[j]


def _localize(
    exits: np.ndarray, frozen: np.ndarray, ok: np.ndarray, candidate: np.ndarray,
    prev: np.ndarray, i: int, grid: WeightGrid, r_local: float,
) -> np.ndarray:
    """Localize the step t_i -> t_{i+1} of a block of paths, in place.

    A live path exits at i if its state at t_i left the cumulant ball (``ok``
    false) or its ``candidate`` state at t_{i+1} is not finite.  Every frozen
    path's candidate is then reset to ``prev``, its state at t_i.  A live
    candidate whose norm exceeds ``r_local`` exits at i + 1 and is kept.
    Updates ``exits``, ``frozen`` and ``candidate``; returns the mask of the
    paths that exited on a non-finite candidate.
    """
    finite = np.isfinite(candidate).all(axis=-1)
    stopped = ~frozen & ~(ok & finite)
    exits[stopped] = i
    frozen |= stopped
    candidate[frozen] = prev[frozen]
    over = ~frozen & (norm_H(candidate, grid) > r_local)
    exits[over] = i + 1
    frozen |= over
    return stopped & ok & ~finite


def _warn_nonfinite(n_paths: int, where: str) -> None:
    warnings.warn(
        f"{n_paths} path(s) produced non-finite curves {where}; "
        "frozen at their last finite state",
        RuntimeWarning,
        stacklevel=3,
    )


def euler_transitions(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> Iterator[tuple[int, float, np.ndarray, np.ndarray]]:
    """Yield (j, t_j, states, exit_index) for j = 0 .. n_steps, streaming.

    ``states`` is a live (n_paths, n_nodes) buffer that the step after next
    overwrites; consumers must copy anything they keep.  Each step is
    localized as the module docstring describes.
    """
    grid = model.grid
    dM = _noise(model, cfg, increments)
    U = np.tile(_initial_curve(u0, cfg, grid), (cfg.n_paths, 1))
    nxt = np.empty_like(U)
    blocks = list(_row_blocks(cfg.n_paths, grid.n_nodes))
    noise_term = np.empty_like(U[blocks[0]])
    sentinel = cfg.n_steps + 1
    exit_index = np.full(cfg.n_paths, sentinel, dtype=int)
    times = cfg.times
    kernel = _step_kernel(model, times[:-1])
    yield 0, 0.0, U, exit_index
    for j in range(cfg.n_steps):
        n_bad = 0
        for rows in blocks:
            u, exits, candidate = U[rows], exit_index[rows], nxt[rows]
            sig, f, ok = kernel(j, u)
            # (shift + f dt) + <sigma, dM>, summed in place in the next state
            _shift_values(u, cfg.dt, grid, out=candidate)
            candidate += f * cfg.dt
            noise = noise_term[: len(u)]
            np.einsum("pnd,pd->pn", sig, dM[j, rows], out=noise)
            candidate += noise
            frozen = exits != sentinel
            bad = _localize(exits, frozen, ok, candidate, u, j, grid, cfg.r_local)
            n_bad += int(bad.sum())
        if n_bad:
            _warn_nonfinite(n_bad, f"at step {j}")
        U, nxt = nxt, U
        yield j + 1, float(times[j + 1]), U, exit_index


def euler_solve(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> SolutionEnsemble:
    """Explicit scheme over the full path ensemble; see the module docstring."""
    grid = model.grid
    dM = _noise(model, cfg, increments)
    curves = np.empty((cfg.n_paths, cfg.n_steps + 1, grid.n_nodes))
    exit_index = np.full(cfg.n_paths, cfg.n_steps + 1, dtype=int)
    for j, _t, U, exit_idx in euler_transitions(model, u0, cfg, increments=dM):
        curves[:, j] = U
        exit_index = exit_idx
    return SolutionEnsemble(
        grid=grid,
        times=cfg.times,
        curves=curves,
        exit_index=exit_index,
        increments=dM,
        seed=cfg.seed,
        p_order=cfg.p,
    )


def _picard_pass(
    kernel, cfg: SolverConfig, grid: WeightGrid, transported: np.ndarray,
    dM: np.ndarray, src: np.ndarray, out: np.ndarray, ref: np.ndarray,
    diff: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the variation-of-constants map F to a block of paths: out = F(src).

    Step j evaluates the kernel on ``src[:, j - 1]``, writes (F src)(t_j)
    into ``out[:, j]`` and records ``norm_H(out[:, j] - ref[:, j])`` in
    ``diff[:, j]`` while the row is in cache; ``out[:, 0]`` must hold the
    initial curves.  With ``src`` = ``out`` the pass is causal.  ``dM`` holds
    the block's (n_steps, rows, d) noise.  Returns the exit indices and the
    mask of paths that produced a non-finite curve.
    """
    rows, m = out.shape[0], cfg.n_steps
    exits = np.full(rows, m + 1, dtype=int)
    frozen = np.zeros(rows, dtype=bool)
    nonfinite = np.zeros(rows, dtype=bool)
    conv = np.zeros((rows, grid.n_nodes))
    for j in range(1, m + 1):
        i = j - 1
        sig, f, ok = kernel(i, src[:, i])
        G = f * cfg.dt + np.einsum("pnd,pd->pn", sig, dM[i])
        conv = _shift_values(conv + G, cfg.dt, grid)
        candidate = transported[j] + conv
        bad = _localize(exits, frozen, ok, candidate, out[:, i], i, grid, cfg.r_local)
        # a non-finite path's convolution restarts at zero, so no later step
        # computes with it
        conv[bad] = 0.0
        nonfinite |= bad
        out[:, j] = candidate
        diff[:, j] = norm_H(out[:, j] - ref[:, j], grid)
    return exits, nonfinite


def picard_solve(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> PicardResult:
    """Solve the variation-of-constants map for its fixed point, and certify it.

    Two passes of F run on each block of paths, on one noise record.  The
    causal pass evaluates step j on the iterate it is building, in the
    (n_paths, n_steps + 1, n_nodes) curves buffer, which reaches the fixed
    point u* of the discrete map.  The certifying pass reads u* and writes
    F(u*) into one block-sized scratch buffer, never into u*; it recomputes
    u* bitwise.  Each pass's residual is the sup over time nodes of the
    root mean square curve-norm distance to what it started from (the
    transported initial curve, then u*).  u* is returned; a certifying
    residual not below ``picard_tol`` raises ``PicardDivergenceError``.
    """
    grid = model.grid
    dM = _noise(model, cfg, increments)
    m = cfg.n_steps
    times = cfg.times
    u0_vals = _initial_curve(u0, cfg, grid)
    transported = np.empty((m + 1, grid.n_nodes))
    for j in range(m + 1):
        transported[j] = _shift_values(u0_vals, float(times[j]), grid)

    U = np.empty((cfg.n_paths, m + 1, grid.n_nodes))
    U[:, 0] = u0_vals
    blocks = list(_row_blocks(cfg.n_paths, grid.n_nodes))
    scratch = np.empty_like(U[blocks[0]])
    # every iterate starts at u0: both residuals are 0 at time index 0
    diffs = np.zeros((2, cfg.n_paths, m + 1))
    exit_index = np.empty(cfg.n_paths, dtype=int)
    nonfinite = np.empty(cfg.n_paths, dtype=bool)
    kernel = _step_kernel(model, times[:-1])
    for rows in blocks:
        cur, noise = U[rows], dM[:, rows]
        exit_index[rows], nonfinite[rows] = _picard_pass(
            kernel, cfg, grid, transported, noise,
            src=cur, out=cur, ref=transported[None], diff=diffs[0, rows],
        )
        out = scratch[: len(cur)]
        out[:, 0] = cur[:, 0]
        _picard_pass(
            kernel, cfg, grid, transported, noise,
            src=cur, out=out, ref=cur, diff=diffs[1, rows],
        )
    residuals = tuple(float(np.sqrt(np.square(d).mean(axis=0).max())) for d in diffs)

    if nonfinite.any():
        _warn_nonfinite(int(nonfinite.sum()), "in the causal pass")
    if not residuals[1] < cfg.picard_tol:
        raise PicardDivergenceError(
            f"certifying pass residual {residuals[1]:.3g} is not below picard_tol "
            f"{cfg.picard_tol:.3g}: the causal iterate is not a fixed point"
        )
    ensemble = SolutionEnsemble(
        grid=grid,
        times=times,
        curves=U,
        exit_index=exit_index,
        increments=dM,
        seed=cfg.seed,
        p_order=cfg.p,
    )
    return PicardResult(
        ensemble=ensemble, sweeps=2, residuals=residuals, converged=True
    )


@dataclass(frozen=True)
class NormEstimate:
    """Monte Carlo estimate of an ensemble norm with its standard error."""

    value: float
    standard_error: float
    p: float
    kind: str


def _ensemble_norms(ensemble: SolutionEnsemble, p: float) -> np.ndarray:
    if ensemble.curves.size == 0:
        raise ValueError("empty ensemble")
    if p > ensemble.p_order and not math.isclose(p, ensemble.p_order):
        raise ValueError(
            f"norm order {p} exceeds the order {ensemble.p_order} the run declared"
        )
    return norm_H(ensemble.curves, ensemble.grid)  # (P, m+1)


def norm_script_Hp(ensemble: SolutionEnsemble, p: float) -> NormEstimate:
    """sup over time of (path-mean of |u(t)|^p)^(1/p); frozen paths included.

    The standard error is the delta-method propagation of the Monte Carlo
    error of the p-th moment at the maximizing time node.
    """
    norms = _ensemble_norms(ensemble, p)
    powers = norms**p
    means = powers.mean(axis=0)
    j_star = int(np.argmax(means))
    value = float(means[j_star] ** (1.0 / p))
    n = norms.shape[0]
    se_mean = float(powers[:, j_star].std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    se = se_mean * value ** (1.0 - p) / p if value > 0 else se_mean
    return NormEstimate(value=value, standard_error=se, p=p, kind="sup_of_mean")


def norm_bb_Hp(ensemble: SolutionEnsemble, p: float) -> NormEstimate:
    """(path-mean of sup over time of |u(t)|^p)^(1/p); dominates norm_script_Hp."""
    norms = _ensemble_norms(ensemble, p)
    sups = norms.max(axis=1) ** p
    mean = float(sups.mean())
    value = mean ** (1.0 / p)
    n = sups.size
    se_mean = float(sups.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    se = se_mean * value ** (1.0 - p) / p if value > 0 else se_mean
    return NormEstimate(value=value, standard_error=se, p=p, kind="mean_of_sup")


def lipschitz_in_initial_datum(
    model: HjmModel, u0, v0, cfg: SolverConfig
) -> float:
    """Ratio of the difference-ensemble norm to the initial-curve distance.

    Solves from both initial curves on common noise and returns
    sup_t sqrt(mean |u(t) - v(t)|_H^2) / |u0 - v0|_H.
    """
    u0_vals, v0_vals = _values(u0), _values(v0)
    dist = norm_H(u0_vals - v0_vals, model.grid)
    if dist <= 1e-14:
        raise ValueError("initial curves must differ")
    inc = _noise(model, cfg, None)
    res_u = picard_solve(model, u0_vals, cfg, increments=inc)
    res_v = picard_solve(model, v0_vals, cfg, increments=inc)
    diff = norm_H(res_u.ensemble.curves - res_v.ensemble.curves, model.grid)
    sup_rms = float(np.sqrt(np.square(diff).mean(axis=0).max()))
    return sup_rms / dist
