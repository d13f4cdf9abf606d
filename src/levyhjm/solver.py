"""Path solvers for the transport-plus-noise curve dynamics.

Two schemes on a shared time grid t_j = j * dt:

* ``euler_solve``   explicit stepping
      u_{j+1} = shift(u_j, dt) + f(t_j, u_j) dt + B(t_j, u_j) dM_j,
* ``picard_solve``  the fixed point of the variation-of-constants map
      (F u)(t_j) = shift(u0, t_j)
                   + sum_{i<j} shift(f(t_i, u(t_i)) dt + B(t_i, u(t_i)) dM_i,
                                t_j - t_i),
  on one fixed noise record (common random numbers across sweeps; fresh
  noise would never reach a fixed point).  F is causal: (F u)(t_j) reads u
  only before t_j.  So the first sweep, a causal pass that evaluates each
  step on the iterate it is building, returns the exact fixed point of the
  discrete map (in exact arithmetic the exponential-Euler recursion
  u_{j+1} = shift(u_j + f(t_j, u_j) dt + B(t_j, u_j) dM_j, dt)).  The later
  sweeps certify it: the second applies F to it with the same operations,
  so its residual is 0.0, checked against the tolerance as any sweep's.

Integrands are evaluated at the left endpoint of each step (predictable
convention; anything else biases jump terms), and the drift time integral
uses the matching left-endpoint rectangle rule.  Paths are localized: a path
freezes at the first time index where its curve norm exceeds ``r_local``,
the running volatility integral leaves the cumulant ball, or the next state
is not finite, and keeps its frozen value afterwards, so ensemble estimators
stay well defined.  A non-finite step freezes the path at its last finite
state in both schemes, with a warning.

Both schemes take sigma and the drift of each step from one kernel, which
evaluates a state-free volatility (``VolatilitySpec.state_free``) and its
drift once per step for all paths, bitwise as the per-path evaluation would.

Paths are independent, so both schemes step them in blocks of rows sized to
stay in cache (Picard runs all time steps of a sweep on one block before the
next).  Curves, exit indices and Picard residuals are bitwise those of
stepping the whole ensemble at once: every operation is per path, and the
residual's mean over paths is one reduction over all of them.

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
    "stochastic_convolution",
    "norm_script_Hp",
    "norm_bb_Hp",
    "lipschitz_in_initial_datum",
]


class PicardDivergenceError(RuntimeError):
    """Picard residuals stopped decreasing before reaching the tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Time grid, path budget, fixed-point and localization controls.

    ``picard_tol`` is measured in the sup-in-time root mean square curve
    norm of successive sweep differences.  ``r_local`` is the localization
    radius in the curve norm; ``p`` the moment order the run is meant to
    support (must not exceed the driver's declared p_max).
    """

    horizon: float
    n_steps: int
    n_paths: int
    n_picard: int = 12
    picard_tol: float = 1e-8
    r_local: float = 1e6
    p: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.picard_tol <= 0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.r_local <= 0:
            raise ValueError(f"r_local must be positive, got {self.r_local}")
        if self.p < 2:
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

    def alive_at(self, j: int) -> np.ndarray:
        return self.exit_index > j


@dataclass(frozen=True)
class PicardResult:
    ensemble: SolutionEnsemble
    sweeps: int
    residuals: tuple[float, ...]
    converged: bool

    @property
    def contraction_ratios(self) -> tuple[float, ...]:
        r = self.residuals
        return tuple(r[i + 1] / r[i] for i in range(len(r) - 1) if r[i] > 0)


def _initial_matrix(u0, cfg: SolverConfig, grid: WeightGrid) -> np.ndarray:
    v = _values(u0)
    if v.ndim != 1 or v.size != grid.n_nodes:
        raise ValueError("initial curve must be a single curve on the model grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("initial curve must be finite")
    return np.tile(v, (cfg.n_paths, 1))


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


def _mark_exits(
    exit_index: np.ndarray, frozen: np.ndarray, trigger: np.ndarray, j: int
) -> np.ndarray:
    """Freeze the live paths where ``trigger`` holds, with exit time index j.

    Updates ``exit_index`` and ``frozen`` in place; returns the newly frozen.
    """
    newly = trigger & ~frozen
    exit_index[newly] = j
    frozen |= newly
    return newly


def euler_transitions(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> Iterator[tuple[int, float, np.ndarray, np.ndarray]]:
    """Yield (j, t_j, states, exit_index) for j = 0 .. n_steps, streaming.

    ``states`` is a live (n_paths, n_nodes) buffer that the step after next
    overwrites; consumers must copy anything they keep.  Localization follows
    the frozen-at-exit convention described in the module docstring; a path
    exits with its pre-step state.
    """
    grid = model.grid
    dM = _noise(model, cfg, increments)
    U = _initial_matrix(u0, cfg, grid)
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
            frozen = exits != sentinel
            # localization triggers evaluated on the pre-step state
            _mark_exits(exits, frozen, norm_H(u, grid) > cfg.r_local, j)
            sig, f, ok = kernel(j, u)
            _mark_exits(exits, frozen, ~ok, j)
            # (shift + f dt) + <sigma, dM>, summed in place in the next state
            _shift_values(u, cfg.dt, grid, out=candidate)
            candidate += f * cfg.dt
            noise = noise_term[: len(u)]
            np.einsum("pnd,pd->pn", sig, dM[j, rows], out=noise)
            candidate += noise
            bad = _mark_exits(exits, frozen, ~np.isfinite(candidate).all(axis=-1), j)
            n_bad += int(bad.sum())
            candidate[frozen] = u[frozen]
        if n_bad:
            warnings.warn(
                f"{n_bad} path(s) produced non-finite curves at step {j}; "
                "localized at the offending step",
                RuntimeWarning,
                stacklevel=2,
            )
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


def picard_solve(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> PicardResult:
    """Solve the variation-of-constants map for its fixed point, and certify it.

    Sweep 0 is the causal pass: step j evaluates its kernel on the iterate
    being built, which reaches the fixed point of the discrete map.  Later
    sweeps are Jacobi sweeps (every step reads the previous iterate); the
    first of them recomputes F(u*) bitwise, so it certifies u* with the
    residual 0.0.  Every sweep writes its iterate into the one
    (n_paths, n_steps + 1, n_nodes) buffer that holds the last: a Jacobi
    step keeps a copy of the old row it overwrites, which the next step
    reads and the residual is measured against.  All sweeps reuse one noise
    record.  The residual after each sweep is sup over time nodes of the
    root mean square curve-norm distance between successive iterates (sweep
    0: to the transported initial curve); iteration stops below
    ``picard_tol``.  If the sweep budget is exhausted with a non-decreasing
    residual tail the run is rejected (shrink the horizon or the localization
    radius); a decreasing but unconverged tail is returned with
    ``converged=False``.
    """
    grid = model.grid
    dM = _noise(model, cfg, increments)
    m = cfg.n_steps
    times = cfg.times
    u0_vals = _values(u0)
    base = _initial_matrix(u0, cfg, grid)  # (P, n)
    transported = np.empty((m + 1, grid.n_nodes))
    for j in range(m + 1):
        transported[j] = _shift_values(u0_vals, float(times[j]), grid)

    # the one iterate buffer: each sweep overwrites the rows of the last
    U = np.empty((cfg.n_paths, m + 1, grid.n_nodes))
    U[:, 0] = base
    diff = np.zeros((cfg.n_paths, m + 1))  # every iterate starts at u0: residual 0
    kernel = _step_kernel(model, times[:-1])
    sentinel = m + 1
    nonfinite = np.zeros(cfg.n_paths, dtype=bool)
    residuals: list[float] = []
    converged = False
    sweeps = 0

    for sweep in range(cfg.n_picard):
        causal = sweep == 0
        exit_index = np.full(cfg.n_paths, sentinel, dtype=int)
        # each block of paths runs the whole sweep while its rows stay in cache
        for rows in _row_blocks(cfg.n_paths, grid.n_nodes):
            cur, exits = U[rows], exit_index[rows]
            conv = np.zeros((cur.shape[0], grid.n_nodes))
            frozen = np.zeros(cur.shape[0], dtype=bool)
            # a Jacobi sweep overwrites the last iterate's row j at step j, so
            # held[j % 2] keeps the old row for the residual and for step j + 1
            held = np.empty((2,) + conv.shape)
            held[0] = cur[:, 0]
            for j in range(1, m + 1):
                i = j - 1
                # the causal pass reads the iterate it is building
                sig, f, ok = kernel(i, cur[:, i] if causal else held[i % 2])
                _mark_exits(exits, frozen, ~ok, i)
                G = f * cfg.dt + np.einsum("pnd,pd->pn", sig, dM[i, rows])
                conv = _shift_values(conv + G, cfg.dt, grid)
                candidate = transported[j] + conv
                # a non-finite candidate is replaced by the last finite state, as
                # in Euler, and its convolution restarts at zero, so no later
                # step computes with it; a candidate over the norm radius is kept
                bad = _mark_exits(exits, frozen, ~np.isfinite(candidate).all(axis=-1), i)
                if bad.any():
                    nonfinite[rows] |= bad
                    candidate[bad] = cur[bad, i]
                    conv[bad] = 0.0
                _mark_exits(exits, frozen, norm_H(candidate, grid) > cfg.r_local, j)
                # sweep 0 is measured against transport, a Jacobi sweep against the last iterate
                if causal:
                    old = transported[j]
                else:
                    old = held[j % 2]
                    old[...] = cur[:, j]
                cur[:, j] = candidate
                if frozen.any():
                    idx = np.nonzero(frozen)[0]
                    cur[idx, j] = cur[idx, np.minimum(exits[idx], j)]
                diff[rows, j] = norm_H(cur[:, j] - old, grid)
        residual = float(np.sqrt(np.square(diff).mean(axis=0).max()))
        residuals.append(residual)
        sweeps = sweep + 1
        if residual < cfg.picard_tol:
            converged = True
            break

    if nonfinite.any():
        warnings.warn(
            f"{int(nonfinite.sum())} path(s) produced non-finite curves in the "
            "Picard sweeps; localized at the step before",
            RuntimeWarning,
            stacklevel=2,
        )
    if not converged:
        tail_decreasing = len(residuals) >= 2 and residuals[-1] < residuals[-2]
        if not tail_decreasing:
            raise PicardDivergenceError(
                "fixed-point residuals stopped decreasing "
                f"(last: {residuals[-2:] if len(residuals) >= 2 else residuals}); "
                "reduce the horizon or the localization radius"
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
        ensemble=ensemble,
        sweeps=sweeps,
        residuals=tuple(residuals),
        converged=converged,
    )


def stochastic_convolution(
    grid: WeightGrid,
    integrand_curves: np.ndarray,
    noise: np.ndarray,
    t_index: int,
    dt: float,
):
    """Left-endpoint convolution sum sum_{i < t_index} shift(<F_i, dM_i>, t - s_i).

    ``integrand_curves`` holds per-step vector curves (n_steps, n_nodes, d)
    evaluated at the left endpoints (predictable convention); ``noise`` the
    matching (n_steps, d) increments, or (n_steps, n_paths, d) for a batch.
    Returns the convolution curve at time index ``t_index``.
    """
    F = np.asarray(integrand_curves, dtype=float)
    dM = np.asarray(noise, dtype=float)
    if t_index < 0 or t_index > F.shape[0]:
        raise ValueError(f"t_index {t_index} outside the step range {F.shape[0]}")
    batch = dM.ndim == 3
    shape = (dM.shape[1], grid.n_nodes) if batch else (grid.n_nodes,)
    out = np.zeros(shape)
    for i in range(t_index):
        term = np.einsum("nd,...d->...n", F[i], dM[i])
        out = out + _shift_values(term, (t_index - i) * dt, grid)
    return out


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
