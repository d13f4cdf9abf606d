"""Path solvers for the transport-plus-noise curve dynamics.

Two schemes on a shared time grid t_j = j * dt, with S the shift by dt and
G_j = f(t_j, u_j) dt + B(t_j, u_j) dM_j the step increment:

* ``euler_solve``   explicit stepping u_{j+1} = S u_j + G_j,
* ``picard_solve``  the fixed point u* of the variation-of-constants map
      (F u)(t_j) = S^j u0 + sum_{i<j} S^{j-i} G_i(u(t_i)).
  F is causal: (F u)(t_j) reads u only before t_j.  So u* is the
  exponential-Euler recursion u_{j+1} = S(u_j + G_j), which differs from
  Euler only in that S acts after the increment is added.

Both schemes step through one loop, ``euler_transitions``.  ``picard_solve``
then certifies the curves it collected with one pass of F in its
convolution form on the same noise record: F(u*)(t_j) must reproduce
u*(t_j) up to each path's exit index, and a sup-in-time root mean square
residual not below ``picard_tol`` raises.  The two forms agree to rounding
on the fixed point; Euler's curves miss it by the schemes' distance.

Integrands are evaluated at the left endpoint of each step (predictable
convention; anything else biases jump terms), and the drift time integral
uses the matching left-endpoint rectangle rule.  Paths are localized by one
rule, the same in both schemes, so ensemble estimators stay well defined: on
the step t_i -> t_{i+1} a live path exits at i if its running volatility
integral at t_i leaves the cumulant ball or its state at t_{i+1} is not
finite (with a warning), and at i + 1 if that state's curve norm exceeds
``r_local``.  A path keeps its state at the exit index from then on.  The
initial curve must lie within ``r_local``, so every index 0 .. n_steps is
tested once.  The norm is computed only where it could decide: every
candidate's norm is bounded by K max|u_{j+1}|, K the grid's sup-norm gain
(``WeightGrid.sup_gain``), whatever the volatility, and a norm whose bound
stays inside ``r_local`` is certified without being taken.  Exit indices are
those of taking every norm.

Both schemes take sigma and the drift of each step from one kernel, which
evaluates a state-free volatility (``VolatilitySpec.state_free``) and its
drift once per step for all paths, bitwise as the per-path evaluation would.

Paths are independent, so the loop runs them in blocks of consecutive rows
sized to stay in cache, each block through every time step before the next,
and so does the certificate.  No buffer holds the whole ensemble's state at
one time: the loop alternates two block-sized states, which ``euler_solve``
and ``picard_solve`` copy into their curves at every step.  Curves, exit
indices and Picard residuals are bitwise those of stepping the whole
ensemble at once: every operation is per path, and a residual's mean over
paths is one reduction over all of them.

With a state-free volatility the Euler scheme is linear with additive noise,
so u_j = c_j + sum_{i<j} S^{j-1-i} sigma_i dM_i, c_j the zero-noise
recursion, for every path that stays unlocalized.  ``_mild_readouts`` gives
the coefficients of any per-step linear readout of u_j in this discrete mild
form, so a caller that only reads such functionals (the bond check) needs no
stepping.

A caller that steps only to read such functionals need not step every node:
the shift moves a curve to the left, and sigma and the drift at x read u
only at and left of x.  ``_readout_cone`` gives the model on the first nodes
the readouts can reach, whose states are bitwise those of the full grid on
the nodes read.

Both shortcuts hold only while no path localizes, and one certificate,
``_no_path_localizes``, proves that from the run's own noise for either: a
per-path bound on max|u_j| from the declared ``gamma_seq`` keeps every
running integral inside the cumulant ball and the sup-norm bound
K max|u_j| within ``r_local``, whatever sigma depends on.

When dt is an integer number of grid cells, every shift is an exact index
rotation: with zero volatility both schemes reproduce pure transport
bitwise, and rerunning with the same seed reproduces every curve bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .curvespace import (
    WeightGrid,
    cumulative_integral,
    norm_H,
    _aligned_cells,
    _shift_reach,
    _shift_values,
    _values,
)
from .levy import _stacked, increment_table
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
    """F of the curves ``picard_solve`` collected is ``picard_tol`` or more away from them."""


@dataclass(frozen=True)
class SolverConfig:
    """Time grid, path budget, fixed-point and localization controls.

    ``picard_tol`` bounds the Picard certificate's residual: the sup-in-time
    root mean square curve norm of the distance between the collected curves
    and F applied to them.  ``r_local`` is the localization radius in the curve norm
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
    n_paths, d) noise record, reusable across solvers.
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
    """The fixed point u* and the residuals that describe it.

    ``residuals`` holds u*'s distance to the transported initial curve
    S^j u0 and the certificate's distance between F(u*) and u*.  ``sweeps``
    counts the stepping loop and the certificate, always 2; ``converged`` is
    always True, since a failed certificate raises.
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
        yield slice(start, min(start + rows, n_paths))


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


# Relative slack on the norm bound, applied to the bound's test against
# r_local, so that rounding can never let a skipped norm exceed r_local.  The
# exact bound leaves out only rounding.  The sup-norm bound K max|u| rounds
# only in K and in the computed norm it must cover, each a sum of n terms:
# about n eps = 7e-14 relative on the 321-node bundled grid.  The bond
# check's certificate (``_no_path_localizes``) applies K to a bound M_j >=
# max|u_j| that rounds, like the states, a few eps per step.  Over a run's
# roundings both stay far below 1e-6.
_BOUND_SLACK = 1.0 + 1e-6


def _localize(
    exits: np.ndarray, frozen: np.ndarray, ok: np.ndarray, candidate: np.ndarray,
    prev: np.ndarray, i: int, grid: WeightGrid, r_local: float, bound: np.ndarray,
) -> np.ndarray:
    """Localize the step t_i -> t_{i+1} of a block of paths, in place.

    A live path exits at i if its state at t_i left the cumulant ball (``ok``
    false) or its ``candidate`` state at t_{i+1} is not finite.  Every frozen
    path's candidate is then reset to ``prev``, its state at t_i.  A live
    candidate whose norm exceeds ``r_local`` exits at i + 1 and is kept.
    ``bound`` holds an upper bound on each candidate's norm, the sup-norm
    bound K max|candidate|; the norm is taken only where the bound, with its
    slack, does not stay within ``r_local`` (an infinite or NaN bound never
    does), and then replaces the bound.
    Updates ``exits``, ``frozen``, ``candidate`` and ``bound``; returns the
    mask of the paths that exited on a non-finite candidate.
    """
    finite = np.isfinite(candidate).all(axis=-1)
    stopped = ~frozen & ~(ok & finite)
    exits[stopped] = i
    frozen |= stopped
    candidate[frozen] = prev[frozen]
    need = ~frozen & ~(bound * _BOUND_SLACK <= r_local)
    if need.any():
        # the whole block: norm_H rounds each row alone, and norming a
        # row-indexed copy costs more than norming every row in place
        bound[need] = norm_H(candidate, grid)[need]
    over = need & (bound > r_local)
    exits[over] = i + 1
    frozen |= over
    return stopped & ok & ~finite


def _warn_nonfinite(n_bad: np.ndarray) -> None:
    """Warn once per step, in step order, of ``n_bad[j]`` non-finite exits at step j."""
    for j in np.flatnonzero(n_bad):
        warnings.warn(
            f"{n_bad[j]} path(s) produced non-finite curves at step {j}; "
            "frozen at their last finite state",
            RuntimeWarning,
            stacklevel=3,
        )


def euler_transitions(
    model: HjmModel, u0, cfg: SolverConfig, increments=None, *, _exponential=False, _n_bad=None
) -> Iterator[tuple[int, slice, np.ndarray, np.ndarray]]:
    """Yield (j, rows, states, exits) for each block of rows and j = 0 .. n_steps.

    The paths run in blocks of consecutive rows, in path order, each from
    j = 0 to n_steps before the next starts: a new block starts whenever j
    is 0, and its rows directly follow the previous block's.  ``rows`` is
    the block's slice of the path axis, ``states`` its (rows, n_nodes) state
    at t_j and ``exits`` its exit indices, both live buffers that later
    steps overwrite; consumers must copy anything they keep.  Each step is localized as the module docstring
    describes; the non-finite exits of a step are counted over all blocks
    and warned about once per step, in step order, after the last block.
    ``_exponential``, set only by ``picard_solve``, shifts after the step
    increment is added.  ``_n_bad``, an (n_steps,) integer array, gathers
    those counts instead, and nothing is warned about: a caller that steps
    the paths in parts warns once for the totals.
    """
    grid = model.grid
    dM = _noise(model, cfg, increments)
    u0_vals = _initial_curve(u0, cfg, grid)
    sentinel = cfg.n_steps + 1
    kernel = _step_kernel(model, cfg.times[:-1])
    n_bad = np.zeros(cfg.n_steps, dtype=int) if _n_bad is None else _n_bad
    blocks = list(_row_blocks(cfg.n_paths, grid.n_nodes))
    # the noise term, then the two states that the steps alternate
    scratch = np.empty((3, blocks[0].stop, grid.n_nodes))
    for rows in blocks:
        n_rows = rows.stop - rows.start
        noise, states = scratch[0, :n_rows], scratch[1:, :n_rows]
        u = states[0]
        u[...] = u0_vals
        exits = np.full(n_rows, sentinel)
        yield 0, rows, u, exits
        for j in range(cfg.n_steps):
            candidate = states[(j + 1) % 2]
            sig, f, ok = kernel(j, u)
            np.einsum("pnd,pd->pn", sig, dM[j, rows], out=noise)
            if _exponential:
                # shift(u + (f dt + <sigma, dM>)), summed in place in the noise
                noise += f * cfg.dt
                noise += u
                _shift_values(noise, cfg.dt, grid, out=candidate)
            else:
                # (shift + f dt) + <sigma, dM>, summed in place in the next state
                _shift_values(u, cfg.dt, grid, out=candidate)
                candidate += f * cfg.dt
                candidate += noise
            bound = grid.sup_gain * np.abs(candidate).max(axis=-1)
            frozen = exits != sentinel
            bad = _localize(exits, frozen, ok, candidate, u, j, grid, cfg.r_local, bound)
            n_bad[j] += int(bad.sum())
            u = candidate
            yield j + 1, rows, u, exits
    if _n_bad is None:
        _warn_nonfinite(n_bad)


def _no_path_localizes(
    model: HjmModel, u0_vals: np.ndarray, cfg: SolverConfig, dM: np.ndarray, gain: float
) -> bool:
    """Whether the noise ``dM`` certifies that Euler stepping localizes no path.

    The bond check's one certificate, and the one place its routes read the
    declared ``gamma_seq`` (none declared certifies nothing).  A per-path
    bound M_j >= max|u_j|: s_k = max_x |sigma_k(t_j, x, 0)| + gamma_k M_j
    bounds |sigma_k|, and M_{j+1} = M_j + dt sum_k max|psi_k'(+-r_ball)| s_k
    + sum_k s_k |dM_{j,k}|, as psi_k is convex and no shift raises max|u|.
    Each bound must be finite, sqrt(sum_k (A_k + gamma_k M_j x_max)^2) at
    most r_ball (1 - 1e-9), A_k the trapezoid integral of |sigma_k(t_j, .,
    0)|, so no ball flag fails on this grid or its first nodes, and ``gain``
    M_j, with its slack, at most ``r_local``, ``gain`` the largest
    ``sup_gain`` of the grids stepped.
    """
    if model.vol.gamma_seq is None:
        return False
    grid, r_ball = model.grid, model.driver.r_ball
    edges = np.outer([-r_ball, r_ball], np.ones(model.driver.dim))
    slopes = np.abs(_stacked(model.cumulant, edges, 1)).max(axis=0)  # max|psi_k'(+-r_ball)|
    gamma = np.asarray(model.vol.gamma_seq, dtype=float)
    zero = np.zeros(grid.n_nodes)
    bound = np.full(cfg.n_paths, np.abs(u0_vals).max())
    for j in range(cfg.n_steps):
        level = np.abs(model.vol.sigma_at(float(cfg.times[j]), grid.nodes, zero))
        area = cumulative_integral(level, grid, axis=0)[-1]
        worst = bound.max()  # both tests grow with M_j, and M_j with j
        if not np.sqrt(np.square(area + gamma * worst * grid.x_max).sum()) <= r_ball * (1.0 - 1e-9):
            return False
        # M_{j+1} = M_j + sum_k s_k w_k, s_k = max_x |sigma_k(t_j, x, 0)| + gamma_k M_j
        w = cfg.dt * slopes + np.abs(dM[j])
        kick, growth = np.einsum("pd,kd->kp", w, [level.max(axis=0), gamma])
        bound = bound + kick + bound * growth
    return bool(gain * _BOUND_SLACK * bound.max() <= cfg.r_local)


def _mild_readouts(
    model: HjmModel, u0, cfg: SolverConfig, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear readouts of Euler's states in the discrete mild form.

    With a state-free sigma the Euler step is affine in the noise:
    u_j = c_j + sum_{i<j} S^{j-1-i} sigma_i dM_i, with c_0 = u0 and
    c_{j+1} = S c_j + f_j dt the zero-noise recursion.  For ``weights`` of
    shape (n_steps + 1, K, n_nodes) this returns (a0, coef), a0[j, k] =
    w_{j,k} . c_j and coef[i, d, j, k] = w_{j,k} . S^{j-1-i} sigma_{i,d}
    (zero for j <= i), so that each path p reads w_{j,k} . u_j =
    a0[j, k] + sum_{i<j,d} dM[i, p, d] coef[i, d, j, k] up to rounding.

    The form holds for a state-free sigma while no path localizes
    (``_no_path_localizes``), at about d K n_steps^2 / 2 products per path.
    """
    grid, dt, m = model.grid, cfg.dt, cfg.n_steps
    c = np.empty((m + 1, grid.n_nodes))
    c[0] = _values(u0)
    kernel = _step_kernel(model, cfg.times[:-1])
    zero = np.zeros((1, grid.n_nodes))
    kicks = np.empty((m, model.driver.dim, grid.n_nodes))  # row i: sigma_i
    for j in range(m):
        sig, f, _ok = kernel(j, zero)
        kicks[j] = sig[0].T
        _shift_values(c[j], dt, grid, out=c[j + 1])
        c[j + 1] += f[0] * dt
    # at a, row i of kicks is S^a sigma_i for i < m - a: it enters the
    # readouts at j = i + 1 + a
    coef = np.zeros((m, model.driver.dim, m + 1, weights.shape[1]))
    for a in range(m):
        i = np.arange(m - a)
        coef[i, :, i + 1 + a] = np.einsum("idn,ikn->idk", kicks, weights[a + 1 :])
        kicks = _shift_values(kicks[:-1], dt, grid)
    return np.einsum("jn,jkn->jk", c, weights), coef


def _cut_grid(grid: WeightGrid, width: int) -> WeightGrid:
    """The grid of the first ``width`` nodes, with trapezoid weights on them."""
    nodes = grid.nodes[:width]
    quad = np.zeros(width)
    half_dx = 0.5 * np.diff(nodes)
    quad[:-1] += half_dx
    quad[1:] += half_dx
    return WeightGrid(nodes=nodes, weight_beta=grid.weight_beta, quad_weights=quad)


def _readout_cone(
    model: HjmModel, u0, cfg: SolverConfig, weights: np.ndarray
) -> tuple[HjmModel, np.ndarray] | None:
    """The model and initial curve of Euler's first n' nodes, or None.

    n' = max_j (L_j + 1 + j reach), L_j the last node step j's ``weights``
    (n_steps + 1, K, n_nodes) touch and ``reach`` how far one shift reads to
    the right (``_shift_reach``).  The cut grid's flat tail and
    interpolation corrupt only nodes within one reach of its end, so u_j
    stays bitwise exact on its first n' - j reach nodes while no path
    localizes on either grid (``_no_path_localizes`` with the larger
    ``sup_gain``), and so do the readouts of u_j.  None when the cut grid
    would not be narrower, or would shift otherwise than the full one
    (aligned on one, interpolating on the other).
    """
    grid, dt, m = model.grid, cfg.dt, cfg.n_steps
    touched = weights.any(axis=1)[:, ::-1]  # (n_steps + 1, n_nodes), last node first
    last = grid.n_nodes - 1 - touched.argmax(axis=1)
    width = int((last + 1 + _shift_reach(grid, dt) * np.arange(m + 1)).max())
    if not 3 <= width < grid.n_nodes:
        return None
    cone = _cut_grid(grid, width)
    if _aligned_cells(cone, dt) != _aligned_cells(grid, dt):
        return None
    return replace(model, grid=cone), _values(u0)[:width]


def _collect(
    model: HjmModel, u0, cfg: SolverConfig, increments, exponential: bool = False
) -> SolutionEnsemble:
    """Every state of ``euler_transitions``, copied into the curves a block at a time."""
    dM = _noise(model, cfg, increments)
    curves = np.empty((cfg.n_paths, cfg.n_steps + 1, model.grid.n_nodes))
    exit_index = np.empty(cfg.n_paths, dtype=int)
    for j, rows, states, exits in euler_transitions(
        model, u0, cfg, increments=dM, _exponential=exponential
    ):
        curves[rows, j] = states
        if j == cfg.n_steps:
            exit_index[rows] = exits
    return SolutionEnsemble(
        grid=model.grid,
        times=cfg.times,
        curves=curves,
        exit_index=exit_index,
        increments=dM,
        seed=cfg.seed,
        p_order=cfg.p,
    )


def euler_solve(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> SolutionEnsemble:
    """Explicit scheme over the full path ensemble; see the module docstring."""
    return _collect(model, u0, cfg, increments)


def _certify(
    model: HjmModel, cfg: SolverConfig, ens: SolutionEnsemble
) -> tuple[float, float]:
    """Residuals of the curves u: to S^j u0, and to F(u) up to each exit index.

    F is applied once, in its convolution form S^j u0 + sum_{i<j} S^{j-i}
    G_i(u(t_i)), on the ensemble's noise, a block of paths at a time.  G_i is
    zero from a path's exit index on, before its noise enters, so no step
    computes with a path that has exited.  Each residual is the sup over
    time nodes of the root mean square curve-norm distance over all paths.
    """
    grid, dt, m = model.grid, cfg.dt, cfg.n_steps
    kernel = _step_kernel(model, cfg.times[:-1])
    transported = np.empty((m + 1, grid.n_nodes))
    transported[0] = ens.curves[0, 0]  # every path starts at u0
    for j in range(m):
        _shift_values(transported[j], dt, grid, out=transported[j + 1])
    gaps = np.zeros((2, ens.n_paths, m + 1))  # both vanish at t_0
    for rows in _row_blocks(ens.n_paths, grid.n_nodes):
        u, exits, dM = ens.curves[rows], ens.exit_index[rows], ens.increments[:, rows]
        conv = np.zeros((len(u), grid.n_nodes))
        for j in range(1, m + 1):
            live = exits >= j  # step j - 1 is before the exit index
            sig, f, _ok = kernel(j - 1, u[:, j - 1])
            G = np.einsum("pnd,pd->pn", sig, np.where(live[:, None], dM[j - 1], 0.0))
            G += f * dt
            G[~live] = 0.0
            G += conv
            _shift_values(G, dt, grid, out=conv)
            gap = u[:, j] - transported[j]
            gaps[0, rows, j] = norm_H(gap, grid)
            gap -= conv  # u(t_j) - (F u)(t_j)
            gaps[1, rows, j] = np.where(live, norm_H(gap, grid), 0.0)
    return tuple(float(np.sqrt(np.square(g).mean(axis=0).max())) for g in gaps)


def picard_solve(
    model: HjmModel, u0, cfg: SolverConfig, increments=None
) -> PicardResult:
    """Solve the variation-of-constants map for its fixed point, and certify it.

    The stepping loop runs the exponential-Euler recursion, which is the
    fixed point u* of the discrete map F, into an (n_paths, n_steps + 1,
    n_nodes) curves buffer.  One pass of F in its convolution form then
    certifies u* on the same noise record.  u* is returned; a certificate
    residual not below ``picard_tol`` raises ``PicardDivergenceError``.
    """
    ensemble = _collect(model, u0, cfg, increments, exponential=True)
    residuals = _certify(model, cfg, ensemble)
    if not residuals[1] < cfg.picard_tol:
        raise PicardDivergenceError(
            f"certificate residual {residuals[1]:.3g} is not below picard_tol "
            f"{cfg.picard_tol:.3g}: the curves are not the fixed point of F"
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


def _norm_moments(ensemble: SolutionEnsemble, p: float) -> tuple[np.ndarray, ...]:
    """Per time node j, over the ensemble's paths: the means of |u(t_j)|_H^p
    and of sup_{i <= j} |u(t_i)|_H^p, and the standard error of each mean (0
    for one path), as (means, se, sup means, sup se).  Each node's figures
    are taken over its own column."""
    if ensemble.curves.size == 0:
        raise ValueError("empty ensemble")
    if p > ensemble.p_order and not math.isclose(p, ensemble.p_order):
        raise ValueError(
            f"norm order {p} exceeds the order {ensemble.p_order} the run declared"
        )
    powers = norm_H(ensemble.curves, ensemble.grid) ** p  # (P, m+1)
    n = ensemble.n_paths
    moments = []
    for values in (powers, np.maximum.accumulate(powers, axis=1)):
        columns = list(values.T)
        moments.append(np.array([c.mean() for c in columns]))
        moments.append(np.array([c.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0 for c in columns]))
    return tuple(moments)


def norm_script_Hp(ensemble: SolutionEnsemble, p: float) -> NormEstimate:
    """sup over time of (path-mean of |u(t)|^p)^(1/p); frozen paths included.

    The standard error is the delta-method propagation of the Monte Carlo
    error of the p-th moment at the maximizing time node.
    """
    means, se_means, _, _ = _norm_moments(ensemble, p)
    j_star = int(np.argmax(means))
    value = float(means[j_star] ** (1.0 / p))
    se_mean = float(se_means[j_star])
    se = se_mean * value ** (1.0 - p) / p if value > 0 else se_mean
    return NormEstimate(value=value, standard_error=se, p=p, kind="sup_of_mean")


def norm_bb_Hp(ensemble: SolutionEnsemble, p: float) -> NormEstimate:
    """(path-mean of sup over time of |u(t)|^p)^(1/p); dominates norm_script_Hp."""
    _, _, sup_means, sup_se = _norm_moments(ensemble, p)
    value = float(sup_means[-1]) ** (1.0 / p)
    se_mean = float(sup_se[-1])
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
