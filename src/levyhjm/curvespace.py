"""Discrete weighted curve space for forward curves.

A forward curve lives on a truncated maturity grid ``0 = x_0 < ... < x_{n-1} =
x_max`` and is extrapolated flat beyond ``x_max`` (so its derivative vanishes
there and all tail integrals are exactly zero).  The ambient norm is

    |u|_H^2 = u(0)^2 + int_0^xmax u'(x)^2 alpha(x) dx,     alpha(x) = e^{beta x},

with derivatives by centered finite differences (one sided at the endpoints)
and integrals by the trapezoid rule.  Two variants are provided: the
vector-valued analogue ``norm_frak_H`` for curves with values in R^d, and the
equivalent norm ``norm_star`` that replaces the u(0) boundary term by
u(x_max); the right-shift semigroup ``shift`` is a contraction in the latter
on curves that vanish at ``x_max``.

All norm/integral helpers accept either a ``Curve`` or a bare ndarray, and
broadcast over leading batch axes (node axis last for scalar curves, second
to last for vector curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "WeightGrid",
    "Curve",
    "EmbeddingRatios",
    "make_grid",
    "integrate",
    "cumulative_integral",
    "partial_integral",
    "grid_derivative",
    "norm_H",
    "norm_star",
    "norm_frak_H",
    "seminorm_H",
    "shift",
    "check_embeddings",
    "pointwise_norm_curve",
    "HarmonicFamily",
    "random_harmonic_family",
    "random_curves",
    "random_vector_curves",
    "rescale_to_norm",
]

# Relative slack for detecting node-aligned shifts; shifts within this
# tolerance of an integer number of cells are applied by exact indexing.
_ALIGN_RTOL = 1e-9

# Float64 values the derivative stencil handles at a time, a quarter of the
# solvers' row block: its three coefficient tiles, the rows, the output and
# one temporary then take 768 KiB and stay in a 1-2 MiB L2 cache (at a whole
# block, 3 MiB, the norm of 100k x 121 curves took twice as long).
_STENCIL_VALUES = 1 << 14


@dataclass(frozen=True)
class WeightGrid:
    """Maturity grid with exponential weight and trapezoid quadrature.

    Attributes
    ----------
    nodes : ndarray, shape (n,)
        Strictly increasing maturities with ``nodes[0] == 0``.
    weight_beta : float
        Exponent of the weight ``alpha(x) = exp(weight_beta * x)``; must be
        positive so that ``alpha >= 1`` is increasing and ``alpha**(-1/3)``
        is integrable on the half line.
    quad_weights : ndarray, shape (n,)
        Positive trapezoid weights summing to ``x_max``.
    """

    nodes: np.ndarray
    weight_beta: float
    quad_weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.quad_weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at maturity 0")
        if not (np.all(np.diff(nodes) > 0) and nodes[-1] < math.inf):
            raise ValueError("grid nodes must be finite and strictly increasing")
        if not 0 < self.weight_beta < math.inf:
            raise ValueError(f"weight_beta must be positive and finite, got {self.weight_beta}")
        if weights.shape != nodes.shape or np.any(weights <= 0):
            raise ValueError("quad_weights must be positive and match the nodes")
        if not np.isclose(weights.sum(), nodes[-1], rtol=1e-12):
            raise ValueError("quad_weights must sum to x_max")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "quad_weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def spacing(self) -> float | None:
        """Uniform spacing, or None when the grid is not uniform."""
        d = np.diff(self.nodes)
        if np.allclose(d, d[0], rtol=1e-12, atol=0.0):
            return float(d[0])
        return None

    @cached_property
    def alpha(self) -> np.ndarray:
        """Weight values exp(beta * x) at the nodes."""
        a = np.exp(self.weight_beta * self.nodes)
        a.flags.writeable = False
        return a

    @cached_property
    def weighted_quad(self) -> np.ndarray:
        """Product alpha * quad_weights, the weights of the weighted integral."""
        w = self.alpha * self.quad_weights
        w.flags.writeable = False
        return w

    @cached_property
    def _stencil(self) -> tuple:
        """np.gradient's ``edge_order=1`` coefficients: ``(tiles, dx_0, dx_n)``.

        ``tiles`` holds the interior coefficients of u[i-1], u[i] and u[i+1],
        each repeated once per row of a stencil chunk (the entries at the two
        edge columns are never read); it is None on an exactly uniform grid,
        where np.gradient divides u[i+1] - u[i-1] by 2h instead.  ``dx_0`` and
        ``dx_n`` are the spacings of the one-sided edge differences.
        """
        dx = np.diff(self.nodes)
        if (dx == dx[0]).all():
            return None, dx[0], dx[-1]
        dx1, dx2 = dx[:-1], dx[1:]
        interior = (
            -dx2 / (dx1 * (dx1 + dx2)),
            (dx2 - dx1) / (dx1 * dx2),
            dx1 / (dx2 * (dx1 + dx2)),
        )
        rows = max(1, _STENCIL_VALUES // self.n_nodes)
        tiles = tuple(np.tile(np.pad(coef, 1), rows) for coef in interior)
        for tile in tiles:
            tile.flags.writeable = False
        return tiles, dx[0], dx[-1]

    @cached_property
    def sup_gain(self) -> float:
        """K with |u|_H <= K max|u| for every curve u on the grid.

        Each derivative node is a stencil a u[i-1] + b u[i] + c u[i+1] of
        ``grid_derivative`` (one sided at the edges), so |u'(x_i)| <=
        (|a| + |b| + |c|) max|u| and K = sqrt(1 + sum_i weighted_quad_i
        (|a_i| + |b_i| + |c_i|)^2).  Rounding moves K and a computed norm by
        about n eps relative, which callers cover with a relative slack.
        """
        dx = np.diff(self.nodes)
        dx1, dx2 = dx[:-1], dx[1:]
        stencil = np.empty(self.n_nodes)
        stencil[0], stencil[-1] = 2.0 / dx[0], 2.0 / dx[-1]
        stencil[1:-1] = (
            dx2 / (dx1 * (dx1 + dx2))
            + np.abs(dx2 - dx1) / (dx1 * dx2)
            + dx1 / (dx2 * (dx1 + dx2))
        )
        return math.sqrt(1.0 + float(np.square(stencil) @ self.weighted_quad))

    def refine(self, factor: int = 2) -> "WeightGrid":
        """Grid with the node count scaled by ``factor`` (same x_max, beta)."""
        if self.spacing is None:
            raise ValueError("refine is only supported for uniform grids")
        n_new = (self.n_nodes - 1) * factor + 1
        return make_grid(self.x_max, n_new, self.weight_beta)


def make_grid(x_max: float, n_points: int, beta: float) -> WeightGrid:
    """Build a uniform grid on [0, x_max] with weight exp(beta x).

    Parameters
    ----------
    x_max : float
        Truncation maturity in years, positive and finite.
    n_points : int
        Number of nodes, >= 3.
    beta : float
        Weight exponent, positive and finite (checked by ``WeightGrid``).
    """
    if not 0 < x_max < math.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    if n_points < 3:
        raise ValueError(f"n_points must be at least 3, got {n_points}")
    nodes = np.linspace(0.0, float(x_max), int(n_points))
    h = x_max / (n_points - 1)
    weights = np.full(n_points, h, dtype=float)
    weights[0] = weights[-1] = h / 2.0
    return WeightGrid(nodes=nodes, weight_beta=float(beta), quad_weights=weights)


@dataclass(frozen=True)
class Curve:
    """Scalar curve sampled at the grid nodes (flat beyond x_max)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("Curve values must be one dimensional")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _values(curve) -> np.ndarray:
    return np.asarray(getattr(curve, "values", curve), dtype=float)


def _check_nodes(values: np.ndarray, grid: WeightGrid, axis: int) -> None:
    if values.shape[axis] != grid.n_nodes:
        raise ValueError(
            f"curve has {values.shape[axis]} samples on axis {axis}, "
            f"grid has {grid.n_nodes} nodes"
        )


def integrate(curve, grid: WeightGrid) -> np.ndarray | float:
    """Trapezoid integral over [0, x_max]."""
    v = _values(curve)
    _check_nodes(v, grid, -1)
    out = v @ grid.quad_weights
    return float(out) if np.ndim(out) == 0 else out


def cumulative_integral(curve, grid: WeightGrid, axis: int = -1) -> np.ndarray:
    """Running trapezoid integral int_0^{x_i} along the node axis."""
    v = _values(curve)
    _check_nodes(v, grid, axis)
    axis %= v.ndim
    lead = (slice(None),) * axis
    half_dx = 0.5 * np.diff(grid.nodes).reshape((-1,) + (1,) * (v.ndim - 1 - axis))
    cells = v[lead + (slice(1, None),)] + v[lead + (slice(None, -1),)]
    cells *= half_dx
    out = np.empty_like(v)
    out[lead + (0,)] = 0.0
    np.cumsum(cells, axis=axis, out=out[lead + (slice(1, None),)])
    return out


def _partial_weights(grid: WeightGrid, upper: float) -> np.ndarray:
    """Node weights w with int_0^upper u = sum_i w_i u(x_i), as ``partial_integral``.

    The trapezoid rule on the complete cells below ``upper``, then the
    trapezoid of the partial cell up to the linear interpolant at ``upper``;
    beyond x_max the flat tail adds (upper - x_max) to the last node.
    """
    if upper < 0:
        raise ValueError(f"upper limit must be nonnegative, got {upper}")
    if upper >= grid.x_max:
        w = grid.quad_weights.copy()
        w[-1] += upper - grid.x_max
        return w
    nodes = grid.nodes
    j = max(int(np.searchsorted(nodes, upper, side="right")), 1)
    half_dx = 0.5 * np.diff(nodes[:j])
    w = np.zeros(grid.n_nodes)
    w[: j - 1] += half_dx
    w[1:j] += half_dx
    x0 = nodes[j - 1]
    frac = (upper - x0) / (nodes[j] - x0)
    w[j - 1] += 0.5 * (upper - x0) * (2.0 - frac)
    w[j] += 0.5 * (upper - x0) * frac
    return w


def partial_integral(curve, grid: WeightGrid, upper) -> np.ndarray | float:
    """Trapezoid integral int_0^upper with linear interpolation at the cut.

    ``upper`` beyond x_max uses the flat extrapolation (last value extends).
    A sequence of limits gives one integral per limit on a new last axis, in
    one pass over the curves.  The node reduction is an einsum, so each
    curve's value does not depend on the batch it sits in.
    """
    limits = np.atleast_1d(upper)
    weights = np.array([_partial_weights(grid, float(u)) for u in limits])
    v = _values(curve)
    _check_nodes(v, grid, -1)
    out = np.einsum("...n,kn->...k", v, weights)
    if np.ndim(upper) > 0:
        return out
    out = out[..., 0]
    return float(out) if np.ndim(out) == 0 else out


def grid_derivative(curve, grid: WeightGrid, axis: int = -1) -> np.ndarray:
    """Centered finite differences along the node axis, one sided at the ends.

    Bitwise np.gradient(..., edge_order=1).  The grid's tiled stencil runs
    over the flattened rows a chunk at a time, as contiguous multiply-adds;
    the values it computes across row ends are overwritten by the edges.
    """
    v = _values(curve)
    _check_nodes(v, grid, axis)
    v = np.moveaxis(v, axis, -1)
    n = grid.n_nodes
    rows = v.reshape(-1, n)
    out = np.empty(v.shape)
    out_rows = out.reshape(-1, n)
    tiles, dx_0, dx_n = grid._stencil
    step = max(1, _STENCIL_VALUES // n)
    tmp = np.empty(min(len(rows), step) * n)
    for start in range(0, len(rows), step):
        f = rows[start : start + step].reshape(-1)  # copies only a strided chunk
        o = out_rows[start : start + step].reshape(-1)[1:-1]
        if tiles is None:
            np.subtract(f[2:], f[:-2], out=o)
            o /= 2.0 * dx_0
            continue
        a, b, c = (tile[1 : f.size - 1] for tile in tiles)
        t = tmp[: f.size - 2]
        np.multiply(a, f[:-2], out=o)
        np.multiply(b, f[1:-1], out=t)
        o += t
        np.multiply(c, f[2:], out=t)
        o += t
    out_rows[:, 0] = (rows[:, 1] - rows[:, 0]) / dx_0
    out_rows[:, -1] = (rows[:, -1] - rows[:, -2]) / dx_n
    return np.moveaxis(out, -1, axis)


def _slope_energy(curve, grid: WeightGrid, axis: int = -1) -> np.ndarray:
    """Weighted slope integral int |u'|^2 alpha of each curve.

    The node axis is ``axis``: -1 for scalar curves, -2 for vector curves,
    whose squared components are summed first (exactly the scalar value for
    d = 1).  The node reduction is an einsum, which rounds each curve's sum
    the same way whatever the batch around it and the BLAS thread count.
    """
    du = grid_derivative(curve, grid, axis=axis)
    sq = np.square(du, out=du)
    if axis == -2:
        sq = sq.sum(axis=-1)
    return np.einsum("...n,n->...", sq, grid.weighted_quad)


def seminorm_H(curve, grid: WeightGrid) -> np.ndarray | float:
    """Derivative part sqrt(int u'^2 alpha) of the curve norm."""
    out = np.sqrt(_slope_energy(curve, grid))
    return float(out) if np.ndim(out) == 0 else out


def norm_H(curve, grid: WeightGrid) -> np.ndarray | float:
    """Curve norm sqrt(u(0)^2 + int u'^2 alpha dx).  Batched over leading axes."""
    v = _values(curve)
    out = np.sqrt(_slope_energy(v, grid) + np.square(v[..., 0]))
    return float(out) if np.ndim(out) == 0 else out


def norm_star(curve, grid: WeightGrid) -> np.ndarray | float:
    """Equivalent norm sqrt(u(x_max)^2 + int u'^2 alpha dx).

    The boundary value at x_max stands in for the value at infinity under
    flat extrapolation.  Coincides with ``norm_H`` whenever u(x_max) = u(0).
    """
    v = _values(curve)
    out = np.sqrt(_slope_energy(v, grid) + np.square(v[..., -1]))
    return float(out) if np.ndim(out) == 0 else out


def norm_frak_H(vcurve, grid: WeightGrid) -> np.ndarray | float:
    """Vector-curve norm sqrt(|phi(0)|^2 + int |phi'(x)|^2 alpha dx).

    ``vcurve`` has the node axis second to last and the component axis last;
    for d = 1 this reduces exactly to ``norm_H`` of the scalar curve.
    """
    v = _values(vcurve)
    if v.ndim < 2:
        raise ValueError("vector curve needs shape (..., n_nodes, d)")
    boundary = np.square(v[..., 0, :]).sum(axis=-1)
    out = np.sqrt(_slope_energy(v, grid, axis=-2) + boundary)
    return float(out) if np.ndim(out) == 0 else out


def shift(curve, t: float, grid: WeightGrid):
    """Right shift (transport toward maturity 0): (shift u)(x) = u(x + t).

    Node-aligned shifts (t an integer number of cells on a uniform grid) are
    applied by exact index rotation so the semigroup law holds bitwise;
    otherwise values are linearly interpolated.  Beyond x_max the curve is
    flat, so shifted-in values repeat the last sample.
    """
    if t < 0:
        raise ValueError(f"shift time must be nonnegative, got {t}")
    v = _values(curve)
    _check_nodes(v, grid, -1)
    out = _shift_values(v, t, grid)
    if isinstance(curve, Curve):
        return Curve(out)
    return out


def _aligned_cells(grid: WeightGrid, t: float) -> int | None:
    """The shift by t in whole cells when it is node aligned, else None."""
    if t == 0.0:
        return 0
    if grid.spacing is not None:
        k = t / grid.spacing
        if abs(k - round(k)) <= _ALIGN_RTOL * max(1.0, abs(k)):
            return min(int(round(k)), grid.n_nodes - 1)
    return None


def _shift_reach(grid: WeightGrid, t: float) -> int:
    """How far right ``shift(u, t)`` reads: its value at x_i needs only u[: i + reach + 1].

    An aligned shift copies u[i + cells]; an interpolating one reads
    u[j_i - 1] and u[j_i] from ``_interpolation_stencil``.  A prefix of the
    grid that keeps u[j_i] computes the same j_i and weights at x_i.
    """
    cells = _aligned_cells(grid, t)
    if cells is not None:
        return cells
    j, _frac = _interpolation_stencil(grid, t)
    return int((j - np.arange(grid.n_nodes)).max())


def _interpolation_stencil(grid: WeightGrid, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(j, frac) with shift(u, t)[i] = u[j_i - 1] (1 - frac_i) + u[j_i] frac_i, flat past x_max."""
    x = grid.nodes + t
    j = np.searchsorted(grid.nodes, x, side="right")
    j = np.clip(j, 1, grid.n_nodes - 1)
    x0 = grid.nodes[j - 1]
    x1 = grid.nodes[j]
    return j, np.clip((x - x0) / (x1 - x0), 0.0, 1.0)


def _shift_values(
    v: np.ndarray, t: float, grid: WeightGrid, out: np.ndarray | None = None
) -> np.ndarray:
    """Values of ``shift(v, t)``, written into ``out`` when given."""
    if out is None:
        out = np.empty(v.shape)
    n = grid.n_nodes
    cells = _aligned_cells(grid, t)
    if cells is not None:
        out[..., : n - cells] = v[..., cells:]
        out[..., n - cells :] = v[..., -1:]
        return out
    j, frac = _interpolation_stencil(grid, t)
    np.multiply(v[..., j - 1], 1.0 - frac, out=out)
    out += v[..., j] * frac
    return out


@dataclass(frozen=True)
class EmbeddingRatios:
    """Ratios left/right of the three embedding bounds of the curve space.

    sup_ratio : |u|_inf / |u|_H
    l1_ratio  : |u - u(x_max)|_{L1} / |u|_H
    sq_ratio  : |(u - u(x_max))^2|_{L2,alpha} / |u|_H^2
    """

    sup_ratio: float
    l1_ratio: float
    sq_ratio: float


def check_embeddings(curve, grid: WeightGrid) -> EmbeddingRatios:
    """Evaluate the sup / L1 / weighted-square embedding ratios of a curve."""
    v = _values(curve)
    if v.ndim != 1:
        raise ValueError("check_embeddings expects a single curve")
    h = norm_H(v, grid)
    if h == 0.0:
        raise ValueError("embedding ratios are undefined for the zero curve")
    centered = v - v[-1]
    sup = float(np.abs(v).max())
    l1 = float(np.abs(centered) @ grid.quad_weights)
    sq = float(np.sqrt(np.power(centered, 4) @ grid.weighted_quad))
    return EmbeddingRatios(sup_ratio=sup / h, l1_ratio=l1 / h, sq_ratio=sq / h**2)


def pointwise_norm_curve(vcurve) -> np.ndarray:
    """Scalar curve x -> |phi(x)| of a vector curve (Euclidean norm in R^d)."""
    v = _values(vcurve)
    return np.sqrt(np.square(v).sum(axis=-1))


# ---------------------------------------------------------------------------
# Random curve families.  Curves are finite sums of damped harmonics, so the
# same family can be sampled on any grid (used by refinement-stability tests)
# and differentiated in closed form.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicFamily:
    """Curves c_i + sum_m a_im cos(w_im x + p_im) exp(-d_im x).

    ``vanish_at_end`` multiplies by the envelope (1 - (x/x_max)^2)^2 so every
    curve and its first derivative vanish at x_max (flat-to-zero far field).
    """

    offsets: np.ndarray      # (n_curves,)
    amplitudes: np.ndarray   # (n_curves, n_modes)
    frequencies: np.ndarray  # (n_curves, n_modes)
    phases: np.ndarray       # (n_curves, n_modes)
    decays: np.ndarray       # (n_curves, n_modes)
    x_max: float
    vanish_at_end: bool = False

    def sample(self, grid: WeightGrid) -> np.ndarray:
        return self.sample_at(grid.nodes)

    def sample_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phase = self.frequencies[..., None] * x + self.phases[..., None]
        damp = np.exp(-self.decays[..., None] * x)
        curves = (self.amplitudes[..., None] * np.cos(phase) * damp).sum(axis=-2)
        curves = curves + self.offsets[:, None]
        if self.vanish_at_end:
            env = (1.0 - np.square(x / self.x_max)) ** 2
            curves = curves * env
        return curves

    def derivative_at(self, x: np.ndarray) -> np.ndarray:
        """Exact first derivative (only for families without the envelope)."""
        if self.vanish_at_end:
            raise ValueError("closed-form derivative not provided with envelope")
        x = np.asarray(x, dtype=float)
        phase = self.frequencies[..., None] * x + self.phases[..., None]
        damp = np.exp(-self.decays[..., None] * x)
        term = -self.frequencies[..., None] * np.sin(phase) - self.decays[
            ..., None
        ] * np.cos(phase)
        return (self.amplitudes[..., None] * term * damp).sum(axis=-2)


def random_harmonic_family(
    grid: WeightGrid,
    n_curves: int,
    rng: np.random.Generator,
    n_modes: int = 4,
    max_frequency: float = 3.0,
    amplitude: float = 1.0,
    offset_scale: float = 1.0,
    min_decay: float | None = None,
    vanish_at_end: bool = False,
) -> HarmonicFamily:
    """Draw a random family of damped-harmonic curves on the grid's domain.

    Decay rates default to at least beta/2 plus a margin, which keeps the
    weighted derivative integrals dominated by the bulk rather than the tail.
    """
    if min_decay is None:
        min_decay = 0.5 * grid.weight_beta + 0.2
    offsets = offset_scale * rng.normal(size=n_curves)
    amplitudes = amplitude * rng.normal(size=(n_curves, n_modes))
    frequencies = rng.uniform(0.3, max_frequency, size=(n_curves, n_modes))
    phases = rng.uniform(0.0, 2 * np.pi, size=(n_curves, n_modes))
    decays = rng.uniform(min_decay, min_decay + 1.0, size=(n_curves, n_modes))
    return HarmonicFamily(
        offsets=offsets,
        amplitudes=amplitudes,
        frequencies=frequencies,
        phases=phases,
        decays=decays,
        x_max=grid.x_max,
        vanish_at_end=vanish_at_end,
    )


def random_curves(
    grid: WeightGrid,
    n_curves: int,
    rng: np.random.Generator,
    **family_kwargs,
) -> np.ndarray:
    """Random smooth curves as a (n_curves, n_nodes) array."""
    return random_harmonic_family(grid, n_curves, rng, **family_kwargs).sample(grid)


def random_vector_curves(
    grid: WeightGrid,
    n_curves: int,
    dim: int,
    rng: np.random.Generator,
    **family_kwargs,
) -> np.ndarray:
    """Random smooth vector curves as a (n_curves, n_nodes, d) array."""
    flat = random_curves(grid, n_curves * dim, rng, **family_kwargs)
    return flat.reshape(n_curves, dim, grid.n_nodes).transpose(0, 2, 1)


def rescale_to_norm(
    values: np.ndarray, grid: WeightGrid, target: float | np.ndarray, norm: str = "H"
) -> np.ndarray:
    """Scale curves (batched) so the selected norm equals ``target``."""
    if norm == "H":
        current = norm_H(values, grid)
    elif norm == "star":
        current = norm_star(values, grid)
    elif norm == "frak":
        current = norm_frak_H(values, grid)
    else:
        raise ValueError(f"unknown norm kind {norm!r}")
    current = np.asarray(current)
    if np.any(current == 0):
        raise ValueError("cannot rescale a zero curve")
    factor = np.asarray(target) / current
    if values.ndim > current.ndim:
        extra = values.ndim - current.ndim
        factor = factor.reshape(factor.shape + (1,) * extra)
    return values * factor

