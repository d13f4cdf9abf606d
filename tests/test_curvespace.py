"""Grid, norms, shift semigroup, and embedding-ratio behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyhjm as lh
from levyhjm.curvespace import _STENCIL_VALUES

BETA = 0.1


@pytest.fixture(scope="module")
def grid():
    return lh.make_grid(10.0, 101, BETA)


class TestMakeGrid:
    def test_uniform_spacing_and_weight(self):
        g = lh.make_grid(10.0, 101, 0.1)
        assert g.spacing == pytest.approx(0.1)
        assert g.alpha[-1] == pytest.approx(math.e, rel=1e-12)
        assert g.quad_weights.sum() == pytest.approx(10.0)
        assert np.all(g.quad_weights > 0)

    def test_three_point_grid(self):
        g = lh.make_grid(1.0, 3, 1.0)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "x_max,n,beta", [(0.0, 11, 0.1), (-1.0, 11, 0.1), (5.0, 2, 0.1), (5.0, 11, 0.0)]
    )
    def test_rejects_bad_parameters(self, x_max, n, beta):
        with pytest.raises(ValueError):
            lh.make_grid(x_max, n, beta)

    def test_weight_is_integrable_to_minus_third(self):
        # alpha^(-1/3) = exp(-beta x / 3) integrates on the half line for beta > 0
        g = lh.make_grid(10.0, 101, 0.25)
        decay = np.exp(-g.weight_beta * g.nodes / 3.0)
        assert np.all(np.diff(g.alpha) > 0)
        assert decay[-1] < decay[0]


class TestNorms:
    def test_constant_curve_norm_is_abs_value(self, grid):
        c = np.full(grid.n_nodes, -3.5)
        assert lh.norm_H(c, grid) == pytest.approx(3.5, abs=1e-14)
        assert lh.norm_star(c, grid) == pytest.approx(3.5, abs=1e-14)

    def test_zero_curve(self, grid):
        z = np.zeros(grid.n_nodes)
        assert lh.norm_H(z, grid) == 0.0
        assert lh.norm_star(z, grid) == 0.0

    def test_exp_decay_closed_form(self):
        # |u|_H^2 = 1 + int e^{-2x} e^{0.1 x} dx = 1 + 1/1.9 on a long fine grid
        g = lh.make_grid(40.0, 4001, 0.1)
        u = np.exp(-g.nodes)
        assert lh.norm_H(u, g) ** 2 == pytest.approx(1.0 + 1.0 / 1.9, abs=1e-3)
        assert lh.norm_star(u, g) == pytest.approx(
            math.sqrt(1.0 / 1.9 + math.exp(-80.0)), abs=1e-3
        )

    def test_norm_star_equals_norm_H_when_boundaries_match(self, grid):
        rng = np.random.default_rng(0)
        u = lh.random_curves(grid, 1, rng)[0]
        u = u - u[-1] + u[0]  # pin u(x_max) = u(0)... shift the whole curve
        u[-1] = u[0]
        assert lh.norm_star(u, grid) == pytest.approx(lh.norm_H(u, grid), rel=1e-12)

    def test_vector_norm_reduces_to_scalar_for_d1(self, grid):
        rng = np.random.default_rng(1)
        u = lh.random_curves(grid, 1, rng)[0]
        assert lh.norm_frak_H(u[:, None], grid) == lh.norm_H(u, grid)

    def test_vector_norm_of_constant_vector(self, grid):
        v = np.tile([3.0, 4.0], (grid.n_nodes, 1))
        assert lh.norm_frak_H(v, grid) == pytest.approx(5.0, abs=1e-14)

    def test_vector_norm_componentwise_reduction(self):
        g = lh.make_grid(40.0, 2001, 0.1)
        scalar = np.exp(-g.nodes)
        vec = np.stack([scalar, np.zeros_like(scalar)], axis=-1)
        assert lh.norm_frak_H(vec, g) == pytest.approx(lh.norm_H(scalar, g), rel=1e-13)

    def test_batched_norms_match_loop(self, grid):
        rng = np.random.default_rng(2)
        curves = lh.random_curves(grid, 5, rng)
        batched = lh.norm_H(curves, grid)
        for i in range(5):
            assert batched[i] == lh.norm_H(curves[i], grid)

    def test_norm_accepts_curve_objects(self, grid):
        c = lh.Curve(np.linspace(0.0, 1.0, grid.n_nodes))
        assert lh.norm_H(c, grid) == lh.norm_H(c.values, grid)

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError, match="nodes"):
            lh.norm_H(np.zeros(7), grid)

    def test_refinement_stability(self):
        # norms of smooth curves move by O(h^2) under node doubling
        g = lh.make_grid(10.0, 201, BETA)
        fam = lh.random_harmonic_family(g, 20, np.random.default_rng(3))
        coarse = lh.norm_H(fam.sample(g), g)
        fine_grid = g.refine(2)
        fine = lh.norm_H(fam.sample(fine_grid), fine_grid)
        assert np.all(np.abs(coarse - fine) / fine < 5e-3)


def _nonuniform_grid(n: int) -> lh.WeightGrid:
    nodes = 10.0 * np.linspace(0.0, 1.0, n) ** 2
    weights = np.zeros(n)
    weights[1:] += 0.5 * np.diff(nodes)
    weights[:-1] += 0.5 * np.diff(nodes)
    return lh.WeightGrid(nodes=nodes, weight_beta=BETA, quad_weights=weights)


def _exactly_uniform_grid(n: int, h: float) -> lh.WeightGrid:
    weights = np.full(n, h)
    weights[[0, -1]] = h / 2
    return lh.WeightGrid(nodes=h * np.arange(n), weight_beta=BETA, quad_weights=weights)


STENCIL_GRIDS = {
    "make_grid_121": lambda: lh.make_grid(6.0, 121, BETA),  # spacing rounds unevenly
    "make_grid_321": lambda: lh.make_grid(10.0, 321, BETA),  # h = 1/32, exactly uniform
    "uniform_h3": lambda: _exactly_uniform_grid(40, 3.0),  # 1/(2h) inexact
    "nonuniform": lambda: _nonuniform_grid(77),
}


class TestStencil:
    """The tiled derivative stencil is bitwise np.gradient(..., edge_order=1)."""

    @pytest.mark.parametrize("name", list(STENCIL_GRIDS))
    def test_bitwise_gradient(self, name):
        g = STENCIL_GRIDS[name]()
        n = g.n_nodes
        rng = np.random.default_rng(n)
        many = _STENCIL_VALUES // n * 2 + 3  # more rows than the tile holds
        for shape in [(n,), (5, n), (3, 4, n), (many, n)]:
            v = rng.normal(size=shape)
            np.testing.assert_array_equal(
                lh.grid_derivative(v, g), np.gradient(v, g.nodes, axis=-1, edge_order=1)
            )
        strided = rng.normal(size=(9, 3, n))[:, 1]
        np.testing.assert_array_equal(
            lh.grid_derivative(strided, g),
            np.gradient(strided, g.nodes, axis=-1, edge_order=1),
        )
        vec = rng.normal(size=(6, n, 2))
        np.testing.assert_array_equal(
            lh.grid_derivative(vec, g, axis=-2),
            np.gradient(vec, g.nodes, axis=-2, edge_order=1),
        )

    @pytest.mark.parametrize("name", list(STENCIL_GRIDS))
    def test_norms_bitwise_across_row_blocks(self, name):
        g = STENCIL_GRIDS[name]()
        curves = lh.random_curves(g, 50, np.random.default_rng(4))
        vec = np.stack([curves, 0.5 * curves[::-1]], axis=-1)
        for norm, u in (
            (lh.norm_H, curves),
            (lh.norm_star, curves),
            (lh.seminorm_H, curves),
            (lh.norm_frak_H, vec),
        ):
            whole = norm(u, g)
            for rows in (1, 7):
                blocks = [norm(u[i : i + rows], g) for i in range(0, len(u), rows)]
                assert np.array_equal(np.concatenate(blocks), whole), norm.__name__
        assert np.array_equal(lh.norm_frak_H(curves[..., None], g), lh.norm_H(curves, g))


class TestNormEquivalence:
    def test_equivalence_constants_on_random_family(self, grid):
        rng = np.random.default_rng(4)
        curves = lh.random_curves(grid, 300, rng)
        ratio = lh.norm_star(curves, grid) / lh.norm_H(curves, grid)
        c1, c2 = float(ratio.min()), float(ratio.max())
        assert 0.0 < c1 <= c2 < math.inf
        # same constants bound a fresh family from the same generator settings
        fresh = lh.random_curves(grid, 300, np.random.default_rng(44))
        fresh_ratio = lh.norm_star(fresh, grid) / lh.norm_H(fresh, grid)
        assert float(fresh_ratio.max()) <= c2 * 1.5
        assert float(fresh_ratio.min()) >= c1 / 1.5


class TestShift:
    def test_constant_invariance(self, grid):
        c = np.full(grid.n_nodes, 2.2)
        for t in (0.05, 0.1, 1.7):
            np.testing.assert_array_equal(lh.shift(c, t, grid), c)

    def test_zero_shift_is_identity(self, grid):
        u = lh.random_curves(grid, 1, np.random.default_rng(5))[0]
        np.testing.assert_array_equal(lh.shift(u, 0.0, grid), u)

    def test_negative_time_rejected(self, grid):
        with pytest.raises(ValueError, match="nonnegative"):
            lh.shift(np.zeros(grid.n_nodes), -0.1, grid)

    def test_node_aligned_shift_rotates(self, grid):
        u = np.arange(grid.n_nodes, dtype=float)
        s = lh.shift(u, grid.spacing, grid)
        np.testing.assert_array_equal(s[:-1], u[1:])
        assert s[-1] == u[-1]

    def test_whole_curve_shifted_out_is_flat(self, grid):
        u = np.arange(grid.n_nodes, dtype=float)
        s = lh.shift(u, 50.0, grid)
        np.testing.assert_array_equal(s, np.full(grid.n_nodes, u[-1]))

    def test_semigroup_law_bitwise_on_aligned_shifts(self, grid):
        u = lh.random_curves(grid, 3, np.random.default_rng(6))
        a = lh.shift(lh.shift(u, 0.3, grid), 0.2, grid)
        b = lh.shift(u, 0.5, grid)
        np.testing.assert_array_equal(a, b)

    def test_interpolated_shift_close_to_semigroup(self, grid):
        u = lh.random_curves(grid, 1, np.random.default_rng(7))[0]
        a = lh.shift(lh.shift(u, 0.123, grid), 0.311, grid)
        b = lh.shift(u, 0.434, grid)
        assert np.abs(a - b).max() < 5e-3

    def test_linear_curve_shift_exact_under_interpolation(self, grid):
        # linear interpolation reproduces affine curves up to the flat tail
        u = 0.01 + 0.002 * grid.nodes
        s = lh.shift(u, 0.137, grid)
        inside = grid.nodes + 0.137 <= grid.x_max
        np.testing.assert_allclose(
            s[inside], 0.01 + 0.002 * (grid.nodes[inside] + 0.137), rtol=1e-12
        )

    def test_contraction_in_star_norm_for_flat_to_zero_curves(self):
        # curves vanishing at x_max: shift never increases the boundary-value
        # norm beyond an interpolation error that shrinks under refinement
        worst = {}
        for n in (201, 401):
            g = lh.make_grid(10.0, n, BETA)
            fam = lh.random_harmonic_family(
                g, 100, np.random.default_rng(8), vanish_at_end=True
            )
            curves = fam.sample(g)
            margins = []
            for t in (0.05, 0.3, 1.0, 2.7):
                m = lh.norm_star(lh.shift(curves, t, g), g) - lh.norm_star(curves, g)
                margins.append(m.max())
            worst[n] = float(max(margins))
        assert worst[201] <= 1e-12  # empirically strictly negative
        assert worst[401] <= 1e-12

    def test_shift_returns_curve_for_curve_input(self, grid):
        c = lh.Curve(np.zeros(grid.n_nodes))
        assert isinstance(lh.shift(c, 0.1, grid), lh.Curve)


def _checkerboard(grid):
    """The damped checkerboard (-1)^i e^{-x/2}, with u(0) a third of |u(x_1)|.

    Centered differences see a checkerboard only at the grid's ends; a
    one-cell shift moves the end at 0 into the weighted interior.
    """
    u = (-1.0) ** np.arange(grid.n_nodes) * np.exp(-0.5 * grid.nodes)
    u[0] = u[1] / 3.0
    return u


class TestShiftGain:
    """``shift_gain`` is the operator norm of the shift in the curve norm."""

    CASES = [
        (lh.make_grid(6.0, 121, BETA), 0.05, 1.7343),  # one cell
        (lh.make_grid(10.0, 321, BETA), 1.0 / 32.0, 1.7351),  # one cell
        (lh.make_grid(6.0, 121, BETA), 0.037, 1.1971),  # interpolating
    ]

    @pytest.mark.parametrize("grid, t, expected", CASES, ids=["121", "321", "interp"])
    def test_value(self, grid, t, expected):
        assert lh.shift_gain(grid, t) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("grid, t, expected", CASES, ids=["121", "321", "interp"])
    def test_matches_the_pencil_eigenvalue(self, grid, t, expected):
        # C^2 is the top eigenvalue of the pencil (S^T A S, A), here reduced
        # with two solves against the Cholesky factor of A
        eye = np.eye(grid.n_nodes)
        D = lh.grid_derivative(eye, grid, axis=0)
        S = lh.shift(eye, t, grid).T
        A = D.T @ (grid.weighted_quad[:, None] * D)
        A[0, 0] += 1.0
        L = np.linalg.cholesky(A)
        pencil = np.linalg.solve(L, np.linalg.solve(L, S.T @ A @ S).T)
        top = np.linalg.eigvalsh(0.5 * (pencil + pencil.T))[-1]
        assert lh.shift_gain(grid, t) == pytest.approx(math.sqrt(top), rel=1e-12)

    @pytest.mark.parametrize("grid, t, expected", CASES, ids=["121", "321", "interp"])
    def test_no_curve_exceeds_it(self, grid, t, expected):
        rng = np.random.default_rng(31)
        gain = lh.shift_gain(grid, t)
        curves = np.concatenate(
            [
                lh.random_curves(grid, 2000, rng),
                rng.normal(size=(2000, grid.n_nodes)),  # rough, checkerboard-rich
                _checkerboard(grid)[None] * rng.uniform(0.5, 1.5, size=(200, grid.n_nodes)),
            ]
        )
        ratios = lh.norm_H(lh.shift(curves, t, grid), grid) / lh.norm_H(curves, grid)
        assert ratios.max() <= gain * (1 + 1e-12)
        assert ratios.max() > 1.0

    @pytest.mark.parametrize("grid, t, expected", CASES[:2], ids=["121", "321"])
    def test_checkerboard_comes_within_one_percent(self, grid, t, expected):
        u = _checkerboard(grid)
        ratio = lh.norm_H(lh.shift(u, t, grid), grid) / lh.norm_H(u, grid)
        assert 0.99 * lh.shift_gain(grid, t) <= ratio <= lh.shift_gain(grid, t)

    def test_matches_brute_force_on_a_small_grid(self):
        # on 9 nodes the sup over a dense sample of the unit sphere is close
        grid = lh.make_grid(1.0, 9, BETA)
        t = 0.125
        rng = np.random.default_rng(32)
        curves = rng.normal(size=(200_000, grid.n_nodes))
        ratios = lh.norm_H(lh.shift(curves, t, grid), grid) / lh.norm_H(curves, grid)
        gain = lh.shift_gain(grid, t)
        assert ratios.max() <= gain * (1 + 1e-12)
        assert ratios.max() >= 0.95 * gain

    def test_zero_shift_has_gain_one(self):
        assert lh.shift_gain(lh.make_grid(6.0, 121, BETA), 0.0) == pytest.approx(1.0, abs=1e-10)


class TestIntegrals:
    def test_partial_equals_full_at_xmax(self, grid):
        u = lh.random_curves(grid, 1, np.random.default_rng(9))[0]
        assert lh.partial_integral(u, grid, grid.x_max) == pytest.approx(
            lh.integrate(u, grid), rel=1e-12
        )

    def test_partial_interpolates_inside_cells(self, grid):
        u = np.ones(grid.n_nodes)
        assert lh.partial_integral(u, grid, 0.7499) == pytest.approx(0.7499, rel=1e-12)

    def test_partial_beyond_xmax_uses_flat_tail(self, grid):
        u = np.full(grid.n_nodes, 2.0)
        assert lh.partial_integral(u, grid, grid.x_max + 3.0) == pytest.approx(
            2.0 * (grid.x_max + 3.0), rel=1e-12
        )

    def test_cumulative_matches_partial_at_nodes(self, grid):
        u = lh.random_curves(grid, 1, np.random.default_rng(10))[0]
        cum = lh.cumulative_integral(u, grid)
        for idx in (1, 17, 50, 100):
            assert cum[idx] == pytest.approx(
                lh.partial_integral(u, grid, float(grid.nodes[idx])), rel=1e-12
            )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_cumulative_matches_scipy_bitwise(self, d, uniform):
        from scipy.integrate import cumulative_trapezoid

        g = lh.make_grid(10.0, 77, BETA) if uniform else _nonuniform_grid(77)
        rng = np.random.default_rng(d)
        vec = rng.normal(size=(5, g.n_nodes, d))
        np.testing.assert_array_equal(
            lh.cumulative_integral(vec, g, axis=-2),
            cumulative_trapezoid(vec, g.nodes, axis=-2, initial=0.0),
        )
        scalar = vec[..., 0]
        np.testing.assert_array_equal(
            lh.cumulative_integral(scalar, g),
            cumulative_trapezoid(scalar, g.nodes, axis=-1, initial=0.0),
        )

    @pytest.mark.parametrize("name", ["make_grid_121", "nonuniform"])
    def test_partial_matches_two_branch_formula(self, name):
        def reference(v, g, upper):
            # the direct quadrature: full trapezoid plus flat tail beyond x_max,
            # else complete cells plus the partial cell to the interpolant
            nodes = g.nodes
            if upper >= g.x_max:
                return v @ g.quad_weights + (upper - g.x_max) * v[..., -1]
            j = max(int(np.searchsorted(nodes, upper, side="right")), 1)
            dx = np.diff(nodes[:j])
            head = 0.5 * (v[..., 1:j] + v[..., : j - 1]) @ dx if j > 1 else 0.0
            x0, x1 = nodes[j - 1], nodes[j]
            frac = (upper - x0) / (x1 - x0)
            v_cut = v[..., j - 1] * (1 - frac) + v[..., j] * frac
            return head + 0.5 * (v[..., j - 1] + v_cut) * (upper - x0)

        g = STENCIL_GRIDS[name]()
        rng = np.random.default_rng(12)
        curves = 0.03 + 0.01 * lh.random_curves(g, 20, rng, amplitude=0.5)
        assert (curves > 0).all()
        mid_cell = 0.5 * float(g.nodes[3] + g.nodes[4])
        node = float(g.nodes[len(g.nodes) // 2])
        uppers = [0.0, mid_cell, node, g.x_max, g.x_max + 1.7]
        for upper in uppers:
            got = lh.partial_integral(curves, g, upper)
            want = reference(curves, g, upper)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0, err_msg=str(upper))
            assert lh.partial_integral(curves[3], g, upper) == got[3]
        # a sequence of limits: the same values, one per limit on the last axis
        together = lh.partial_integral(curves, g, uppers)
        assert together.shape == (len(curves), len(uppers))
        for i, upper in enumerate(uppers):
            assert np.array_equal(together[:, i], lh.partial_integral(curves, g, upper))
        assert np.array_equal(lh.partial_integral(curves[3], g, uppers), together[3])

    def test_negative_upper_rejected(self, grid):
        with pytest.raises(ValueError):
            lh.partial_integral(np.zeros(grid.n_nodes), grid, -0.5)


class TestEmbeddings:
    def test_constant_curve_ratios(self, grid):
        r = lh.check_embeddings(np.full(grid.n_nodes, 4.0), grid)
        assert r.sup_ratio == pytest.approx(1.0, abs=1e-14)
        assert r.l1_ratio == 0.0
        assert r.sq_ratio == 0.0

    def test_zero_curve_signalled(self, grid):
        with pytest.raises(ValueError, match="zero curve"):
            lh.check_embeddings(np.zeros(grid.n_nodes), grid)

    def test_exp_curve_ratios_refinement_stable(self):
        g = lh.make_grid(40.0, 2001, BETA)
        fine = g.refine(2)
        r1 = lh.check_embeddings(np.exp(-g.nodes), g)
        r2 = lh.check_embeddings(np.exp(-fine.nodes), fine)
        for a, b in (
            (r1.sup_ratio, r2.sup_ratio),
            (r1.l1_ratio, r2.l1_ratio),
            (r1.sq_ratio, r2.sq_ratio),
        ):
            assert math.isfinite(a)
            assert abs(a - b) / b < 0.01

    def test_random_family_ratios_bounded(self, grid):
        rng = np.random.default_rng(11)
        curves = lh.random_curves(grid, 500, rng)
        sups, l1s, sqs = [], [], []
        for u in curves:
            r = lh.check_embeddings(u, grid)
            sups.append(r.sup_ratio)
            l1s.append(r.l1_ratio)
            sqs.append(r.sq_ratio)
        assert max(sups) < 10 and max(l1s) < 50 and max(sqs) < 20


class TestPointwiseNormDominance:
    def test_vector_norm_curve_dominated_exactly(self, grid):
        # |x -> |phi(x)|| in the curve norm never exceeds the vector-curve
        # norm; on a uniform grid the discrete inequality is exact because
        # centered differences obey the triangle inequality
        rng = np.random.default_rng(12)
        vecs = lh.random_vector_curves(grid, 200, 3, rng)
        lhs = lh.norm_H(lh.pointwise_norm_curve(vecs), grid)
        rhs = lh.norm_frak_H(vecs, grid)
        assert np.all(lhs <= rhs * (1 + 1e-12))


class TestHypothesisProperties:
    @given(offset=st.floats(-5, 5), scale=st.floats(0.01, 10))
    @settings(max_examples=25, deadline=None)
    def test_norm_scaling_and_positivity(self, offset, scale):
        g = lh.make_grid(5.0, 51, BETA)
        u = offset + scale * np.sin(g.nodes)
        n = lh.norm_H(u, g)
        assert n >= 0
        assert lh.norm_H(2.0 * u, g) == pytest.approx(2.0 * n, rel=1e-12)

    @given(k1=st.integers(0, 30), k2=st.integers(0, 30), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_law_bitwise_property(self, k1, k2, seed):
        g = lh.make_grid(5.0, 51, BETA)
        u = lh.random_curves(g, 1, np.random.default_rng(seed))[0]
        h = g.spacing
        a = lh.shift(lh.shift(u, k1 * h, g), k2 * h, g)
        b = lh.shift(u, (k1 + k2) * h, g)
        np.testing.assert_array_equal(a, b)

    @given(target=st.floats(0.1, 50))
    @settings(max_examples=25, deadline=None)
    def test_rescale_to_norm(self, target):
        g = lh.make_grid(5.0, 51, BETA)
        u = lh.random_curves(g, 4, np.random.default_rng(13))
        scaled = lh.rescale_to_norm(u, g, target)
        np.testing.assert_allclose(lh.norm_H(scaled, g), target, rtol=1e-10)
