import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode.errors import ConfigurationError, InvalidGridError
from kronmode.fd import (
    DIRICHLET_BC,
    DIRICHLET_ZERO,
    NEUMANN_BC,
    NEUMANN_ZERO,
    BoundaryCondition,
    Grid1D,
    diff_matrix,
    fd_weights,
    fourier_second_derivative,
    gpe_weighted_factors,
    heat_factors,
    pipeflow_factors,
    pipeflow_grids,
    pipeflow_velocity,
    sinh_clustered_grid,
    trapezoid_weights,
    uniform_grid,
    uniform_periodic_grid,
)
from kronmode.fd import _stencil_weights
from kronmode.kron import matvec
from oracles import assemble_full, diff_matrix_by_rows, fornberg_weights


class TestFdWeights:
    def test_centered_second_difference(self):
        h = 0.25
        w = fd_weights([-h, 0.0, h], 0.0, 2)
        assert np.allclose(w, np.array([1.0, -2.0, 1.0]) / h**2, rtol=1e-13)

    def test_fourth_order_second_difference(self):
        h = 0.5
        nodes = h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = fd_weights(nodes, 0.0, 2)
        want = np.array([-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12]) / h**2
        assert np.allclose(w, want, rtol=1e-12)
        # polynomial-exactness oracle on monomials x^0..x^4
        for degree in range(5):
            vals = nodes**degree
            second = degree * (degree - 1) * 0.0 ** max(degree - 2, 0) if degree != 2 else 2.0
            assert w @ vals == pytest.approx(second, abs=1e-10)

    def test_forward_difference(self):
        h = 0.1
        w = fd_weights([0.0, h], 0.0, 1)
        assert np.allclose(w, np.array([-1.0, 1.0]) / h, rtol=1e-13)

    def test_interpolation_weights(self):
        # zeroth derivative reduces to Lagrange interpolation
        nodes = np.array([-1.0, 0.5, 2.0])
        w = fd_weights(nodes, 0.3, 0)
        assert w @ nodes**2 == pytest.approx(0.09, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n_nodes=st.integers(2, 7),
        deriv=st.integers(0, 3),
    )
    def test_polynomial_exactness_on_random_nodes(self, seed, n_nodes, deriv):
        if deriv >= n_nodes:
            deriv = n_nodes - 1
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.uniform(-1.5, 1.5, n_nodes))
        if np.diff(nodes).min() < 1e-2:  # keep the stencil well separated
            nodes = np.arange(n_nodes) * (1.0 + 0.5 * rng.random(n_nodes))
            nodes = np.cumsum(nodes / nodes.max() + 0.1)
        center = float(rng.uniform(nodes[0], nodes[-1]))
        w = fd_weights(nodes, center, deriv)
        for degree in range(n_nodes):
            poly = np.zeros(degree + 1)
            poly[0] = 1.0  # x**degree in numpy's highest-first convention
            want = np.polyval(np.polyder(poly, deriv), center) if deriv <= degree else 0.0
            got = w @ np.polyval(poly, nodes)
            scale = max(np.abs(w).max(), 1.0)
            assert got == pytest.approx(want, abs=1e-8 * scale)

    def test_repeated_nodes(self):
        with pytest.raises(InvalidGridError):
            fd_weights([0.0, 0.0, 1.0], 0.0, 1)

    def test_order_needs_enough_nodes(self):
        with pytest.raises(ConfigurationError):
            fd_weights([0.0, 1.0], 0.0, 2)

    @pytest.mark.parametrize("order", [1.5, True, 1.0, -1])
    def test_order_is_a_nonnegative_integer(self, order):
        with pytest.raises(ConfigurationError):
            fd_weights([-1.0, 0.0, 1.0], 0.0, order)

    @pytest.mark.parametrize("nodes, center", [
        ([0.0, 1.0, np.inf], 0.0),
        ([0.0, 1.0, np.nan], 0.0),
        ([-1.0, 0.0, 1.0], np.inf),
        ([-1.0, 0.0, 1.0], np.nan),
    ])
    def test_nodes_and_center_are_finite(self, nodes, center):
        with pytest.raises(InvalidGridError):
            fd_weights(nodes, center, 1)

    @pytest.mark.parametrize("nodes, center", [
        ([0.0, 1.0, 2.0 + 1j], 0.0),
        (np.array([-1.0, 0.0, 1.0]) + 0j, 0.0),
        ([-1.0, 0.0, 1.0], 0.5j),
        ([-1.0, 0.0, 1.0], np.complex128(0.5)),
    ])
    def test_complex_nodes_and_center_are_rejected(self, nodes, center):
        with pytest.raises(InvalidGridError):
            fd_weights(nodes, center, 1)

    @pytest.mark.parametrize("center", [[0.0, 1.0], np.zeros((1, 1)), [0.5]])
    def test_a_center_that_is_not_a_scalar_is_rejected(self, center):
        with pytest.raises(InvalidGridError, match="scalar"):
            fd_weights([0.0, 1.0, 2.0], center, 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), rows=st.integers(1, 6), n_nodes=st.integers(1, 9),
           deriv=st.integers(0, 3))
    def test_each_batched_row_is_its_one_row_weights_byte_for_byte(self, seed, rows, n_nodes,
                                                                   deriv):
        deriv = min(deriv, n_nodes - 1)
        rng = np.random.default_rng(seed)
        # Distinct nodes in random order, each row shifted and scaled on its own.
        windows = np.cumsum(rng.uniform(0.05, 1.0, (rows, n_nodes)), axis=1)
        windows = rng.permuted(windows * rng.uniform(0.1, 10.0, (rows, 1)), axis=1)
        windows += rng.uniform(-5.0, 5.0, (rows, 1))
        centers = rng.uniform(windows.min(axis=1), windows.max(axis=1))
        got = _stencil_weights(windows, centers, deriv)
        assert got.shape == (rows, n_nodes)
        for nodes, center, w in zip(windows, centers, got):
            assert w.tobytes() == fd_weights(nodes, center, deriv).tobytes()
            assert w.tobytes() == fornberg_weights(nodes, center, deriv).tobytes()


class TestDiffMatrix:
    def test_periodic_circulant(self):
        grid = uniform_periodic_grid(0.0, 4.0, 4)  # h = 1
        d2 = diff_matrix(grid, 2, 2)
        assert np.allclose(d2[0], [-2.0, 1.0, 0.0, 1.0], rtol=0, atol=1e-14)
        for i in range(4):
            assert np.allclose(d2[i], np.roll(d2[0], i), rtol=0, atol=1e-14)

    def test_dirichlet_tridiagonal(self):
        grid = uniform_grid(0.0, 1.0, 3)  # h = 0.5
        d2 = diff_matrix(grid, 2, 2, DIRICHLET_BC)
        h2 = 0.25
        want = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]) / h2
        assert np.allclose(d2, want, rtol=0, atol=1e-12)

    def test_nonuniform_quadratic_exactness(self):
        grid = Grid1D([0.0, 0.3, 0.7, 1.4, 2.0])
        d2 = diff_matrix(grid, 2, 2, NEUMANN_BC)
        got = d2 @ grid.points**2
        assert np.allclose(got[1:-1], 2.0, rtol=0, atol=1e-10)

    def test_nonuniform_linear_zero_interior(self):
        grid = Grid1D([-1.0, -0.4, 0.1, 0.9, 1.7, 2.0])
        d2 = diff_matrix(grid, 2, 2, NEUMANN_BC)
        got = d2 @ grid.points
        assert np.allclose(got[1:-1], 0.0, rtol=0, atol=1e-10)

    def test_neumann_preserves_constants(self):
        for grid in (uniform_grid(0.0, 1.0, 7), Grid1D([0.0, 0.1, 0.35, 0.6, 1.0])):
            d2 = diff_matrix(grid, 2, 2, NEUMANN_BC)
            assert np.abs(d2 @ np.ones(grid.n)).max() <= 1e-10 / 0.01

    def test_neumann_first_derivative_boundary_rows_vanish(self):
        grid = uniform_grid(0.0, 1.0, 9)
        d1 = diff_matrix(grid, 1, 2, NEUMANN_BC)
        assert np.abs(d1[0]).max() == 0.0
        assert np.abs(d1[-1]).max() == 0.0

    def test_interior_polynomial_exactness_order_four(self):
        grid = uniform_grid(0.0, 2.0, 12)
        d2 = diff_matrix(grid, 2, 4, DIRICHLET_BC)
        d1 = diff_matrix(grid, 1, 4, DIRICHLET_BC)
        x = grid.points
        for degree in range(5):
            y = x**degree
            dy = degree * x ** max(degree - 1, 0) if degree else np.zeros_like(x)
            ddy = degree * (degree - 1) * x ** max(degree - 2, 0) if degree >= 2 else np.zeros_like(x)
            scale = 100 * np.finfo(float).eps * max(np.abs(d2).max(), 1.0)
            assert np.abs((d2 @ y - ddy)[2:-2]).max() <= scale
            assert np.abs((d1 @ y - dy)[2:-2]).max() <= scale

    def test_periodic_eigenvalues(self):
        for n in (6, 10, 16):
            grid = uniform_periodic_grid(0.0, 2 * np.pi, n)
            d2 = diff_matrix(grid, 2, 2)
            h = 2 * np.pi / n
            got = np.sort(np.linalg.eigvalsh(d2))
            want = np.sort((2 * np.cos(2 * np.pi * np.arange(n) / n) - 2) / h**2)
            assert np.abs(got - want).max() <= 1e-10 / h**2

    def test_configuration_errors(self):
        grid = uniform_grid(0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            diff_matrix(grid, 3, 2, DIRICHLET_BC)
        with pytest.raises(ConfigurationError):
            diff_matrix(grid, 2, 3, DIRICHLET_BC)
        with pytest.raises(ConfigurationError):
            diff_matrix(grid, 2, 6, DIRICHLET_BC)  # p + 1 > n

    def test_a_bool_is_no_derivative_order(self):
        with pytest.raises(ConfigurationError):
            diff_matrix(uniform_grid(0.0, 1.0, 5), True, 2, NEUMANN_BC)

    def test_a_bc_is_given_exactly_for_a_bounded_grid(self):
        with pytest.raises(ConfigurationError):
            diff_matrix(uniform_grid(0.0, 1.0, 5), 2, 2)
        with pytest.raises(ConfigurationError):
            diff_matrix(uniform_periodic_grid(0.0, 1.0, 5), 2, 2, NEUMANN_BC)

    def test_boundary_condition_validation(self):
        # periodicity belongs to the grid, so it is no closure of an end
        for left, right in (("periodic", "periodic"), ("periodic", DIRICHLET_ZERO),
                            ("clamped", "clamped")):
            with pytest.raises(ConfigurationError):
                BoundaryCondition(left, right)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from([2, 4, 6]),
        deriv=st.sampled_from([1, 2]),
        left=st.sampled_from([DIRICHLET_ZERO, NEUMANN_ZERO]),
        right=st.sampled_from([DIRICHLET_ZERO, NEUMANN_ZERO]),
        uniform=st.booleans(),
        start=st.floats(-5.0, 5.0),
        gaps=st.lists(st.floats(0.2, 1.0), min_size=6, max_size=15),
    )
    def test_interior_rows_exact_for_monomials_on_any_bounded_grid(
        self, p, deriv, left, right, uniform, start, gaps
    ):
        n = len(gaps) + 1  # p + 1 <= 7 <= n
        if uniform:
            grid = uniform_grid(start, start + gaps[0] * (n - 1), n)
        else:
            grid = Grid1D(start + np.concatenate([[0.0], np.cumsum(gaps)]))
        d = diff_matrix(grid, deriv, p, BoundaryCondition(left, right))
        x = grid.points
        interior = slice(p // 2, n - p // 2)  # rows whose stencil has no ghost node
        for degree in range(p + 1):
            y = x**degree
            if degree < deriv:
                want = np.zeros(n)
            else:
                want = np.prod(np.arange(degree - deriv + 1, degree + 1)) * x ** (degree - deriv)
            err = np.abs(d @ y - want)[interior]
            assert (err <= 1e-12 * (np.abs(d) @ np.abs(y))[interior]).all()
        if left == right == NEUMANN_ZERO and deriv == 2:
            # zero flux at both ends: constants are in the kernel, boundary rows included
            assert (np.abs(d @ np.ones(n)) <= 1e-12 * (np.abs(d) @ np.ones(n))).all()


    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from([2, 4, 6, 8]),
        deriv=st.sampled_from([1, 2]),
        kind=st.sampled_from(["uniform", "sinh", "periodic"]),
        bc=st.sampled_from([DIRICHLET_BC, NEUMANN_BC,
                            BoundaryCondition(DIRICHLET_ZERO, NEUMANN_ZERO),
                            BoundaryCondition(NEUMANN_ZERO, DIRICHLET_ZERO)]),
        extra=st.integers(0, 40),
        start=st.floats(-50.0, 50.0),
        width=st.floats(0.1, 100.0),
    )
    def test_matches_the_row_by_row_assembly_byte_for_byte(self, p, deriv, kind, bc, extra,
                                                           start, width):
        n = p + 1 + extra
        if kind == "periodic":
            grid, bc = uniform_periodic_grid(start, start + width, n), None
        elif kind == "uniform":
            grid = uniform_grid(start, start + width, n)
        else:
            grid = sinh_clustered_grid(n)
        got = diff_matrix(grid, deriv, p, bc)
        assert got.tobytes() == diff_matrix_by_rows(grid, deriv, p, bc).tobytes()


class TestGrids:
    def test_strict_monotonicity_required(self):
        with pytest.raises(InvalidGridError):
            Grid1D([0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("points, period", [
        ([0.0, np.inf], None),
        ([np.nan], None),
        ([np.nan], 1.0),
        ([0.0, 1.0, np.inf], None),
    ])
    def test_points_are_finite(self, points, period):
        with pytest.raises(InvalidGridError):
            Grid1D(points, period=period)

    @pytest.mark.parametrize("points, period", [
        ([0.0, 1.0 + 1j], None),
        (np.array([0.0, 0.5]) + 0j, None),
        (np.array([0.0, 0.5]) + 0j, 1.0),
    ])
    def test_complex_points_are_rejected(self, points, period):
        with pytest.raises(InvalidGridError):
            Grid1D(points, period=period)

    @pytest.mark.parametrize("make, args", [
        *((uniform_grid, (0.0, 1.0, n)) for n in (2.5, 3.0, "3")),
        *((sinh_clustered_grid, (n,)) for n in (16.5, True, "16", 1)),
        *((pipeflow_factors, (n,)) for n in (16.5, "16")),
        *((fourier_second_derivative, (n,)) for n in (8.0, "8")),
    ], ids=lambda case: case.__name__ if callable(case) else repr(case[-1]))
    def test_point_counts_are_integers(self, make, args):
        with pytest.raises(ConfigurationError):
            make(*args)

    def test_period_must_be_positive_and_finite(self):
        for period in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                Grid1D([0.0, 0.5], period=period)

    @pytest.mark.parametrize("points", [[0.0, 5.0, 6.0, 7.0], [0.0, 0.1, 0.5, 3.0]])
    def test_a_periodic_grid_is_equispaced_over_its_period(self, points):
        with pytest.raises(InvalidGridError):
            Grid1D(points, period=4.0)

    @pytest.mark.parametrize("a, b", [(0.0, 2 * np.pi), (-20.0, 20.0), (3.0, 10.0)])
    @pytest.mark.parametrize("n", [1, 2, 7, 128, 4096])
    def test_equispaced_periodic_points_are_accepted(self, a, b, n):
        assert Grid1D(np.linspace(a, b, n, endpoint=False), period=b - a).n == n

    def test_a_periodic_grid_needs_a_point(self):
        with pytest.raises(ConfigurationError):
            uniform_periodic_grid(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            heat_factors(0, 2)

    def test_periodic_points(self):
        grid = uniform_periodic_grid(0.0, 2 * np.pi, 8)
        assert grid.n == 8
        assert grid.period == 2 * np.pi
        assert grid.points[0] == 0.0
        assert grid.points[-1] < 2 * np.pi
        assert np.diff(grid.points) == pytest.approx(np.full(7, np.pi / 4))

    def test_bounded_grids_have_no_period(self):
        for grid in (uniform_grid(0.0, 1.0, 5), sinh_clustered_grid(9), Grid1D([0.0, 1.0])):
            assert grid.period is None

    def test_sinh_grid(self):
        grid = sinh_clustered_grid(17)
        assert grid.points[0] == pytest.approx(-20.0)
        assert grid.points[-1] == pytest.approx(20.0)
        gaps = np.diff(grid.points)
        assert gaps.min() == gaps[len(gaps) // 2]  # finest in the middle


class TestHeatFactors:
    def test_constant_in_kernel(self):
        op = heat_factors(4, 2)
        u = np.ones((4, 4, 4))
        assert np.abs(matvec(op, u)).max() <= 1e-13

    def test_spectrum_bound(self):
        op = heat_factors(40, 2)
        h = 2 * np.pi / 40
        eigs = np.linalg.eigvalsh(op.factors[0])
        assert eigs.min() >= -4.0 / h**2 * (1 + 1e-12)
        assert eigs.max() <= 1e-10

    def test_spectral_flag_differentiates_cosine(self):
        op = heat_factors(8, np.inf)
        x = 2 * np.pi * np.arange(8) / 8
        got = op.factors[0] @ np.cos(x)
        assert np.abs(got + np.cos(x)).max() <= 1e-12

    # The spectral matrix needs an even n.
    @pytest.mark.parametrize("p, n", [(p, n) for p in (2, 4, 6, 8, np.inf)
                                      for n in (16, 17, 32, 33, 128) if p < np.inf or n % 2 == 0])
    def test_the_factor_is_exactly_symmetric_and_centrosymmetric(self, p, n):
        op = heat_factors(n, p)
        a = op.factors[0]
        assert op.factors[1] is a and op.factors[2] is a
        assert np.array_equal(a, a.T)
        assert np.array_equal(a, a[::-1, ::-1])

    @pytest.mark.parametrize("p, n", [(2, 16), (2, 17), (2, 128), (np.inf, 16), (np.inf, 128)])
    def test_orders_whose_matrix_is_symmetric_keep_its_bits(self, p, n):
        if np.isinf(p):
            want = fourier_second_derivative(n)
        else:
            want = diff_matrix(uniform_periodic_grid(0.0, 2 * np.pi, n), 2, p)
        assert heat_factors(n, p).factors[0].tobytes() == want.tobytes()

    def test_odd_order_rejected(self):
        with pytest.raises(ConfigurationError):
            heat_factors(16, 3)

    def test_spectral_needs_even_n(self):
        with pytest.raises(ConfigurationError):
            fourier_second_derivative(9)


class TestPipeflow:
    def test_velocity_at_inlet(self):
        s0 = pipeflow_velocity(0.0)
        assert 1.9999 < s0 < 2.0001

    def test_velocity_plateau(self):
        # both transition layers saturate between z = 5/2 and z = 5
        assert pipeflow_velocity(15.0 / 4.0) == pytest.approx(4.0, abs=2e-2)

    def test_first_derivative_of_constant_vanishes_interior(self):
        _, z_grid = pipeflow_grids(16)
        bc = BoundaryCondition(DIRICHLET_ZERO, NEUMANN_ZERO)
        d1 = diff_matrix(z_grid, 1, 2, bc)
        got = d1 @ np.ones(16)
        assert np.abs(got[1:-1]).max() <= 1e-12

    def test_matvec_vs_dense_oracle(self):
        rng = np.random.default_rng(0)
        op = pipeflow_factors(8)
        u = np.asfortranarray(rng.standard_normal((8, 8)))
        want = assemble_full(op) @ u.ravel(order="F")
        got = matvec(op, u).ravel(order="F")
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            pipeflow_factors(4)


class TestGpeFactors:
    def test_uniform_grid_matches_raw_away_from_boundary(self):
        grid = uniform_grid(-1.0, 1.0, 10)
        raw_half = 0.5 * diff_matrix(grid, 2, 2, NEUMANN_BC)
        op, weights = gpe_weighted_factors([grid])
        # trapezoidal weights are constant except at the two endpoints, so
        # the similarity transform only touches boundary-adjacent entries
        assert np.abs(op.factors[0][2:-2, 2:-2] - raw_half[2:-2, 2:-2]).max() <= 1e-13
        assert weights[0][1] == pytest.approx(2.0 / 9)  # the spacing

    def test_symmetry_on_nonuniform_grid(self):
        grid = Grid1D([-2.0, -1.1, -0.3, 0.4, 1.2, 2.0])
        op, _ = gpe_weighted_factors([grid])
        a = op.factors[0]
        assert np.abs(a - a.T).max() <= 1e-10

    def test_similarity_preserves_spectrum(self):
        grid = sinh_clustered_grid(32)
        raw_half = 0.5 * diff_matrix(grid, 2, 2, NEUMANN_BC)
        op, _ = gpe_weighted_factors([grid])
        got = np.sort(np.linalg.eigvalsh(op.factors[0]))
        want = np.sort(np.linalg.eigvals(raw_half).real)
        assert np.abs(got - want).max() <= 1e-9 * max(np.abs(want).max(), 1.0)

    def test_trapezoid_weights(self):
        w = trapezoid_weights([0.0, 1.0, 3.0, 4.0])
        assert np.allclose(w, [0.5, 1.5, 1.5, 0.5], rtol=0, atol=1e-15)
        assert (w > 0).all()

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidGridError):
            trapezoid_weights([0.0, 2.0, 1.0])

    @pytest.mark.parametrize("points", [[0.0, np.inf], [-np.inf, 0.0], [0.0, 1.0, np.inf]])
    def test_trapezoid_weights_need_finite_points(self, points):
        with pytest.raises(InvalidGridError):
            trapezoid_weights(points)
