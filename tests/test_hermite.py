import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode.errors import ConfigurationError, InvalidInputError, InvalidPotentialError
from kronmode.errors import ShapeError
from kronmode.hermite import (
    forward_transform,
    gauss_hermite,
    hamiltonian_factor,
    hermite_basis,
    hermite_eval,
    inverse_transform,
    potential_operator,
)
from kronmode.linalg import matexp
from kronmode.problems import schrodinger_initial_state
from kronmode.tensor import norm, tucker
from oracles import harmonic_eigenvalues, weighted_forward_transform


def position(basis):
    """Coordinate multiplication in coefficient space, as the driven problem builds it."""
    return potential_operator(basis, lambda x: x)


class TestHermiteEval:
    def test_ground_state_at_origin(self):
        assert hermite_eval(1, 0.0)[0] == pytest.approx(np.pi**-0.25, rel=1e-15)
        assert hermite_eval(1, 0.0)[0] == pytest.approx(0.7511255444649425, rel=1e-15)

    def test_odd_function_vanishes_at_origin(self):
        assert hermite_eval(2, 0.0)[1] == 0.0

    def test_phi5_against_polynomial_oracle(self):
        # 40-digit evaluation of H_5(1.3)/sqrt(2^5 5! sqrt(pi)) exp(-1.3^2/2)
        assert hermite_eval(6, 1.3)[5] == pytest.approx(-0.39939146281375073457, rel=1e-13)

    def test_vectorized_shape(self):
        out = hermite_eval(4, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (4, 3)

    def test_an_expansion_evaluates_between_the_nodes(self):
        # The Schrodinger reference's route: transform a 1-D function at the
        # quadrature nodes, then sum the expansion at other points.  The
        # error is 1.1e-10 at k=40 and 4.8e-15 at k=60.
        basis = hermite_basis(60)
        coeffs = (basis.phi * basis.mod_weights) @ (basis.nodes * np.exp(-basis.nodes**2 / 4))
        points = np.random.default_rng(3).uniform(-4.0, 4.0, 50)
        got = hermite_eval(60, points).T @ coeffs
        assert np.abs(got - points * np.exp(-points**2 / 4)).max() <= 1e-13

    @pytest.mark.parametrize("x", [np.zeros((2, 2)), np.zeros((1, 3)), [[0.0]]])
    def test_points_of_more_than_one_dimension_rejected(self, x):
        with pytest.raises(ShapeError):
            hermite_eval(3, x)

    @pytest.mark.parametrize("x", [np.nan, np.inf, [0.0, -np.inf], [1.0, np.nan], [0.0, np.inf]])
    def test_non_finite_points_rejected(self, x):
        with pytest.raises(InvalidInputError):
            hermite_eval(3, x)

    @pytest.mark.parametrize("x", [1 + 1j, np.array([1 + 0.5j]), np.array([0.0, 1.0]) + 0j])
    def test_complex_points_rejected(self, x):
        with pytest.raises(InvalidInputError):
            hermite_eval(3, x)


class TestGaussHermite:
    def test_single_node(self):
        nodes, weights = gauss_hermite(1)
        assert nodes[0] == 0.0
        assert weights[0] == pytest.approx(np.sqrt(np.pi), rel=1e-15)

    def test_two_nodes(self):
        nodes, weights = gauss_hermite(2)
        assert np.allclose(nodes, [-2.0**-0.5, 2.0**-0.5], rtol=1e-14)
        phi = hermite_eval(2, nodes)
        gram = (phi * weights) @ phi.T
        assert np.abs(gram - np.eye(2)).max() <= 1e-14

    @pytest.mark.parametrize("k", [20, 64, 100])
    def test_discrete_orthonormality(self, k):
        basis = hermite_basis(k)
        gram = (basis.phi * basis.mod_weights) @ basis.phi.T
        assert np.abs(gram - np.eye(k)).max() <= 1e-12

    def test_nodes_symmetric(self):
        nodes, _ = gauss_hermite(31)
        assert np.abs(nodes + nodes[::-1]).max() == 0.0

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            gauss_hermite(0)
        with pytest.raises(ConfigurationError):
            gauss_hermite(501)


@pytest.mark.parametrize("make", [
    lambda k: hermite_eval(k, 0.0), gauss_hermite, hermite_basis,
], ids=["hermite_eval", "gauss_hermite", "hermite_basis"])
@pytest.mark.parametrize("k", [2.5, 8.0, True, "three"])
def test_basis_sizes_are_integers(make, k):
    with pytest.raises(ConfigurationError):
        make(k)


class TestTransforms:
    def test_ground_state_maps_to_unit_coefficient(self):
        basis = hermite_basis(12)
        bases = (basis, basis)
        values = np.outer(hermite_eval(1, basis.nodes)[0], hermite_eval(1, basis.nodes)[0])
        coeffs = forward_transform(bases, values)
        want = np.zeros((12, 12))
        want[0, 0] = 1.0
        assert np.abs(coeffs - want).max() <= 1e-13

    def test_zero_field(self):
        basis = hermite_basis(5)
        assert np.abs(forward_transform((basis,), np.zeros(5))).max() == 0.0

    def test_linearity_on_two_modes(self):
        basis = hermite_basis(16)
        phi = hermite_eval(16, basis.nodes)
        values = phi[3] + 2.0 * phi[7]
        coeffs = forward_transform((basis,), values)
        want = np.zeros(16)
        want[3], want[7] = 1.0, 2.0
        assert np.abs(coeffs - want).max() <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        basis = hermite_basis(32)
        bases = (basis, basis)
        values = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        back = inverse_transform(bases, forward_transform(bases, values))
        assert np.abs(back - values).max() <= 1e-11 * np.abs(values).max()

    def test_coefficient_space_round_trip(self):
        rng = np.random.default_rng(1)
        basis = hermite_basis(16)
        bases = (basis,) * 3
        coeffs = rng.standard_normal((16, 16, 16))
        again = forward_transform(bases, inverse_transform(bases, coeffs))
        assert np.abs(again - coeffs).max() <= 1e-11 * np.abs(coeffs).max()

    def test_unit_coefficient_reconstructs_ground_state(self):
        basis = hermite_basis(6)
        field = np.zeros((6, 6))
        field[0, 0] = 1.0
        got = inverse_transform((basis, basis), field)
        want = np.outer(basis.phi[0], basis.phi[0])
        assert np.abs(got - want).max() <= 1e-14

    def test_parseval(self):
        rng = np.random.default_rng(3)
        basis = hermite_basis(20)
        bases = (basis, basis)
        values = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        coeffs = forward_transform(bases, values)
        weighted = norm(tucker(values, [np.sqrt(basis.mod_weights)] * 2), "two")
        assert abs(weighted - norm(coeffs, "two")) <= 1e-12 * weighted

    @settings(max_examples=60, deadline=None)
    @given(ks=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           complex_values=st.booleans(), seed=st.integers(0, 2**31))
    def test_folded_weights_match_weighting_then_transforming(self, ks, complex_values, seed):
        rng = np.random.default_rng(seed)
        bases = [hermite_basis(k) for k in ks]
        values = rng.standard_normal(ks)
        if complex_values:
            values = values + 1j * rng.standard_normal(ks)
        phis, weights = [b.phi for b in bases], [b.mod_weights for b in bases]
        got = forward_transform(bases, values)
        want = weighted_forward_transform(values, phis, weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        # rounding relative to the bound |phi| x w applied to |values|
        scale = weighted_forward_transform(np.abs(values), [np.abs(p) for p in phis], weights)
        assert np.abs(got - want).max() <= 1e-14 * scale.max()

    def test_forward_transform_holds_two_states(self):
        # One tucker call and no weighted copy of the values: at k=40 the
        # wavepacket's transform peaked at 2.06 states of the value tensor
        # (3.03 with the weighting as a separate pass).
        basis = hermite_basis(40)
        bases = (basis,) * 3
        values = schrodinger_initial_state((basis.nodes,) * 3)
        forward_transform(bases, values)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            forward_transform(bases, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * values.nbytes

    def test_shape_validation(self):
        basis = hermite_basis(4)
        with pytest.raises(ShapeError):
            forward_transform((basis,), np.zeros(5))
        with pytest.raises(ShapeError):
            inverse_transform((basis,), np.zeros(5))
        with pytest.raises(ShapeError):
            inverse_transform((basis, basis), np.zeros(4))


class TestHarmonicEigenvalues:
    def test_ground_state_3d(self):
        lam = harmonic_eigenvalues((4, 4, 4))
        assert lam[0, 0, 0] == 1.5

    def test_one_dimensional(self):
        lam = harmonic_eigenvalues((8,))
        assert lam[5] == 5.5

    def test_monotone_along_axes(self):
        lam = harmonic_eigenvalues((5, 6))
        assert (np.diff(lam, axis=0) > 0).all()
        assert (np.diff(lam, axis=1) > 0).all()


class TestOperators:
    def test_position_first_off_diagonal(self):
        x_op = position(hermite_basis(8))
        assert x_op[0, 1] == pytest.approx(2.0**-0.5, rel=1e-13)

    def test_position_diagonal_vanishes(self):
        x_op = position(hermite_basis(8))
        assert np.abs(np.diag(x_op)).max() <= 1e-14

    def test_position_symmetric(self):
        x_op = position(hermite_basis(12))
        assert np.abs(x_op - x_op.T).max() <= 1e-14

    def test_position_matches_recurrence_tridiagonal(self):
        # the quadrature is exact for this integrand (degree below 2k)
        for k in (9, 30):
            x_op = position(hermite_basis(k))
            want = np.zeros((k, k))
            for i in range(k - 1):
                want[i, i + 1] = want[i + 1, i] = np.sqrt((i + 1) / 2.0)
            assert np.abs(x_op - want).max() <= 1e-12

    def test_constant_potential_is_identity(self):
        p = potential_operator(hermite_basis(10), lambda x: np.ones_like(x))
        assert np.abs(p - np.eye(10)).max() <= 1e-13

    def test_quadratic_potential_vs_squared_position(self):
        # with exact (enlarged) quadrature the only difference from the
        # squared truncated position operator is the missing coupling of the
        # last mode to the first excluded one, of size k/2 in the corner
        k = 8
        basis = hermite_basis(k)
        nodes, weights = gauss_hermite(2 * k)
        values = hermite_eval(k, nodes)
        p = (values * (nodes * nodes * weights)) @ values.T
        squared = position(basis) @ position(basis)
        diff = p - squared
        assert diff[-1, -1] == pytest.approx(k / 2.0, rel=1e-12)
        diff[-1, -1] = 0.0
        assert np.abs(diff).max() <= 1e-12

    def test_non_finite_potential_rejected(self):
        basis = hermite_basis(3)  # odd k puts a node at the origin
        with pytest.raises(InvalidPotentialError):
            with np.errstate(divide="ignore"):
                potential_operator(basis, lambda x: np.where(x == 0, np.inf, x))


class TestHamiltonianFactor:
    def test_harmonic_potential_gives_exact_diagonal(self):
        basis = hermite_basis(10)
        a = hamiltonian_factor(basis, lambda x: 0.5 * x * x)
        want = -1j * np.diag(np.arange(10) + 0.5)
        assert np.abs(a - want).max() == 0.0

    def test_cosine_potential_skew_hermitian(self):
        basis = hermite_basis(16)
        a = hamiltonian_factor(basis, lambda x: np.cos(2 * np.pi * x))
        assert np.abs(a + a.conj().T).max() <= 1e-12

    def test_exponential_is_unitary(self):
        basis = hermite_basis(8)
        a = hamiltonian_factor(basis, lambda x: np.cos(2 * np.pi * x))
        u = matexp(0.7 * a)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-12
