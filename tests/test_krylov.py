import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode import kron, krylov, linalg
from kronmode.errors import ConfigurationError, NoConvergenceError, ShapeError
from kronmode.fd import heat_factors, pipeflow_factors, pipeflow_grids
from kronmode.kron import KroneckerOp, assemble_full, prepare, step
from kronmode.krylov import _expmv_reference, _linear_operator, arnoldi_expmv
from kronmode.linalg import matexp
from kronmode.tensor import norm


def test_zero_increment_returns_input_exactly():
    rng = np.random.default_rng(0)
    op = KroneckerOp((rng.standard_normal((4, 4)),))
    v = np.asfortranarray(rng.standard_normal(4))
    got = arnoldi_expmv(op, v, 0.0)
    assert np.array_equal(got, v)


def test_zero_vector():
    op = KroneckerOp((np.eye(3), np.eye(2)))
    got = arnoldi_expmv(op, np.zeros((3, 2)), 0.5)
    assert np.array_equal(got, np.zeros((3, 2)))


def test_diagonal_operator_matches_elementwise():
    rng = np.random.default_rng(1)
    lam1 = rng.uniform(-2, 0, 5)
    lam2 = rng.uniform(-2, 0, 4)
    op = KroneckerOp((np.diag(lam1), np.diag(lam2)))
    v = np.asfortranarray(rng.standard_normal((5, 4)))
    tau = 0.7
    want = np.exp(tau * lam1)[:, None] * np.exp(tau * lam2)[None, :] * v
    got = arnoldi_expmv(op, v, tau, tol=1e-12)
    assert norm(got - want, "two") <= 1e-10 * norm(want, "two")


def test_heat_operator_matches_exact_propagator():
    rng = np.random.default_rng(2)
    op = heat_factors(8, 2)
    v = np.asfortranarray(rng.standard_normal((8, 8, 8)))
    got = arnoldi_expmv(op, v, 0.1, tol=1e-10)
    want = step(prepare(op, 0.1), v)
    assert norm(got - want, "two") <= 1e-8 * norm(want, "two")


def test_happy_breakdown_is_exact():
    # nilpotent shift: the Krylov space closes after three vectors
    shift = np.zeros((3, 3))
    shift[1, 0] = shift[2, 1] = 1.0
    op = KroneckerOp((shift,))
    v = np.zeros(3)
    v[0] = 1.0
    got = arnoldi_expmv(op, np.asfortranarray(v), 0.9, tol=1e-14, m_max=10)
    want = matexp(0.9 * shift) @ v
    assert np.abs(got - want).max() <= 1e-14


def test_happy_breakdown_on_invariant_subspace():
    # eigenvector start: closure after a single step
    lam = np.diag([1.0, 2.0, 3.0])
    op = KroneckerOp((lam,))
    v = np.zeros(3)
    v[1] = 2.0
    got = arnoldi_expmv(op, np.asfortranarray(v), 0.5, tol=1e-14)
    assert np.abs(got - v * np.exp(0.5 * 2.0)).max() <= 1e-12


def test_basis_stays_orthonormal(monkeypatch):
    import kronmode.krylov as krylov_module

    captured = []
    original = krylov_module._project

    def spy(basis, hess, m, tau, beta):
        captured.append(basis[:, :m].copy())
        return original(basis, hess, m, tau, beta)

    monkeypatch.setattr(krylov_module, "_project", spy)
    rng = np.random.default_rng(7)
    op = heat_factors(12, 2)
    v = np.asfortranarray(rng.standard_normal((12, 12, 12)))
    arnoldi_expmv(op, v, 0.05, tol=1e-10)
    assert captured
    basis = max(captured, key=lambda b: b.shape[1])
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-10


def test_estimate_bounds_true_error():
    rng = np.random.default_rng(3)
    for n in (8, 12, 16):
        op = heat_factors(n, 2)
        v = np.asfortranarray(rng.standard_normal((n, n, n)))
        got, estimate = arnoldi_expmv(op, v, 0.05, tol=1e-8, return_estimate=True)
        want = step(prepare(op, 0.05), v)
        true_error = norm(got - want, "two") / norm(want, "two")
        assert true_error <= 100 * max(estimate, 1e-15)


def test_substepping_converges_on_stiff_operator():
    # large norm forces the substep fallback with a small subspace
    rng = np.random.default_rng(4)
    a = np.diag(rng.uniform(-200.0, 0.0, 12))
    op = KroneckerOp((a,))
    v = np.asfortranarray(rng.standard_normal(12))
    got = arnoldi_expmv(op, v, 1.0, tol=1e-10, m_max=12)
    want = np.exp(np.diag(a)) * v
    assert np.abs(got - want).max() <= 1e-9 * max(np.abs(want).max(), 1e-30)


def test_no_convergence_error_carries_estimate():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((24, 24))
    op = KroneckerOp((50.0 * (b - b.T),))
    v = np.asfortranarray(rng.standard_normal(24))
    with pytest.raises(NoConvergenceError) as info:
        arnoldi_expmv(op, v, 1.0, tol=1e-13, m_max=3, max_substeps=2)
    assert info.value.best_estimate is not None
    assert info.value.best_estimate > 0


def test_parameter_validation():
    op = KroneckerOp((np.eye(3),))
    v = np.ones(3)
    with pytest.raises(ConfigurationError):
        arnoldi_expmv(op, v, 0.1, tol=1e-15)
    with pytest.raises(ConfigurationError):
        arnoldi_expmv(op, v, 0.1, m_max=0)
    with pytest.raises(ShapeError):
        arnoldi_expmv(op, np.ones(4), 0.1)


def test_complex_operator():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = b - b.conj().T
    op = KroneckerOp((a, a))
    v = np.asfortranarray(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    got = arnoldi_expmv(op, v, 0.3, tol=1e-11)
    want = (matexp(0.3 * assemble_full(op)) @ v.ravel(order="F")).reshape((6, 6), order="F")
    assert norm(got - want, "two") <= 1e-9 * norm(want, "two")


def _random_op(rng, shape, complex_factors):
    """Dense non-normal factors, complex ones with independent real and imaginary parts."""
    factors = []
    for n in shape:
        a = rng.standard_normal((n, n))
        if complex_factors:
            a = a + 1j * rng.standard_normal((n, n))
        factors.append(a)
    return KroneckerOp(tuple(factors))


class TestExpmvReference:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
           seed=st.integers(0, 2**31), tau=st.floats(-1.0, 1.0),
           complex_factors=st.booleans(), complex_v=st.booleans(),
           layout=st.sampled_from(["F", "C", "strided"]))
    def test_matches_dense_exponential(self, shape, seed, tau, complex_factors, complex_v,
                                       layout):
        self._check_against_dense(shape, seed, tau, complex_factors, complex_v, layout)

    @pytest.mark.parametrize("tau", [2.2250738585072014e-308, 1e-310, -1e-308, 5e-324])
    @pytest.mark.parametrize("complex_factors", [False, True])
    def test_increment_near_underflow_warns_nothing(self, tau, complex_factors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check_against_dense((3, 5, 2), 4, tau, complex_factors, True, "strided")

    @staticmethod
    def _check_against_dense(shape, seed, tau, complex_factors, complex_v, layout):
        rng = np.random.default_rng(seed)
        op = _random_op(rng, shape, complex_factors)
        base = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
        if complex_v:
            base = base + 1j * rng.standard_normal(base.shape)
        view = base[..., ::2]
        v = {"F": np.asfortranarray(view), "C": np.ascontiguousarray(view), "strided": view}[layout]
        got = _expmv_reference(op, v, tau)
        # Eight applications of exp(tau/8 * M): with |tau*M| up to about 8,
        # the squarings inside one exp(tau*M) amplify the oracle's own
        # rounding to 3e-13, while the reference is accurate to 1e-15.
        want = v.ravel(order="F")
        substep = matexp(tau / 8 * assemble_full(op))
        for _ in range(8):
            want = substep @ want
        want = want.reshape(shape, order="F")
        assert got.shape == shape
        assert norm(got - want, "two") <= 1e-12 * norm(want, "two")

    @pytest.mark.parametrize("complex_factors", [False, True])
    def test_adjoint_is_the_conjugate_transpose(self, complex_factors):
        rng = np.random.default_rng(8)
        op = _random_op(rng, (3, 4, 2), complex_factors)
        dtype = np.complex128 if complex_factors else np.float64
        generator = _linear_operator(op, dtype)
        x = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
        full = assemble_full(op)
        assert np.allclose(generator.matvec(x), full @ x, rtol=0, atol=1e-13)
        assert np.allclose(generator.rmatvec(x), full.conj().T @ x, rtol=0, atol=1e-13)

    def test_passes_the_exact_trace(self, monkeypatch):
        import scipy.sparse.linalg

        seen = []
        original = scipy.sparse.linalg.expm_multiply

        def spy(a, b, **kwargs):
            seen.append(kwargs["traceA"])
            return original(a, b, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", spy)
        rng = np.random.default_rng(12)
        op = _random_op(rng, (3, 4, 2), True)
        _expmv_reference(op, np.ones((3, 4, 2)), 0.6)
        assert seen == [pytest.approx(0.6 * np.trace(assemble_full(op)), rel=1e-14)]

    def test_zero_increment_returns_input(self):
        rng = np.random.default_rng(9)
        op = _random_op(rng, (4, 3), False)
        v = np.asfortranarray(rng.standard_normal((4, 3)))
        assert np.array_equal(_expmv_reference(op, v, 0.0), v)

    def test_zero_vector(self):
        rng = np.random.default_rng(10)
        op = _random_op(rng, (4, 3), True)
        got = _expmv_reference(op, np.zeros((4, 3)), 0.7)
        assert np.array_equal(got, np.zeros((4, 3)))

    def test_never_exponentiates_a_factor(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the reference must not use the factor exponentials")

        monkeypatch.setattr(kron, "_factor_exp", forbidden)
        for module in (kron, krylov, linalg):
            monkeypatch.setattr(module, "matexp", forbidden)
        rng = np.random.default_rng(11)
        op = _random_op(rng, (5, 4), False)
        v = np.asfortranarray(rng.standard_normal((5, 4)))
        got = _expmv_reference(op, v, 0.3)
        monkeypatch.undo()
        assert norm(got - step(prepare(op, 0.3), v), "two") <= 1e-12 * norm(got, "two")

    def test_independent_of_the_global_generator_which_it_leaves_alone(self):
        # At n=48, T=4 the starting vectors of the 1-norm estimate after
        # np.random.seed(10) lead to a result that differs in the last bits
        # from the one after seed 0.
        n = 48
        rho_grid, z_grid = pipeflow_grids(n)
        c0 = np.asfortranarray(
            np.exp(-8.0 * (rho_grid.points - 2.55) ** 2)[:, None]
            * np.exp(-8.0 * (z_grid.points - 1.5) ** 2)[None, :]
        )
        op = pipeflow_factors(n)
        results = []
        for seed in (0, 10):
            np.random.seed(seed)
            results.append(_expmv_reference(op, c0, 4.0))
            after = np.random.random()
            np.random.seed(seed)
            assert after == np.random.random()
        assert np.array_equal(results[0], results[1])
