import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode import blas, linalg
from kronmode.errors import InvalidInputError, ShapeError
from kronmode.fd import heat_factors
from kronmode.hermite import hermite_basis
from kronmode.linalg import matexp
from kronmode.problems import gpe_setup, pipeflow_factors, ti_factors


def taylor_expm(a, terms=30):
    """Series oracle in extended precision; accurate for norm(a) <= 1."""
    work = a.astype(np.clongdouble if np.iscomplexobj(a) else np.longdouble)
    acc = np.eye(a.shape[0], dtype=work.dtype)
    term = np.eye(a.shape[0], dtype=work.dtype)
    for k in range(1, terms + 1):
        term = term @ work / k
        acc = acc + term
    return acc.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


class TestMatexp:
    def test_zero_is_exact_identity(self):
        got = matexp(np.zeros((4, 4)))
        assert np.array_equal(got, np.eye(4))

    def test_rotation(self):
        theta = 0.3
        got = matexp(np.array([[0.0, theta], [-theta, 0.0]]))
        want = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        assert np.abs(got - want).max() <= 1e-14

    def test_random_vs_taylor_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        a /= np.linalg.norm(a, 1)  # norm 1
        got = matexp(a)
        want = taylor_expm(a)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_complex_vs_taylor_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a /= np.linalg.norm(a, 1)
        got = matexp(a)
        want = taylor_expm(a)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_real_input_real_output(self):
        rng = np.random.default_rng(7)
        assert not np.iscomplexobj(matexp(rng.standard_normal((5, 5))))

    def test_inverse_identity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        a *= 10.0 / np.linalg.norm(a, 1)
        prod = matexp(a) @ matexp(-a)
        assert np.abs(prod - np.eye(6)).max() <= 1e-11 * np.abs(matexp(a)).max()

    def test_symmetric_eigendecomposition(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = rng.uniform(-2, 2, 6)
        a = q @ np.diag(lam) @ q.T
        want = q @ np.diag(np.exp(lam)) @ q.T
        assert np.abs(matexp(a) - want).max() <= 1e-12 * np.abs(want).max()

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = b - b.conj().T
        u = matexp(a)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-12

    def test_kronecker_sum_factorizes(self):
        # exp of a Kronecker sum splits into the product of the factor
        # exponentials because the two summands commute
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3))
        ksum = np.kron(np.eye(3), a) + np.kron(b, np.eye(4))
        want = np.kron(matexp(b), matexp(a))
        assert np.abs(matexp(ksum) - want).max() <= 1e-12 * np.abs(want).max()

    def test_non_square(self):
        with pytest.raises(ShapeError):
            matexp(np.zeros((2, 3)))

    def test_non_finite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            matexp(bad)

    def test_exponential_needs_no_scipy_and_leaves_both_pools_alone(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy's expm ran")

        a = np.full((4, 4), 0.5)
        want = expm_reference(a)
        seen = []
        taylor_squared = linalg._taylor_squared

        def recording_taylor_squared(*args):
            seen.append(blas.thread_counts())
            return taylor_squared(*args)

        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        monkeypatch.setattr(linalg, "_taylor_squared", recording_taylor_squared)
        with blas.limit(2):
            got = matexp(a)
            assert seen == [{"numpy": 2, "scipy": 2}]
            assert blas.thread_counts() == {"numpy": 2, "scipy": 2}
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def expm_reference(a):
    """scipy's ``expm``, the test-only oracle, of a matrix or of each matrix of a stack."""
    return np.array([scipy.linalg.expm(m) for m in a]) if a.ndim == 3 else scipy.linalg.expm(a)


def random_stack(rng, shape, complex_values):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if complex_values else a


def one_norms(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def with_norms(a, norms):
    """The matrices of the stack ``a``, each scaled to its 1-norm in ``norms``."""
    return a * (np.asarray(norms) / one_norms(a))[:, None, None]


def deviation(got, want):
    """The largest relative 1-norm deviation over the matrices of a stack."""
    return (one_norms(got - want) / one_norms(want)).max()


class TestMatexpStacks:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), count=st.integers(1, 6), complex_values=st.booleans(),
           seed=st.integers(0, 2**31), data=st.data())
    def test_each_matrix_of_a_stack_has_the_bits_of_its_own_exponential(
            self, n, count, complex_values, seed, data):
        log_norms = data.draw(st.lists(st.floats(-3, 3), min_size=count, max_size=count))
        stack = with_norms(random_stack(np.random.default_rng(seed), (count, n, n), complex_values),
                           10.0 ** np.array(log_norms))
        # exp(A) of a small A of 1-norm near 1000 may overflow: the same way
        # in the stack as alone.
        with np.errstate(over="ignore", invalid="ignore"):
            got = matexp(stack)
            assert got.dtype == stack.dtype
            for i in range(count):
                assert np.array_equal(got[i], matexp(stack[i]), equal_nan=True)
            assert np.array_equal(matexp(stack.reshape(1, count, n, n))[0], got, equal_nan=True)

    def test_zero_stack_gives_exact_identities(self):
        got = matexp(np.zeros((3, 4, 4)))
        assert got.shape == (3, 4, 4)
        assert all(np.array_equal(e, np.eye(4)) for e in got)

    def test_empty_stack(self):
        got = matexp(np.zeros((0, 5, 5), dtype=complex))
        assert got.shape == (0, 5, 5) and got.dtype == np.complex128

    def test_a_finite_matrix_whose_one_norm_overflows(self):
        # The column sum is inf; the plan stays in range and the result
        # overflows as exp(A) does.
        with np.errstate(over="ignore", invalid="ignore"):
            got = matexp(np.full((2, 2), 1e308))
        assert got.shape == (2, 2) and not np.isfinite(got).all()

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 1, 3, 2), (5,), ()])
    def test_non_square_last_axes(self, shape):
        with pytest.raises(ShapeError):
            matexp(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_in_any_matrix(self, bad):
        stack = np.zeros((3, 4, 4))
        stack[2, 1, 3] = bad
        with pytest.raises(InvalidInputError):
            matexp(stack)


class TestMatexpAgainstScipy:
    # Bounds from the largest relative 1-norm deviation from scipy's expm
    # measured over these draws, real and complex: 7.4e-14 and 5.1e-16
    # (random, |A|_1 of 1e-3 to 10), 9.8e-14 and 5.5e-15 (skew-Hermitian,
    # 0.1 to 30), 3.2e-11 and 9.9e-14 (100 to 1000), and 5.6e-14 for the
    # pipe-flow factors (n=32 at tau=4, |tau A|_1 = 63).  The real spread is
    # scipy's: against a 50-digit mpmath expm of similar draws matexp's worst
    # real deviations were 2.3e-16, 1.1e-15 and 4.9e-14, scipy's 7.4e-14,
    # 3.9e-14 and 4.3e-11.
    @pytest.mark.parametrize("kind, bounds", [("random", (2e-13, 5e-15)),
                                              ("skew-Hermitian", (3e-13, 2e-14)),
                                              ("large-norm", (1e-10, 5e-13))])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_random_classes(self, kind, bounds, complex_values):
        rng = np.random.default_rng(21)
        for n in range(2, 13):
            a = random_stack(rng, (6, n, n), complex_values)
            if kind == "skew-Hermitian":
                a = a - np.swapaxes(a, -1, -2).conj()
            log_norms = {"random": (-3, 1), "skew-Hermitian": (-1, 1.5), "large-norm": (2, 3)}[kind]
            a = with_norms(a, 10.0 ** rng.uniform(*log_norms, 6))
            assert deviation(matexp(a), expm_reference(a)) <= bounds[complex_values], n

    @pytest.mark.parametrize("n", [16, 32, 96])
    @pytest.mark.parametrize("tau", [0.5, 4.0])
    def test_non_normal_pipe_flow_factors(self, n, tau):
        for a in pipeflow_factors(n).factors:
            assert deviation(matexp(tau * a), expm_reference(tau * a)) <= 5e-13


class TestMatexpOfProblemFactors:
    @pytest.mark.parametrize("steps, bound", [(1, 2e-14), (40, 5e-13)])
    def test_heat_factor_against_its_circulant_exponential(self, steps, bound):
        # heat-n128's factor, tau = 1/40, is circulant: its exponential is
        # diagonal in the Fourier basis.  Measured: 6.5e-15 after one step
        # and 2.3e-13 after 40 (scipy's expm: 5.8e-15 and 6.7e-14).
        a = heat_factors(128, 2).factors[0]
        tau = 1 / 40
        column = np.fft.ifft(np.exp(steps * tau * np.fft.fft(a[:, 0]))).real
        want = np.stack([np.roll(column, j) for j in range(128)], axis=1)
        got = np.linalg.matrix_power(matexp(tau * a), steps)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("problem, bound", [("gpe-64", 1e-15), ("ti-40", 1e-14)])
    def test_skew_hermitian_factors_give_unitary_exponentials(self, problem, bound):
        # Measured: 2.2e-16 for gpe's factor at tau = 0.1 (|tau A|_1 = 1.6)
        # and 2.7e-15 for ti's dense factor at tau = 1 (|A|_1 = 42), the
        # same as scipy's expm.
        if problem == "gpe-64":
            a = 0.1 * gpe_setup(64)[1].factors[0]
        else:
            a = ti_factors(hermite_basis(40))(0.0)[0]
        u = matexp(a)
        assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= bound
