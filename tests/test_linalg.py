import numpy as np
import pytest
import scipy.linalg

from kronmode import blas
from kronmode.errors import InvalidInputError, ShapeError
from kronmode.linalg import matexp


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

    def test_exponential_runs_single_threaded_and_restores_both_pools(self, monkeypatch):
        seen = []
        expm = scipy.linalg.expm

        def recording_expm(a):
            seen.append(blas.thread_counts())
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", recording_expm)
        with blas.limit(2):
            matexp(np.zeros((4, 4)))
            assert seen == [{"numpy": 1, "scipy": 1}]
            assert blas.thread_counts() == {"numpy": 2, "scipy": 2}
