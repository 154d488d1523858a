import numpy as np
import pytest

from kronmode import kron
from kronmode.errors import ConfigurationError, InvalidInputError, OracleSizeError, ShapeError
from kronmode.fd import heat_factors
from kronmode.kron import KroneckerOp, PropagatorCache, assemble_full, matvec, prepare, step
from kronmode.linalg import matexp
from kronmode.tensor import count_flops, norm, tucker


def random_op(rng, dims, complex_factors=False):
    factors = []
    for m in dims:
        a = rng.standard_normal((m, m))
        if complex_factors:
            a = a + 1j * rng.standard_normal((m, m))
        factors.append(a)
    return KroneckerOp(tuple(factors))


class TestKroneckerOp:
    def test_shape_and_size(self):
        op = KroneckerOp((np.eye(2), np.eye(3), np.eye(4)))
        assert op.shape == (2, 3, 4)
        assert op.size == 24
        assert op.d == 3

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            KroneckerOp((np.zeros((2, 3)),))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            KroneckerOp(())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(InvalidInputError):
            KroneckerOp((np.eye(2), a))


class TestPropagatorCache:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        e = np.eye(3, dtype=complex)
        e[0, 0] = bad
        with pytest.raises(InvalidInputError):
            PropagatorCache(0.1, (np.eye(2), e))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            PropagatorCache(0.1, (np.zeros((2, 3)),))

    def test_vector_entries_stand_for_diagonals(self):
        cache = PropagatorCache(0.1, (np.ones(2), np.eye(3)))
        assert cache.shape == (2, 3)
        with pytest.raises(InvalidInputError):
            PropagatorCache(0.1, (np.array([1.0, np.nan]), np.eye(3)))


class TestAssembleFull:
    def test_single_factor(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(assemble_full(KroneckerOp((a,))), a)

    def test_degenerate_one_by_one(self):
        op = KroneckerOp((np.zeros((1, 1)), np.zeros((1, 1))))
        assert np.array_equal(assemble_full(op), np.zeros((1, 1)))

    def test_consistent_with_matvec(self):
        rng = np.random.default_rng(1)
        op = random_op(rng, (2, 3))
        u = np.asfortranarray(rng.standard_normal((2, 3)))
        dense = assemble_full(op) @ u.ravel(order="F")
        tensor_form = matvec(op, u).ravel(order="F")
        assert np.abs(dense - tensor_form).max() <= 1e-14 * np.abs(dense).max()

    def test_size_cap(self):
        op = KroneckerOp((np.eye(8), np.eye(8), np.eye(8), np.eye(8)))
        assemble_full(op)  # exactly at the default cap is fine
        with pytest.raises(OracleSizeError):
            assemble_full(op, limit=4095)


class TestMatvec:
    def test_zero_factors(self):
        op = KroneckerOp((np.zeros((2, 2)), np.zeros((3, 3))))
        u = np.ones((2, 3))
        assert np.array_equal(matvec(op, u), np.zeros((2, 3)))

    def test_identity_factors_give_d_times_u(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((2, 3, 2))
        op = KroneckerOp(tuple(np.eye(m) for m in u.shape))
        assert np.allclose(matvec(op, u), 3 * u, rtol=0, atol=1e-15)

    def test_random_vs_dense_oracle(self):
        rng = np.random.default_rng(3)
        op = random_op(rng, (3, 2, 4), complex_factors=True)
        u = np.asfortranarray(rng.standard_normal((3, 2, 4)))
        want = assemble_full(op) @ u.ravel(order="F")
        got = matvec(op, u).ravel(order="F")
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_shape_mismatch(self):
        op = KroneckerOp((np.eye(2), np.eye(3)))
        with pytest.raises(ShapeError):
            matvec(op, np.ones((3, 2)))


class TestPrepare:
    def test_zero_increment_gives_identities(self):
        rng = np.random.default_rng(4)
        op = random_op(rng, (3, 4))
        cache = prepare(op, 0.0)
        for exp, m in zip(cache.exps, op.shape):
            assert np.array_equal(exp, np.eye(m))

    def test_diagonal_factor(self):
        lam = np.array([-1.0, 0.5, 2.0])
        cache = prepare(KroneckerOp((np.diag(lam),)), 0.3)
        assert cache.exps[0].ndim == 1
        assert np.array_equal(cache.exps[0], np.exp(0.3 * lam))

    def test_matches_direct_exponentials(self):
        rng = np.random.default_rng(5)
        op = random_op(rng, (4, 3))
        cache = prepare(op, 0.7)
        for exp, a in zip(cache.exps, op.factors):
            assert np.array_equal(exp, matexp(0.7 * a))

    @pytest.mark.parametrize("complex_factors, dtype",
                             [(False, np.float32), (True, np.complex64)])
    def test_dtype_casts_the_double_exponentials(self, complex_factors, dtype):
        rng = np.random.default_rng(13)
        op = random_op(rng, (4, 3), complex_factors=complex_factors)
        cache = prepare(op, 0.7, dtype)
        for exp, a in zip(cache.exps, op.factors):
            assert exp.dtype == dtype
            assert np.array_equal(exp, matexp(0.7 * a).astype(dtype))

    def test_shared_factor_object_is_exponentiated_once(self, monkeypatch):
        calls = []
        original = kron.matexp
        monkeypatch.setattr(kron, "matexp", lambda a: calls.append(a.shape) or original(a))
        op = heat_factors(16, 2)
        cache = prepare(op, 0.1)
        assert calls == [(16, 16)]
        assert np.array_equal(cache.exps[2], original(0.1 * op.factors[2]))


class TestStep:
    def test_zero_increment_is_identity(self):
        rng = np.random.default_rng(6)
        op = random_op(rng, (3, 4))
        u = np.asfortranarray(rng.standard_normal((3, 4)))
        got = step(prepare(op, 0.0), u)
        assert np.array_equal(got, u)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(7)
        op = random_op(rng, (3, 3))
        u = np.asfortranarray(rng.standard_normal((3, 3)))
        tau = 0.7
        got = step(prepare(op, tau), u).ravel(order="F")
        want = matexp(tau * assemble_full(op)) @ u.ravel(order="F")
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_skew_hermitian_preserves_norm(self):
        rng = np.random.default_rng(8)
        factors = []
        for _ in range(3):
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            factors.append(b - b.conj().T)
        op = KroneckerOp(tuple(factors))
        u = np.asfortranarray(rng.standard_normal((4, 4, 4))
                              + 1j * rng.standard_normal((4, 4, 4)))
        v = step(prepare(op, 0.4), u)
        assert abs(norm(v, "two") - norm(u, "two")) <= 1e-13 * norm(u, "two")

    def test_exactness_on_random_operators(self):
        rng = np.random.default_rng(9)
        for trial in range(8):
            dims = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4))))
            op = random_op(rng, dims, complex_factors=bool(trial % 2))
            u = np.asfortranarray(rng.standard_normal(dims))
            tau = float(rng.uniform(0.1, 1.0))
            got = step(prepare(op, tau), u).ravel(order="F")
            want = matexp(tau * assemble_full(op)) @ u.ravel(order="F")
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_semigroup_property(self):
        rng = np.random.default_rng(10)
        op = random_op(rng, (3, 4))
        u = np.asfortranarray(rng.standard_normal((3, 4)))
        tau = 0.8
        one = step(prepare(op, tau), u)
        many = u
        cache = prepare(op, tau / 8)
        for _ in range(8):
            many = step(cache, many)
        assert norm(one - many, "two") <= 1e-11 * norm(one, "two")

    def test_application_order_is_immaterial(self):
        rng = np.random.default_rng(11)
        op = random_op(rng, (3, 4, 2), complex_factors=True)
        u = np.asfortranarray(rng.standard_normal((3, 4, 2)))
        cache = prepare(op, 0.5)
        forward = step(cache, u)
        reversed_order = u
        for mu in (3, 2, 1):
            reversed_order = tucker(
                reversed_order,
                [cache.exps[mu - 1] if m == mu else None for m in (1, 2, 3)],
            )
        assert norm(forward - reversed_order, "two") <= 1e-12 * norm(forward, "two")

    def test_constant_fixed_point_for_zero_row_sum_factors(self):
        from kronmode.fd import heat_factors

        op = heat_factors(8, 2)
        u = np.ones((8, 8, 8), order="F")
        v = step(prepare(op, 0.9), u)
        assert norm(v - u, "max") <= 1e-12

    def test_step_flop_count(self):
        rng = np.random.default_rng(12)
        dims = (3, 4, 5)
        op = random_op(rng, dims)
        u = np.asfortranarray(rng.standard_normal(dims))
        cache = prepare(op, 0.2)
        total = 3 * 4 * 5
        with count_flops() as fc:
            step(cache, u)
        assert fc.macs == sum(total * m for m in dims)

    def test_shape_mismatch(self):
        op = KroneckerOp((np.eye(2), np.eye(3)))
        cache = prepare(op, 0.1)
        with pytest.raises(ShapeError):
            step(cache, np.ones((2, 4)))

    def test_steps_match_repeated_single_steps(self):
        rng = np.random.default_rng(14)
        op = random_op(rng, (3, 4, 2))
        u = np.asfortranarray(rng.standard_normal((3, 4, 2)))
        cache = prepare(op, 0.1)
        single = u
        for _ in range(5):
            single = step(cache, single)
        assert np.array_equal(step(cache, u, steps=5), single)

    def test_steps_match_repeated_single_steps_with_diagonal_factors(self):
        rng = np.random.default_rng(15)
        dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = KroneckerOp((np.diag(rng.standard_normal(3)), dense,
                          np.diag(1j * rng.standard_normal(2))))
        cache = prepare(op, 0.1)
        assert [e.ndim for e in cache.exps] == [1, 2, 1]
        u = np.asfortranarray(rng.standard_normal((3, 4, 2)))
        single = u
        for _ in range(5):
            single = step(cache, single)
        assert np.array_equal(step(cache, u, steps=5), single)
        with count_flops() as fc:
            step(cache, u)
        assert fc.macs == u.size * 4  # the scalings are not mode products

    @pytest.mark.parametrize("steps", [0, -1, 2.0, True, None])
    def test_steps_must_be_a_positive_integer(self, steps):
        cache = prepare(KroneckerOp((np.eye(2),)), 0.1)
        with pytest.raises(ConfigurationError):
            step(cache, np.ones(2), steps=steps)
