import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode import kron, tensor
from kronmode.errors import ConfigurationError, InvalidInputError, ShapeError
from kronmode.fd import heat_factors
from kronmode.kron import KroneckerOp, PropagatorCache, matvec, prepare, step
from kronmode.linalg import matexp
from kronmode.tensor import count_flops, mu_mode_product, norm, tucker
from oracles import OracleSizeError, assemble_full, kron_vec_apply


def random_op(rng, dims, complex_factors=False):
    factors = []
    for m in dims:
        a = rng.standard_normal((m, m))
        if complex_factors:
            a = a + 1j * rng.standard_normal((m, m))
        factors.append(a)
    return KroneckerOp(tuple(factors))


class TestKroneckerOp:
    def test_shape_and_order(self):
        op = KroneckerOp((np.eye(2), np.eye(3), np.eye(4)))
        assert op.shape == (2, 3, 4)
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
            reversed_order = mu_mode_product(reversed_order, cache.exps[mu - 1], mu)
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


def unbuffered_steps(cache, u, steps):
    """``steps`` products by ``tucker`` with no pair lent: every output a new array."""
    assert tensor._lent_pair.get() == ()
    for _ in range(steps):
        u = tucker(u, cache.exps)
    return u


def buffer_case(seed, complex_factors, dtype, diagonal):
    rng = np.random.default_rng(seed)
    dims = (5, 6, 4)
    op = random_op(rng, dims, complex_factors)
    if diagonal:
        op = KroneckerOp((op.factors[0], np.diag(np.diagonal(op.factors[1])), op.factors[2]))
    cache = prepare(op, 0.05, dtype)
    return cache, np.asfortranarray(rng.standard_normal(dims).astype(dtype))


class TestStepBuffers:
    """``step`` with several steps writes its products into two buffers it owns."""

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("complex_factors", [False, True])
    @pytest.mark.parametrize("steps", [2, 3, 7])
    def test_steps_are_bit_identical_to_unbuffered_products(self, steps, complex_factors,
                                                           dtype, diagonal):
        cache, u = buffer_case(20, complex_factors, dtype, diagonal)
        before = u.copy()
        want = unbuffered_steps(cache, u, steps)
        got = step(cache, u, steps=steps)
        assert got.dtype == want.dtype and got.flags.f_contiguous
        assert got.tobytes(order="F") == want.tobytes(order="F")
        assert not np.shares_memory(got, u)
        assert np.array_equal(u, before)
        assert tensor._lent_pair.get() == ()

    def test_results_of_separate_calls_share_no_memory(self):
        cache, u = buffer_case(21, True, np.float64, False)
        first = step(cache, u, steps=3)
        kept = first.copy()
        second = step(cache, u, steps=3)
        third = step(cache, first, steps=2)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, third)
        assert np.array_equal(first, kept)

    def test_a_lent_pair_serves_the_products_of_single_steps(self):
        cache, u = buffer_case(22, False, np.float64, False)
        with tensor._output_pair(u.size, np.float64) as pair:
            got = step(cache, u)
            assert any(np.shares_memory(got, buf) for buf in pair)
            got = step(cache, got)
        assert got.tobytes(order="F") == unbuffered_steps(cache, u, 2).tobytes(order="F")

    def test_matvec_and_a_rectangular_tucker_inside_a_lent_pair(self):
        rng = np.random.default_rng(23)
        op = random_op(rng, (2, 3, 4), complex_factors=True)
        u = np.asfortranarray(rng.standard_normal((2, 3, 4)))
        # Rectangular factors: the first two outputs have the pair's size,
        # the third does not.
        mats = [rng.standard_normal((3, 2)), rng.standard_normal((3, 3)),
                rng.standard_normal((5, 4))]
        with tensor._output_pair(u.size, np.complex128):
            got = matvec(op, u)
        want = assemble_full(op) @ u.ravel(order="F")
        assert np.allclose(got.ravel(order="F"), want, rtol=1e-13, atol=1e-13)
        with tensor._output_pair(3 * 3 * 4, np.float64):
            got = tucker(u, mats)
        assert got.shape == (3, 3, 5)
        assert np.allclose(got.ravel(order="F"), kron_vec_apply(u, mats), rtol=1e-13,
                           atol=1e-13)

    def test_threads_stepping_at_once_each_get_their_own_result(self):
        # More threads than cores and frequent switches: a pair lent to one
        # thread must never serve another thread's products.
        cases = [buffer_case(seed, True, np.float64, False) for seed in range(30, 34)]
        wants = [unbuffered_steps(cache, u, 6) for cache, u in cases]
        all_ready = threading.Barrier(len(cases), timeout=30)
        results = [[] for _ in cases]

        def run(i):
            cache, u = cases[i]
            all_ready.wait()
            for _ in range(20):
                results[i].append(step(cache, u, steps=6))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(wants, results):
            assert len(got) == 20
            assert all(g.tobytes(order="F") == want.tobytes(order="F") for g in got)

    def test_a_diagonal_first_factor_takes_no_pair(self):
        # tucker then applies every dense factor to a Fortran copy, which
        # no product writes into the pair, so two buffers would be waste.
        n = 48
        rng = np.random.default_rng(27)
        op = KroneckerOp((np.diag(rng.standard_normal(n)), rng.standard_normal((n, n)),
                          np.diag(rng.standard_normal(n))))
        cache = prepare(op, 0.01)
        u = np.asfortranarray(rng.standard_normal((n, n, n)))
        step(cache, u, steps=2)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            step(cache, u, steps=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * u.nbytes

    def test_the_pair_is_released_when_a_product_raises(self, monkeypatch):
        cache, u = buffer_case(26, False, np.float64, False)
        product = tensor.mu_mode_product
        calls = []

        def failing_product(u, mat, mu):
            calls.append(mu)
            if len(calls) == 4:
                raise RuntimeError("product failed")
            return product(u, mat, mu)

        monkeypatch.setattr(tensor, "mu_mode_product", failing_product)
        with pytest.raises(RuntimeError, match="product failed"):
            step(cache, u, steps=3)
        assert tensor._lent_pair.get() == ()


shapes = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)


def scaled_op(rng, shape, complex_factors, skew=False, diagonal=()):
    """Random factors of unit Frobenius norm (skew-symmetric or skew-Hermitian
    with ``skew``); the directions in ``diagonal`` get exactly diagonal ones."""
    factors = []
    for mu, n in enumerate(shape, start=1):
        a = rng.standard_normal((n, n))
        if complex_factors:
            a = a + 1j * rng.standard_normal((n, n))
        if skew:
            a = a - a.conj().T
        if mu in diagonal:
            a = np.diag(np.diagonal(a))
        factors.append(a / (np.linalg.norm(a) or 1.0))
    return KroneckerOp(tuple(factors))


def random_state(rng, shape, dtype):
    u = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        u = u + 1j * rng.standard_normal(shape)
    return np.asfortranarray(u.astype(dtype))


class TestStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**31), complex_factors=st.booleans(),
           tau1=st.floats(-1.0, 1.0), tau2=st.floats(-1.0, 1.0))
    def test_semigroup_law(self, shape, seed, complex_factors, tau1, tau2):
        rng = np.random.default_rng(seed)
        op = scaled_op(rng, shape, complex_factors, diagonal={int(rng.integers(1, 4))})
        u = random_state(rng, shape, np.float64)
        two = step(prepare(op, tau2), step(prepare(op, tau1), u))
        one = step(prepare(op, tau1 + tau2), u)
        # Each factor has unit norm, so no step grows or shrinks u by more
        # than exp(len(shape) * 2) and round-off stays near eps * |u|.
        assert norm(two - one, "two") <= 1e-12 * norm(u, "two")

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**31), complex_factors=st.booleans(),
           single=st.booleans(), tau=st.floats(-3.0, 3.0), steps=st.integers(1, 4))
    def test_skew_factors_preserve_the_norm(self, shape, seed, complex_factors, single, tau,
                                            steps):
        rng = np.random.default_rng(seed)
        op = scaled_op(rng, shape, complex_factors, skew=True,
                       diagonal={int(rng.integers(1, 4))} if complex_factors else ())
        real = np.float32 if single else np.float64
        dtype = np.result_type(real, np.complex64) if complex_factors else real
        u = random_state(rng, shape, dtype)
        v = step(prepare(op, tau, dtype), u, steps=steps)
        assert v.dtype == dtype
        tol = 2e-6 if single else 1e-13
        assert abs(norm(v, "two") - norm(u, "two")) <= steps * tol * norm(u, "two")

    @settings(max_examples=80, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**31), complex_factors=st.booleans(),
           single=st.booleans(), steps=st.integers(1, 3),
           layout=st.sampled_from(["C", "strided", "permuted"]), perm=st.permutations(range(3)))
    def test_input_layout_does_not_change_the_result(self, shape, seed, complex_factors,
                                                     single, steps, layout, perm):
        rng = np.random.default_rng(seed)
        op = scaled_op(rng, shape, complex_factors, diagonal={int(rng.integers(1, 4))})
        real = np.float32 if single else np.float64
        dtype = np.result_type(real, np.complex64) if complex_factors else real
        cache = prepare(op, 0.7, dtype)
        base = random_state(rng, shape[:-1] + (2 * shape[-1],), dtype)
        u = np.asfortranarray(base[..., ::2])
        if layout == "C":
            view = np.ascontiguousarray(u)
        elif layout == "strided":
            view = base[..., ::2]
        else:
            # a C-ordered array of u with its axes permuted, viewed back
            perm = [ax for ax in perm if ax < u.ndim]
            view = np.ascontiguousarray(u.transpose(perm)).transpose(np.argsort(perm))
        assert np.array_equal(view, u)
        want = step(cache, u, steps=steps)
        got = step(cache, view, steps=steps)
        assert got.dtype == want.dtype and got.flags.f_contiguous
        assert got.tobytes(order="F") == want.tobytes(order="F")
