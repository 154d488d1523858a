import sys
import threading
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode import kron, problems, tensor
from kronmode.errors import ConfigurationError, InvalidInputError, ShapeError
from kronmode.fd import heat_factors
from kronmode.kron import KroneckerOp, PropagatorCache, matvec, prepare, step
from kronmode.linalg import matexp
from kronmode.tensor import count_flops, mu_mode_product, norm, tucker
from oracles import OracleSizeError, assemble_full, dense_propagation, kron_vec_apply


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

    @pytest.mark.parametrize("complex_dirs", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_real_and_complex_factors_in_any_order(self, complex_dirs):
        rng = np.random.default_rng(4)
        factors = [rng.standard_normal((m, m)) for m in (3, 2, 4)]
        for mu in complex_dirs:
            factors[mu] = factors[mu] + 1j * rng.standard_normal(factors[mu].shape)
        op = KroneckerOp(tuple(factors))
        u = np.asfortranarray(rng.standard_normal((3, 2, 4)))
        want = assemble_full(op) @ u.ravel(order="F")
        got = matvec(op, u).ravel(order="F")
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_shape_mismatch(self):
        op = KroneckerOp((np.eye(2), np.eye(3)))
        with pytest.raises(ShapeError):
            matvec(op, np.ones((3, 2)))

    def test_direction_1_gets_one_fortran_copy_of_its_factor(self, monkeypatch):
        # unfold.T @ A_1.T is then a non-transposed GEMM; the copy is made
        # once per operator, not at every call.
        seen = []

        def spy(u, mat, mu):
            seen.append((mu, mat))
            return mu_mode_product(u, mat, mu)

        monkeypatch.setattr(kron, "mu_mode_product", spy)
        rng = np.random.default_rng(5)
        op = random_op(rng, (4, 3, 5))
        u = rng.standard_normal(op.shape)
        matvec(op, u)
        matvec(op, u)
        firsts = [mat for mu, mat in seen if mu == 1]
        assert len(firsts) == 2 and firsts[0] is firsts[1]
        assert firsts[0].flags.f_contiguous and np.array_equal(firsts[0], op.factors[0])
        assert op.factors[0].flags.c_contiguous
        assert all(mat is op.factors[mu - 1] for mu, mat in seen if mu > 1)


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

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed"])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_the_cast_flushes_every_subnormal_part(self, complex_values, layout):
        # 144000 entries (288000 parts if complex): full blocks of 2**16 parts
        # and a partial one.
        rng = np.random.default_rng(14)
        shape = (2, 3, 120, 200)
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-46, 2, shape)
        if complex_values:
            arr = arr - 1j * arr[::-1]
        arr = {"C": arr, "F": np.asfortranarray(arr), "strided": arr[..., ::2],
               "reversed": arr.transpose(2, 0, 3, 1)[::-1]}[layout]
        got = kron._cast(arr, np.float32)
        want = arr.astype(got.dtype)
        tiny = np.finfo(np.float32).tiny
        for part in (want.real, want.imag) if complex_values else (want,):
            part[np.abs(part) < tiny] = 0
        assert got.dtype == (np.complex64 if complex_values else np.float32)
        assert got.strides == want.strides
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert np.count_nonzero(want == 0) > np.count_nonzero(arr == 0)

    def test_shared_factor_object_is_exponentiated_once(self, monkeypatch):
        calls = []  # the shape of each matrix of each call
        original = kron.matexp
        monkeypatch.setattr(kron, "matexp",
                            lambda a: calls.append([m.shape for m in a]) or original(a))
        a = heat_factors(16, 2).factors[0]
        a[0, 1] = np.nextafter(a[0, 1], 0)  # not centrosymmetric: no fold
        cache = prepare(KroneckerOp((a, a, a)), 0.1)
        assert calls == [[(16, 16)]]
        assert np.array_equal(cache.exps[2], original(0.1 * a))

    def test_a_shared_folded_factor_is_exponentiated_once_as_its_two_blocks(self, monkeypatch):
        calls = []
        original = kron.matexp
        monkeypatch.setattr(kron, "matexp",
                            lambda a: calls.append([m.shape for m in a]) or original(a))
        op = heat_factors(16, 2)
        cache = prepare(op, 0.1)
        assert calls == [[(8, 8), (8, 8)]]
        want = original(0.1 * op.factors[0])
        for e in cache.exps:
            assert np.abs(e - want).max() <= 1e-15 * np.abs(want).max()
            assert np.array_equal(e, e[::-1, ::-1])

    @pytest.mark.parametrize("tau", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_increment_is_rejected_before_any_exponential(self, monkeypatch,
                                                                        tau):
        monkeypatch.setattr(kron, "matexp", lambda a: pytest.fail("an exponential ran"))
        with pytest.raises(ConfigurationError, match="time increment"):
            prepare(heat_factors(8, 2), tau)


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


def buffer_case(seed, complex_factors, dtype, diagonal, diagonal_first=False):
    rng = np.random.default_rng(seed)
    dims = (5, 6, 4)
    op = random_op(rng, dims, complex_factors)
    if diagonal:
        op = KroneckerOp((op.factors[0], np.diag(np.diagonal(op.factors[1])), op.factors[2]))
    if diagonal_first:
        op = KroneckerOp((np.diag(np.diagonal(op.factors[0])),) + op.factors[1:])
    cache = prepare(op, 0.05, dtype)
    return cache, np.asfortranarray(rng.standard_normal(dims).astype(dtype))


class TestStepBuffers:
    """``step`` runs its first step out of place and the others in a pair it owns."""

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("complex_factors", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7])
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

    def test_a_pair_given_to_tucker_serves_its_products(self):
        cache, u = buffer_case(22, False, np.float64, False)
        pair = (np.empty(u.size), np.empty(u.size))
        got = tucker(u, cache.exps, pair)
        assert any(np.shares_memory(got, buf) for buf in pair)
        got = tucker(got, cache.exps, pair)
        assert got.tobytes(order="F") == unbuffered_steps(cache, u, 2).tobytes(order="F")
        assert tensor._lent_pair.get() == ()

    def test_a_rectangular_tucker_given_a_pair(self):
        rng = np.random.default_rng(23)
        u = np.asfortranarray(rng.standard_normal((2, 3, 4)))
        # Rectangular factors: the first two outputs have the pair's size,
        # the third does not.
        mats = [rng.standard_normal((3, 2)), rng.standard_normal((3, 3)),
                rng.standard_normal((5, 4))]
        got = tucker(u, mats, (np.empty(3 * 3 * 4), np.empty(3 * 3 * 4)))
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

    @pytest.mark.parametrize("kinds", ["dDd", "Ddd"])
    def test_a_step_with_diagonals_writes_into_its_pair(self, monkeypatch, kinds):
        # "dDd": direction 2 is applied in its own direction, a batched
        # product, and the scalings follow in place.  "Ddd": the scalings
        # write the cycled layout of direction 1's product into the other
        # buffer.  Either way u and the pair, three states.
        n = 48
        rng = np.random.default_rng(27)
        op = KroneckerOp(tuple(rng.standard_normal((n, n)) if kind == "D"
                               else np.diag(rng.standard_normal(n)) for kind in kinds))
        cache = prepare(op, 0.01)
        u = np.asfortranarray(rng.standard_normal((n, n, n)))
        want = unbuffered_steps(cache, u, 4)

        calls = []

        def spying_tucker(u, mats, buffers=()):
            out = tucker(u, mats, buffers)
            calls.append(len(buffers) == 2 and any(np.shares_memory(out, buf)
                                                   for buf in buffers))
            return out

        monkeypatch.setattr(kron, "tucker", spying_tucker)
        step(cache, u, steps=2)  # first-call caches stay out of the count
        assert calls == [False, True]  # the first step runs out of place
        tracemalloc.start()
        try:
            got = step(cache, u, steps=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes(order="F") == want.tobytes(order="F")
        assert calls[2:] == [False, True, True, True]
        assert peak <= 3.25 * u.nbytes

    # "dDd": a dense factor after a diagonal one is applied in its own
    # direction, a batched product.  "Ddd": the scaling writes the layout the
    # dense product left cycled into the pair.  "ddd": the scaling alone.
    @pytest.mark.parametrize("kinds", ["dDd", "Ddd", "ddd"])
    def test_a_tucker_with_diagonals_writes_into_a_given_pair(self, kinds):
        rng = np.random.default_rng(28)
        u = np.asfortranarray(rng.standard_normal((3, 4, 5)))
        kept = u.copy()
        mats = [rng.standard_normal((n, n)) if kind == "D" else rng.standard_normal(n)
                for kind, n in zip(kinds, u.shape)]
        pair = (np.empty(u.size), np.empty(u.size))
        got = tucker(u, mats, pair)
        assert any(np.shares_memory(got, buf) for buf in pair)
        assert np.array_equal(u, kept)
        assert got.tobytes(order="F") == tucker(u, mats).tobytes(order="F")

    def test_an_all_diagonal_tucker_leaves_a_lent_state_unwritten(self):
        rng = np.random.default_rng(29)
        pair = (np.empty(60), np.empty(60))
        state = pair[0].reshape((3, 4, 5), order="F")
        state[...] = rng.standard_normal(state.shape)
        kept = state.copy()
        mats = [rng.standard_normal(n) for n in state.shape]
        got = tucker(state, mats, pair)
        assert np.shares_memory(got, pair[1]) and np.array_equal(state, kept)
        assert got.tobytes(order="F") == tucker(kept, mats).tobytes(order="F")

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


class TestLentSteps:
    """The stepping loop owns the state it is handed.

    A Fortran-ordered state of the stepping's dtype is the first buffer of
    the loop's pair, which the products overwrite; any other is copied.
    """

    @staticmethod
    def advance(cache, u, steps):
        """``kron._advance`` from ``u``, and the state after each step.

        Every state is a view of one of the two buffers of the loop's pair,
        and the last one is the result.
        """
        states = []
        got = kron._advance(repeat(cache.exps, steps), u,
                            lambda state, s: states.append((s, state)))
        assert tensor._lent_pair.get() == ()
        assert [s for s, _ in states] == list(range(steps))
        states = [state for _, state in states]
        assert got is states[-1]
        buffers = []  # one state in each buffer met so far
        for state in states:
            if not any(np.shares_memory(state, buf) for buf in buffers):
                buffers.append(state)
        assert len(buffers) <= 2
        return got, states

    @pytest.mark.parametrize("diagonal_first", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("complex_factors", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7])
    def test_a_lent_state_steps_bit_identically_to_step(self, steps, complex_factors, dtype,
                                                       diagonal_first):
        cache, u = buffer_case(24, complex_factors, dtype, False, diagonal_first)
        want = step(cache, u, steps=steps)
        lent = u.astype(np.result_type(u, *cache.exps), order="F")
        got, states = self.advance(cache, lent, steps)
        assert got.dtype == want.dtype and got.flags.f_contiguous
        assert got.tobytes(order="F") == want.tobytes(order="F")
        # Three products a step move the state to the other buffer, so the
        # states alternate between the spare and lent's memory, the spare
        # first; two products and a scaling in place leave it in lent's.
        for s, state in enumerate(states):
            assert np.shares_memory(state, lent) == (diagonal_first or s % 2 == 1)

    def test_the_products_overwrite_a_lent_state(self):
        cache, u = buffer_case(25, False, np.float64, False)
        lent = u.copy(order="F")
        got, [state] = self.advance(cache, lent, 1)
        # Three products: the second one writes the lent buffer, the third the spare.
        assert got is state and not np.shares_memory(state, lent)
        assert not np.array_equal(lent, u)

    @pytest.mark.parametrize("layout", ["C", "strided"])
    def test_a_state_that_is_not_fortran_contiguous_is_copied(self, layout):
        cache, u = buffer_case(26, True, np.complex128, False)
        u = np.ascontiguousarray(u) if layout == "C" else np.asfortranarray(
            np.repeat(u, 2, axis=0))[::2]
        self.check_copied(cache, u)

    def test_a_real_state_of_complex_steps_is_copied(self):
        self.check_copied(*buffer_case(26, True, np.float64, False))

    def check_copied(self, cache, u):
        kept = u.copy()
        got, states = self.advance(cache, u, 2)
        assert np.array_equal(u, kept)
        assert not any(np.shares_memory(state, u) for state in states)
        assert got.tobytes(order="F") == step(cache, kept, steps=2).tobytes(order="F")

    def test_no_steps_return_the_state_and_allocate_nothing(self):
        # A C-ordered real state of complex steps: any step would copy it.
        cache = prepare(KroneckerOp(tuple(1j * a for a in heat_factors(16, 2).factors)), 0.1)
        u = np.ones(cache.shape)
        tracemalloc.start()
        try:
            got = kron._advance(repeat(cache.exps, 0), u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is u
        assert peak < 0.05 * u.nbytes

    @pytest.mark.parametrize("diagonal_first", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_step_leaves_its_argument_unmodified(self, steps, dtype, diagonal_first):
        cache, u = buffer_case(27, True, dtype, False, diagonal_first)
        kept = u.copy()
        got = step(cache, u, steps=steps)
        assert np.array_equal(u, kept) and not np.shares_memory(got, u)


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


class TestMatvecProperties:
    layouts = st.sampled_from(["C", "F", "strided"])

    @staticmethod
    def _laid_out(base, layout):
        """``base[..., ::2]`` C-ordered, Fortran-ordered or as the strided view itself."""
        view = base[..., ::2]
        return {"C": np.ascontiguousarray(view), "F": np.asfortranarray(view),
                "strided": view}[layout]

    @settings(max_examples=80, deadline=None)
    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
           seed=st.integers(0, 2**31), complex_dirs=st.lists(st.booleans(), min_size=4,
                                                             max_size=4),
           factor_layouts=st.lists(layouts, min_size=4, max_size=4), state_layout=layouts,
           complex_u=st.booleans())
    def test_factor_and_state_layouts_do_not_change_the_result(
            self, shape, seed, complex_dirs, factor_layouts, state_layout, complex_u):
        rng = np.random.default_rng(seed)
        bases = []
        for n, complex_dir in zip(shape, complex_dirs):
            a = rng.standard_normal((n, 2 * n))
            bases.append(a + 1j * rng.standard_normal((n, 2 * n)) if complex_dir else a)
        base = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
        if complex_u:
            base = base + 1j * rng.standard_normal(base.shape)
        u = self._laid_out(base, state_layout)
        want = matvec(KroneckerOp(tuple(self._laid_out(a, "C") for a in bases)), u)
        op = KroneckerOp(tuple(self._laid_out(a, layout)
                               for a, layout in zip(bases, factor_layouts)))
        got = matvec(op, u)
        assert got.dtype == want.dtype and got.tobytes(order="F") == want.tobytes(order="F")
        # Relative to the sum of the moduli, which no cancellation shrinks.
        full = assemble_full(op)
        dense = full @ u.ravel(order="F")
        scale = (np.abs(full) @ np.abs(u.ravel(order="F"))).max()
        assert np.abs(got.ravel(order="F") - dense).max() <= 1e-13 * scale


# One (kind, extent index) per direction; see folded_op.
_fold_directions = st.lists(
    st.tuples(st.sampled_from(["centro_even", "centro_odd", "general", "diagonal"]),
              st.integers(0, 2)), min_size=1, max_size=4)


def folded_op(rng, directions, complex_factors):
    """Factors of 1-norm about one: exactly centrosymmetric of even extent
    (2, 4 or 6), of odd extent (1, 3 or 5), neither (2, 3 or 5), or diagonal."""
    factors = []
    for kind, i in directions:
        n = {"centro_even": (2, 4, 6), "centro_odd": (1, 3, 5)}.get(kind, (2, 3, 5))[i]
        a = rng.standard_normal((n, n))
        if complex_factors:
            a = a + 1j * rng.standard_normal((n, n))
        a /= n
        if kind.startswith("centro"):
            a = a + a[::-1, ::-1]
        elif kind == "diagonal":
            a = np.diag(np.diagonal(a))
        factors.append(a)
    return KroneckerOp(tuple(factors))


class TestFoldedSteps:
    """A centrosymmetric factor of even extent is stepped as its two half-size blocks."""

    # With four directions, small extents keep the dense Kronecker sum small.
    @settings(max_examples=80, deadline=None)
    @given(directions=_fold_directions.filter(lambda ds: len(ds) < 4 or
                                              sum(i for _, i in ds) <= 3),
           steps=st.integers(1, 6), seed=st.integers(0, 2**31),
           complex_factors=st.booleans(), tau=st.floats(0.05, 0.5))
    def test_steps_match_the_dense_propagator(self, directions, steps, seed, complex_factors,
                                              tau):
        rng = np.random.default_rng(seed)
        op = folded_op(rng, directions, complex_factors)
        u = random_state(rng, op.shape, np.float64)
        run = problems._Run("double", steps * tau, steps)
        cache = prepare(op, run.tau)
        assert [f is not None for f in cache._folds] == [
            kind == "centro_even" and np.count_nonzero(a - np.diag(np.diagonal(a))) > 0
            for (kind, _), a in zip(directions, op.factors)]
        want = dense_propagation(op, steps * run.tau, u)
        tol = 1e-13 * np.abs(want).max()
        assert np.abs(step(cache, u, steps=steps) - want).max() <= tol
        assert np.abs(run.exact(op, u.copy(order="F")) - want).max() <= tol

    @pytest.mark.parametrize("steps", [1, 2, 3, 6])
    def test_steps_count_half_the_multiply_adds_of_a_folded_direction(self, steps):
        rng = np.random.default_rng(40)
        op = folded_op(rng, [("centro_even", 2), ("general", 1), ("centro_even", 1),
                             ("diagonal", 2)], False)
        u = random_state(rng, op.shape, np.float64)
        cache = prepare(op, 0.1)
        with count_flops() as fc:
            step(cache, u, steps=steps)
        # Per step, in units of the state's size: 6 + 3 + 4 dense, 3 + 3 + 2
        # with directions 1 and 3 folded; the diagonal counts none.
        dense, folded = 13 * u.size, 8 * u.size
        assert fc.macs == dense * min(steps, 2) + folded * max(steps - 2, 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_a_factor_one_ulp_off_centrosymmetry_keeps_the_dense_bits(self, steps, dtype):
        rng = np.random.default_rng(41)
        centro, dense, diagonal = folded_op(
            rng, [("centro_even", 2), ("general", 0), ("diagonal", 1)], False).factors
        a = centro.copy()
        a[1, 2] = np.nextafter(a[1, 2], np.inf)
        cache = prepare(KroneckerOp((a, dense, diagonal)), 0.2, dtype)
        assert cache._folds == (None, None, None)
        assert np.array_equal(cache.exps[0], kron._cast(matexp(0.2 * a), dtype))
        u = random_state(rng, cache.shape, dtype)
        want = unbuffered_steps(cache, u, steps)
        assert step(cache, u, steps=steps).tobytes(order="F") == want.tobytes(order="F")
        # Beside a folded direction it keeps its dense exponential.
        cache = prepare(KroneckerOp((a, dense, centro)), 0.2, dtype)
        assert [f is None for f in cache._folds] == [True, True, False]
        assert np.array_equal(cache.exps[0], kron._cast(matexp(0.2 * a), dtype))

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.complex64])
    def test_a_folded_factor_of_any_dtype_exponentiates_as_matexp_does(self, dtype):
        b = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
        a = np.maximum(b, b[::-1, ::-1]).astype(dtype)
        cache = prepare(KroneckerOp((a,)), 0.3)
        want = matexp(0.3 * a.astype(np.result_type(a, np.float64)))
        assert cache._folds[0] is not None
        assert cache.exps[0].dtype == want.dtype
        assert np.abs(cache.exps[0] - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_fold_entries_hold_no_subnormals(self, dtype):
        tiny = np.finfo(np.float32).tiny
        # A tridiagonal factor: the far entries of its exponential fall
        # below float32's tiny.
        a = np.diag(np.full(64, -2.0)) + np.diag(np.ones(63), 1) + np.diag(np.ones(63), -1)
        a = a * (1j if dtype == np.complex64 else 1)
        e = prepare(KroneckerOp((a,)), 1.0).exps[0]
        assert np.any((e != 0) & (np.abs(e) < tiny))
        entries = [prepare(KroneckerOp((a,)), 1.0, dtype).exps[0]]
        # Blocks whose halved sums and differences fall below it too.
        rng = np.random.default_rng(42)
        e_plus = np.full((4, 4), 1.5 * tiny) * (1j if dtype == np.complex64 else 1)
        e_minus = e_plus * (1 + 1e-7 * rng.standard_normal((4, 4)))
        full, folds = kron._from_blocks(e_plus, e_minus, dtype)
        for e in [*entries, full, *folds]:
            assert e.dtype == dtype
            parts = e.view(np.float32)
            assert not np.any((parts != 0) & (np.abs(parts) < tiny))
