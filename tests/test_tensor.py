import inspect
import math
import struct
import threading
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kronmode import tensor
from kronmode.errors import ConfigurationError, InvalidDirectionError, ShapeError
from kronmode.kron import _exponentials
from kronmode.tensor import count_flops, mu_mode_product, norm, tucker
from oracles import block_diagonal, kron_vec_apply, loop_mu_mode


shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


def _real_arrays(single):
    """float32 or float64 arrays, specials included, with an even last extent."""
    specials = st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    elements = st.floats(width=32 if single else 64) | specials
    even_shapes = hnp.array_shapes(max_dims=3, min_side=1, max_side=4).map(
        lambda shape: shape[:-1] + (2 * shape[-1],))
    return hnp.arrays(np.float32 if single else np.float64, even_shapes, elements=elements)


# Quiet NaNs with payload 1: on their strided view ``norm`` and
# ``np.max(np.abs(...))`` return NaNs with different bits.
_PAYLOAD_NANS = np.full(8, 0x7FF8000000000001, dtype=np.uint64).view(np.float64)


def test_mode_product_signature_is_the_one_the_tracer_binds():
    # perfbench/spans.py binds every traced call's arguments to
    # (u, mat, mu) to count its work, so a new parameter (an out= for the
    # stepper's buffers, say) breaks the traced benchmark run, which CI runs
    # and the tier-1 suite does not.
    params = inspect.signature(mu_mode_product).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("u", "mat", "mu")
    ]


class TestMuModeProduct:
    def test_identity_is_bitwise_identity(self):
        rng = np.random.default_rng(7)
        u = np.asfortranarray(rng.random((3, 4, 2)) + 0.5)
        for mu in (1, 2, 3):
            got = mu_mode_product(u, np.eye(u.shape[mu - 1]), mu)
            assert np.array_equal(got, u)

    def test_row_permutation(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = mu_mode_product(u, swap, 1)
        assert np.array_equal(got, np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_small_random_vs_loop_oracle(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((2, 3, 2))
        mat = rng.standard_normal((3, 3))
        got = mu_mode_product(u, mat, 2)
        want = loop_mu_mode(u, mat, 2)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @settings(max_examples=120, deadline=None)
    @given(shape=shapes, mu=st.integers(1, 4), rows=st.integers(1, 4), seed=st.integers(0, 2**31),
           layout=st.sampled_from(["F", "C", "strided", "transposed", "rotated"]),
           complex_u=st.booleans(), single=st.booleans())
    def test_matches_loop_oracle(self, shape, mu, rows, seed, layout, complex_u, single):
        if mu > len(shape):
            mu = 1 + (mu - 1) % len(shape)
        rng = np.random.default_rng(seed)
        real = np.float32 if single else np.float64
        base = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
        if complex_u:
            base = base + 1j * rng.standard_normal(base.shape)
        base = base.astype(np.result_type(real, base))
        u = {"F": np.asfortranarray(base[..., ::2]), "C": np.ascontiguousarray(base[..., ::2]),
             "strided": base[..., ::2],
             # a C-ordered array with direction 1 moved last, viewed back
             "transposed": np.moveaxis(np.ascontiguousarray(np.moveaxis(base[..., ::2], 0, -1)),
                                       -1, 0),
             # an F-ordered array with the last direction moved first, viewed back:
             # the layout tucker passes
             "rotated": np.moveaxis(np.asfortranarray(np.moveaxis(base[..., ::2], -1, 0)),
                                    0, -1)}[layout]
        mat = rng.standard_normal((rows, shape[mu - 1])).astype(real)
        got = mu_mode_product(u, mat, mu)
        want = loop_mu_mode(u, mat, mu)
        assert got.dtype == np.result_type(u, mat)
        assert got.flags.f_contiguous
        if single:
            # rounding of each entry, relative to the bound |mat| x |u|
            tol = 1e-5 * loop_mu_mode(np.abs(u), np.abs(mat), mu)
        else:
            tol = 1e-14 * max(np.abs(want).max(), 1.0)
        assert (np.abs(got - want) <= tol).all()

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**31))
    def test_distinct_directions_commute(self, shape, seed):
        if len(shape) < 2:
            shape = shape + (2,)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(shape)
        u /= np.linalg.norm(u.ravel()) or 1.0
        mu, nu = 1, len(shape)
        a = rng.standard_normal((shape[mu - 1], shape[mu - 1]))
        b = rng.standard_normal((shape[nu - 1], shape[nu - 1]))
        a /= np.linalg.norm(a) or 1.0
        b /= np.linalg.norm(b) or 1.0
        left = mu_mode_product(mu_mode_product(u, a, mu), b, nu)
        right = mu_mode_product(mu_mode_product(u, b, nu), a, mu)
        denom = np.linalg.norm(left.ravel()) or 1.0
        assert np.linalg.norm((left - right).ravel()) / denom <= 1e-13

    def test_complex_promotion(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((2, 3))
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = mu_mode_product(u, mat, 2)
        assert got.dtype == np.complex128
        assert np.abs(got - loop_mu_mode(u, mat, 2)).max() <= 1e-14

    def test_single_precision_preserved(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((4, 4)).astype(np.float32)
        mat = rng.standard_normal((4, 4)).astype(np.float32)
        assert mu_mode_product(u, mat, 1).dtype == np.float32

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3, 4, 0), (0, 2, 3), (2, 0, 3)])
    def test_zero_extent_gives_the_zero_product_and_counts_nothing(self, shape, armed):
        for mu in range(1, len(shape) + 1):
            out_shape = shape[: mu - 1] + (2,) + shape[mu:]
            with count_flops() if armed else nullcontext() as fc:
                got = mu_mode_product(np.zeros(shape), np.ones((2, shape[mu - 1])), mu)
            assert got.shape == out_shape and got.flags.f_contiguous
            assert np.array_equal(got, np.zeros(out_shape))
            if armed:
                assert fc.macs == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mu_mode_product(np.zeros((2, 3)), np.zeros((3, 4)), 1)

    def test_direction_out_of_range(self):
        with pytest.raises(InvalidDirectionError):
            mu_mode_product(np.zeros((2, 3)), np.zeros((2, 2)), 3)

    @pytest.mark.parametrize("mu", [True, False, np.bool_(True)])
    def test_a_bool_is_no_direction(self, mu):
        with pytest.raises(InvalidDirectionError):
            mu_mode_product(np.zeros((2, 3)), np.zeros((2, 2)), mu)


class TestTucker:
    def test_two_dimensional_matrix_identity(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 4))
        l1 = rng.standard_normal((2, 3))
        l2 = rng.standard_normal((5, 4))
        got = tucker(u, [l1, l2])
        want = l1 @ u @ l2.T
        assert np.abs(got - want).max() <= 1e-13

    def test_matches_kron_vec_oracle(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((3, 3, 3))
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        got = tucker(u, mats)
        want = kron_vec_apply(u, mats)
        diff = np.linalg.norm(got.ravel(order="F") - want)
        assert diff <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
           seed=st.integers(0, 2**31))
    def test_kron_vec_identity_small(self, shape, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(shape)
        mats = [rng.standard_normal((n, n)) for n in shape]
        got = tucker(u, mats)
        assert got.flags.f_contiguous
        got = got.ravel(order="F")
        want = kron_vec_apply(u, mats)
        denom = np.linalg.norm(want) or 1.0
        assert np.linalg.norm(got - want) / denom <= 1e-13

    @settings(max_examples=80, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**31),
           layout=st.sampled_from(["F", "C", "strided"]),
           single=st.booleans(), complex_u=st.booleans(), complex_mats=st.booleans())
    def test_vector_entry_acts_as_its_diagonal(self, shape, seed, layout, single, complex_u,
                                               complex_mats):
        rng = np.random.default_rng(seed)
        real = np.float32 if single else np.float64

        def draw(*dims, cplx):
            x = rng.standard_normal(dims)
            if cplx:
                return (x + 1j * rng.standard_normal(dims)).astype(np.result_type(real, 1j))
            return x.astype(real)

        base = draw(*shape[:-1], 2 * shape[-1], cplx=complex_u)
        u = {"F": np.asfortranarray(base[..., ::2]), "C": np.ascontiguousarray(base[..., ::2]),
             "strided": base[..., ::2]}[layout]
        # every slot a diagonal (as a vector) or a dense matrix; one diagonal at least
        diagonal = rng.random(len(shape)) < 0.5
        diagonal[rng.integers(len(shape))] = True
        mats = [draw(n, cplx=complex_mats) if diag
                else draw(int(rng.integers(1, 5)), n, cplx=complex_mats)
                for diag, n in zip(diagonal, shape)]
        before = u.copy()

        got = tucker(u, mats)
        want = tucker(u, [np.diag(m) if m.ndim == 1 else m for m in mats])

        assert np.array_equal(u, before)
        assert got.flags.f_contiguous
        assert got.dtype == np.result_type(u, *mats)
        assert got.shape == want.shape
        # rounding of the dense products, relative to the bound |mats| x |u|
        scale = tucker(np.abs(u), [np.abs(m) for m in mats]).max()
        tol = 1e-5 if single else 1e-14
        assert np.abs(got - want).max() <= tol * max(scale, np.finfo(real).tiny)

    def test_error_names_direction(self):
        with pytest.raises(ShapeError, match="direction 2"):
            tucker(np.zeros((2, 3)), [np.eye(2), np.eye(2)])

    def test_vector_entry_length_checked(self):
        with pytest.raises(ShapeError, match="direction 2"):
            tucker(np.zeros((2, 3)), [np.eye(2), np.ones(2)])

    def test_none_is_not_a_slot(self):
        with pytest.raises(ShapeError, match="direction 1"):
            tucker(np.zeros((2, 3)), [None, np.eye(3)])

    def test_wrong_slot_count(self):
        with pytest.raises(ShapeError):
            tucker(np.zeros((2, 3)), [np.eye(2)])


def _traced_macs(monkeypatch):
    """The multiply-adds of every mode product, by perfbench's formula from ``(u, mat, mu)``."""
    calls = []
    product = tensor.mu_mode_product

    def spy(u, mat, mu):
        calls.append(mat.shape[0] * u.size)
        return product(u, mat, mu)

    monkeypatch.setattr(tensor, "mu_mode_product", spy)
    return calls


# One (kind, b, m) per direction: a direction of extent b*m gets a dense
# matrix, a diagonal vector or a stack of b blocks of m x m.
_directions = st.lists(
    st.tuples(st.sampled_from(["dense", "diagonal", "blocks"]), st.integers(1, 4),
              st.integers(1, 3)), min_size=1, max_size=4)


class TestBlockEntries:
    """A ``(b, m, m)`` stack stands for the block-diagonal matrix of its blocks."""

    @settings(max_examples=100, deadline=None)
    @given(directions=_directions, seed=st.integers(0, 2**31), layout=st.sampled_from("FC"),
           complex_u=st.booleans(), complex_mats=st.booleans(), single=st.booleans(),
           buffered=st.booleans())
    @example(directions=[("diagonal", 2, 2), ("blocks", 2, 3)], seed=1, layout="F",
             complex_u=False, complex_mats=False, single=False, buffered=True)
    @example(directions=[("dense", 1, 3), ("diagonal", 3, 1), ("blocks", 4, 2), ("dense", 2, 1)],
             seed=2, layout="C", complex_u=True, complex_mats=False, single=False, buffered=True)
    def test_matches_the_dense_block_diagonal_matrix(self, directions, seed, layout,
                                                     complex_u, complex_mats, single, buffered):
        rng = np.random.default_rng(seed)
        real = np.float32 if single else np.float64
        if all(kind != "blocks" for kind, _, _ in directions):
            directions[rng.integers(len(directions))] = ("blocks",) + directions[0][1:]

        def draw(*dims, cplx):
            x = rng.standard_normal(dims)
            return (x + 1j * rng.standard_normal(dims) if cplx else x).astype(
                np.result_type(real, 1j) if cplx else real)

        shape = tuple(b * m for _, b, m in directions)
        mats = [{"dense": lambda: draw(b * m, b * m, cplx=complex_mats),
                 "diagonal": lambda: draw(b * m, cplx=complex_mats),
                 "blocks": lambda: draw(b, m, m, cplx=complex_mats)}[kind]()
                for kind, b, m in directions]
        u = draw(*shape, cplx=complex_u).copy(order=layout)
        dtype = np.result_type(u, *mats)
        pair = ()
        if buffered:
            pair = (np.empty(u.size, dtype), np.empty(u.size, dtype))
            u = pair[0].reshape(shape, order="F")
            u[...] = draw(*shape, cplx=complex_u)
        before = u.copy()
        dense = [block_diagonal(m) if m.ndim == 3 else m for m in mats]
        want = tucker(u, dense)

        with pytest.MonkeyPatch.context() as monkeypatch, count_flops() as fc:
            traced = _traced_macs(monkeypatch)
            got = tucker(u, mats, pair)

        assert got.flags.f_contiguous and got.dtype == dtype and got.shape == shape
        scale = tucker(np.abs(before), [np.abs(m) for m in dense]).max()
        tol = 1e-5 if single else 1e-14
        assert np.abs(got - want).max() <= tol * max(scale, np.finfo(real).tiny)
        if buffered:
            assert any(np.shares_memory(got, buf) for buf in pair)
        else:
            assert np.array_equal(u, before)
        n_all = math.prod(shape)
        rows = {"dense": lambda b, m: b * m, "diagonal": lambda b, m: 0,
                "blocks": lambda b, m: m}
        assert fc.macs == sum(rows[kind](b, m) * n_all for kind, b, m in directions)
        assert sum(traced) == fc.macs
        assert tensor._lent_pair.get() == ()

    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_each_block_reads_a_view_and_writes_its_chunk_of_a_lent_buffer(self, b):
        rng = np.random.default_rng(3)
        shape = (48, 32, 40)
        pair = (np.empty(math.prod(shape)), np.empty(math.prod(shape)))
        u = pair[0].reshape(shape, order="F")
        u[...] = rng.standard_normal(shape)
        blocks = [rng.standard_normal((b, n // b, n // b)) for n in shape]
        want = tucker(u.copy(order="F"), [block_diagonal(m) for m in blocks])
        tracemalloc.start()
        try:
            got = tucker(u, blocks, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * u.nbytes
        assert np.shares_memory(got, pair[1])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_a_block_of_rows_of_the_unfolding_is_multiplied_without_a_copy(self):
        rng = np.random.default_rng(4)
        # The layout tucker passes: the last axis fastest, the others after it.
        x = np.asfortranarray(rng.standard_normal((16, 12, 10))).transpose(1, 2, 0)
        block, mat = x[..., 4:12], rng.standard_normal((8, 8))
        want = mu_mode_product(np.asfortranarray(block), mat, 3)
        tracemalloc.start()
        try:
            got = mu_mode_product(block, mat, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 4096
        assert got.flags.f_contiguous
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("stack, n", [
        ((2, 2, 3), 4),      # blocks not square
        ((3, 2, 2), 4),      # b*m is not the extent
        ((2, 2, 2), 5),
        ((0, 4, 4), 4),      # no block
        ((1, 2, 2, 2), 4),   # not a stack of matrices
    ])
    def test_a_malformed_stack_is_rejected(self, stack, n):
        with pytest.raises(ShapeError, match="direction 2"):
            tucker(np.zeros((3, n)), [np.eye(3), np.ones(stack)])


class TestNorm:
    def test_zero_tensor(self):
        z = np.zeros((2, 2))
        assert norm(z, "max") == 0.0
        assert norm(z, "two") == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    def test_zero_size_tensor(self, dtype):
        z = np.zeros((3, 0, 2), dtype=dtype)
        assert norm(z, "max") == 0.0
        assert norm(z, "two") == 0.0

    def test_single_entry(self):
        u = np.array([3.0])
        assert norm(u, "max") == 3.0
        assert norm(u, "two") == 3.0

    @settings(max_examples=150, deadline=None)
    @given(base=st.booleans().flatmap(_real_arrays),
           layout=st.sampled_from(["F", "C", "strided", "reversed"]))
    @example(base=_PAYLOAD_NANS, layout="strided")
    def test_max_of_a_real_tensor_is_bitwise_max_abs(self, base, layout):
        u = {"F": np.asfortranarray(base[..., ::2]), "C": np.ascontiguousarray(base[..., ::2]),
             "strided": base[..., ::2], "reversed": base[..., ::-2]}[layout]
        want = float(np.max(np.abs(u)))
        got = norm(u, "max")
        if math.isnan(want):
            # A NaN entry makes the norm NaN; which NaN's bits it keeps is unspecified.
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_max_of_a_complex_tensor_is_its_largest_modulus(self):
        u = np.array([[3.0 - 4.0j, -1.0], [0.5j, -0.0]], order="F")
        assert norm(u, "max") == 5.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            norm(np.ones(2), "median")


def test_flop_counter_counts_multiply_adds():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((2, 3, 4))
    mat = rng.standard_normal((5, 3))
    with count_flops() as fc:
        mu_mode_product(u, mat, 2)
    assert fc.macs == 5 * 3 * (24 // 3)
    # inactive outside the block
    mu_mode_product(u, mat, 2)
    assert fc.macs == 5 * 3 * 8


def test_flop_counters_in_two_threads_count_only_their_own_products():
    rng = np.random.default_rng(2)
    u, mat = rng.standard_normal((2, 3, 4)), rng.standard_normal((5, 3))
    factor = rng.standard_normal((6, 6))
    # One thread runs only mode products, the other only exponentials.
    # The vector slots are scalings, which count no multiply-adds.
    kernels = [lambda: tucker(u, [np.ones(2), mat, np.ones(4)]),
               lambda: _exponentials(0.1, [[factor]])]
    both_armed = threading.Barrier(2, timeout=30)
    both_done = threading.Barrier(2, timeout=30)
    counters = [None, None]

    def count(i):
        with count_flops() as fc:
            both_armed.wait()
            for _ in range(3):
                kernels[i]()
            both_done.wait()
        counters[i] = fc

    threads = [threading.Thread(target=count, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    products, exponentials = counters
    assert (products.macs, products.exp_s) == (3 * 5 * 3 * 8, 0.0)
    assert products.mode_s > 0
    assert (exponentials.macs, exponentials.mode_s) == (0, 0.0)
    assert exponentials.exp_s > 0
