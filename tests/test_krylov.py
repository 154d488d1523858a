import math
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from kronmode import kron, krylov, linalg
from kronmode.errors import ConfigurationError, NoConvergenceError, ShapeError
from kronmode.fd import heat_factors, pipeflow_factors, pipeflow_grids
from kronmode.kron import KroneckerOp, prepare, step
from kronmode.krylov import _expmv_reference, arnoldi_expmv
from kronmode.linalg import _THETA, matexp
from kronmode.tensor import norm
from oracles import assemble_full, expmv_reference_eager


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


def test_error_within_a_hundred_tolerances():
    rng = np.random.default_rng(3)
    for n in (8, 12, 16):
        op = heat_factors(n, 2)
        v = np.asfortranarray(rng.standard_normal((n, n, n)))
        got = arnoldi_expmv(op, v, 0.05, tol=1e-8)
        want = step(prepare(op, 0.05), v)
        assert norm(got - want, "two") <= 100 * 1e-8 * norm(want, "two")


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


@pytest.mark.parametrize("m_max", [2.5, True])
def test_m_max_is_an_integer(m_max):
    with pytest.raises(ConfigurationError):
        arnoldi_expmv(KroneckerOp((np.eye(3),)), np.ones(3), 0.1, m_max=m_max)


@pytest.mark.parametrize("max_substeps", [0, -1, 2.5, True])
def test_max_substeps_is_a_positive_integer(max_substeps):
    with pytest.raises(ConfigurationError):
        arnoldi_expmv(KroneckerOp((np.eye(3),)), np.ones(3), 0.1, max_substeps=max_substeps)


def test_a_tolerance_that_is_not_a_number_is_rejected():
    # nan passes a plain ``tol < 1e-14`` check and spends the whole substep budget.
    v = np.random.default_rng(7).standard_normal((8, 8, 8))
    with pytest.raises(ConfigurationError):
        arnoldi_expmv(heat_factors(8, 2), v, 0.1, tol=math.nan)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_a_non_finite_increment_is_rejected_before_any_product(monkeypatch, tau):
    monkeypatch.setattr(krylov, "matvec", lambda op, u: pytest.fail("a product ran"))
    with pytest.raises(ConfigurationError, match="time increment"):
        arnoldi_expmv(heat_factors(8, 2), np.ones((8, 8, 8)), tau)


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


def _pipeflow_state(n):
    """The pipe-flow driver's Gaussian blob."""
    rho_grid, z_grid = pipeflow_grids(n)
    return np.asfortranarray(
        np.exp(-8.0 * (rho_grid.points - 2.55) ** 2)[:, None]
        * np.exp(-8.0 * (z_grid.points - 1.5) ** 2)[None, :]
    )


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
    def test_multiples_of_the_identity_give_the_scalar_exponential_exactly(self,
                                                                           complex_factors):
        # The mean-diagonal shift takes the whole operator, so no Taylor term
        # is left; dyadic multiples keep the means exact.
        cs = (-0.75, 1.5, 0.25)
        if complex_factors:
            cs = tuple(c + 0.5j * c for c in cs)
        shape = (4, 2, 8)
        op = KroneckerOp(tuple(c * np.eye(n) for c, n in zip(cs, shape)))
        rng = np.random.default_rng(12)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(_expmv_reference(op, v, 0.3), np.exp(0.3 * sum(cs)) * v)

    def test_matvecs_stay_within_the_degree_and_scaling_of_the_bound(self, monkeypatch):
        n, tau = 16, 4.0
        op = pipeflow_factors(n)
        bound = tau * sum(np.abs(a - np.trace(a) / n * np.eye(n)).sum(axis=0).max()
                          for a in op.factors)
        cost = min(m * math.ceil(bound / theta) for m, theta in _THETA.items())
        calls = []

        def counting(o, u):
            calls.append(u.shape)
            return kron.matvec(o, u)

        monkeypatch.setattr(krylov, "matvec", counting)
        _expmv_reference(op, _pipeflow_state(n), tau)
        # At most m*s, and fewer here because the stages stop early (164 of 200).
        assert 0 < len(calls) < cost

    @pytest.mark.parametrize("complex_factors", [False, True])
    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_agrees_with_scipy_expm_multiply_on_random_ops(self, seed, complex_factors):
        rng = np.random.default_rng(seed)
        op = _random_op(rng, (6, 5, 4), complex_factors)
        v = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
        got = _expmv_reference(op, v, 0.4).ravel(order="F")
        want = expm_multiply(0.4 * assemble_full(op), v.ravel(order="F"))
        assert norm(got - want, "two") <= 1e-13 * norm(want, "two")

    @pytest.mark.parametrize("n", [32, 96])
    def test_agrees_with_scipy_expm_multiply_on_pipeflow(self, n):
        op = pipeflow_factors(n)
        a1, a2 = (scipy.sparse.csr_matrix(a) for a in op.factors)
        eye = scipy.sparse.identity(n, format="csr")
        full = scipy.sparse.kron(eye, a1) + scipy.sparse.kron(a2, eye)
        c0 = _pipeflow_state(n)
        got = _expmv_reference(op, c0, 4.0).ravel(order="F")
        want = expm_multiply(4.0 * full.tocsr(), c0.ravel(order="F"))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
           seed=st.integers(0, 2**31),
           tau=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 5e-324, -1e-308])),
           complex_factors=st.booleans(), complex_v=st.booleans())
    def test_stops_where_the_norm_after_every_term_stops(self, shape, seed, tau,
                                                         complex_factors, complex_v):
        rng = np.random.default_rng(seed)
        op = _random_op(rng, shape, complex_factors)
        v = rng.standard_normal(shape)
        if complex_v:
            v = v + 1j * rng.standard_normal(shape)
        got = _expmv_reference(op, v, tau)
        want = expmv_reference_eager(op, v, tau)
        assert got.dtype == want.dtype
        assert got.tobytes(order="F") == want.tobytes(order="F")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_stops_where_the_norm_after_every_term_stops(self, bad):
        rng = np.random.default_rng(18)
        op = _random_op(rng, (4, 3), False)
        v = rng.standard_normal(op.shape)
        v[1, 2] = bad
        with np.errstate(all="ignore"):
            got = _expmv_reference(op, v, 0.7)
            want = expmv_reference_eager(op, v, 0.7)
        assert got.tobytes(order="F") == want.tobytes(order="F")

    @pytest.mark.parametrize("n", [16, 32])
    def test_pipeflow_bits_are_those_of_the_norm_after_every_term(self, n):
        op = pipeflow_factors(n)
        c0 = _pipeflow_state(n)
        got = _expmv_reference(op, c0, 4.0)
        assert got.tobytes(order="F") == expmv_reference_eager(op, c0, 4.0).tobytes(order="F")

    def test_pipeflow_n96_takes_the_norm_of_the_sum_only_near_a_stop(self, monkeypatch):
        calls = {"matvec": 0, "norm": 0}

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(krylov, "matvec", spy("matvec", kron.matvec))
        monkeypatch.setattr(krylov, "norm", spy("norm", norm))
        _expmv_reference(pipeflow_factors(96), _pipeflow_state(96), 4.0)
        # 532 norms: about one for every other term, one per stage and a few
        # near each stop. With the norms of both terms and the sum after
        # every term it was 1689.
        assert calls["matvec"] == 832
        assert calls["norm"] <= 600

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

        monkeypatch.setattr(kron, "_exponentials", forbidden)
        for module in (kron, krylov, linalg):
            monkeypatch.setattr(module, "matexp", forbidden)
        rng = np.random.default_rng(11)
        op = _random_op(rng, (5, 4), False)
        v = np.asfortranarray(rng.standard_normal((5, 4)))
        got = _expmv_reference(op, v, 0.3)
        monkeypatch.undo()
        assert norm(got - step(prepare(op, 0.3), v), "two") <= 1e-12 * norm(got, "two")

    def test_independent_of_the_global_generator_which_it_leaves_alone(self):
        # At n=48, T=4 a 1-norm estimate that draws its starting vectors from
        # the global generator (as scipy's expm_multiply does) gives a result
        # after np.random.seed(10) that differs in the last bits from the one
        # after seed 0.
        n = 48
        c0 = _pipeflow_state(n)
        op = pipeflow_factors(n)
        results = []
        for seed in (0, 10):
            np.random.seed(seed)
            results.append(_expmv_reference(op, c0, 4.0))
            after = np.random.random()
            np.random.seed(seed)
            assert after == np.random.random()
        assert np.array_equal(results[0], results[1])


@pytest.mark.parametrize("complex_factors", [False, True])
@pytest.mark.parametrize("method", [_expmv_reference, arnoldi_expmv])
def test_c_and_fortran_ordered_inputs_give_the_same_bits(method, complex_factors):
    rng = np.random.default_rng(16)
    op = _random_op(rng, (5, 4, 3), complex_factors)
    v = rng.standard_normal(op.shape)
    got_c = method(op, np.ascontiguousarray(v), 0.3)
    got_f = method(op, np.asfortranarray(v), 0.3)
    assert got_c.tobytes(order="F") == got_f.tobytes(order="F")


@pytest.mark.parametrize("complex_factors", [False, True])
@pytest.mark.parametrize("layout", ["F", "C"])
def test_the_reference_leaves_its_input_alone(layout, complex_factors):
    # A float64 Fortran-ordered v is the case where the loop's only copy of
    # v is its astype: the terms and the sum are updated in place.
    rng = np.random.default_rng(17)
    op = _random_op(rng, (6, 5), complex_factors)
    v = np.asarray(rng.standard_normal(op.shape), order=layout)
    kept = v.copy(order="A")
    got = _expmv_reference(op, v, 0.5)
    assert v.tobytes(order="A") == kept.tobytes(order="A")
    assert v.flags.f_contiguous == (layout == "F")
    assert not np.shares_memory(got, v)
    assert got.flags.f_contiguous
