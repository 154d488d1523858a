import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmode import kron, problems, tensor
from kronmode.errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidReferenceError,
    ShapeError,
)
from kronmode.fd import heat_factors, pipeflow_factors, pipeflow_grids, uniform_periodic_grid
from kronmode.hermite import forward_transform, hermite_basis
from kronmode.kron import KroneckerOp, prepare, step
from kronmode.problems import (
    gpe_run,
    gpe_setup,
    gpe_strang_step,
    heat3d_run,
    hermite_solve,
    hkmp_factors,
    hkmp_run,
    hkp_run,
    magnus_midpoint_step,
    pipeflow_run,
    relative_error,
    schrodinger_initial_state,
    ti_factors,
    vortex_pair_state,
)
from kronmode.tensor import norm
from oracles import harmonic_eigenvalues, harmonic_factors


class TestRelativeError:
    def test_equal_tensors(self):
        u = np.ones((2, 3))
        assert relative_error(u, u, "max") == 0.0

    def test_double_reference(self):
        u = np.full((2, 2), 2.0)
        assert relative_error(u, 0.5 * u, "two") == pytest.approx(1.0, rel=1e-15)

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidReferenceError):
            relative_error(np.ones(3), np.zeros(3), "max")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            relative_error(np.ones(3), np.ones(4), "max")


class TestHeat:
    def test_reported_error_matches_closed_form(self):
        n, T = 24, 1.0
        report = heat3d_run(n, p=2, T=T, steps=1)
        h = 2 * np.pi / n
        lam = (2 * np.cos(h) - 2) / h**2
        want = abs(np.exp(lam * T) - np.exp(-T)) / np.exp(-T)
        assert report.error == pytest.approx(want, rel=1e-12)

    def test_error_is_norm_independent(self):
        a = heat3d_run(16, norm_kind="max").error
        b = heat3d_run(16, norm_kind="two").error
        assert a == pytest.approx(b, rel=1e-11)

    def test_n40_error_value(self):
        report = heat3d_run(40, p=2, T=1.0, steps=1)
        assert report.error == pytest.approx(2.06e-3, rel=0.01)

    def test_step_count_invariance(self):
        one = heat3d_run(16, steps=1)
        many = heat3d_run(16, steps=100)
        assert many.error == pytest.approx(one.error, rel=1e-11, abs=1e-14)

    def test_error_drops_with_accuracy_order(self):
        errors = [heat3d_run(40, p=p).error for p in (2, 4, 6, 8)]
        assert all(b < 0.01 * a for a, b in zip(errors, errors[1:]))

    def test_spectral_variant_is_exact_on_low_mode(self):
        report = heat3d_run(16, p=np.inf)
        assert report.error <= 1e-12

    def test_single_precision_runs(self):
        report = heat3d_run(16, precision="single")
        assert report.error == pytest.approx(heat3d_run(16).error, rel=1e-3)

    def test_report_fields(self):
        report = heat3d_run(16)
        assert report.problem == "heat"
        assert report.shape == (16, 16, 16)
        assert report.total_s >= report.time_exp_s + report.time_mumode_s
        data = report.as_dict()
        assert data["shape"] == [16, 16, 16]
        assert set(data) >= {"problem", "steps", "tau", "error", "norm_kind",
                             "time_exp_s", "time_mumode_s", "time_other_s", "total_s"}

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("norm_kind", ["max", "two"])
    def test_error_is_the_plain_formula_bit_for_bit(self, norm_kind, precision):
        n, T, steps = 12, 0.8, 3
        cos = np.cos(uniform_periodic_grid(0.0, 2 * np.pi, n).points)
        u0 = np.asfortranarray(cos[:, None, None] + cos[None, :, None] + cos[None, None, :])
        dtype = np.float32 if precision == "single" else np.float64
        u = step(prepare(heat_factors(n, 2), T / steps, dtype), kron._cast(u0, dtype),
                 steps=steps)
        diff, ref = u.astype(np.float64) - np.exp(-T) * u0, np.exp(-T) * u0
        if norm_kind == "max":
            want = np.max(np.abs(diff)) / np.max(np.abs(ref))
        else:
            want = np.linalg.norm(diff.ravel(order="F")) / np.linalg.norm(ref.ravel(order="F"))
        got = heat3d_run(n, T=T, steps=steps, norm_kind=norm_kind, precision=precision).error
        assert struct.pack("<d", got) == struct.pack("<d", float(want))

    @pytest.mark.parametrize("norm_kind", ["max", "two"])
    def test_the_run_sets_the_peak_memory(self, norm_kind):
        # The run holds 3 states (u0 and the two buffers step owns); the
        # setup and the error check must hold no more.
        heat3d_run(16, norm_kind=norm_kind)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            heat3d_run(64, steps=4, norm_kind=norm_kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 64**3 * np.dtype(np.float64).itemsize

    def test_exponential_seconds_count_as_exponential_time(self, monkeypatch):
        factor_exp = kron._factor_exp

        def slow_factor_exp(tau, a):
            time.sleep(0.02)
            return factor_exp(tau, a)

        monkeypatch.setattr(kron, "_factor_exp", slow_factor_exp)
        report = heat3d_run(8)
        assert report.time_exp_s >= 0.02
        assert report.time_mumode_s < 0.02


class TestPipeflow:
    def test_error_measures_the_integrator(self):
        # The reference is accurate to about 1e-14, so the error is the
        # integrator's round-off.
        for n in (32, 96):
            assert pipeflow_run(n).error <= 1e-12, n

    def test_step_count_invariance(self):
        op = pipeflow_factors(32)
        rho_grid, z_grid = pipeflow_grids(32)
        c0 = np.asfortranarray(
            np.exp(-8.0 * (rho_grid.points - 2.55) ** 2)[:, None]
            * np.exp(-8.0 * (z_grid.points - 1.5) ** 2)[None, :]
        )
        one = step(prepare(op, 4.0), c0)
        many = c0
        cache = prepare(op, 4.0 / 16)
        for _ in range(16):
            many = step(cache, many)
        assert norm(one - many, "two") <= 1e-11 * norm(one, "two")

    def test_solution_stays_finite_and_bounded(self):
        # centered advection at this mesh Peclet number is dispersive, so
        # small undershoots are expected; the run must stay finite, below the
        # initial peak, and the undershoot must stay a small fraction of it
        n = 64
        op = pipeflow_factors(n)
        rho_grid, z_grid = pipeflow_grids(n)
        c0 = np.asfortranarray(
            np.exp(-8.0 * (rho_grid.points - 2.55) ** 2)[:, None]
            * np.exp(-8.0 * (z_grid.points - 1.5) ** 2)[None, :]
        )
        c = step(prepare(op, 4.0), c0)
        assert np.isfinite(c).all()
        assert c.max() <= c0.max()
        assert c.min() >= -0.1 * c0.max()

    def test_reference_solve_is_not_timed(self, monkeypatch):
        reference = problems._expmv_reference

        def slow_reference(*args):
            time.sleep(0.2)
            return reference(*args)

        monkeypatch.setattr(problems, "_expmv_reference", slow_reference)
        assert pipeflow_run(16).total_s < 0.2

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            pipeflow_run(8)


class TestHkp:
    def test_coefficient_norm_conserved(self):
        _, c0, c_t = hermite_solve(24, ti_factors)
        assert abs(norm(c_t, "two") - norm(c0, "two")) <= 1e-12 * norm(c0, "two")

    def test_harmonic_only_matches_diagonal_phases(self):
        _, c0, c_t = hermite_solve(16, harmonic_factors, T=1.0)
        phases = np.exp(-1j * harmonic_eigenvalues((16, 16, 16)) * 1.0)
        assert np.abs(c_t - phases * c0).max() <= 1e-12 * np.abs(c0).max()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_solve_is_the_exact_propagator_bit_for_bit(self, dtype):
        # Directions 2 and 3 are harmonic, so exactly diagonal: their
        # exponentials are vectors, applied as scalings next to a dense one.
        k, T = 12, 0.7
        basis, c0, got = hermite_solve(k, ti_factors, T, dtype=dtype)
        factors = ti_factors(basis)(0.0)
        want = step(prepare(KroneckerOp(factors), T, dtype), kron._cast(c0, dtype))
        assert got.dtype == want.dtype == (np.complex64 if dtype == np.float32 else np.complex128)
        assert np.array_equal(got, want)

    def test_error_sits_between_adjacent_accuracy_levels(self):
        # the benchmark resolution k=40 is the one whose error lies between
        # the 7e-3 and 7e-2 accuracy levels; k=80 between 7e-4 and 7e-3
        err40 = hkp_run(40, k_ref=120).error
        assert 7e-3 < err40 <= 7e-2
        err80 = hkp_run(80, k_ref=120).error
        assert 7e-4 < err80 <= 7e-3

    def test_reference_can_be_skipped(self):
        report = hkp_run(12, k_ref=None)
        assert math.isnan(report.error)


class TestMagnusMidpoint:
    def test_constant_generator_reduces_to_exact_propagator(self):
        rng = np.random.default_rng(0)
        factors = tuple(rng.standard_normal((3, 3)) for _ in range(2))
        op = KroneckerOp(factors)
        u = np.asfortranarray(rng.standard_normal((3, 3)))
        got = magnus_midpoint_step(lambda t: op.factors, u, 0.4, 0.25)
        want = step(prepare(op, 0.25), u)
        assert np.array_equal(got, want)

    def test_scalar_midpoint_rule(self):
        def factors_of_t(t):
            return (np.array([[np.sin(t) ** 2]]),)

        u = np.array([2.0])
        t, tau = 0.3, 0.2
        got = magnus_midpoint_step(factors_of_t, u, t, tau)
        want = 2.0 * np.exp(tau * np.sin(t + tau / 2) ** 2)
        assert got[0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("steps", [1, 3, 4])
    def test_merged_steps_match_single_steps(self, steps):
        basis = hermite_basis(6)
        factors_of_t = hkmp_factors(basis)
        c0 = forward_transform((basis,) * 3, schrodinger_initial_state((basis.nodes,) * 3))
        tau = 0.5 / 4
        merged = magnus_midpoint_step(factors_of_t, c0, 0.1, tau, steps=steps)
        single = c0
        for s in range(steps):
            single = magnus_midpoint_step(factors_of_t, single, 0.1 + s * tau, tau)
        assert np.array_equal(merged, single)

    @staticmethod
    def _count_matexp(monkeypatch):
        calls = []
        matexp = kron.matexp

        def counting_matexp(a):
            calls.append(a.shape)
            return matexp(a)

        monkeypatch.setattr(kron, "matexp", counting_matexp)
        return calls

    def test_driver_exponentiates_only_the_changed_factors(self, monkeypatch):
        calls = self._count_matexp(monkeypatch)
        hkmp_run(8, steps=4, ref_steps=None)
        # the driven factor once per step; the two static ones are diagonal
        assert len(calls) == 4

    def test_shared_factor_object_is_exponentiated_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        static = rng.standard_normal((3, 3))
        driven = rng.standard_normal((3, 3))

        def factors_of_t(t):
            return (static, static, np.sin(t) * driven)

        calls = self._count_matexp(monkeypatch)
        u = np.asfortranarray(rng.standard_normal((3, 3, 3)))
        steps = 5
        magnus_midpoint_step(factors_of_t, u, 0.0, 0.1, steps=steps)
        assert len(calls) == steps + 1

    def test_non_finite_or_non_square_diagonal_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            magnus_midpoint_step(lambda t: (np.diag([1.0, np.nan]),), np.ones(2), 0.0, 0.1)
        with pytest.raises(ShapeError):
            magnus_midpoint_step(lambda t: (np.eye(2, 3),), np.ones(2), 0.0, 0.1)

    def test_single_precision_state_stays_single(self):
        basis = hermite_basis(6)
        c0 = forward_transform((basis,) * 3, schrodinger_initial_state((basis.nodes,) * 3))
        got = magnus_midpoint_step(hkmp_factors(basis), c0.astype(np.complex64), 0.0, 0.1,
                                   steps=2)
        assert got.dtype == np.complex64

    def test_single_precision_exponentials_hold_no_subnormals(self, monkeypatch):
        applied = []
        original = problems.tucker
        monkeypatch.setattr(problems, "tucker",
                            lambda u, mats: applied.extend(mats) or original(u, mats))
        lin_op = gpe_setup(32)[1]
        u = np.ones(lin_op.shape, dtype=np.complex64)
        magnus_midpoint_step(lambda t: lin_op.factors, u, 0.0, 0.1)
        tiny = np.finfo(np.float32).tiny
        assert len(applied) == 3
        for e in applied:
            assert e.dtype == np.complex64
            for part in (e.real, e.imag):
                assert not ((part != 0) & (np.abs(part) < tiny)).any()

    def test_second_order_convergence(self):
        _, _, ref = hermite_solve(8, hkmp_factors, T=1.0, steps=512)
        errors = []
        for steps in (8, 16, 32):
            _, _, c = hermite_solve(8, hkmp_factors, T=1.0, steps=steps)
            errors.append(norm(c - ref, "two") / norm(ref, "two"))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2


class TestHkmpRun:
    def test_norm_conserved(self):
        _, c0, c_t = hermite_solve(10, hkmp_factors, T=1.0, steps=32)
        drift = abs(norm(c_t, "two") - norm(c0, "two")) / norm(c0, "two")
        assert drift <= 1e-11

    def test_benchmark_point_two_steps(self):
        report = hkmp_run(20, T=1.0, steps=2, ref_steps=1024)
        assert report.error == pytest.approx(1e-2, rel=2.0)
        assert report.error <= 3e-2


class TestGpe:
    def test_nonlinear_substep_preserves_modulus(self):
        rng = np.random.default_rng(1)
        grids, lin_op, weights = gpe_setup(16)
        psi = np.asfortranarray(rng.standard_normal((16, 16, 16))
                                + 1j * rng.standard_normal((16, 16, 16)))
        zero = KroneckerOp(tuple(np.zeros_like(a) for a in lin_op.factors))
        stepped = gpe_strang_step(prepare(zero, 0.3), weights, psi)
        # a zero generator's factors are exactly diagonal: its step is the
        # identity, which leaves only the two phase rotations
        assert np.abs(np.abs(stepped) - np.abs(psi)).max() <= 1e-14

    def test_zero_increment_is_identity(self):
        rng = np.random.default_rng(2)
        _, lin_op, weights = gpe_setup(16)
        psi = np.asfortranarray(rng.standard_normal((16, 16, 16))
                                + 1j * rng.standard_normal((16, 16, 16)))
        got = gpe_strang_step(prepare(lin_op, 0.0), weights, psi)
        assert np.array_equal(got, psi)
        got = gpe_strang_step(prepare(lin_op, 0.0), weights, psi, steps=3)
        assert np.array_equal(got, psi)

    @settings(max_examples=25, deadline=None)
    @given(steps=st.integers(1, 6),
           tau=st.floats(0.0, 0.3, exclude_min=True),
           seed=st.integers(0, 2**31))
    def test_merged_steps_match_single_steps(self, steps, tau, seed):
        n = 12
        rng = np.random.default_rng(seed)
        _, lin_op, weights = gpe_setup(n)
        psi = np.asfortranarray(rng.standard_normal((n, n, n))
                                + 1j * rng.standard_normal((n, n, n)))
        before = psi.copy()
        cache = prepare(lin_op, tau)
        merged = gpe_strang_step(cache, weights, psi, steps=steps)
        single = psi
        for _ in range(steps):
            single = gpe_strang_step(cache, weights, single)
        assert np.array_equal(psi, before)
        assert np.abs(merged - single).max() <= 1e-13 * np.abs(single).max()

    def test_results_own_their_memory(self):
        rng = np.random.default_rng(4)
        _, lin_op, weights = gpe_setup(12)
        psi = np.asfortranarray(rng.standard_normal((12, 12, 12))
                                + 1j * rng.standard_normal((12, 12, 12)))
        before = psi.copy()
        cache = prepare(lin_op, 0.1)
        first = gpe_strang_step(cache, weights, psi, steps=3)
        kept = first.copy()
        second = gpe_strang_step(cache, weights, psi, steps=3)
        third = gpe_strang_step(cache, weights, first)
        assert np.array_equal(psi, before) and np.array_equal(first, kept)
        for got in (first, second, third):
            assert not np.shares_memory(got, psi)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, third)
        assert tensor._lent_pair.get() == ()

    def test_the_pair_is_released_when_a_step_raises(self, monkeypatch):
        _, lin_op, weights = gpe_setup(8)
        psi = np.ones((8, 8, 8), dtype=complex)

        def failing_step(cache, u, steps=1):
            raise RuntimeError("step failed")

        monkeypatch.setattr(problems, "step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            gpe_strang_step(prepare(lin_op, 0.1), weights, psi, steps=2)
        assert tensor._lent_pair.get() == ()

    def test_the_run_holds_under_five_states(self):
        # The caller's psi, the loop's two buffers, the rotation factor and
        # 1/w (half a complex state): 4.5 states and small change.
        gpe_run(16, T=0.2, tau=0.1)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            gpe_run(32, T=0.4, tau=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.8 * 32**3 * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("steps", [0, -1, 1.0, 2.5, "2", True, None])
    def test_steps_must_be_a_positive_integer(self, steps):
        _, lin_op, weights = gpe_setup(8)
        psi = np.ones((8, 8, 8), dtype=complex)
        with pytest.raises(ConfigurationError):
            gpe_strang_step(prepare(lin_op, 0.1), weights, psi, steps=steps)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_single_precision_state_stays_single(self, steps):
        rng = np.random.default_rng(3)
        _, lin_op, weights = gpe_setup(16)
        psi = (rng.standard_normal((16, 16, 16))
               + 1j * rng.standard_normal((16, 16, 16))).astype(np.complex64)
        cache = prepare(lin_op, 0.1, np.complex64)
        assert gpe_strang_step(cache, weights, psi, steps=steps).dtype == np.complex64

    def test_single_precision_cache_holds_no_subnormals(self):
        cache = prepare(gpe_setup(32)[1], 0.1, np.complex64)
        tiny = np.finfo(np.float32).tiny
        for e in cache.exps:
            assert e.dtype == np.complex64
            for part in (e.real, e.imag):
                assert not ((part != 0) & (np.abs(part) < tiny)).any()

    def test_single_precision_run_conserves_norm(self):
        report = gpe_run(16, T=0.5, tau=0.1, precision="single")
        assert report.precision == "single"
        # both norms are accumulated in double, so the drift is measurable
        assert 0 < report.error <= 1e-5

    def test_unit_background_is_stationary(self):
        n = 16
        grids, lin_op, weights = gpe_setup(n)
        psi = np.ones((n, n, n), dtype=complex, order="F")
        for ax, w in enumerate(weights):
            psi = psi * np.sqrt(w).reshape((1,) * ax + (n,) + (1,) * (2 - ax))
        start = psi.copy()
        cache = prepare(lin_op, 0.1)
        for _ in range(10):
            psi = gpe_strang_step(cache, weights, psi)
        assert np.abs(psi - start).max() <= 1e-12 * np.abs(start).max()

    def test_weighted_norm_conserved(self):
        report = gpe_run(16, T=0.5, tau=0.1)
        assert report.error <= 1e-10
        assert report.norm_kind == "weighted_two"
        assert report.steps == 5

    def test_linear_substep_matches_arnoldi_baseline(self):
        from kronmode.krylov import arnoldi_expmv

        n = 16
        grids, lin_op, weights = gpe_setup(n)
        psi = vortex_pair_state(grids)
        for ax, w in enumerate(weights):
            psi = psi * np.sqrt(w).reshape((1,) * ax + (n,) + (1,) * (2 - ax))
        psi = np.asfortranarray(psi)
        exact = step(prepare(lin_op, 0.1), psi)
        krylov = arnoldi_expmv(lin_op, psi, 0.1, tol=1e-10)
        assert norm(krylov - exact, "two") <= 1e-8 * norm(exact, "two")

    def test_vortex_state_has_unit_background(self):
        grids, _, _ = gpe_setup(24)
        psi = vortex_pair_state(grids)
        # far from both vortex lines the density approaches the background
        assert abs(abs(psi[0, 0, 0])) == pytest.approx(1.0, abs=2e-2)

    def test_vortex_profile_rises_to_background(self):
        r = np.linspace(0.0, 30.0, 200)
        f = problems._vortex_radial(r)
        assert f[0] == 0.0
        gaps = np.diff(f)
        assert (gaps[r[:-1] < 5.0] > 0).all()  # monotone through the core
        assert np.abs(f - 1.0)[r > 10.0].max() <= 1e-2  # flat background tail


class TestDriverValidation:
    @pytest.mark.parametrize("run, kwargs", [
        (hkmp_run, {"k": 8, "steps": 0}),
        (hkmp_run, {"k": 8, "ref_steps": 0}),
        (hkmp_run, {"k": 8, "T": 0.0}),
        (hkmp_run, {"k": 8, "T": -1.0}),
        (hkmp_run, {"k": 8, "precision": "half"}),
        (hkp_run, {"k": 8, "T": 0.0}),
        (hkp_run, {"k": 8, "T": -1.0}),
        (hkp_run, {"k": 12, "k_ref": 10}),
        (hkp_run, {"k": 8, "precision": "half"}),
        (heat3d_run, {"n": 8, "T": 0.0}),
        (heat3d_run, {"n": 8, "steps": 0}),
        (heat3d_run, {"n": 8, "precision": "half"}),
        (pipeflow_run, {"n": 16, "T": -1.0}),
        (pipeflow_run, {"n": 16, "steps": 0}),
        (gpe_run, {"n": 16, "T": 0.0}),
        (gpe_run, {"n": 16, "precision": "half"}),
    ], ids=lambda case: case.__name__ if callable(case)
       else ",".join(f"{key}={value}" for key, value in case.items()))
    def test_rejected_before_any_work(self, monkeypatch, run, kwargs):
        def no_work(*args, **kwargs):
            pytest.fail("the driver started work before rejecting its input")

        for name in ("hermite_basis", "uniform_periodic_grid", "pipeflow_grids", "gpe_setup"):
            monkeypatch.setattr(problems, name, no_work)
        with pytest.raises(ConfigurationError):
            run(**kwargs)


class TestSchrodingerInitialState:
    def test_value_at_a_point(self):
        axes = (np.array([1.0]), np.array([0.5]), np.array([-0.25]))
        got = schrodinger_initial_state(axes)[0, 0, 0]
        want = (2.0**-2.5 * np.pi**-0.75 * (1.0 + 0.5j)
                * np.exp(-(1.0 + 0.25 + 0.0625) / 4))
        assert got == pytest.approx(want, rel=1e-14)

    def test_antisymmetry_in_first_axis(self):
        axes = (np.array([-1.0, 1.0]), np.array([0.0]), np.array([0.0]))
        psi = schrodinger_initial_state(axes)
        assert psi[0, 0, 0] == pytest.approx(-psi[1, 0, 0], rel=1e-15)
