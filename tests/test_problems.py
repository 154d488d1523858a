import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronmode import kron, problems, tensor
from kronmode.errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidReferenceError,
    ShapeError,
)
from kronmode.fd import (
    gpe_weighted_factors,
    heat_factors,
    pipeflow_factors,
    pipeflow_grids,
    sinh_clustered_grid,
    uniform_periodic_grid,
)
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
from kronmode.tensor import count_flops, norm
from oracles import full_tensor_reference, harmonic_eigenvalues, harmonic_factors, rotate_full


def _record_matexp(monkeypatch):
    """The shapes of the matrices of every ``kron.matexp`` call, one list per call."""
    calls = []
    matexp = kron.matexp

    def recording_matexp(a):
        calls.append([m.shape for m in a.reshape(-1, *a.shape[-2:])])
        return matexp(a)

    monkeypatch.setattr(kron, "matexp", recording_matexp)
    return calls


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


class TestExactRun:
    """``_Run.exact`` owns the state it is handed."""

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_the_result_is_that_of_step_bit_for_bit(self, steps, precision):
        rng = np.random.default_rng(6)
        op = heat_factors(10, 2)
        u0 = np.asfortranarray(rng.standard_normal(op.shape))
        kept = u0.copy()
        dtype = np.float32 if precision == "single" else np.float64
        want = step(prepare(op, 0.3 / steps, dtype), kron._cast(u0, dtype), steps=steps)
        got = problems._Run(precision, 0.3, steps).exact(op, u0)
        assert got.dtype == want.dtype
        assert got.tobytes(order="F") == want.tobytes(order="F")
        # A double u0 is the stepping's first buffer; a single run's is its cast.
        assert np.array_equal(u0, kept) == (precision == "single")

    @pytest.mark.parametrize("layout, unit", [("C", 1), ("F", 1j)])
    def test_a_state_that_needs_conversion_is_copied(self, layout, unit):
        # A C-ordered state, and a real one of complex steps.
        op = KroneckerOp(tuple(unit * a for a in heat_factors(10, 2).factors))
        u0 = np.random.default_rng(8).standard_normal(op.shape).copy(order=layout)
        kept = u0.copy()
        got = problems._Run("double", 0.3, 2).exact(op, u0)
        want = step(prepare(op, 0.15), kept, steps=2)
        assert np.array_equal(u0, kept) and not np.shares_memory(got, u0)
        assert got.tobytes(order="F") == want.tobytes(order="F")

    def test_a_single_precision_state_steps_in_double_in_a_double_run(self):
        op = heat_factors(8, 2)
        u0 = np.asfortranarray(np.random.default_rng(9).standard_normal(op.shape), np.float32)
        got = problems._Run("double", 1.0, 2).exact(op, u0)
        want = problems._Run("double", 1.0, 2).exact(op, u0.astype(np.float64))
        assert got.dtype == np.float64
        assert got.tobytes(order="F") == want.tobytes(order="F")

    def test_a_single_precision_cast_is_lent(self):
        # pipeflow's path in single precision: u0 is kept, its cast copy is
        # the first buffer.  The run holds the copy and one more buffer, half
        # a state each, beside u0; at n=32 the cast flushes its subnormals in
        # one block, whose |x| and mask add 0.625 while it runs.  Measured:
        # 1.13 states (1.53 with a pair beside the copy).
        op = heat_factors(32, 2)
        u0 = np.asfortranarray(np.random.default_rng(7).standard_normal(op.shape))
        run = problems._Run("single", 0.5, 4)
        run.exact(op, u0)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            run.exact(op, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * u0.nbytes


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

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("norm_kind", ["max", "two"])
    def test_the_in_place_error_is_relative_error_bit_for_bit(self, norm_kind, precision):
        n, T, steps = 12, 0.8, 3
        cos = np.cos(uniform_periodic_grid(0.0, 2 * np.pi, n).points)
        u0 = np.add(cos[:, None, None] + cos[None, :, None], cos[None, None, :], order="F")
        dtype = np.float32 if precision == "single" else np.float64
        u = step(prepare(heat_factors(n, 2), T / steps, dtype), kron._cast(u0, dtype),
                 steps=steps)
        want = relative_error(u, u0 * np.exp(-T), norm_kind)
        got = heat3d_run(n, T=T, steps=steps, norm_kind=norm_kind, precision=precision).error
        assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_a_reference_that_underflows_is_rejected(self):
        with pytest.raises(InvalidReferenceError):
            heat3d_run(8, T=800.0)

    @staticmethod
    def peak_states(**kwargs):
        """Traced peak of ``heat3d_run(64, ...)`` in states of 64**3 doubles."""
        heat3d_run(16, **kwargs)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            heat3d_run(64, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (64**3 * np.dtype(np.float64).itemsize)

    @pytest.mark.parametrize("steps", [2, 3, 4])
    @pytest.mark.parametrize("norm_kind", ["max", "two"])
    def test_the_run_sets_the_peak_memory(self, norm_kind, steps):
        # The run holds 2 states (u0, lent as the first of the stepping's two
        # buffers, and the second one); the setup and the error check, which
        # writes the difference over the reference, must hold no more.  The
        # folded middle steps write each block into its chunk of the pair.
        # Measured: 2.10 at 2, 3 and 4 steps, as before the fold (3.03 with a
        # pair beside u0).
        assert self.peak_states(steps=steps, norm_kind=norm_kind) <= 2.25

    @pytest.mark.parametrize("steps", [1, 2, 3, 40])
    def test_a_folded_run_does_half_the_multiply_adds_of_its_middle_steps(self, steps):
        # n=16 folds: its first and last steps are dense, the others are
        # two 8x8 blocks per direction.
        with count_flops() as fc:
            heat3d_run(16, steps=steps)
        per_state = 16**3 * 16
        assert fc.macs == (3 if steps == 1 else 6 + 1.5 * (steps - 2)) * per_state

    @pytest.mark.parametrize("p", [2, 6])
    def test_an_odd_extent_runs_dense(self, p):
        with count_flops() as fc:
            heat3d_run(17, p=p, steps=3)
        assert fc.macs == 3 * 3 * 17**4

    def test_a_single_step_run_holds_two_states(self):
        # One step writes its three products into the same two buffers.
        # Measured: 2.08 (3.03 with a fresh output per product).
        assert self.peak_states(steps=1) <= 2.25

    def test_a_single_precision_run_lends_its_cast_copy(self):
        # u0 in double, its cast copy (lent to the stepping) and the second
        # buffer, half a state each; the cast flushes subnormals in blocks.
        # Measured: 2.04 (2.16 with a full-size |x| and mask, 2.53 with the
        # cast copy and a pair of its own).
        assert self.peak_states(steps=4, precision="single") <= 2.1

    def test_exponential_seconds_count_as_exponential_time(self, monkeypatch):
        matexp = kron.matexp

        def slow_matexp(a):
            time.sleep(0.02)
            return matexp(a)

        monkeypatch.setattr(kron, "matexp", slow_matexp)
        report = heat3d_run(8)
        assert report.time_exp_s >= 0.02
        assert report.time_mumode_s < 0.02


@pytest.mark.parametrize("run, macs", [
    (lambda: gpe_run(16, T=0.3, tau=0.1), 589824),
    (lambda: pipeflow_run(16, steps=3), 1368064),
    (lambda: hkmp_run(8, steps=4, ref_steps=None), 40960),
    (lambda: hkp_run(8, k_ref=None), 28672),
], ids=["gpe", "pipeflow", "td", "ti"])
def test_runs_that_fold_nothing_keep_their_multiply_adds(run, macs):
    # No factor of these problems is exactly centrosymmetric (gpe's only to
    # 8e-15), so none folds; the counts are those before the fold.
    with count_flops() as fc:
        run()
    assert fc.macs == macs


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

    def test_driver_exponentiates_only_the_changed_factors(self, monkeypatch):
        calls = _record_matexp(monkeypatch)
        hkmp_run(8, steps=4, ref_steps=None)
        # the driven factor once per step; the two static ones are diagonal
        assert sum(map(len, calls)) == 4

    def test_shared_factor_object_is_exponentiated_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        static = rng.standard_normal((3, 3))
        driven = rng.standard_normal((3, 3))

        def factors_of_t(t):
            return (static, static, np.sin(t) * driven)

        calls = _record_matexp(monkeypatch)
        u = np.asfortranarray(rng.standard_normal((3, 3, 3)))
        steps = 5
        magnus_midpoint_step(factors_of_t, u, 0.0, 0.1, steps=steps)
        assert sum(map(len, calls)) == steps + 1

    @pytest.mark.parametrize("block, sizes", [(1, [1] * 7), (500, [3, 3, 1]), (10**9, [7])])
    def test_the_block_of_midpoints_does_not_change_the_result(self, monkeypatch, block,
                                                               sizes):
        # td's k=8 factors hold 192 entries per midpoint, so a block of 500
        # entries closes after 3 midpoints and the last block is ragged.
        basis = hermite_basis(8)
        factors_of_t = hkmp_factors(basis)
        c0 = forward_transform((basis,) * 3, schrodinger_initial_state((basis.nodes,) * 3))
        want = magnus_midpoint_step(factors_of_t, c0, 0.1, 0.05, steps=7)
        monkeypatch.setattr(problems, "_EXP_BLOCK", block)
        calls = _record_matexp(monkeypatch)
        got = magnus_midpoint_step(factors_of_t, c0, 0.1, 0.05, steps=7)
        assert [len(call) for call in calls] == sizes
        assert np.array_equal(got, want)

    def test_non_finite_or_non_square_diagonal_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            magnus_midpoint_step(lambda t: (np.diag([1.0, np.nan]),), np.ones(2), 0.0, 0.1)
        with pytest.raises(ShapeError):
            magnus_midpoint_step(lambda t: (np.eye(2, 3),), np.ones(2), 0.0, 0.1)

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("wrong_step", [0, 2])
    def test_a_wrong_number_of_factors_is_rejected_at_its_step(self, wrong_step, count):
        a = np.random.default_rng(5).standard_normal((3, 3))
        midpoints = []

        def factors_of_t(t):
            midpoints.append(t)
            return (a,) * (count if len(midpoints) == wrong_step + 1 else 3)

        u = np.ones((3, 3, 3))
        with pytest.raises(ShapeError):
            magnus_midpoint_step(factors_of_t, u, 0.0, 0.1, steps=4)
        assert len(midpoints) == wrong_step + 1
        assert np.array_equal(u, np.ones((3, 3, 3)))

    def test_a_multi_step_run_holds_two_states_beside_its_argument(self):
        # ti's factors: a dense one, then two diagonals.  The first step runs
        # out of place; its result and one more buffer are the stepping
        # loop's pair, which later steps write, their scalings included.
        factors_of_t = ti_factors(hermite_basis(48))
        rng = np.random.default_rng(11)
        u = np.asfortranarray(rng.standard_normal((48,) * 3) + 1j * rng.standard_normal((48,) * 3))
        magnus_midpoint_step(factors_of_t, u, 0.0, 0.1, steps=3)  # first-call caches
        tracemalloc.start()
        try:
            magnus_midpoint_step(factors_of_t, u, 0.0, 0.1, steps=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * u.nbytes

    def test_a_one_step_run_holds_one_state_beside_its_argument(self):
        # td's factors: two diagonals, then a dense one.  The one step runs
        # out of place: one product, then the scaling in place; the stepping
        # loop runs no step and allocates no buffer.  Measured: 1.13 (2.04
        # with a spare buffer).
        factors_of_t = hkmp_factors(hermite_basis(48))
        rng = np.random.default_rng(12)
        u = np.asfortranarray(rng.standard_normal((48,) * 3) + 1j * rng.standard_normal((48,) * 3))
        magnus_midpoint_step(factors_of_t, u, 0.0, 0.1)  # first-call caches
        tracemalloc.start()
        try:
            magnus_midpoint_step(factors_of_t, u, 0.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * u.nbytes

    @pytest.mark.parametrize("t, tau", [(0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),
                                        (math.nan, 0.1), (math.inf, 0.1)])
    def test_a_non_finite_time_is_rejected(self, t, tau):
        # An exactly diagonal factor's exponential is not checked for
        # finiteness, so all-diagonal factors would step to a NaN state.
        u = np.ones((6,) * 3, dtype=complex)
        with pytest.raises(ConfigurationError):
            magnus_midpoint_step(harmonic_factors(hermite_basis(6)), u, t, tau)

    def test_a_zero_or_negative_step_is_allowed(self):
        factors_of_t = hkmp_factors(hermite_basis(6))
        u = np.asfortranarray(np.random.default_rng(13).standard_normal((6,) * 3) + 0j)
        assert np.array_equal(magnus_midpoint_step(factors_of_t, u, 0.0, 0.0), u)
        back = magnus_midpoint_step(factors_of_t, magnus_midpoint_step(factors_of_t, u, 0.0, 0.1),
                                    0.1, -0.1)
        assert norm(back - u, "two") <= 1e-13 * norm(u, "two")

    def test_single_precision_state_stays_single(self):
        basis = hermite_basis(6)
        c0 = forward_transform((basis,) * 3, schrodinger_initial_state((basis.nodes,) * 3))
        got = magnus_midpoint_step(hkmp_factors(basis), c0.astype(np.complex64), 0.0, 0.1,
                                   steps=2)
        assert got.dtype == np.complex64

    def test_single_precision_exponentials_hold_no_subnormals(self, monkeypatch):
        # Watch the exponentials where the steps get them, at every midpoint.
        made = []
        exponentials = problems._exponentials

        def watching_exponentials(*args):
            exps, known = exponentials(*args)
            for midpoint in exps:
                made.extend(midpoint)
            return exps, known

        monkeypatch.setattr(problems, "_exponentials", watching_exponentials)
        a = gpe_setup(32)[1].factors[0]
        u = np.ones((a.shape[0],) * 3, dtype=np.complex64)
        magnus_midpoint_step(lambda t: (a, a, (1 + t) * a), u, 0.0, 0.1, steps=3)
        tiny = np.finfo(np.float32).tiny
        assert len(made) == 9
        for e in made:
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
    def test_one_factor_is_exponentiated_for_all_directions(self, monkeypatch):
        original = kron.matexp
        calls = _record_matexp(monkeypatch)
        grids, lin_op, weights = gpe_setup(16)
        cache = prepare(lin_op, 0.1)
        assert calls == [[(16, 16)]]
        # The same factor and weights as one grid per direction would give.
        sym_op, want_weights = gpe_weighted_factors([sinh_clustered_grid(16) for _ in range(3)])
        for a, want, w, want_w in zip(lin_op.factors, sym_op.factors, weights, want_weights):
            assert np.array_equal(a, 1j * want) and np.array_equal(w, want_w)
        assert all(np.array_equal(e, original(0.1 * lin_op.factors[0])) for e in cache.exps)
        assert all(grid is grids[0] for grid in grids)

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
        product = tensor.mu_mode_product
        calls = []

        def failing_product(u, mat, mu):
            # The second step's tucker fails with the loop's pair set.
            calls.append(mu)
            if len(calls) == 5:
                raise RuntimeError("step failed")
            return product(u, mat, mu)

        monkeypatch.setattr(tensor, "mu_mode_product", failing_product)
        with pytest.raises(RuntimeError, match="step failed"):
            gpe_strang_step(prepare(lin_op, 0.1), weights, psi, steps=2)
        assert tensor._lent_pair.get() == ()

    def test_the_run_holds_under_three_states(self):
        # The loop's two buffers, the first one psi's own memory, and the
        # nonlinear flow's buffers of one block of 4096 entries (as large as
        # 2.5 complex blocks, 0.31 states at n=32).  Measured: 2.405 (2.575
        # with a full-state 1/w).
        gpe_run(16, T=0.2, tau=0.1)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            gpe_run(32, T=0.4, tau=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 32**3 * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_the_loop_holds_its_pair_and_blocks_only(self, dtype):
        # psi and the spare, and buffers of one block of slabs (0.04 states
        # at n=64): no full-state 1/w, which is half a complex state in
        # either precision, and no full-state scratch.  Measured: 2.048
        # (complex128), 2.066 (complex64, whose blocks cast h/(4w) into a
        # block buffer; 2.074 when each block made a float32 copy of it).
        n = 64
        rng = np.random.default_rng(6)
        _, lin_op, weights = gpe_setup(n)
        cache = prepare(lin_op, 0.1, dtype)
        psi = np.asfortranarray((rng.standard_normal((n, n, n))
                                 + 1j * rng.standard_normal((n, n, n))).astype(dtype))
        tracemalloc.start()
        try:
            problems._strang(cache, weights, psi, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + psi.nbytes <= 2.15 * psi.nbytes
        if dtype == np.complex64:
            assert peak + psi.nbytes <= 2.07 * psi.nbytes

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(70, 70, 3), (24, 24, 13), (8, 12, 20), (9, 5, 1),
                                  (4096, 1, 2)]),
           dtype=st.sampled_from([np.complex128, np.complex64]),
           h=st.floats(-2.0, 2.0, allow_subnormal=False),
           seed=st.integers(0, 2**31))
    def test_the_blocked_flow_is_bit_identical_to_the_full_state_flow(self, shape, dtype, h,
                                                                      seed):
        # A slab larger than the block, a block count that does not divide
        # n3 (7 slabs of 576 per block, 13 slabs), a non-cubic shape, one
        # slab, and a slab of exactly one block.
        rng = np.random.default_rng(seed)
        weights = [rng.uniform(0.05, 2.0, n) for n in shape]
        psi = np.asfortranarray((rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape)).astype(dtype))
        want = psi.copy(order="F")
        rotate_full(want, h, weights)
        problems._nonlinear_flow(weights, shape, psi.dtype)(psi, h)
        assert psi.tobytes(order="F") == want.tobytes(order="F")

    @settings(max_examples=200, deadline=None)
    @given(phi=st.floats(-1e6, 1e6, allow_subnormal=False),
           dtype=st.sampled_from([np.complex128, np.complex64]))
    @example(phi=0.0, dtype=np.complex128)
    @example(phi=0.0, dtype=np.complex64)
    def test_the_flow_factor_is_within_two_eps_of_sine_and_cosine(self, phi, dtype):
        # Infinite weights switch the |psi|^2 term off, so a unit state
        # becomes the factor exp(i phi) of the phase phi = h/2, whose half
        # h/4 is rounded to the real dtype.  Measured: 1.5 eps in the
        # cosine, 1.0 in the sine and 3.0 in |f|^2 - 1, in either dtype.
        shape = (2, 1, 3)
        psi = np.ones(shape, dtype, order="F")
        problems._nonlinear_flow([np.full(n, np.inf) for n in shape], shape, dtype)(psi, 2 * phi)
        eps = np.finfo(dtype).eps
        phase = 2 * np.float64(np.finfo(dtype).dtype.type(0.5 * phi))
        f = psi.astype(np.complex128)
        assert np.abs(f.real - np.cos(phase)).max() <= 2 * eps
        assert np.abs(f.imag - np.sin(phase)).max() <= 2 * eps
        assert np.abs(f.real**2 + f.imag**2 - 1).max() <= 4 * eps
        if phi == 0:
            assert (psi == 1).all()

    @pytest.mark.parametrize("weights", [
        lambda w: w[:2], lambda w: w + w[:1], lambda w: (w[0], w[1], w[2][:-1]),
        lambda w: (w[0][:-1], w[1], w[2]), lambda w: (w[0], w[1][:-1], w[2]),
    ], ids=["two", "four", "short-last", "short-first", "short-middle"])
    def test_weights_must_match_the_state(self, weights):
        _, lin_op, w = gpe_setup(8)
        psi = np.ones((8, 8, 8), dtype=complex)
        with pytest.raises(ShapeError):
            gpe_strang_step(prepare(lin_op, 0.1), weights(w), psi)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_a_lent_state_steps_bit_identically_to_the_public_step(self, steps, dtype):
        rng = np.random.default_rng(5)
        _, lin_op, weights = gpe_setup(12)
        psi = np.asfortranarray((rng.standard_normal((12, 12, 12))
                                 + 1j * rng.standard_normal((12, 12, 12))).astype(dtype))
        kept = psi.copy()
        cache = prepare(lin_op, 0.1, dtype)
        want = gpe_strang_step(cache, weights, psi, steps=steps)
        assert np.array_equal(psi, kept) and not np.shares_memory(want, psi)
        lent = psi.copy(order="F")
        got = problems._strang(cache, weights, lent, steps)
        assert got.dtype == want.dtype and got.flags.f_contiguous
        assert got.tobytes(order="F") == want.tobytes(order="F")
        # The loop's first rotation was made in the memory it was handed.
        assert not np.array_equal(lent, kept)
        assert tensor._lent_pair.get() == ()

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
        *((run, {size: 16, "T": T}) for run, size in (
            (hkmp_run, "k"), (hkp_run, "k"), (heat3d_run, "n"), (pipeflow_run, "n"),
            (gpe_run, "n")) for T in (math.inf, math.nan)),
        (gpe_run, {"n": 16, "tau": math.nan}),
        (gpe_run, {"n": 16, "tau": math.inf}),
        (gpe_run, {"n": 16, "T": 1e300, "tau": 1e-300}),  # T / tau overflows
        *((run, {size: value}) for run, size in (
            (hkmp_run, "k"), (hkp_run, "k"), (heat3d_run, "n"), (pipeflow_run, "n"),
            (gpe_run, "n")) for value in (16.5, "sixteen")),
        (hkp_run, {"k": 8, "k_ref": 9.5}),
        (hkp_run, {"k": 8, "k_ref": "nine"}),
    ], ids=lambda case: case.__name__ if callable(case)
       else ",".join(f"{key}={value}" for key, value in case.items()))
    def test_rejected_before_any_work(self, monkeypatch, run, kwargs):
        def no_work(*args, **kwargs):
            pytest.fail("the driver started work before rejecting its input")

        for name in ("hermite_basis", "uniform_periodic_grid", "pipeflow_grids", "gpe_setup"):
            monkeypatch.setattr(problems, name, no_work)
        with pytest.raises(ConfigurationError):
            run(**kwargs)

    @pytest.mark.parametrize("k", [8.5, "eight"])
    def test_the_hermite_solver_takes_an_integer_size(self, k):
        with pytest.raises(ConfigurationError):
            hermite_solve(k, ti_factors)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_the_hermite_solver_takes_a_finite_time(self, monkeypatch, T):
        # checked before the basis and the transform are built
        monkeypatch.setattr(problems, "hermite_basis", lambda k: pytest.fail("basis built"))
        with pytest.raises(ConfigurationError, match="final time"):
            hermite_solve(6, harmonic_factors, T=T)


class TestRankTwoReference:
    @settings(max_examples=30, deadline=None)
    @given(factors_of=st.sampled_from([ti_factors, hkmp_factors]), k=st.integers(8, 40),
           steps=st.sampled_from([1, 2, 7, 16]), T=st.floats(0.1, 2.0), data=st.data())
    def test_it_is_the_full_tensor_reference(self, factors_of, k, steps, T, data):
        k_ref = data.draw(st.integers(k, 64), label="k_ref")
        points = hermite_basis(k).nodes
        got = problems._rank_two_reference(k_ref, factors_of, T, steps, points)
        want = full_tensor_reference(k_ref, factors_of, T, steps, points)
        assert got.dtype == np.complex128 and got.shape == (k,) * 3
        assert got.flags.f_contiguous
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_the_two_terms_sample_to_the_initial_state(self):
        rng = np.random.default_rng(7)
        axes = [rng.uniform(-6.0, 6.0, n) for n in (5, 6, 7)]
        columns = [problems._wavepacket_columns(mu, x) for mu, x in enumerate(axes)]
        got = np.einsum("r,ir,jr,kr->ijk", problems._WAVEPACKET_COEFFS, *columns)
        want = schrodinger_initial_state(axes)
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()

    def test_the_ti_reference_holds_no_reference_tensor(self):
        # The values at k=40 (1 MB) and k_ref=120 matrices: measured 2.76
        # MiB, against 80.3 MiB for the full-tensor reference's three
        # complex 120^3 tensors.
        points = hermite_basis(40).nodes
        problems._rank_two_reference(120, ti_factors, 1.0, 1, points)  # first-call caches
        tracemalloc.start()
        try:
            problems._rank_two_reference(120, ti_factors, 1.0, 1, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_it_runs_one_dense_exponential_per_midpoint(self, monkeypatch):
        # The run and its reference take their exponentials from one
        # generator: directions 1 and 2 of the driven problem are static
        # diagonals, so only direction 3 is exponentiated, once per midpoint,
        # and each call's midpoints fit in one block.
        calls = _record_matexp(monkeypatch)
        hkmp_run(8, steps=3, ref_steps=5)
        assert calls == [[(8, 8)] * 3, [(8, 8)] * 5]


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
