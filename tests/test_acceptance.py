"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from kronmode.cli import CSV_COLUMNS, parse_args, run
from kronmode.fd import heat_factors, pipeflow_factors, pipeflow_grids
from kronmode.hermite import forward_transform, hermite_basis, inverse_transform
from kronmode.kron import KroneckerOp, prepare, step
from kronmode.krylov import arnoldi_expmv
from kronmode.linalg import matexp
from kronmode.problems import (
    gpe_run,
    gpe_setup,
    gpe_strang_step,
    hermite_solve,
    hkmp_factors,
    hkp_run,
    magnus_midpoint_step,
    schrodinger_initial_state,
    ti_factors,
    vortex_pair_state,
)
from kronmode.tensor import count_flops, norm, tucker
from oracles import assemble_full, harmonic_eigenvalues, harmonic_factors


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _pipeflow_initial(n):
    rho_grid, z_grid = pipeflow_grids(n)
    return np.asfortranarray(
        np.exp(-8.0 * (rho_grid.points - 2.55) ** 2)[:, None]
        * np.exp(-8.0 * (z_grid.points - 1.5) ** 2)[None, :]
    )


def test_criterion_1_heat_error_table(tmp_path):
    """Five-point heat sweep reproduces the published error sequence."""
    target = tmp_path / "heat_sweep.csv"
    t0 = time.perf_counter()
    code = run(parse_args(["sweep", "--problem", "heat", "--n", "40,55,70,85,100",
                           "--p", "2", "--T", "1", "--output", "csv",
                           "--out", str(target)]))
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 6
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    errors = [float(r["rel_error"]) for r in rows]
    targets = [2.06e-3, 1.09e-3, 6.71e-4, 4.55e-4, 3.29e-4]
    ok = all(abs(e - t) <= 0.01 * t for e, t in zip(errors, targets)) and elapsed <= 60
    _report("1", ok, f"heat sweep errors {['%.3e' % e for e in errors]} in {elapsed:.1f}s")
    for got, want in zip(errors, targets):
        assert got == pytest.approx(want, rel=0.01)
    assert elapsed <= 60


def test_criterion_2_exactness_oracle():
    """Mode-wise step matches the dense exponential on random operators."""
    rng = np.random.default_rng(20240809)
    t0 = time.perf_counter()
    worst = 0.0
    trials = 52
    for trial in range(trials):
        d = 2 if trial % 2 == 0 else 3
        high = 9 if d == 2 else 7
        dims = tuple(int(rng.integers(2, high)) for _ in range(d))
        complex_factors = trial % 4 >= 2
        factors = []
        for m in dims:
            a = rng.standard_normal((m, m))
            if complex_factors:
                a = a + 1j * rng.standard_normal((m, m))
            factors.append(a)
        op = KroneckerOp(tuple(factors))
        u = np.asfortranarray(rng.standard_normal(dims))
        tau = float(rng.uniform(0.1, 1.0))
        got = step(prepare(op, tau), u).ravel(order="F")
        want = matexp(tau * assemble_full(op)) @ u.ravel(order="F")
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 10
    _report("2", ok, f"{trials} random operators, worst relative deviation {worst:.2e} "
                     f"in {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed <= 10


def test_criterion_3_step_count_invariance():
    """One large step equals 64 small ones on heat and pipe flow."""
    results = {}
    op = heat_factors(32, 2)
    x = 2 * np.pi * np.arange(32) / 32
    cos = np.cos(x)
    u0 = np.asfortranarray(cos[:, None, None] + cos[None, :, None] + cos[None, None, :])
    one = step(prepare(op, 1.0), u0)
    many = u0
    cache = prepare(op, 1.0 / 64)
    for _ in range(64):
        many = step(cache, many)
    results["heat"] = norm(one - many, "two") / norm(one, "two")

    op = pipeflow_factors(32)
    c0 = _pipeflow_initial(32)
    one = step(prepare(op, 4.0), c0)
    many = c0
    cache = prepare(op, 4.0 / 64)
    for _ in range(64):
        many = step(cache, many)
    results["pipeflow"] = norm(one - many, "two") / norm(one, "two")

    ok = all(v <= 1e-11 for v in results.values())
    _report("3", ok, f"1 vs 64 steps: heat {results['heat']:.2e}, "
                     f"pipeflow {results['pipeflow']:.2e}")
    for value in results.values():
        assert value <= 1e-11


def test_criterion_4_spectral_transform_suite():
    """Discrete orthonormality, transform round trip and Parseval."""
    rng = np.random.default_rng(4)
    ortho_dev = 0.0
    for k in (10, 40, 100):
        basis = hermite_basis(k)
        gram = (basis.phi * basis.mod_weights) @ basis.phi.T
        ortho_dev = max(ortho_dev, float(np.abs(gram - np.eye(k)).max()))

    basis = hermite_basis(32)
    bases = (basis,) * 3
    values = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
    back = inverse_transform(bases, forward_transform(bases, values))
    round_trip = float(np.abs(back - values).max() / np.abs(values).max())

    coeffs = forward_transform(bases, values)
    weighted = norm(tucker(values, [np.sqrt(basis.mod_weights)] * 3), "two")
    parseval = abs(weighted - norm(coeffs, "two")) / weighted

    ok = ortho_dev <= 1e-12 and round_trip <= 1e-11 and parseval <= 1e-12
    _report("4", ok, f"orthonormality {ortho_dev:.2e}, round trip {round_trip:.2e}, "
                     f"Parseval {parseval:.2e}")
    assert ortho_dev <= 1e-12
    assert round_trip <= 1e-11
    assert parseval <= 1e-12


def test_criterion_5_krylov_cross_check():
    """Arnoldi baseline agrees with the exact propagator on both models."""
    t0 = time.perf_counter()
    op = heat_factors(40, 2)
    x = 2 * np.pi * np.arange(40) / 40
    cos = np.cos(x)
    u0 = np.asfortranarray(cos[:, None, None] + cos[None, :, None] + cos[None, None, :])
    krylov = arnoldi_expmv(op, u0, 1.0, tol=1e-10)
    exact = step(prepare(op, 1.0), u0)
    heat_dev = norm(krylov - exact, "two") / norm(exact, "two")

    op = pipeflow_factors(32)
    c0 = _pipeflow_initial(32)
    krylov = arnoldi_expmv(op, c0, 4.0, tol=1e-10)
    exact = step(prepare(op, 4.0), c0)
    pipe_dev = norm(krylov - exact, "two") / norm(exact, "two")
    elapsed = time.perf_counter() - t0

    ok = heat_dev <= 1e-8 and pipe_dev <= 1e-8 and elapsed <= 30
    _report("5", ok, f"heat {heat_dev:.2e}, pipeflow {pipe_dev:.2e} in {elapsed:.1f}s")
    assert heat_dev <= 1e-8
    assert pipe_dev <= 1e-8
    assert elapsed <= 30


def test_criterion_6a_hkp_unitarity_and_harmonic_exactness():
    """Norm conservation and the analytically solvable harmonic case."""
    _, c0, c_t = hermite_solve(40, ti_factors, T=1.0)
    drift = abs(norm(c_t, "two") - norm(c0, "two")) / norm(c0, "two")

    _, h0, h_t = hermite_solve(16, harmonic_factors, T=1.0)
    phases = np.exp(-1j * harmonic_eigenvalues((16, 16, 16)))
    harmonic_dev = float(np.abs(h_t - phases * h0).max() / np.abs(h0).max())

    ok = drift <= 1e-12 and harmonic_dev <= 1e-12
    _report("6a", ok, f"coefficient norm drift {drift:.2e}, "
                      f"harmonic phase deviation {harmonic_dev:.2e}")
    assert drift <= 1e-12
    assert harmonic_dev <= 1e-12


def test_criterion_6b_hkp_benchmark_point():
    """k=40 error meets the 7e-2 accuracy level, against a converged reference.

    The benchmark value 7e-2 recorded for the k=40 Hermite run is an accuracy
    level that the resolution was chosen to meet, not a measured error (see
    the README, "Tests and acceptance suite"): the k=40 error lies at or below
    7e-2 and above the next level down, 7e-3.  The k=80 error sits one bracket
    lower, see
    test_problems.py::TestHkp::test_error_sits_between_adjacent_accuracy_levels.
    ``PAPER.md`` holds only the abstract, so it does not settle this reading
    by itself.  The bracket speaks of the k=40 discretisation only if the
    reference is converged, so the error against k_ref=160 must agree with
    the one against k_ref=120 to within 1%.
    """
    bracket = (7e-3, 7e-2)
    t0 = time.perf_counter()
    report = hkp_run(40, T=1.0, k_ref=120)
    elapsed = time.perf_counter() - t0
    finer = hkp_run(40, T=1.0, k_ref=160).error
    ref_drift = abs(report.error - finer) / finer
    in_bracket = bracket[0] < report.error <= bracket[1]
    ok = in_bracket and ref_drift <= 1e-2 and elapsed <= 300
    _report("6b", ok, f"k=40 error {report.error:.3e} vs k_ref=120, "
                      f"{finer:.3e} vs k_ref=160 ({ref_drift:.1e} apart), "
                      f"bracket ({bracket[0]:.0e}, {bracket[1]:.0e}], {elapsed:.1f}s")
    assert elapsed <= 300
    assert in_bracket, (
        f"k=40 error {report.error:.3e} lies outside the accuracy-level bracket "
        f"({bracket[0]:.0e}, {bracket[1]:.0e}]"
    )
    assert ref_drift <= 1e-2, (
        f"reference not converged: k=40 error {report.error:.3e} against k_ref=120 "
        f"but {finer:.3e} against k_ref=160"
    )


def test_criterion_7_magnus_order_and_norm_drift():
    """Second-order convergence of the midpoint rule on the driven problem."""
    k, T = 20, 1.0
    basis = hermite_basis(k)
    bases = (basis,) * 3
    c0 = forward_transform(bases, schrodinger_initial_state((basis.nodes,) * 3))
    factors_of_t = hkmp_factors(basis)

    def propagate(steps):
        return magnus_midpoint_step(factors_of_t, c0, 0.0, T / steps, steps=steps)

    ref = propagate(2048)
    ref_values = inverse_transform(bases, ref)
    drift = abs(norm(ref, "two") - norm(c0, "two")) / norm(c0, "two")
    errors = []
    for steps in (32, 64, 128):
        values = inverse_transform(bases, propagate(steps))
        errors.append(float(np.abs(values - ref_values).max() / np.abs(ref_values).max()))
    xs = [math.log(1.0 / s) for s in (32, 64, 128)]
    ys = [math.log(e) for e in errors]
    n = len(xs)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )
    ok = 1.9 <= slope <= 2.1 and drift <= 1e-11
    _report("7", ok, f"observed order {slope:.3f} over steps 32/64/128, "
                     f"norm drift {drift:.2e}")
    assert 1.9 <= slope <= 2.1
    assert drift <= 1e-11


def test_criterion_8_gpe_properties():
    """Norm conservation, stationary background, splitting order."""
    report = gpe_run(32, T=1.0, tau=0.1)
    drift = report.error

    n = 32
    grids, lin_op, weights = gpe_setup(n)
    psi = np.ones((n, n, n), dtype=complex, order="F")
    for ax, w in enumerate(weights):
        psi = psi * np.sqrt(w).reshape((1,) * ax + (n,) + (1,) * (2 - ax))
    start = psi.copy()
    cache = prepare(lin_op, 0.1)
    for _ in range(10):
        psi = gpe_strang_step(cache, weights, psi)
    stationary = float(np.abs(psi - start).max() / np.abs(start).max())

    grids, lin_op, weights = gpe_setup(8)
    psi0 = vortex_pair_state(grids)
    for ax, w in enumerate(weights):
        psi0 = psi0 * np.sqrt(w).reshape((1,) * ax + (8,) + (1,) * (2 - ax))
    psi0 = np.asfortranarray(psi0)
    T = 0.8

    def evolve(steps):
        tau = T / steps
        cache = prepare(lin_op, tau)
        state = psi0
        for _ in range(steps):
            state = gpe_strang_step(cache, weights, state)
        return state

    reference = evolve(1000)
    errors = [float(np.abs(evolve(s) - reference).max() / np.abs(reference).max())
              for s in (2, 4, 8)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    ok = drift <= 1e-10 and stationary <= 1e-12 and all(1.8 <= o <= 2.2 for o in orders)
    _report("8", ok, f"norm drift {drift:.2e}, stationary background {stationary:.2e}, "
                     f"splitting orders {['%.2f' % o for o in orders]}")
    assert drift <= 1e-10
    assert stationary <= 1e-12
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_criterion_9_performance_sanity():
    """Large heat step: bounded working memory and the exact operation count."""
    n = 128
    op = heat_factors(n, 2)
    cache = prepare(op, 1.0 / 64)
    x = 2 * np.pi * np.arange(n) / n
    cos = np.cos(x)
    u0 = np.asfortranarray(cos[:, None, None] + cos[None, :, None] + cos[None, None, :])
    state_bytes = u0.nbytes

    tracemalloc.start()
    with count_flops() as flops:
        result = step(cache, u0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.shape == (n, n, n)

    expected_macs = sum(n**3 * m for m in op.shape)
    ratio = peak / state_bytes
    ok = ratio <= 3.0 and flops.macs == expected_macs
    _report("9", ok, f"peak working memory {ratio:.2f}x state, "
                     f"{flops.macs} multiply-adds (expected {expected_macs})")
    assert ratio <= 3.0
    assert flops.macs == expected_macs
