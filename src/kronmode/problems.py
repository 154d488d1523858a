"""End-to-end drivers for the benchmark problems.

Five problem families: a periodic 3D heat equation with a closed-form
reference, a 2D pipe diffusion-advection model checked against the Arnoldi
baseline, linear Schrodinger equations with time-independent and
time-dependent potentials in the Hermite basis, and the cubic nonlinear
Schrodinger (Gross-Pitaevskii) equation with Strang splitting.  Every driver
returns a :class:`RunReport` with the phase timing split into matrix
exponentials, mode products and the rest.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, InvalidReferenceError, ShapeError
from .fd import (
    gpe_weighted_factors,
    heat_factors,
    pipeflow_factors,
    pipeflow_grids,
    sinh_clustered_grid,
    uniform_periodic_grid,
)
from .hermite import (
    forward_transform,
    hamiltonian_factor,
    hermite_basis,
    inverse_transform,
    position_operator,
)
from .kron import KroneckerOp, PropagatorCache, prepare, step
from .krylov import arnoldi_expmv
from .linalg import matexp
from .tensor import norm as tensor_norm
from .tensor import tucker

__all__ = [
    "RunReport",
    "TimeGrid",
    "VortexProfile",
    "gpe_run",
    "gpe_setup",
    "gpe_strang_step",
    "heat3d_run",
    "hkmp_factors",
    "hkmp_run",
    "hkmp_solve",
    "hkp_run",
    "hkp_solve",
    "magnus_midpoint_step",
    "pipeflow_run",
    "relative_error",
    "schrodinger_initial_state",
    "ti_potentials",
    "vortex_pair_state",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid from t0 to final time T in ``steps`` steps."""

    t0: float
    T: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("a time grid needs at least one step")
        if not self.T > self.t0:
            raise ConfigurationError("final time must exceed the initial time")

    @property
    def tau(self):
        return (self.T - self.t0) / self.steps


@dataclass
class RunReport:
    """Outcome of one driver run: error, norm choice and phase timings."""

    problem: str
    shape: tuple
    steps: int
    tau: float
    error: float
    norm_kind: str
    time_exp_s: float
    time_mumode_s: float
    time_other_s: float
    total_s: float
    n: int | None = None
    k: int | None = None
    p: float | None = None
    precision: str = "double"

    def as_dict(self):
        data = asdict(self)
        data["shape"] = list(self.shape)
        if isinstance(self.p, float) and math.isinf(self.p):
            data["p"] = "inf"  # keep the payload strict-JSON clean
        return data


class PhaseTimer:
    """Wall-clock split: matrix exponentials vs mode products vs the rest."""

    def __init__(self):
        self.exp = 0.0
        self.mumode = 0.0
        self._start = time.perf_counter()

    @contextmanager
    def exponentials(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.exp += time.perf_counter() - t0

    @contextmanager
    def mode_products(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.mumode += time.perf_counter() - t0

    def totals(self):
        total = time.perf_counter() - self._start
        other = max(total - self.exp - self.mumode, 0.0)
        return self.exp, self.mumode, other, total


_REAL_DTYPES = {"double": np.float64, "single": np.float32}
_COMPLEX_DTYPES = {"double": np.complex128, "single": np.complex64}


def _cast(arr, precision):
    if precision not in _REAL_DTYPES:
        raise ConfigurationError(f"unknown precision {precision!r}")
    if precision == "double":
        return arr
    target = _COMPLEX_DTYPES["single"] if np.iscomplexobj(arr) else _REAL_DTYPES["single"]
    return arr.astype(target)


def _cast_cache(cache, precision):
    if precision == "double":
        return cache
    return PropagatorCache(cache.tau, tuple(_cast(e, precision) for e in cache.exps))


def relative_error(u, ref, norm_kind="max", weights=None):
    """``|u - ref| / |ref|`` in the chosen norm."""
    u = np.asarray(u)
    ref = np.asarray(ref)
    if u.shape != ref.shape:
        raise ShapeError(f"shapes {u.shape} and {ref.shape} differ")
    denom = tensor_norm(ref, norm_kind, weights)
    if denom == 0.0:
        raise InvalidReferenceError("reference tensor has zero norm")
    return tensor_norm(u - ref, norm_kind, weights) / denom


# ---------------------------------------------------------------------------
# Heat equation on [0, 2*pi)^3 with periodic boundary conditions.


def heat3d_run(n, p=2, T=1.0, steps=1, norm_kind="max", precision="double"):
    """Propagate ``u0 = cos x1 + cos x2 + cos x3`` and compare with the PDE solution.

    The reported relative error is against ``exp(-T) u0`` sampled on the
    grid.  The modal error is uniform over the grid, so the value does not
    depend on the norm choice.
    """
    if n < 8:
        raise ConfigurationError(f"the heat run needs n >= 8, got {n}")
    timer = PhaseTimer()
    grid = uniform_periodic_grid(0.0, 2 * np.pi, n)
    cos = np.cos(grid.points)
    u0 = np.asfortranarray(
        cos[:, None, None] + cos[None, :, None] + cos[None, None, :]
    )
    op = heat_factors(n, p)
    tg = TimeGrid(0.0, T, steps)
    with timer.exponentials():
        cache = _cast_cache(prepare(op, tg.tau), precision)
    u = _cast(u0, precision)
    with timer.mode_products():
        for _ in range(steps):
            u = step(cache, u)
    t_exp, t_mu, t_other, total = timer.totals()

    reference = np.exp(-T) * u0
    error = relative_error(u.astype(np.float64), reference, norm_kind)
    return RunReport(
        problem="heat",
        shape=op.shape,
        steps=steps,
        tau=tg.tau,
        error=error,
        norm_kind=norm_kind,
        time_exp_s=t_exp,
        time_mumode_s=t_mu,
        time_other_s=t_other,
        total_s=total,
        n=n,
        p=float(p),
        precision=precision,
    )


# ---------------------------------------------------------------------------
# Pipe flow: 2D diffusion-advection with space-dependent coefficients.


def pipeflow_run(n, T=4.0, steps=1, norm_kind="max", precision="double", ref_tol=1e-10):
    """Propagate a Gaussian blob through the pipe model.

    The reference solution comes from the Arnoldi baseline on the same
    discretization at tolerance ``ref_tol``; its cost is not part of the
    reported timings.
    """
    if n < 16:
        raise ConfigurationError(f"the pipe flow run needs n >= 16, got {n}")
    timer = PhaseTimer()
    rho_grid, z_grid = pipeflow_grids(n)
    rho0 = (0.1 + 5.0) / 2.0
    z0 = 3.0 / 2.0
    c0 = np.asfortranarray(
        np.exp(-8.0 * (rho_grid.points - rho0) ** 2)[:, None]
        * np.exp(-8.0 * (z_grid.points - z0) ** 2)[None, :]
    )
    op = pipeflow_factors(n)
    tg = TimeGrid(0.0, T, steps)
    with timer.exponentials():
        cache = _cast_cache(prepare(op, tg.tau), precision)
    c = _cast(c0, precision)
    with timer.mode_products():
        for _ in range(steps):
            c = step(cache, c)
    t_exp, t_mu, t_other, total = timer.totals()

    reference = arnoldi_expmv(op, c0, T, tol=ref_tol)
    error = relative_error(c.astype(np.float64), reference, norm_kind)
    return RunReport(
        problem="pipeflow",
        shape=op.shape,
        steps=steps,
        tau=tg.tau,
        error=error,
        norm_kind=norm_kind,
        time_exp_s=t_exp,
        time_mumode_s=t_mu,
        time_other_s=t_other,
        total_s=total,
        n=n,
        precision=precision,
    )


# ---------------------------------------------------------------------------
# Linear Schrodinger equations in the Hermite basis.


def schrodinger_initial_state(axes):
    """Rotating Gaussian wavepacket sampled on a tensor grid.

    ``2**(-5/2) pi**(-3/4) (x1 + i*x2) exp(-(x1^2 + x2^2 + x3^2)/4)`` with
    one coordinate vector per direction.
    """
    x1 = np.asarray(axes[0], dtype=float)[:, None, None]
    x2 = np.asarray(axes[1], dtype=float)[None, :, None]
    x3 = np.asarray(axes[2], dtype=float)[None, None, :]
    envelope = np.exp(-(x1**2) / 4) * np.exp(-(x2**2) / 4) * np.exp(-(x3**2) / 4)
    return np.asfortranarray(2.0**-2.5 * np.pi**-0.75 * (x1 + 1j * x2) * envelope)


def ti_potentials():
    """Per-direction potentials of the time-independent benchmark."""
    return (
        lambda x: np.cos(2 * np.pi * x),
        lambda x: 0.5 * x * x,
        lambda x: 0.5 * x * x,
    )


def hkp_solve(k, T=1.0, potentials=None):
    """Single exact coefficient-space step of the time-independent problem.

    Returns ``(basis, coeffs0, coeffsT)``; the same basis serves all three
    directions.
    """
    if k < 2:
        raise ConfigurationError(f"the Hermite solver needs k >= 2, got {k}")
    if potentials is None:
        potentials = ti_potentials()
    basis = hermite_basis(k)
    bases = (basis,) * 3
    psi0 = schrodinger_initial_state((basis.nodes,) * 3)
    coeffs0 = forward_transform(bases, psi0)
    op = KroneckerOp(tuple(hamiltonian_factor(basis, v) for v in potentials))
    coeffs_t = step(prepare(op, T), coeffs0)
    return basis, coeffs0, coeffs_t


def hkp_run(k, T=1.0, k_ref=120, norm_kind="max", precision="double", potentials=None):
    """Hermite pseudospectral run with exact time propagation.

    The error compares grid values at the k-point node set against a
    higher-resolution solve with ``k_ref`` functions per direction,
    evaluated at the same coarse nodes.  ``k_ref=None`` skips the reference
    (error reported as nan).
    """
    if k < 8:
        raise ConfigurationError(f"the benchmark run needs k >= 8, got {k}")
    if potentials is None:
        potentials = ti_potentials()
    timer = PhaseTimer()
    basis = hermite_basis(k)
    bases = (basis,) * 3
    psi0 = _cast(schrodinger_initial_state((basis.nodes,) * 3), precision)
    phi = _cast(basis.phi, precision)
    weighted = psi0
    for ax in range(3):
        shape = (1,) * ax + (k,) + (1,) * (2 - ax)
        weighted = weighted * _cast(basis.mod_weights, precision).reshape(shape)
    with timer.mode_products():
        coeffs = tucker(weighted, [phi] * 3)
    op = KroneckerOp(tuple(hamiltonian_factor(basis, v) for v in potentials))
    with timer.exponentials():
        cache = _cast_cache(prepare(op, T), precision)
    with timer.mode_products():
        coeffs = step(cache, coeffs)
        values = tucker(coeffs, [phi.conj().T] * 3)
    t_exp, t_mu, t_other, total = timer.totals()

    if k_ref is None:
        error = float("nan")
    else:
        if k_ref < k:
            raise ConfigurationError("the reference resolution must be at least k")
        basis_ref = hermite_basis(k_ref)
        bases_ref = (basis_ref,) * 3
        psi0_ref = schrodinger_initial_state((basis_ref.nodes,) * 3)
        coeffs_ref = forward_transform(bases_ref, psi0_ref)
        op_ref = KroneckerOp(tuple(hamiltonian_factor(basis_ref, v) for v in potentials))
        coeffs_ref = step(prepare(op_ref, T), coeffs_ref)
        ref_values = inverse_transform(bases_ref, coeffs_ref, eval_points=(basis.nodes,) * 3)
        error = relative_error(values.astype(np.complex128), ref_values, norm_kind)
    return RunReport(
        problem="schrodinger-ti",
        shape=(k, k, k),
        steps=1,
        tau=T,
        error=error,
        norm_kind=norm_kind,
        time_exp_s=t_exp,
        time_mumode_s=t_mu,
        time_other_s=t_other,
        total_s=total,
        k=k,
        precision=precision,
    )


def magnus_midpoint_step(factors_of_t, u, t, tau):
    """Exponential midpoint rule for a time-dependent Kronecker-sum generator.

    Advances ``u' = M(t) u`` from t to t + tau with the generator frozen at
    the interval midpoint, ``u <- exp(tau * M(t + tau/2)) u``; second order
    in tau, and identical to the exact propagator when M is constant.
    """
    op = factors_of_t(t + 0.5 * tau)
    return step(prepare(op, tau), u)


def hkmp_factors(basis, t):
    """Coefficient-space generator of the driven-oscillator problem at time t.

    Directions 1 and 2 are plain harmonic; direction 3 adds the coordinate
    operator scaled by ``sin(t)^2``.
    """
    d_harm = np.diag(np.arange(basis.k) + 0.5)
    a_static = -1j * d_harm
    a_driven = -1j * (d_harm + np.sin(t) ** 2 * position_operator(basis))
    return KroneckerOp((a_static, a_static, a_driven))


def _hkmp_propagate(k, T, steps, precision="double", timer=None):
    if timer is None:
        timer = PhaseTimer()
    basis = hermite_basis(k)
    bases = (basis,) * 3
    psi0 = schrodinger_initial_state((basis.nodes,) * 3)
    with timer.mode_products():
        coeffs0 = forward_transform(bases, psi0)
    tau = T / steps
    d_harm = np.diag(np.arange(k) + 0.5)
    x_op = position_operator(basis)
    # The two static factors are diagonal: exponentiated once up front.  The
    # driven factor is rebuilt and exponentiated every step at the midpoint.
    with timer.exponentials():
        exp_static = _cast(matexp(-1j * tau * d_harm), precision)
    coeffs = _cast(coeffs0, precision)
    for s in range(steps):
        t_mid = (s + 0.5) * tau
        with timer.exponentials():
            a_driven = -1j * (d_harm + np.sin(t_mid) ** 2 * x_op)
            exp_driven = _cast(matexp(tau * a_driven), precision)
        with timer.mode_products():
            coeffs = tucker(coeffs, (exp_static, exp_static, exp_driven))
    return basis, coeffs0, coeffs


def hkmp_solve(k, T=1.0, steps=16, precision="double"):
    """Magnus-midpoint propagation in coefficient space.

    Returns ``(basis, coeffs0, coeffsT)``.
    """
    if k < 2:
        raise ConfigurationError(f"the Hermite solver needs k >= 2, got {k}")
    if steps < 1:
        raise ConfigurationError("need at least one time step")
    return _hkmp_propagate(k, T, steps, precision)


def hkmp_run(k, T=1.0, steps=32, ref_steps=2048, norm_kind="max", precision="double"):
    """Benchmark run of the time-dependent problem.

    The error compares node values against a fine-step reference with the
    same spatial resolution, isolating the time-discretization error.
    ``ref_steps=None`` skips the reference.
    """
    if k < 8:
        raise ConfigurationError(f"the benchmark run needs k >= 8, got {k}")
    timer = PhaseTimer()
    basis, _, coeffs = _hkmp_propagate(k, T, steps, precision, timer)
    bases = (basis,) * 3
    with timer.mode_products():
        values = inverse_transform(bases, coeffs.astype(np.complex128))
    t_exp, t_mu, t_other, total = timer.totals()

    if ref_steps is None:
        error = float("nan")
    else:
        _, _, coeffs_ref = _hkmp_propagate(k, T, ref_steps)
        ref_values = inverse_transform(bases, coeffs_ref)
        error = relative_error(values, ref_values, norm_kind)
    return RunReport(
        problem="schrodinger-td",
        shape=(k, k, k),
        steps=steps,
        tau=T / steps,
        error=error,
        norm_kind=norm_kind,
        time_exp_s=t_exp,
        time_mumode_s=t_mu,
        time_other_s=t_other,
        total_s=total,
        k=k,
        precision=precision,
    )


# ---------------------------------------------------------------------------
# Gross-Pitaevskii equation with Strang splitting.


@dataclass(frozen=True)
class VortexProfile:
    """Rational-approximation core profile of a straight vortex line.

    ``f(r) = sqrt(r^2 (a1 + a2 r^2) / (1 + b1 r^2 + a2 r^4))`` rises from 0
    at the core to the unit background density.  ``offset`` is the distance
    of each vortex line from the midplane.
    """

    a1: float = 11.0 / 32.0
    a2: float = 11.0 / 384.0
    b1: float = 1.0 / 3.0
    offset: float = 2.0

    def radial(self, r):
        r2 = np.asarray(r) ** 2
        return np.sqrt(r2 * (self.a1 + self.a2 * r2) / (1.0 + self.b1 * r2 + self.a2 * r2**2))


def vortex_pair_state(grids, profile=VortexProfile()):
    """Two orthogonal straight vortices in a unit background density.

    One vortex line runs along direction 1 below the midplane, the other
    along direction 2 above it; the combined field is the pointwise product
    of the two single-vortex fields ``f(r) exp(i*theta)``.
    """
    x1 = grids[0].points[:, None, None]
    x2 = grids[1].points[None, :, None]
    x3 = grids[2].points[None, None, :]
    delta = profile.offset

    r_a = np.sqrt(x2**2 + (x3 + delta) ** 2)
    psi_a = profile.radial(r_a) * np.exp(1j * np.arctan2(x3 + delta, x2))
    r_b = np.sqrt((x3 - delta) ** 2 + x1**2)
    psi_b = profile.radial(r_b) * np.exp(1j * np.arctan2(x1, x3 - delta))
    return np.asfortranarray(psi_a * psi_b)


def gpe_setup(n, half_width=20.0, strength=2.0):
    """Grids, linear generator and quadrature weights of the splitting scheme.

    The grids cluster toward the vortex region.  The linear generator
    factors are ``i`` times the symmetrized half-Laplacian factors, acting
    on the weighted variables ``W^(1/2) psi``.
    """
    grids = tuple(sinh_clustered_grid(n, half_width, strength) for _ in range(3))
    sym_op, weights = gpe_weighted_factors(grids)
    linear_op = KroneckerOp(tuple(1j * a for a in sym_op.factors))
    return grids, linear_op, weights


def _inverse_weight_product(weights, shape, dtype):
    d = len(shape)
    out = np.ones(shape, order="F")
    for ax, w in enumerate(weights):
        w = np.asarray(w, dtype=float)
        if w.shape != (shape[ax],):
            raise ShapeError(
                f"direction {ax + 1}: weight vector of shape {w.shape} does not match "
                f"extent {shape[ax]}"
            )
        out *= w.reshape((1,) * ax + (w.size,) + (1,) * (d - ax - 1))
    np.divide(1.0, out, out=out)
    return out.astype(dtype, copy=False)


class _PhaseRotation:
    """In-place flow of the pointwise nonlinearity, ``psi <- psi exp(i h/2 (1 - |psi|^2/w))``.

    The flow leaves ``|psi|`` unchanged, so it is exact and two flows of
    lengths h1 and h2 make one of length h1 + h2.  The phase and the
    rotation factor share one buffer built once, in the state's precision:
    the phase goes into its real part, then its sine into the imaginary
    part, then its cosine over the phase.
    """

    def __init__(self, weights, shape, dtype):
        self.factor = np.empty(shape, dtype=dtype, order="F")
        self.inv_w = _inverse_weight_product(weights, shape, self.factor.real.dtype)

    def __call__(self, psi, h):
        phase, scratch = self.factor.real, self.factor.imag
        np.square(psi.real, out=phase)
        np.square(psi.imag, out=scratch)
        phase += scratch
        phase *= self.inv_w
        np.subtract(1.0, phase, out=phase)
        phase *= 0.5 * h
        np.sin(phase, out=scratch)
        np.cos(phase, out=phase)
        psi *= self.factor


def gpe_strang_step(linear_cache, weights, psi, tau, steps=1, _timer=None):
    """``steps`` Strang steps in the weighted variables.

    Each step is a half step of the exact pointwise nonlinear flow, a full
    linear step via the mode-wise propagator (``linear_cache`` must be
    prepared with the same ``tau``) and a half step of the nonlinear flow
    again.  The closing half step of one step and the opening one of the
    next are merged into one full nonlinear step, which is exact up to
    rounding because the flow leaves ``|psi|`` unchanged.  The result keeps
    the precision of ``psi`` and the cache; ``psi`` itself is not modified.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ConfigurationError(f"steps must be an integer >= 1, got {steps!r}")
    psi = np.asarray(psi)
    if psi.shape != linear_cache.shape:
        raise ShapeError(f"state shape {psi.shape} does not match cache shape {linear_cache.shape}")
    dtype = np.result_type(psi.dtype, np.complex64, *linear_cache.exps)
    rotate = _PhaseRotation(weights, psi.shape, dtype)
    # Every array rotated in place below is this copy or a fresh output of step.
    psi = np.array(psi, dtype=dtype, order="F")
    rotate(psi, 0.5 * tau)
    timed = nullcontext if _timer is None else _timer.mode_products
    for s in range(steps):
        with timed():
            psi = step(linear_cache, psi)
        rotate(psi, tau if s < steps - 1 else 0.5 * tau)
    return psi


def gpe_run(n, T=2.5, tau=0.1, precision="double", half_width=20.0, strength=2.0,
            initial=None):
    """Strang-split vortex-pair evolution.

    ``steps = round(T / tau)`` and the actual step size is ``T / steps``.
    The reported ``error`` field is the relative drift of the conserved
    weighted two-norm over the whole run (the two-norm of the weighted
    variables), so values near machine precision indicate a healthy run.
    ``initial`` overrides the vortex-pair start state (raw, unweighted).
    """
    if n < 16:
        raise ConfigurationError(f"the vortex run needs n >= 16, got {n}")
    if tau <= 0 or T <= 0:
        raise ConfigurationError("final time and step size must be positive")
    steps = max(1, round(T / tau))
    tg = TimeGrid(0.0, T, steps)
    timer = PhaseTimer()
    grids, linear_op, weights = gpe_setup(n, half_width, strength)
    psi = vortex_pair_state(grids) if initial is None else np.asarray(initial, dtype=complex)
    if psi.shape != linear_op.shape:
        raise ShapeError(f"initial state shape {psi.shape} does not match grid {linear_op.shape}")
    sqrt_weights = [np.sqrt(w) for w in weights]
    for ax, sw in enumerate(sqrt_weights):
        psi = psi * sw.reshape((1,) * ax + (n,) + (1,) * (2 - ax))
    psi = _cast(np.asfortranarray(psi), precision)
    with timer.exponentials():
        cache = _cast_cache(prepare(linear_op, tg.tau), precision)
    norm0 = tensor_norm(psi, "two")
    psi = gpe_strang_step(cache, weights, psi, tg.tau, steps=steps, _timer=timer)
    drift = abs(tensor_norm(psi, "two") - norm0) / norm0
    t_exp, t_mu, t_other, total = timer.totals()
    return RunReport(
        problem="gpe",
        shape=linear_op.shape,
        steps=steps,
        tau=tg.tau,
        error=drift,
        norm_kind="weighted_two",
        time_exp_s=t_exp,
        time_mumode_s=t_mu,
        time_other_s=t_other,
        total_s=total,
        n=n,
        precision=precision,
    )
