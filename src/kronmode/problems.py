"""End-to-end drivers for the benchmark problems.

Five problem families: a periodic 3D heat equation with a closed-form
reference, a 2D pipe diffusion-advection model checked against a scaled
Taylor series on the same Kronecker-sum action, linear Schrodinger
equations with time-independent and time-dependent potentials in the
Hermite basis, and the cubic nonlinear Schrodinger (Gross-Pitaevskii)
equation with Strang splitting.

Every driver supplies its initial state, generator and reference to one run
path (:class:`_Run`), which casts to the requested precision, advances the
state with one of three steppers -- the exact propagator
(:func:`kronmode.kron.step`), the exponential midpoint rule
(:func:`magnus_midpoint_step`, both Schrodinger problems through
:func:`hermite_solve`) or Strang splitting (:func:`gpe_strang_step`) -- and
returns a :class:`RunReport` with the phase timing split into matrix
exponentials, mode products and the rest.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
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
from .kron import KroneckerOp, _cast, _check_steps, _exponentials, prepare, step
from .krylov import _expmv_reference
from .tensor import norm as tensor_norm
from .tensor import _output_pair, count_flops, scale_modes, tucker

__all__ = [
    "RunReport",
    "gpe_run",
    "gpe_setup",
    "gpe_strang_step",
    "heat3d_run",
    "hermite_solve",
    "hkmp_factors",
    "hkmp_run",
    "hkp_run",
    "magnus_midpoint_step",
    "pipeflow_run",
    "relative_error",
    "schrodinger_initial_state",
    "ti_factors",
    "vortex_pair_state",
]


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


class _Run:
    """The run path of every driver: precision, time grid, timing and report.

    A driver creates it once its own input is valid; the constructor
    validates the precision and the time grid (``steps``, ``T > 0``).  The
    driver's work runs in :meth:`timed`, whose wall time splits into matrix
    exponentials, mode products (spectral transforms included) and the
    rest.  :meth:`report` runs after it, so the reference solve is not timed.
    """

    def __init__(self, precision, T, steps):
        if precision not in ("double", "single"):
            raise ConfigurationError(f"unknown precision {precision!r}")
        self.precision = precision
        self.dtype = np.float32 if precision == "single" else np.float64
        _check_steps(steps)
        if not T > 0:
            raise ConfigurationError(f"the final time must be positive, got {T!r}")
        self.steps, self.tau = steps, T / steps

    @contextmanager
    def timed(self):
        """Time the block and tally its kernels (see :func:`kronmode.tensor.count_flops`)."""
        start = time.perf_counter()
        with count_flops() as self.tally:
            yield
        self.total = time.perf_counter() - start

    def exact(self, op, u0):
        """``u0``, cast to the run's precision, advanced over the grid by ``exp(t*op)``."""
        u = _cast(u0, self.dtype)
        return step(prepare(op, self.tau, u.dtype), u, steps=self.steps)

    def report(self, problem, u, error, norm_kind, **fields):
        """Report ``error(u)`` (nan for ``error=None``) with the timed block's split.

        ``fields`` sets ``n``, ``k`` and ``p``.
        """
        exp_s, mode_s = self.tally.exp_s, self.tally.mode_s
        return RunReport(
            problem=problem, shape=u.shape, steps=self.steps, tau=self.tau,
            error=float("nan") if error is None else error(u), norm_kind=norm_kind,
            time_exp_s=exp_s, time_mumode_s=mode_s,
            time_other_s=max(self.total - exp_s - mode_s, 0.0), total_s=self.total,
            precision=self.precision, **fields,
        )


def relative_error(u, ref, norm_kind="max"):
    """``|u - ref| / |ref|`` in the chosen norm.

    The difference, in the promoted dtype of ``u`` and ``ref``, is the one
    full-size temporary: a single-precision ``u`` is compared with a double
    ``ref`` in double without a copy.
    """
    u = np.asarray(u)
    ref = np.asarray(ref)
    if u.shape != ref.shape:
        raise ShapeError(f"shapes {u.shape} and {ref.shape} differ")
    denom = tensor_norm(ref, norm_kind)
    if denom == 0.0:
        raise InvalidReferenceError("reference tensor has zero norm")
    return tensor_norm(u - ref, norm_kind) / denom


# ---------------------------------------------------------------------------
# Heat equation on [0, 2*pi)^3 with periodic boundary conditions.


def heat3d_run(n, p=2, T=1.0, steps=1, norm_kind="max", precision="double"):
    """Propagate ``u0 = cos x1 + cos x2 + cos x3`` and compare with the PDE solution.

    The reported relative error is against ``exp(-T) u0`` sampled on the
    grid.  The modal error is uniform over the grid, so the value does not
    depend on the norm choice.

    Working memory, counted in full states (``n**3`` doubles): the setup
    builds ``u0`` in Fortran order, one state.  The run holds three: ``u0``
    and the two buffers that :func:`kronmode.kron.step` owns and its products
    write in turn (a single step holds ``u0`` and two product outputs).  The
    reference ``exp(-T) u0`` then overwrites ``u0``, which nothing reads
    after the run, and the error check holds three too: the reference, the
    result and their difference.
    """
    if n < 8:
        raise ConfigurationError(f"the heat run needs n >= 8, got {n}")
    run = _Run(precision, T, steps)
    with run.timed():
        cos = np.cos(uniform_periodic_grid(0.0, 2 * np.pi, n).points)
        u0 = np.add(cos[:, None, None] + cos[None, :, None], cos[None, None, :], order="F")
        u = run.exact(heat_factors(n, p), u0)
    u0 *= np.exp(-T)  # the reference; the result of step never shares memory with u0
    return run.report("heat", u, lambda u: relative_error(u, u0, norm_kind), norm_kind,
                      n=n, p=float(p))


# ---------------------------------------------------------------------------
# Pipe flow: 2D diffusion-advection with space-dependent coefficients.


def pipeflow_run(n, T=4.0, steps=1, norm_kind="max", precision="double"):
    """Propagate a Gaussian blob through the pipe model.

    The reference is ``exp(T*M) c0`` on the same discretization by a
    truncated Taylor series with scaling, which sees the generator only
    through its matrix-free action (see :mod:`kronmode.krylov`), accurate
    to about 1e-14; so the reported error is that of the integrator.  The
    reference runs after the timed block: it is outside ``total_s`` and the
    phase timings, but inside the wall time of a CLI call, where it takes
    most of it.
    """
    if n < 16:
        raise ConfigurationError(f"the pipe flow run needs n >= 16, got {n}")
    run = _Run(precision, T, steps)
    with run.timed():
        rho_grid, z_grid = pipeflow_grids(n)
        rho0 = (0.1 + 5.0) / 2.0
        z0 = 3.0 / 2.0
        c0 = np.asfortranarray(
            np.exp(-8.0 * (rho_grid.points - rho0) ** 2)[:, None]
            * np.exp(-8.0 * (z_grid.points - z0) ** 2)[None, :]
        )
        op = pipeflow_factors(n)
        c = run.exact(op, c0)
    return run.report(
        "pipeflow", c,
        lambda c: relative_error(c, _expmv_reference(op, c0, T), norm_kind),
        norm_kind, n=n,
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


def ti_factors(basis):
    """Coefficient-space generator of the time-independent problem, as a function of t.

    One Hamiltonian factor per direction, for the potentials ``cos(2 pi x)``,
    ``x^2/2`` and ``x^2/2``, built once per basis and returned at every t.
    The two harmonic factors are exactly diagonal.
    """
    potentials = (lambda x: np.cos(2 * np.pi * x),) + (lambda x: 0.5 * x * x,) * 2
    factors = tuple(hamiltonian_factor(basis, v) for v in potentials)
    return lambda t: factors


def hermite_solve(k, factors_of, T=1.0, steps=1, dtype=np.float64):
    """Propagate the wavepacket from 0 to T in the k-function Hermite basis.

    ``factors_of(basis)`` returns the generator's factors as a function of t
    (:func:`hkmp_factors` or :func:`ti_factors`).  The coefficients, cast by
    :func:`kronmode.kron._cast`, take ``steps`` steps of
    :func:`magnus_midpoint_step`, which for a constant generator is the exact
    propagator.  Returns ``(basis, coeffs0, coeffsT)`` with ``coeffs0`` in
    double; the basis serves all three directions.
    """
    if k < 2:
        raise ConfigurationError(f"the Hermite solver needs k >= 2, got {k}")
    _check_steps(steps)
    basis = hermite_basis(k)
    coeffs0 = forward_transform((basis,) * 3, schrodinger_initial_state((basis.nodes,) * 3))
    coeffs = magnus_midpoint_step(factors_of(basis), _cast(coeffs0, dtype), 0.0, T / steps,
                                  steps=steps)
    return basis, coeffs0, coeffs


def _hermite_run(problem, k, T, steps, factors_of, ref, norm_kind, precision):
    """Run path of both Schrodinger drivers.

    The error compares values at the k-point nodes with those of a
    :func:`hermite_solve` with ``ref = (k_ref, ref_steps)`` at the same nodes;
    ``ref=None`` skips it (error nan).  The transforms run in double
    precision; a single-precision run casts the coefficients for the steps.
    """
    run = _Run(precision, T, steps)
    with run.timed():
        basis, _, coeffs = hermite_solve(k, factors_of, T, steps, run.dtype)
        values = inverse_transform((basis,) * 3, coeffs.astype(np.complex128, copy=False))

    def error(values):
        basis_ref, _, coeffs_ref = hermite_solve(ref[0], factors_of, T, ref[1])
        ref_values = inverse_transform((basis_ref,) * 3, coeffs_ref, eval_points=(basis.nodes,) * 3)
        return relative_error(values, ref_values, norm_kind)

    return run.report(problem, values, None if ref is None else error, norm_kind, k=k)


def hkp_run(k, T=1.0, k_ref=120, norm_kind="max", precision="double"):
    """Hermite pseudospectral run of the time-independent problem in one exact step.

    The reference has ``k_ref`` functions per direction, ``None`` skips it; see
    :func:`_hermite_run`.
    """
    if k < 8:
        raise ConfigurationError(f"the benchmark run needs k >= 8, got {k}")
    if k_ref is not None and k_ref < k:
        raise ConfigurationError("the reference resolution must be at least k")
    return _hermite_run("schrodinger-ti", k, T, 1, ti_factors,
                        None if k_ref is None else (k_ref, 1), norm_kind, precision)


def magnus_midpoint_step(factors_of_t, u, t, tau, steps=1):
    """Exponential midpoint rule for a time-dependent Kronecker-sum generator.

    Advances ``u' = M(t) u`` from t to ``t + steps*tau``, each step with the
    generator frozen at the interval midpoint,
    ``u <- exp(tau * M(t_s + tau/2)) u``; second order in tau, and identical
    to the exact propagator when M is constant.  ``factors_of_t(t)`` returns
    the factors of M(t), one square matrix per direction of ``u``.

    Factor reuse: a factor is exponentiated only when ``factors_of_t``
    returns an array object that it did not return at the previous midpoint
    of the call, and then once even if it serves several directions, so
    static factors returned as the same objects (as by :func:`hkmp_factors`)
    are exponentiated, and checked for shape and finiteness, once per call.
    An exactly diagonal factor gets the vector of its exponential's diagonal
    and is applied as a scaling (see :func:`kronmode.tensor.tucker`).  A
    single-precision ``u`` gets its exponentials cast to single precision,
    as :func:`kronmode.kron.prepare` casts them.  A counter armed by
    :func:`kronmode.tensor.count_flops` tallies the seconds of the
    exponentials (``exp_s``) and of the products (``mode_s``).
    """
    _check_steps(steps)
    u = np.asarray(u)
    known = None  # the exponentials of the latest midpoint, by factor id
    for s in range(steps):
        now = tuple(factors_of_t(t + (s + 0.5) * tau))
        if len(now) != u.ndim:
            raise ShapeError(f"expected {u.ndim} factors, got {len(now)}")
        exps, known = _exponentials(tau, now, u.dtype, known)
        u = tucker(u, exps)
    return u


def hkmp_factors(basis):
    """Coefficient-space generator of the driven-oscillator problem, as a function of t.

    The function returns the three factors at time t.  Directions 1 and 2
    are plain harmonic; direction 3 adds the coordinate operator scaled by
    ``sin(t)^2``.  The static factors are built once per basis, so every
    call returns the same arrays for them.
    """
    d_harm = np.diag(np.arange(basis.k) + 0.5)
    a_static = -1j * d_harm
    x_op = position_operator(basis)
    return lambda t: (a_static, a_static, -1j * (d_harm + np.sin(t) ** 2 * x_op))


def hkmp_run(k, T=1.0, steps=32, ref_steps=2048, norm_kind="max", precision="double"):
    """Benchmark run of the time-dependent problem.

    The reference takes ``ref_steps`` steps at the same spatial resolution,
    isolating the time error; ``None`` skips it.  See :func:`_hermite_run`.
    """
    if k < 8:
        raise ConfigurationError(f"the benchmark run needs k >= 8, got {k}")
    if ref_steps is not None:
        _check_steps(ref_steps)
    return _hermite_run("schrodinger-td", k, T, steps, hkmp_factors,
                        None if ref_steps is None else (k, ref_steps), norm_kind, precision)


# ---------------------------------------------------------------------------
# Gross-Pitaevskii equation with Strang splitting.


def _vortex_radial(r):
    """Rational-approximation core profile of a straight vortex line.

    ``f(r) = sqrt(r^2 (a1 + a2 r^2) / (1 + b1 r^2 + a2 r^4))`` with
    ``a1 = 11/32``, ``a2 = 11/384`` and ``b1 = 1/3`` rises from 0 at the
    core to the unit background density.
    """
    r2 = np.asarray(r) ** 2
    return np.sqrt(r2 * (11.0 / 32.0 + 11.0 / 384.0 * r2)
                   / (1.0 + 1.0 / 3.0 * r2 + 11.0 / 384.0 * r2**2))


def vortex_pair_state(grids):
    """Two orthogonal straight vortices in a unit background density.

    One vortex line runs along direction 1 at distance 2 below the
    midplane, the other along direction 2 at distance 2 above it; the
    combined field is the pointwise product of the two single-vortex fields
    ``f(r) exp(i*theta)`` (see :func:`_vortex_radial`).
    """
    x1 = grids[0].points[:, None, None]
    x2 = grids[1].points[None, :, None]
    x3 = grids[2].points[None, None, :]
    delta = 2.0

    r_a = np.sqrt(x2**2 + (x3 + delta) ** 2)
    psi_a = _vortex_radial(r_a) * np.exp(1j * np.arctan2(x3 + delta, x2))
    r_b = np.sqrt((x3 - delta) ** 2 + x1**2)
    psi_b = _vortex_radial(r_b) * np.exp(1j * np.arctan2(x1, x3 - delta))
    return np.asfortranarray(psi_a * psi_b)


def gpe_setup(n):
    """Grids, linear generator and quadrature weights of the splitting scheme.

    The grids on ``[-20, 20]`` cluster toward the vortex region.  The linear generator
    factors are ``i`` times the symmetrized half-Laplacian factors, acting
    on the weighted variables ``W^(1/2) psi``.
    """
    grids = tuple(sinh_clustered_grid(n) for _ in range(3))
    sym_op, weights = gpe_weighted_factors(grids)
    linear_op = KroneckerOp(tuple(1j * a for a in sym_op.factors))
    return grids, linear_op, weights


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
        # Scaling a broadcast 1 keeps this at one full-size array.
        inv_w = scale_modes(np.broadcast_to(1.0, shape), weights)
        np.divide(1.0, inv_w, out=inv_w)
        self.inv_w = inv_w.astype(self.factor.real.dtype, copy=False)

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


def gpe_strang_step(linear_cache, weights, psi, steps=1):
    """``steps`` Strang steps of length ``linear_cache.tau`` in the weighted variables.

    Each step is a half step of the exact pointwise nonlinear flow, a full
    linear step via the mode-wise propagator and a half step of the
    nonlinear flow again.  The closing half step of one step and the
    opening one of the next are merged into one full nonlinear step, which
    is exact up to rounding because the flow leaves ``|psi|`` unchanged.
    The result keeps the precision of ``psi`` and the cache; ``psi`` itself
    is not modified.  The loop owns two buffers, the working copy of
    ``psi`` and a spare, which the linear steps' products write in turn;
    the result is a view of one of them.
    """
    _check_steps(steps)
    psi = np.asarray(psi)
    if psi.shape != linear_cache.shape:
        raise ShapeError(f"state shape {psi.shape} does not match cache shape {linear_cache.shape}")
    dtype = np.result_type(psi.dtype, np.complex64, *linear_cache.exps)
    rotate = _PhaseRotation(weights, psi.shape, dtype)
    tau = linear_cache.tau
    with _output_pair(psi.size, dtype) as (work, _):
        # Every array rotated in place below is a view of one of the pair.
        work = work.reshape(psi.shape, order="F")
        np.copyto(work, psi)
        psi = work
        rotate(psi, 0.5 * tau)
        for s in range(steps):
            psi = step(linear_cache, psi)
            rotate(psi, tau if s < steps - 1 else 0.5 * tau)
    return psi


def gpe_run(n, T=2.5, tau=0.1, precision="double"):
    """Strang-split vortex-pair evolution.

    ``tau`` is the nominal step: the run takes ``steps = max(1, round(T / tau))``
    equal steps of ``T / steps``.
    The reported ``error`` field is the relative drift of the conserved
    weighted two-norm over the whole run (the two-norm of the weighted
    variables), so values near machine precision indicate a healthy run.
    Both norms are accumulated in double precision, also in a
    single-precision run.
    """
    if n < 16:
        raise ConfigurationError(f"the vortex run needs n >= 16, got {n}")
    if tau <= 0:
        raise ConfigurationError("the step size must be positive")
    run = _Run(precision, T, max(1, round(T / tau)))
    with run.timed():
        grids, linear_op, weights = gpe_setup(n)
        psi = _cast(scale_modes(vortex_pair_state(grids), [np.sqrt(w) for w in weights]),
                    run.dtype)
        cache = prepare(linear_op, run.tau, psi.dtype)
        norm0 = _two_norm64(psi)
        psi = gpe_strang_step(cache, weights, psi, steps=run.steps)
    return run.report("gpe", psi, lambda psi: abs(_two_norm64(psi) - norm0) / norm0,
                      "weighted_two", n=n)


def _two_norm64(psi):
    return tensor_norm(psi.astype(np.complex128, copy=False), "two")
