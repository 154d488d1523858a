"""End-to-end drivers for the benchmark problems.

Five problem families: a periodic 3D heat equation with a closed-form
reference, a 2D pipe diffusion-advection model checked against a scaled
Taylor series on the same Kronecker-sum action, linear Schrodinger
equations with time-independent and time-dependent potentials in the
Hermite basis, and the cubic nonlinear Schrodinger (Gross-Pitaevskii)
equation with Strang splitting.

Every driver supplies its initial state, generator and reference to one run
path (:class:`_Run`), which casts to the requested precision, advances the
state by one of three compositions in one stepping loop -- the exact
propagator (:meth:`_Run.exact`), the exponential midpoint rule
(:func:`magnus_midpoint_step`, both Schrodinger problems through
:func:`hermite_solve`) or Strang splitting (:func:`gpe_strang_step`) --
and returns a :class:`RunReport` with the phase timing split into matrix
exponentials, mode products and the rest.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, InvalidReferenceError, ShapeError, _check_count
from .errors import _check_finite
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
    hermite_eval,
    inverse_transform,
    potential_operator,
)
from .kron import KroneckerOp, _advance, _cast, _exponentials, _step_entries, prepare
from .krylov import _expmv_reference
from .tensor import norm as tensor_norm
from .tensor import _along, count_flops, tucker

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
    validates the precision and the time grid (``steps``, ``0 < T < inf``).  The
    driver's work runs in :meth:`timed`, whose wall time splits into matrix
    exponentials, mode products (spectral transforms included) and the
    rest.  :meth:`report` runs after it, so the reference solve is not timed.
    """

    def __init__(self, precision, T, steps):
        if precision not in ("double", "single"):
            raise ConfigurationError(f"unknown precision {precision!r}")
        self.precision = precision
        self.dtype = np.float32 if precision == "single" else np.float64
        _check_count("steps", steps)
        _check_time("final time", T)
        self.steps, self.tau = steps, T / steps

    @contextmanager
    def timed(self):
        """Time the block and tally its kernels (see :func:`kronmode.tensor.count_flops`)."""
        start = time.perf_counter()
        with count_flops() as self.tally:
            yield
        self.total = time.perf_counter() - start

    def exact(self, op, u0):
        """``u0``, cast to the run's precision, advanced over the grid by ``exp(t*op)``.

        The stepping loop owns the cast (see :func:`kronmode.kron._advance`):
        in double precision that is ``u0`` itself, which the caller reads no
        more once the products overwrite it.  The steps are those of
        :func:`kronmode.kron.step`: over two or more, each direction that
        :func:`kronmode.kron.prepare` folds is stepped as its two half-size
        blocks.
        """
        return _advance(_step_entries(prepare(op, self.tau, self.dtype), self.steps),
                        _cast(u0, self.dtype))

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


def _check_time(name, value):
    """Reject a time that is not positive and finite (:class:`ConfigurationError`)."""
    if not 0 < value < math.inf:
        raise ConfigurationError(f"the {name} must be positive and finite, got {value!r}")


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
    return _relative_error(u, ref, norm_kind)


def _relative_error(u, ref, norm_kind, out=None):
    """:func:`relative_error` of two arrays of one shape, its difference written to ``out``.

    ``out`` may be ``ref`` itself, whose norm is taken first.
    """
    denom = tensor_norm(ref, norm_kind)
    if denom == 0.0:
        raise InvalidReferenceError("reference tensor has zero norm")
    return tensor_norm(np.subtract(u, ref, out=out), norm_kind) / denom


# ---------------------------------------------------------------------------
# Heat equation on [0, 2*pi)^3 with periodic boundary conditions.


def heat3d_run(n=40, p=2, T=1.0, steps=1, norm_kind="max", precision="double"):
    """Propagate ``u0 = cos x1 + cos x2 + cos x3`` and compare with the PDE solution.

    The reported relative error is against ``exp(-T) u0`` sampled on the
    grid.  The modal error is uniform over the grid, so the value does not
    depend on the norm choice.

    Working memory, counted in full states (``n**3`` doubles): the setup
    builds ``u0`` in Fortran order, one state.  The run holds two, at any
    step count: ``u0``, handed to the stepping as the first of the two buffers
    its products write in turn, and the second one.  After the run the
    reference ``exp(-T) u0`` is built again in the buffer that does not hold
    the result (a new array if that is the second one, which the run has
    freed), and the error check holds two too: it takes the reference's
    norm, then writes the difference over the reference.  In single
    precision the stepping's two buffers are the cast copy of ``u0`` and one
    more, half a state each, and the reference goes into ``u0``.
    """
    _check_count("n", n, minimum=8)
    run = _Run(precision, T, steps)
    with run.timed():
        op = heat_factors(n, p)  # before the state, so a bad order allocates none
        cos = np.cos(uniform_periodic_grid(0.0, 2 * np.pi, n).points)
        planes = cos[:, None, None] + cos[None, :, None]
        u0 = np.add(planes, cos[None, None, :], order="F")
        u = run.exact(op, u0)
    # Nothing reads u0 after the run (in double precision the products have
    # overwritten it), so the reference goes into it unless the result is there.
    ref = np.add(planes, cos[None, None, :], out=None if np.may_share_memory(u, u0) else u0,
                 order="F")
    ref *= np.exp(-T)
    return run.report("heat", u, lambda u: _relative_error(u, ref, norm_kind, out=ref),
                      norm_kind, n=n, p=float(p))


# ---------------------------------------------------------------------------
# Pipe flow: 2D diffusion-advection with space-dependent coefficients.


def pipeflow_run(n=32, T=4.0, steps=1, norm_kind="max", precision="double"):
    """Propagate a Gaussian blob through the pipe model.

    The reference is ``exp(T*M) c0`` on the same discretization by a
    truncated Taylor series with scaling, which sees the generator only
    through its matrix-free action (see :mod:`kronmode.krylov`), accurate
    to about 1e-14; so the reported error is that of the integrator.  The
    reference runs after the timed block: it is outside ``total_s`` and the
    phase timings, but inside the wall time of a CLI call, where it takes
    most of it.  The run hands the initial state ``c0`` over to the stepping,
    so the reference starts from ``c0`` built again.
    """
    _check_count("n", n, minimum=16)
    run = _Run(precision, T, steps)
    with run.timed():
        grids = pipeflow_grids(n)
        op = pipeflow_factors(n)
        c = run.exact(op, _blob(*grids))
    return run.report(
        "pipeflow", c,
        lambda c: relative_error(c, _expmv_reference(op, _blob(*grids), T), norm_kind),
        norm_kind, n=n,
    )


def _blob(rho_grid, z_grid):
    """The initial state of :func:`pipeflow_run`, a Gaussian blob in Fortran order."""
    return np.asfortranarray(
        np.exp(-8.0 * (rho_grid.points - (0.1 + 5.0) / 2.0) ** 2)[:, None]
        * np.exp(-8.0 * (z_grid.points - 3.0 / 2.0) ** 2)[None, :]
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


# The wavepacket as two rank-one terms: c (x1 e1 e2 e3 + i e1 x2 e2 e3), with
# c and e(x) = exp(-x^2/4) as in schrodinger_initial_state.
_WAVEPACKET_COEFFS = 2.0**-2.5 * np.pi**-0.75 * np.array([1.0, 1j])


def _wavepacket_columns(mu, x):
    """Direction ``mu`` (from 0) of the wavepacket's two terms at ``x``: a ``len(x) x 2`` array.

    Column r holds ``x e(x)`` where term r carries the coordinate (term 0 in
    direction 0, term 1 in direction 1), else ``e(x)``.
    """
    e = np.exp(-(x**2) / 4)
    return np.stack([x * e if mu == r else e for r in range(2)], axis=1)


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
    _check_count("k", k, minimum=2)
    _check_count("steps", steps)
    _check_finite("final time", T)
    basis = hermite_basis(k)
    coeffs0 = forward_transform((basis,) * 3, schrodinger_initial_state((basis.nodes,) * 3))
    coeffs = magnus_midpoint_step(factors_of(basis), _cast(coeffs0, dtype), 0.0, T / steps,
                                  steps=steps)
    return basis, coeffs0, coeffs


def _hermite_run(problem, k, T, steps, factors_of, ref, norm_kind, precision):
    """Run path of both Schrodinger drivers.

    The error compares values at the k-point nodes with those of the
    :func:`hermite_solve` with ``ref = (k_ref, ref_steps)`` at the same nodes,
    computed by :func:`_rank_two_reference` after the timed block;
    ``ref=None`` skips it (error nan).  The transforms and the reference run
    in double precision; a single-precision run casts the coefficients for
    the steps.
    """
    run = _Run(precision, T, steps)
    with run.timed():
        basis, _, coeffs = hermite_solve(k, factors_of, T, steps, run.dtype)
        values = inverse_transform((basis,) * 3, coeffs.astype(np.complex128, copy=False))

    def error(values):
        ref_values = _rank_two_reference(ref[0], factors_of, T, ref[1], basis.nodes)
        return relative_error(values, ref_values, norm_kind)

    return run.report(problem, values, None if ref is None else error, norm_kind, k=k)


def _rank_two_reference(k, factors_of, T, steps, points):
    """:func:`hermite_solve`'s solution with ``k`` functions and ``steps`` steps, at ``points``.

    The values on the tensor grid of ``points``, Fortran-ordered complex128.
    The transform, every step and the evaluation act direction by direction,
    so each of the wavepacket's two rank-one terms stays rank one: per
    direction a ``k x 2`` matrix of both terms' coefficients takes them as
    1-D products, the steps' exponentials from :func:`_midpoint_exponentials`.
    Only the sum of the two outer products is 3-D.  No mode product runs, so
    :func:`kronmode.tensor.count_flops` counts none of this work.
    """
    basis = hermite_basis(k)
    terms = [(basis.phi * basis.mod_weights) @ _wavepacket_columns(mu, basis.nodes)
             for mu in range(3)]
    for exps in _midpoint_exponentials(factors_of(basis), 0.0, T / steps, steps,
                                      np.complex128, len(terms)):
        terms = [e[:, None] * v if e.ndim == 1 else e @ v for e, v in zip(exps, terms)]
    at_points = hermite_eval(k, points).T
    return np.einsum("r,ir,jr,kr->ijk", _WAVEPACKET_COEFFS, *(at_points @ v for v in terms),
                     order="F")


def hkp_run(k=40, T=1.0, k_ref=120, norm_kind="max", precision="double"):
    """Hermite pseudospectral run of the time-independent problem in one exact step.

    The reference has ``k_ref`` functions per direction, ``None`` skips it; see
    :func:`_hermite_run`.  It propagates the wavepacket's two rank-one terms
    direction by direction, so it holds no ``k_ref^3`` tensor: at k=40,
    k_ref=120 it takes about 9 ms and 3 MB (0.2 s and 84 MB through the
    whole tensor).
    """
    _check_count("k", k, minimum=8)
    if k_ref is not None:
        _check_count("k_ref", k_ref, minimum=k)
    return _hermite_run("schrodinger-ti", k, T, 1, ti_factors,
                        None if k_ref is None else (k_ref, 1), norm_kind, precision)


def magnus_midpoint_step(factors_of_t, u, t, tau, steps=1):
    """Exponential midpoint rule for a time-dependent Kronecker-sum generator.

    Advances ``u' = M(t) u`` from t to ``t + steps*tau``, each step with the
    generator frozen at the interval midpoint,
    ``u <- exp(tau * M(t_s + tau/2)) u``; second order in tau, and identical
    to the exact propagator when M is constant, whose stepping loop it runs.
    ``factors_of_t(t)`` returns the factors of M(t), one square matrix per
    direction of ``u``.  ``u`` is not modified: the first step runs out of
    place, and the stepping loop owns its result (see
    :func:`kronmode.kron._advance`), so the call holds at most two states
    beside ``u``.  A non-finite ``t`` or ``tau`` is rejected
    (:class:`ConfigurationError`); a zero or negative ``tau`` is not.

    Factor reuse: a factor is exponentiated only when ``factors_of_t``
    returns an array object that it did not return at the previous midpoint
    of the call, and then once even if it serves several directions, so
    static factors returned as the same objects (as by :func:`hkmp_factors`)
    are exponentiated, and checked for shape and finiteness, once per call.
    An exactly diagonal factor gets the vector of its exponential's diagonal
    and is applied as a scaling (see :func:`kronmode.tensor.tucker`).  The
    factors of a block of midpoints are fetched, and exponentiated together,
    before the block's first step (see :func:`_midpoint_exponentials`).  A
    single-precision ``u`` gets its exponentials cast to single precision,
    as :func:`kronmode.kron.prepare` casts them.  A counter armed by
    :func:`kronmode.tensor.count_flops` tallies the seconds of the
    exponentials (``exp_s``) and of the products (``mode_s``).
    """
    _check_count("steps", steps)
    _check_finite("time", t)
    _check_finite("step", tau)
    u = np.asarray(u)
    exps_per_step = _midpoint_exponentials(factors_of_t, t, tau, steps, u.dtype, u.ndim)
    return _advance(exps_per_step, tucker(u, next(exps_per_step)))


# The midpoints are exponentiated in blocks, each closed once its factors
# hold this many entries: 14 midpoints of td's three 20x20 factors at k=20.
# Its 256 reference exponentials took 5.5 ms in blocks of 14 on one thread,
# 10 ms in one stack of 256 and 25 ms one at a time.
_EXP_BLOCK = 16384


def _midpoint_exponentials(factors_of_t, t, tau, steps, dtype, d):
    """The exponentials of each of ``steps`` midpoint steps of ``tau`` from ``t``.

    Step s yields ``exp(tau*a)`` of every factor ``a`` of
    ``factors_of_t(t + (s + 1/2) tau)``, cast to ``dtype``, with the factor
    reuse that :func:`magnus_midpoint_step` describes.  The factors of a
    block of midpoints are fetched, each midpoint's checked to be ``d``
    factors (else :class:`ShapeError`, before the next midpoint is
    fetched), and then exponentiated in one :func:`kronmode.kron._exponentials`
    call.
    """
    known = None  # the exponentials of the latest midpoint, by factor id
    s = 0
    while s < steps:
        block, entries = [], 0
        while s < steps and entries < _EXP_BLOCK:
            factors = tuple(factors_of_t(t + (s + 0.5) * tau))
            if len(factors) != d:
                raise ShapeError(f"expected {d} factors at step {s}, got {len(factors)}")
            block.append(factors)
            entries += sum(np.size(a) for a in factors)
            s += 1
        exps, known = _exponentials(tau, block, dtype, known)
        yield from exps


def hkmp_factors(basis):
    """Coefficient-space generator of the driven-oscillator problem, as a function of t.

    The function returns the three factors at time t.  Directions 1 and 2
    are plain harmonic; direction 3 adds the coordinate operator scaled by
    ``sin(t)^2``.  The static factors are built once per basis, so every
    call returns the same arrays for them.
    """
    d_harm = np.diag(np.arange(basis.k) + 0.5)
    a_static = -1j * d_harm
    x_op = potential_operator(basis, lambda x: x)
    return lambda t: (a_static, a_static, -1j * (d_harm + np.sin(t) ** 2 * x_op))


def hkmp_run(k=20, T=1.0, steps=32, ref_steps=2048, norm_kind="max", precision="double"):
    """Benchmark run of the time-dependent problem.

    The reference takes ``ref_steps`` steps at the same spatial resolution,
    isolating the time error; ``None`` skips it.  See :func:`_hermite_run`.
    Each of its steps is one k x k exponential (direction 3), exponentiated
    with those of the other midpoints of its block, and 1-D products of two
    columns per direction: at k=20 and 256 steps, about 10 ms on one
    thread, 6.5 ms of it the exponentials (19 blocks).
    """
    _check_count("k", k, minimum=8)
    if ref_steps is not None:
        _check_count("ref_steps", ref_steps)
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

    One grid on ``[-20, 20]``, clustered toward the vortex region, and one
    factor object serve all three directions, so :func:`kronmode.kron.prepare`
    exponentiates once.  The factor is ``i`` times the symmetrized
    half-Laplacian factor, acting on the weighted variables ``W^(1/2) psi``.
    """
    grid = sinh_clustered_grid(n)
    sym_op, weights = gpe_weighted_factors((grid,))
    a = 1j * sym_op.factors[0]
    return (grid,) * 3, KroneckerOp((a, a, a)), weights * 3


# The nonlinear flow runs over blocks of whole slabs of the last direction,
# as many as fit in this many entries (at least one): at n=64 blocks of 4096
# entries hold 0.04 states; 16384 rotate 13-30% faster but hold 0.15.
_FLOW_BLOCK = 4096


def _nonlinear_flow(weights, shape, dtype):
    """``flow(psi, h)``: in place, ``psi <- psi exp(i h/2 (1 - |psi|^2/w))``.

    ``w`` is the outer product of ``weights``, one vector per direction of
    the Fortran-ordered ``psi`` of ``shape`` (else :class:`ShapeError`) and
    complex ``dtype``.  The flow leaves ``|psi|`` unchanged, so flows of
    lengths h1 and h2 make one of length h1 + h2.  Each block of whole slabs
    of the last direction, contiguous in ``psi``, takes ``h/(4w)`` in
    double, then in the real dtype (cast into a block buffer in single
    precision), and the half phase
    ``phi/2 = h/4 (1 - |psi|^2/w)``: with ``t = tan(phi/2)`` (numpy
    vectorizes float64 ``tan``, not ``sin`` and ``cos``) and
    ``q = 2/(1 + t^2)``, ``exp(i phi) = q - 1 + i t q``.
    """
    if [np.shape(v) for v in weights] != [(n,) for n in shape]:
        raise ShapeError(f"the weight vectors do not match state shape {shape}")
    slab = math.prod(shape[:-1])
    lead = tucker(np.ones(shape[:-1]), weights[:-1]).ravel(order="F")
    per_block = max(1, _FLOW_BLOCK // max(slab, 1))
    w = np.empty(per_block * slab)
    phase, spare = np.empty((2, w.size), np.finfo(dtype).dtype)
    factor = np.empty(w.size, dtype)
    cast = phase.dtype != w.dtype  # single precision

    def flow(psi, h):
        flat = psi.reshape(-1, order="F")  # a view: psi is Fortran-ordered
        for k in range(0, shape[-1], per_block):
            p = flat[k * slab : (k + per_block) * slab]
            inv, ph, q, f = w[: p.size], phase[: p.size], spare[: p.size], factor[: p.size]
            for j, wk in enumerate(weights[-1][k : k + per_block]):  # no broadcast buffer
                np.multiply(lead, wk, out=inv[j * slab : (j + 1) * slab])
            np.divide(0.25 * h, inv, out=inv)
            np.square(p.real, out=ph)
            np.square(p.imag, out=q)
            ph += q
            if cast:  # h/(4w) into q, which is free now: no copy of the block
                np.copyto(q, inv, casting="same_kind")
            ph *= q if cast else inv
            np.subtract(0.25 * h, ph, out=ph)
            np.tan(ph, out=ph)
            np.square(ph, out=q)
            q += 1.0
            np.divide(2.0, q, out=q)
            ph *= q
            q -= 1.0
            f.real, f.imag = q, ph
            p *= f

    return flow


def gpe_strang_step(linear_cache, weights, psi, steps=1):
    """``steps`` Strang steps of length ``linear_cache.tau`` in the weighted variables.

    Each step is a half step of the exact pointwise nonlinear flow
    (:func:`_nonlinear_flow`), a full linear step via the mode-wise
    propagator and a half step of the nonlinear flow again.  The closing
    half step of one step and the opening one of the next are merged into
    one full nonlinear step, which is exact up to rounding because the flow
    leaves ``|psi|`` unchanged.  The result keeps the precision of ``psi``
    and the cache; ``psi`` itself is not modified: the loop owns a copy of
    it.  The stepping loop's two buffers, the copy and a spare, take the
    linear steps' products in turn (see :func:`kronmode.kron._advance`), and
    the result is a view of one of them.  With the caller's ``psi`` the call
    holds three complex states and the nonlinear flow's blocks.
    """
    _check_count("steps", steps)
    psi = np.asarray(psi)
    if psi.shape != linear_cache.shape:
        raise ShapeError(f"state shape {psi.shape} does not match cache shape {linear_cache.shape}")
    dtype = np.result_type(psi, np.complex64, *linear_cache.exps)
    return _strang(linear_cache, weights, psi.astype(dtype, order="F"), steps)


def _strang(linear_cache, weights, psi, steps):
    """The loop of :func:`gpe_strang_step`, which owns ``psi``.

    ``psi`` is Fortran-ordered and has the loop's complex dtype: the opening
    half step rotates it in place, and the stepping loop then owns it (see
    :func:`kronmode.kron._advance`).
    """
    flow = _nonlinear_flow(weights, psi.shape, psi.dtype)
    tau = linear_cache.tau
    flow(psi, 0.5 * tau)
    return _advance(repeat(linear_cache.exps, steps), psi,
                    lambda psi, s: flow(psi, tau if s < steps - 1 else 0.5 * tau))


def gpe_run(n=32, T=2.5, tau=0.1, precision="double"):
    """Strang-split vortex-pair evolution.

    ``tau`` is the nominal step: the run takes ``steps = max(1, round(T / tau))``
    equal steps of ``T / steps``.
    The reported ``error`` field is the relative drift of the conserved
    weighted two-norm over the whole run (the two-norm of the weighted
    variables), so values near machine precision indicate a healthy run.
    Both norms are accumulated in double precision, also in a
    single-precision run.

    The Strang loop owns the initial state, which nothing reads after the
    loop starts (see :func:`gpe_strang_step`): the loop holds two complex
    states and the nonlinear flow's blocks (2.05 states traced at n=64).
    """
    _check_count("n", n, minimum=16)
    _check_time("final time", T)
    _check_time("step size", tau)
    if not math.isfinite(T / tau):
        raise ConfigurationError(f"T / tau overflows: T = {T!r}, tau = {tau!r}")
    run = _Run(precision, T, max(1, round(T / tau)))
    with run.timed():
        grids, linear_op, weights = gpe_setup(n)
        psi = vortex_pair_state(grids)
        # In place, one direction at a time: tucker's one multiply by the
        # product of the weights would change the last bits.
        for ax, w in enumerate(weights):
            psi *= _along(ax, np.sqrt(w), psi.ndim)
        psi = _cast(psi, run.dtype)
        cache = prepare(linear_op, run.tau, psi.dtype)
        norm0 = _two_norm64(psi)
        psi = _strang(cache, weights, psi, run.steps)
    return run.report("gpe", psi, lambda psi: abs(_two_norm64(psi) - norm0) / norm0,
                      "weighted_two", n=n)


def _two_norm64(psi):
    return tensor_norm(psi.astype(np.complex128, copy=False), "two")
