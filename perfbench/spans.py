"""Span tracing of kronmode's public functions, installed from outside.

Every public function of every kronmode module is replaced, in each module
that holds it by name (``problems.step``, ``kron.matexp``,
``tensor.mu_mode_product`` ...), by a wrapper that records a span: name,
start, end and the index of the enclosing span.  Calls inside one module go
through the module globals too, so they are traced as well.  The wrappers
only call through, so the traced program computes exactly what the untraced
one does.

Spans are kept in memory; :func:`summarize` turns them into per-layer
metrics.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "linalg", "kron", "krylov", "fd", "hermite", "problems", "cli")


class Tracer:
    """Records spans in call order; not thread-safe (kronmode runs one thread)."""

    def __init__(self):
        # [name, start, end, parent index, attrs]
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        # Mode products also record their work, from the call's arguments.
        signature = inspect.signature(fn) if name == "tensor.mu_mode_product" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if signature is not None:
                attrs = _mode_product_attrs(**signature.bind(*args, **kwargs).arguments)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            record = [name, 0.0, 0.0, parent, attrs]
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        return traced


def _mode_product_attrs(u, mat, mu):
    # Same multiply-add formula as kronmode.tensor.count_flops; bytes are
    # computed from the operand sizes (input, matrix, output) in the result
    # dtype, not measured.
    u = np.asarray(u)
    mat = np.asarray(mat)
    out_dtype = np.result_type(u.dtype, mat.dtype)
    n_mu = u.shape[mu - 1]
    fibers = u.size // n_mu
    m = mat.shape[0]
    return {
        "mu": int(mu),
        "macs": m * n_mu * fibers,
        "bytes": out_dtype.itemsize * (u.size + mat.size + m * fibers),
        "complex": out_dtype.kind == "c",
    }


def install(tracer):
    """Wrap every public kronmode function at every module that holds it.

    Any module attribute bound to a public kronmode function is replaced,
    private aliases included, so calls through them are traced too.
    """
    modules = [importlib.import_module("kronmode")]
    modules += [importlib.import_module(f"kronmode.{layer}") for layer in LAYERS]
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("kronmode.") or layer not in LAYERS:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(obj, f"{layer}.{obj.__name__}")
            setattr(module, attr, wrappers[id(obj)])


# Span name -> metric bucket.  Names not listed fall into the layer's
# bucket; layers without a bucket count as uncovered.
_BUCKETS = {
    "tensor.mu_mode_product": "tensor.mode_product",
    "tensor.tucker": "tensor.tucker",
    "linalg.matexp": "linalg.matexp",
    "kron.prepare": "kron.prepare",
    "kron.step": "kron.step",
    "kron.matvec": "kron.matvec",
    "krylov.arnoldi_expmv": "krylov.arnoldi_expmv",
    "hermite.forward_transform": "hermite.transform",
    "hermite.inverse_transform": "hermite.transform",
    "problems.gpe_strang_step": "problems.strang_step",
}
_LAYER_BUCKETS = {
    "fd": "fd.factors",
    "hermite": "hermite.basis",
    "problems": "problems.driver",
    "cli": "cli.main",
}
# Buckets whose time is reported; their sum over the run is the coverage.
_TIMED = {
    "tensor.mode_product": "tensor.mode_product.self_s",
    "tensor.tucker": "tensor.tucker.self_s",
    "linalg.matexp": "linalg.matexp.self_s",
    "kron.prepare": "kron.prepare.self_s",
    "kron.step": "kron.step.self_s",
    "kron.matvec": "kron.matvec.self_s",
    "krylov.arnoldi_expmv": "krylov.arnoldi_expmv.self_s",
    "fd.factors": "fd.factors.s",
    "hermite.basis": "hermite.basis.s",
    "hermite.transform": "hermite.transform.self_s",
    "problems.strang_step": "problems.strang_step.self_s",
    "problems.driver": "problems.driver.self_s",
    "cli.main": "cli.main.self_s",
}
_COUNTED = {
    "tensor.mode_product": "tensor.mode_product.calls",
    "linalg.matexp": "linalg.matexp.calls",
    "kron.step": "kron.step.calls",
    "kron.matvec": "kron.matvec.calls",
}


def _bucket(name):
    if name in _BUCKETS:
        return _BUCKETS[name]
    layer = name.partition(".")[0]
    return _LAYER_BUCKETS.get(layer, f"other.{name}")


def summarize(spans, run_s):
    """Per-layer metrics of one traced run whose timed call took ``run_s``."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start

    metrics = {key: 0.0 for key in _TIMED.values()}
    metrics.update({key: 0 for key in _COUNTED.values()})
    per_mu = {1: 0.0, 2: 0.0, 3: 0.0}
    macs = 0
    flops = 0
    nbytes = 0
    for (name, _, _, _, attrs), own in zip(spans, self_s):
        bucket = _bucket(name)
        if bucket in _TIMED:
            metrics[_TIMED[bucket]] += own
        if bucket in _COUNTED:
            metrics[_COUNTED[bucket]] += 1
        if attrs is not None:
            per_mu[attrs["mu"]] = per_mu.get(attrs["mu"], 0.0) + own
            macs += attrs["macs"]
            flops += attrs["macs"] * (8 if attrs["complex"] else 2)
            nbytes += attrs["bytes"]

    covered = sum(metrics[key] for key in _TIMED.values())
    mode_s = metrics["tensor.mode_product.self_s"]
    metrics.update({
        "tensor.mode_product.macs": macs,
        "tensor.mode_product.bytes": nbytes,
        "tensor.mode_product.gflops": flops / mode_s / 1e9 if mode_s > 0 else 0.0,
        "tensor.mode_product.mu1.self_s": per_mu[1],
        "tensor.mode_product.mu2.self_s": per_mu[2],
        "tensor.mode_product.mu3.self_s": per_mu[3],
        "trace.coverage": covered / run_s,
    })
    return metrics
