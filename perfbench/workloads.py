"""The benchmark's workloads: CLI arguments, final-time jitter and tolerances.

Each repetition passes ``--T`` drawn from the seed within ``JITTER`` (5%)
of the nominal final time.  The step count is fixed, so the work stays the same
while no repetition can reuse another's exponentials.  ``tol`` bounds the
reported ``rel_error``; it is about 1.5x the largest value measured over
the jitter range when the benchmark was added.  ``smoke`` is a tiny
version of the same run for ``run.py --smoke``, at the nominal T, with a
tolerance of about 2x its measured error.  ``gemm`` gives the factor size, column
count and dtype of the workload's mode products, for the GEMM ceiling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.05


@dataclass(frozen=True)
class Case:
    argv: tuple
    T: float
    tol: float
    # Pass ``--tau T/tau_steps`` too, so a jittered T keeps the step count.
    tau_steps: int | None = None

    def cli_argv(self, T):
        argv = list(self.argv) + ["--T", repr(T)]
        if self.tau_steps is not None:
            argv += ["--tau", repr(T / self.tau_steps)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    full: Case
    smoke: Case
    gemm: tuple

    def final_times(self, seed):
        """Endless per-repetition final times, fixed by ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.full.T * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


WORKLOADS = {
    w.name: w
    for w in (
        # Seed rel_error 1.91e-4 .. 2.11e-4 over T = 0.95 .. 1.05.
        Workload(
            name="heat-n128",
            full=Case(("heat", "--n", "128", "--p", "2", "--steps", "40"), 1.0, 3e-4),
            smoke=Case(("heat", "--n", "16", "--p", "2", "--steps", "2"), 1.0, 2.5e-2),
            gemm=(128, 128 * 128, "float64"),
        ),
        # Seed rel_error 2.25e-5 .. 2.69e-5 over T = 0.95 .. 1.05.
        Workload(
            name="schrodinger-td-k20",
            full=Case(("schrodinger-td", "--k", "20", "--steps", "32", "--ref-steps", "256"),
                      1.0, 4e-5),
            smoke=Case(("schrodinger-td", "--k", "8", "--steps", "4", "--ref-steps", "16"),
                       1.0, 3e-3),
            gemm=(20, 20 * 20, "complex128"),
        ),
        # rel_error is the norm drift, round-off only (up to 7e-15 seen).
        Workload(
            name="gpe-n64",
            full=Case(("gpe", "--n", "64"), 5.0, 1e-13, tau_steps=50),
            smoke=Case(("gpe", "--n", "16"), 0.2, 1e-13, tau_steps=2),
            gemm=(64, 64 * 64, "complex128"),
        ),
        # The Arnoldi reference picks its Krylov sizes from T; its work
        # varies by +-2.5% over T = 3.8 .. 4.2.  Seed rel_error 1.1e-9 .. 1.3e-8.
        Workload(
            name="pipeflow-n96",
            full=Case(("pipeflow", "--n", "96"), 4.0, 2e-8),
            smoke=Case(("pipeflow", "--n", "16"), 4.0, 4e-12),
            gemm=(96, 96, "float64"),
        ),
    )
}
