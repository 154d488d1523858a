"""Mode-wise exponential integrator for evolution equations in Kronecker form.

The generator of the semidiscrete problem is stored as one small matrix per
tensor direction; its exponential is applied as one mode product per
direction, which is exact in time for linear constant-coefficient problems.
The package adds the discretizations (finite differences, Hermite
pseudospectral) and compositions (midpoint Magnus, Strang splitting) used by
the bundled benchmark problems, plus an Arnoldi baseline for verification.
"""

from .errors import (
    ConfigurationError,
    InvalidDirectionError,
    InvalidGridError,
    InvalidInputError,
    InvalidPotentialError,
    InvalidReferenceError,
    KronmodeError,
    NoConvergenceError,
    ShapeError,
)
from .fd import (
    BoundaryCondition,
    Grid1D,
    diff_matrix,
    fd_weights,
    gpe_weighted_factors,
    heat_factors,
    pipeflow_factors,
    sinh_clustered_grid,
    uniform_grid,
    uniform_periodic_grid,
)
from .hermite import (
    HermiteBasis,
    forward_transform,
    gauss_hermite,
    hamiltonian_factor,
    hermite_basis,
    hermite_eval,
    inverse_transform,
    potential_operator,
)
from .kron import KroneckerOp, PropagatorCache, matvec, prepare, step
from .krylov import arnoldi_expmv
from .linalg import matexp
from .problems import (
    RunReport,
    gpe_run,
    gpe_strang_step,
    heat3d_run,
    hkmp_run,
    hkp_run,
    magnus_midpoint_step,
    pipeflow_run,
    relative_error,
)
from .tensor import count_flops, mu_mode_product, norm, tucker

__version__ = "0.1.0"
