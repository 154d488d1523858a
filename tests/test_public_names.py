"""The package's public surface: a new or removed export is a visible edit here."""

import importlib
import pkgutil
import types

import kronmode

PUBLIC = [
    "BoundaryCondition", "ConfigurationError", "Grid1D", "HermiteBasis",
    "InvalidDirectionError", "InvalidGridError", "InvalidInputError", "InvalidPotentialError",
    "InvalidReferenceError", "KroneckerOp", "KronmodeError", "NoConvergenceError",
    "PropagatorCache", "RunReport", "ShapeError", "arnoldi_expmv", "count_flops", "diff_matrix",
    "fd_weights", "forward_transform", "gauss_hermite", "gpe_run", "gpe_strang_step",
    "gpe_weighted_factors", "hamiltonian_factor", "heat3d_run", "heat_factors", "hermite_basis",
    "hermite_eval", "hkmp_run", "hkp_run", "inverse_transform", "magnus_midpoint_step", "matexp",
    "matvec", "mu_mode_product", "norm", "pipeflow_factors", "pipeflow_run",
    "potential_operator", "prepare", "relative_error",
    "sinh_clustered_grid", "step", "tucker", "uniform_grid", "uniform_periodic_grid",
]

MODULES = [importlib.import_module(f"kronmode.{info.name}")
           for info in pkgutil.iter_modules(kronmode.__path__)]


def test_package_exports_are_pinned_and_every_all_entry_exists():
    public = sorted(name for name, obj in vars(kronmode).items()
                    if not name.startswith("_") and not isinstance(obj, types.ModuleType))
    assert public == PUBLIC
    missing = [f"{m.__name__}.{name}" for m in MODULES for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []


def test_test_oracles_live_outside_the_package():
    removed = ("assemble_full", "harmonic_eigenvalues", "OracleSizeError", "VortexProfile")
    found = [f"{m.__name__}.{name}" for m in [kronmode, *MODULES] for name in removed
             if hasattr(m, name)]
    assert found == []
