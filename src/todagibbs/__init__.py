"""Toda-chain generalized Gibbs ensembles at desk scale.

Samplers for the random Lax matrices, a solver for the associated log-gas
equilibrium measures, the density of states obtained by pressure
differentiation, and the measure distances used to compare them.

Importing the package loads no submodule and no numpy: each public name is
imported from its module on first access (PEP 562), so the command line can
set the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# the module each public name is defined in
_SOURCES = {
    "potentials": ("Potential", "NonConfiningError"),
    "matrices": ("PeriodicJacobiMatrix", "EmpiricalSpectralMeasure", "InvalidMatrixError",
                 "eigenvalues", "trace_power", "trace_potential", "load_matrix"),
    "sampling": ("SeededStream", "VarianceProfile", "McmcReport",
                 "sample_toda_matrix", "sample_beta_matrix", "sample_profile_matrix",
                 "mcmc_toda", "integrated_autocorr_time", "replica_map"),
    "equilibrium": ("Grid", "GridDensity", "LogKernel", "EquilibriumSolution",
                    "build_log_kernel", "solve_equilibrium", "domain_auto",
                    "DomainTooSmallError", "NonConvergedError"),
    "dos": ("dos_from_equilibrium", "mixture_over_profile", "beta_mixture_check",
            "free_energy_relation_check", "nu_density_relation_check", "d_lipschitz_sweep",
            "fc_convexity_check"),
    "metrics": ("bl_bv_distance", "ks_distance", "log_energy_distance", "smooth_empirical"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # anything outside __all__ raises, so `from todagibbs import cli` still
    # falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
