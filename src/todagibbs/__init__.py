"""Toda-chain generalized Gibbs ensembles at desk scale.

Samplers for the random Lax matrices, a solver for the associated log-gas
equilibrium measures, the density of states obtained by pressure
differentiation, and the measure distances used to compare them.
"""

__version__ = "0.1.0"

from .equilibrium import (DomainTooSmallError, EquilibriumSolution, Grid,
                          GridDensity, LogKernel, NonConvergedError,
                          build_log_kernel, domain_auto, free_energy,
                          solve_equilibrium)
from .dos import (DosResult, DosStepError, beta_mixture_check,
                  d_lipschitz_sweep, dos_from_equilibrium, fc_convexity_check,
                  free_energy_relation_check, mixture_over_profile,
                  nu_density_relation_check)
from .matrices import (EmpiricalSpectralMeasure, InvalidMatrixError,
                       PeriodicJacobiMatrix, eigenvalues, load_matrix,
                       trace_potential, trace_power)
from .metrics import (bl_bv_distance, ks_distance, log_energy_distance,
                      smooth_empirical)
from .potentials import NonConfiningError, Potential
from .sampling import (McmcReport, SeededStream, VarianceProfile,
                       integrated_autocorr_time, mcmc_toda, replica_map,
                       sample_beta_matrix, sample_profile_matrix,
                       sample_toda_matrix)

__all__ = [
    "__version__",
    "Potential", "NonConfiningError",
    "PeriodicJacobiMatrix", "EmpiricalSpectralMeasure", "InvalidMatrixError",
    "eigenvalues", "trace_power", "trace_potential", "load_matrix",
    "SeededStream", "VarianceProfile", "McmcReport",
    "sample_toda_matrix", "sample_beta_matrix", "sample_profile_matrix",
    "mcmc_toda",
    "integrated_autocorr_time", "replica_map",
    "Grid", "GridDensity", "LogKernel", "EquilibriumSolution",
    "build_log_kernel", "free_energy", "solve_equilibrium", "domain_auto",
    "DomainTooSmallError", "NonConvergedError",
    "DosResult", "DosStepError", "dos_from_equilibrium", "mixture_over_profile",
    "beta_mixture_check", "free_energy_relation_check",
    "nu_density_relation_check", "d_lipschitz_sweep", "fc_convexity_check",
    "bl_bv_distance", "ks_distance", "log_energy_distance", "smooth_empirical",
]
