"""Numerical laboratory for level-set reduction of synchronized singular
bilinear forms: pushforward densities, one-dimensional truncation machinery,
sparse domination, and critical-regime analysis.
"""

from .benchmarks import baseline, load_baselines
from .errors import (ConfigError, CriticalValueError, EmptyIntersectionError,
                     GradientUndefinedError, InsufficientDecadesError,
                     LevelformError, LevelOutsideImageError,
                     NoClosedFormError, NoParametrizationError,
                     OdeBlowUpError, PhaseNotUniformError,
                     PointOutsideDomainError, ResolutionError,
                     SparseDominationError, UnsupportedPhaseError)
from .geometry import (Domain, GammaProfile, Phase, ReparamTable, ball,
                       ball_volume, boundary_reparam_phase,
                       boundary_transversality, box, check_gamma_profile,
                       critical_values, custom_phase,
                       design_reparametrization, eval_phase, grad_phase,
                       image_interval, linear_phase,
                       oscillatory_phase, radial_power_phase,
                       radial_quadratic_phase, saddle_phase, sphere_area)
from .kernels import (HARD, RESIDUAL, SMOOTH, Cutoff, GridFunction1D,
                      HkPackageReport, Kernel1D,
                      bump_mixture, eps_ladder, hard_truncation,
                      hilbert_kernel, hl_maximal, linear_ramp_cutoff,
                      residual_truncation, smooth_truncation,
                      smoothed_dini_constant, smoothstep_cutoff,
                      truncation_batch, verify_hk_package)
from .pushforward import (CLOSED_FORM, COAREA, MONTE_CARLO, DensityEstimate,
                          LevelFunction, LevelGrid, RadialFunction,
                          critical_exponent, density_on_grid, fiber_norm,
                          weighted_density, weighted_density_coarea,
                          weighted_density_closed_form,
                          weighted_density_monte_carlo)
from .reduction import (ATOMIC_REGIME, LOG_REGIME, POWER_REGIME,
                        UNIFORM_REGIME, CriticalProfile, Estimate,
                        IntegrabilityScan,
                        PullbackReport, ReductionReport, SynchronizedForm,
                        UniformReport, WindowVerdict,
                        critical_window, density_supremum, estimate_beta,
                        function_norm, integrability_scan, lhs_direct,
                        pullback_norm, random_smooth_function,
                        uniform_bound_check, verify_reduction_identity,
                        window_verdict)
from .sampling import derived_rng, sample_domain, sample_domain_pairs
from .sparse import (DyadicInterval, SparseFamily, build_sparse_greedy,
                     domination_ratio, family_from_json_dict,
                     family_to_json_dict, sparse_form, verify_sparsity)

__version__ = "0.1.0"
