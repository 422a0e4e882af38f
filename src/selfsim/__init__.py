"""Numerical toolkit for self-similar profiles of the supercritical
semilinear heat equation: profiles, Gaussian-weighted functionals, entropy,
linearized spectra, closed-form singular energies, and the rescaled flow."""

from .core import (ParameterError, Parameters, RadialProfile, SelfsimError,
                   constant_profile, default_grid, make_params,
                   singular_profile, tabulated_profile)
from .shooting import (OdeTrajectory, find_brackets, integrate_radial,
                       ode_residual, scan_initial_values, shoot)
from .functionals import (EntropyResult, FunctionalReport, density, energy,
                          entropy, f_functional, identities)
from .variations import (Variation, first_variation, gaussian_bump,
                         general_second_variation_fd, lambda_field,
                         random_variations, second_variation,
                         stability_report)
from .spectrum import (EigenResult, SectorOperator, apply_L, build_sector,
                       eigen_smallest, first_eigenfunction, rayleigh_quotient)
from .flow import (FlowConfig, FlowReport, FlowState, blowup_criterion,
                   entropy_perturbation_experiment, init_flow, run, step)
from .closedform import (GapScanRow, gap_inequality, gap_scan, kappa_energy,
                         phi_diagnostics, singular_energy, sphere_constant)

__version__ = "0.1.0"
