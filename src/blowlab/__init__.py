"""Numerical laboratory for stable self-similar blow-up of the radial
focusing wave equation psi_tt - Delta psi = |psi|^(p-1) psi, 1 < p <= 3.

The package evolves perturbations of the space-homogeneous blow-up
solution in similarity coordinates, analyzes the linearized generator's
spectrum through a hypergeometric quantization condition, isolates the
time-translation instability with a Riesz projection, and tunes the
blow-up time so perturbed data decay at the predicted rate.
"""

from .errors import (AmplitudeAbort, DegenerateFitError, DomainError,
                     NoSignChangeError, NonConvergenceError, OverflowAbort,
                     PerturbationTooLarge, SolverError, StepSizeError)
from .evolve import (OracleSample, Trajectory, TuneStep, decay_fit,
                     integrate, physical_oracle, stable_dtau, tune_T,
                     unstable_coefficient)
from .grid import Grid, bary_interp, build_grid
from .model import (DataPair, Params, RadialPair, U_map, avg_A, data_to_v,
                    energy_norm, nonlin_N, params_new, psi_T, psi_T_t,
                    reconstruct_field)
from .specfun import HypParams, hyp2f1, rgamma
from .spectral import (OperatorMatrices, ProjectionResult, SpectrumReport,
                       analytic_eigenvalues, assemble_L, discrete_eigenvalues,
                       eigenfunction_analytic, quantization_Q,
                       riesz_projection, symmetry_mode)

__version__ = "0.1.0"
