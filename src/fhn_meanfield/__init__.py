"""Strongly coupled FitzHugh-Nagumo toolkit.

Simulates the n-neuron stochastic network, solves the self-consistent
mean-field density equation, integrates the strong-coupling limit system,
classifies its bifurcations, and quantifies the predicted Gaussian
concentration of the ensemble law as the coupling grows.
"""

__version__ = "0.1.0"

from .bifurcation import (BifurcationReport, CycleDetectionError, LimitCycle,
                          classify, detect_limit_cycle, discriminant, trace_at)
from .core import (BlowUpError, EnsembleState, InitCondition, ModelParams,
                   cubic, nonlinearity, sample_initial, voltage_drift)
from .diagnostics import (ProfileComparison, compare, log_density_profile,
                          viscosity_residual)
from .fokker_planck import (DensityField, Grid, first_moment, fp_step,
                            gaussian_field, hopf_cole, solve)
from .limit_ode import (LimitState, LimitTrajectory, equilibria, limit_rhs,
                        rk4_integrate)
from .particle import (Moments, NoiseStream, SimConfig, TrajectoryRecord,
                       em_step, empirical_moments, quantiles, simulate)

__all__ = [
    "__version__",
    "BifurcationReport", "BlowUpError", "CycleDetectionError", "DensityField",
    "EnsembleState", "Grid", "InitCondition", "LimitCycle", "LimitState",
    "LimitTrajectory", "ModelParams", "Moments", "NoiseStream",
    "ProfileComparison", "SimConfig", "TrajectoryRecord",
    "classify", "compare", "cubic", "detect_limit_cycle", "discriminant",
    "em_step", "empirical_moments", "equilibria", "first_moment", "fp_step",
    "gaussian_field", "hopf_cole", "limit_rhs", "log_density_profile",
    "nonlinearity", "quantiles", "rk4_integrate", "sample_initial",
    "simulate", "solve", "trace_at", "viscosity_residual", "voltage_drift",
]
