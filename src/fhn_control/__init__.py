"""Numerical toolkit for optimal control of the stochastic
FitzHugh-Nagumo system with a recovery variable.

The package simulates the controlled voltage/recovery dynamics on
Neumann grids, solves the dual backward sweep (the exact transpose along
every path, averaged over the ensemble), and finds open-loop optimal
controls through a regularized fixed-point iteration on the adjoint
feedback map.
"""

__version__ = "0.1.0"

from .errors import BlowUpError, ConfigurationError, ContractViolation
from .grid import (
    Grid,
    StateX,
    inner_h,
    inner_l2,
    neumann_eigenmode,
    neumann_laplacian,
    norm_h_sq,
    norm_l2_sq,
    norm_v_sq,
)
from .noise import SpectralCovariance, sample_increment, sample_path, trace_q
from .dynamics import FhnParams, a_apply, f_apply, i_ion, one_sided_margin
from .forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    energy_report,
    integrate,
    integrate_ensemble,
    load_snapshot,
    save_snapshot,
)
from .adjoint import (
    AdjointPath,
    duality_gap,
    solve_adjoint_deterministic,
    solve_adjoint_regression,
    solve_variational,
)
from .control import (
    CostSpec,
    OptimizeReport,
    Problem,
    contraction_margin,
    gradient,
    optimize,
    psi_estimate,
)
from .scenario import Scenario, load_scenario, save_scenario
from .harness import RunRecord, run

__all__ = [
    "__version__",
    "BlowUpError",
    "ConfigurationError",
    "ContractViolation",
    "Grid",
    "StateX",
    "inner_h",
    "inner_l2",
    "neumann_eigenmode",
    "neumann_laplacian",
    "norm_h_sq",
    "norm_l2_sq",
    "norm_v_sq",
    "SpectralCovariance",
    "sample_increment",
    "sample_path",
    "trace_q",
    "FhnParams",
    "a_apply",
    "f_apply",
    "i_ion",
    "one_sided_margin",
    "ActuatorSpec",
    "ControlPath",
    "TimeGrid",
    "energy_report",
    "integrate",
    "integrate_ensemble",
    "load_snapshot",
    "save_snapshot",
    "AdjointPath",
    "duality_gap",
    "solve_adjoint_deterministic",
    "solve_adjoint_regression",
    "solve_variational",
    "CostSpec",
    "OptimizeReport",
    "Problem",
    "contraction_margin",
    "gradient",
    "optimize",
    "psi_estimate",
    "Scenario",
    "load_scenario",
    "save_scenario",
    "RunRecord",
    "run",
]
