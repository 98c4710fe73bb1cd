"""Series solutions and numerical oracles for radial wedge-channel flow.

The package solves the similarity boundary-value problems for the velocity
and temperature profiles of a conducting fluid driven through a convergent
channel under a transverse magnetic field.  It provides:

- ``polyalg``: exact sparse polynomial algebra with a single 1/eta tail;
- ``engine``: the staged perturbation machinery that assembles seed plus
  two corrections from auxiliary multipliers carrying free parameters;
- ``model``: the flow-specific operators, seeds, multipliers and residuals;
- ``fitting``: least-squares identification of the free parameters;
- ``oracle``: an independent Runge-Kutta shooting solver used as ground
  truth for the series;
- ``cases``: the eight bundled benchmark configurations and the published
  solution polynomials;
- ``tables``: digitized published comparison tables;
- ``report``: artifact writers (comparisons, plot data, table
  reproduction with a findings list, parameter sweeps);
- ``cli``: the ``jhflow`` command.
"""

from .cases import BETA, CASE_IDS, CaseDefinition, get_case, load_case
from .engine import StageSolution, run_stages
from .fitting import (
    FitResult,
    ObjectiveSpec,
    fit,
    thermal_objective_spec,
    velocity_objective_spec,
)
from .model import (
    MODE_PAPER,
    MODE_SCALE_CONSISTENT,
    FlowParams,
    residual_thermal,
    residual_velocity,
    thermal_solution,
    velocity_solution,
)
from .oracle import OracleSolution, shoot_thermal, shoot_velocity
from .polyalg import LaurentPoly

__version__ = "0.1.0"

__all__ = [
    "BETA",
    "CASE_IDS",
    "CaseDefinition",
    "FitResult",
    "FlowParams",
    "LaurentPoly",
    "MODE_PAPER",
    "MODE_SCALE_CONSISTENT",
    "ObjectiveSpec",
    "OracleSolution",
    "StageSolution",
    "fit",
    "get_case",
    "load_case",
    "residual_thermal",
    "residual_velocity",
    "run_stages",
    "shoot_thermal",
    "shoot_velocity",
    "thermal_objective_spec",
    "thermal_solution",
    "velocity_objective_spec",
    "velocity_solution",
    "__version__",
]
