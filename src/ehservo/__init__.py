"""Closed-loop simulation of a valve-controlled hydraulic actuator.

A dead zone in the valve voltage is compensated online by a zero-order
Takagi-Sugeno estimator inside a model-inverting tracking controller. The
package provides the physical plant model, the controller, the adaptive
estimator, a deterministic multirate executor and a scenario-running CLI.
"""

from .controller import (
    ControllerParams,
    combined_error,
    control_law,
    equivalent_control,
    input_gain_b,
    model_coefficients,
)
from .fuzzy import DEFAULT_CENTERS, FuzzyEstimator, adapt, infer, membership
from .plant import (
    EPS_CAV,
    BlowUpError,
    PlantParams,
    acceleration,
    dead_zone_d,
    dead_zone_output,
    load_flow,
    plant_derivatives,
    sgn,
)
from .sim import (
    MonitorParams,
    MonitorReport,
    Scenario,
    SimMetrics,
    SimResult,
    reference_at,
    rk4_step,
    run,
    supply_pressure,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ControllerParams",
    "DEFAULT_CENTERS",
    "EPS_CAV",
    "FuzzyEstimator",
    "MonitorParams",
    "MonitorReport",
    "PlantParams",
    "Scenario",
    "SimMetrics",
    "SimResult",
    "acceleration",
    "adapt",
    "combined_error",
    "control_law",
    "dead_zone_d",
    "dead_zone_output",
    "equivalent_control",
    "infer",
    "input_gain_b",
    "load_flow",
    "membership",
    "model_coefficients",
    "plant_derivatives",
    "reference_at",
    "rk4_step",
    "run",
    "sgn",
    "supply_pressure",
]
