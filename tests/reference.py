"""Helpers of the closed-loop tests: the kernel replay, the nominal run and
the exact dead-zone inverse.

run's kernel inlines every layer over plain floats; sim.composed_run calls
each layer once per step instead, and is the one reference the kernel tests
hold run to: every SERIES column bit for bit, or the same BlowUpError message
at the same time.
"""

from unittest import mock

import numpy as np

from ehservo import (
    BlowUpError,
    ControllerParams,
    FuzzyEstimator,
    MonitorParams,
    PlantParams,
    Scenario,
    SimResult,
    input_gain_b,
    model_coefficients,
    run,
)
from ehservo import sim
from ehservo.sim import SERIES


def _outcome(loop, *args):
    try:
        return loop(*args), None
    except BlowUpError as err:
        return None, (str(err), err.time)


def assert_run_replays(sc: Scenario, plant: PlantParams, cp: ControllerParams,
                       est: FuzzyEstimator) -> SimResult | None:
    """Require run to equal sim.composed_run: every SERIES column bit for bit,
    or the same BlowUpError message at the same time.

    run must hand over to composed_run once on a blow-up and never on a run
    that completes: a kernel that went non-finite on every step would
    otherwise pass by comparing the composed loop with itself. Returns
    composed_run's result, or None when both blew up.
    """
    with mock.patch.object(sim, "composed_run", wraps=sim.composed_run) as handover:
        result, run_err = _outcome(run, sc, plant, cp, est)
    reference, reference_err = _outcome(sim.composed_run, sc, plant, cp, est)
    assert run_err == reference_err
    assert handover.call_count == (reference_err is not None)
    if reference is not None:
        for name in SERIES:
            differ = np.flatnonzero(getattr(result, name).view(np.uint64)
                                    != getattr(reference, name).view(np.uint64))
            assert differ.size == 0, f"{name} differs at {differ.size} samples, first {differ[0]}"
    return reference


def nominal_run(sc: Scenario, est: FuzzyEstimator = FuzzyEstimator(),
                monitor: MonitorParams = MonitorParams()) -> SimResult:
    """run on the default plant, which is also the controller's model."""
    plant = PlantParams()
    return run(sc, plant, ControllerParams(model=plant), est, monitor)


def exact_inverse(plant: PlantParams) -> tuple[FuzzyEstimator, ControllerParams]:
    """The estimator and controller of the exact dead-zone inverse of plant.

    Two rules at +/-1e-9 V hold the true edges, so d_hat is delta_r for an
    equivalent control above 1e-9 V and delta_l below -1e-9 V, and an
    adaptation rate of 1e-300 leaves them where they are.
    """
    return (FuzzyEstimator(centers=(-1e-9, 1e-9), d_hat=(plant.delta_l, plant.delta_r)),
            ControllerParams(phi=1e-300, model=plant))


def sampled_data_floor(sc: Scenario, cp: ControllerParams) -> float:
    """|e| that the zero-order hold leaves with the compensation exact.

    Within one control period the model term a1*x' drifts by up to
    a1*A*omega^2*dt_control, which the held voltage cannot follow, leaving
    |e| near a1*A*omega^2*dt_control/(2*b*kappa), with b the input gain at rest.
    """
    a1 = model_coefficients(cp.model)[1]
    return (a1 * sc.amplitude * sc.omega**2 * sc.dt_control
            / (2.0 * input_gain_b(0.0, 0.0, 0.0, 0.0, cp.model) * cp.kappa))
