"""The closed loop of sim.run composed from the package's public functions.

run's kernel inlines every layer over plain floats. This loop calls each
layer once per step instead, and is the one reference the kernel tests hold
run to: every SERIES column bit for bit, or the same BlowUpError message at
the same time.
"""

import math
from dataclasses import dataclass

import numpy as np

from ehservo import (
    BlowUpError,
    ControllerParams,
    FuzzyEstimator,
    MonitorParams,
    PlantParams,
    Scenario,
    SimResult,
    acceleration,
    adapt,
    combined_error,
    control_law,
    dead_zone_d,
    equivalent_control,
    infer,
    input_gain_b,
    membership,
    model_coefficients,
    reference_at,
    rk4_step,
    run,
    sgn,
    supply_pressure,
)
from ehservo.sim import SERIES


@dataclass(frozen=True)
class Reference:
    """The series of one run, with the estimator and gain state behind them."""

    series: dict[str, np.ndarray]   # SERIES name -> column, one entry per step
    theta: np.ndarray               # consequents in force at each step, one row per step
    b: np.ndarray                   # input gain the controller used at each step


def reference_run(sc: Scenario, plant: PlantParams, cp: ControllerParams,
                  est: FuzzyEstimator) -> Reference:
    """run(sc, plant, cp, est), one public function call per layer and step.

    Raises BlowUpError where run does, with run's message and time.
    """
    a = model_coefficients(cp.model)
    mode = sc.supply_pressure_mode
    adaptive = not sc.freeze_adaptation
    rows, thetas, gains = [], [], []
    theta = est.d_hat
    x, v, PL = sc.x0, sc.v0, sc.pl0
    if mode == "varying" and not math.isfinite(plant.Ps * 1.2):
        raise BlowUpError(f"non-finite varying supply peak: ps*1.2 at ps={plant.Ps!r}")
    ps = supply_pressure(mode, x, plant.Ps)
    sign_prev = 0.0
    for k in range(sc.n_steps):
        t = k * sc.dt_control
        x_ddot = acceleration(x, v, PL, plant)
        xd, xd_dot, xd_ddot, xd_dddot = reference_at(t, sc.amplitude, sc.omega)
        xerr, xerr_dot, xerr_ddot = x - xd, v - xd_dot, x_ddot - xd_ddot
        e = combined_error(xerr, xerr_dot, xerr_ddot, cp)
        b = input_gain_b(x, v, x_ddot, sign_prev, cp.model)
        u_hat = equivalent_control(x, v, x_ddot, xerr_dot, xerr_ddot, xd_dddot, a, b, cp)
        if not math.isfinite(u_hat):
            raise BlowUpError(f"non-finite equivalent control at t={t:.6g} s", time=t)
        thetas.append(theta)
        gains.append(b)
        d_hat = 0.0
        if adaptive:
            psi = membership(u_hat, est.centers)
            d_hat = infer(theta, psi)
            theta = adapt(theta, e, psi, cp.phi, sc.dt_control)
        u = control_law(u_hat, d_hat, e, cp)
        rows.append((t, x, xd, xerr, v, PL, u, u_hat, dead_zone_d(u, plant),
                     d_hat, e, ps))
        sign_prev = sgn(u)
        try:
            for _ in range(sc.substeps):
                x, v, PL = rk4_step(x, v, PL, u, ps, sc.dt_plant, plant)
                ps = supply_pressure(mode, x, plant.Ps)
        except BlowUpError as err:
            raise BlowUpError(
                f"{err} (control period starting at t={t:.6g} s)", time=t
            ) from None
    series = dict(zip(SERIES, np.array(rows).T))
    return Reference(series, np.array(thetas), np.array(gains))


def _outcome(loop, *args):
    try:
        return loop(*args), None
    except BlowUpError as err:
        return None, (str(err), err.time)


def assert_run_replays(sc: Scenario, plant: PlantParams, cp: ControllerParams,
                       est: FuzzyEstimator, result: SimResult | None = None
                       ) -> Reference | None:
    """Require run to equal reference_run: every SERIES column bit for bit,
    or the same BlowUpError message at the same time.

    result, when given, is run's SimResult for these arguments, made already.
    Returns the reference, or None when both blew up.
    """
    reference, reference_err = _outcome(reference_run, sc, plant, cp, est)
    if result is None or reference_err is not None:
        result, run_err = _outcome(run, sc, plant, cp, est)
        assert run_err == reference_err
        if run_err is not None:
            return None
    for name in SERIES:
        got = getattr(result, name).view(np.uint64)
        differ = np.flatnonzero(got != reference.series[name].view(np.uint64))
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
