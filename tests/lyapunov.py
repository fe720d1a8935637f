"""The Lyapunov function of the control law, evaluated on a recorded run.

The stability argument bounds V = e^2/(2b) + |theta - theta*|^2/(2 phi), where
b is the input gain, theta the consequent vector of the fuzzy estimator and
theta* an ideal one. A SimResult records neither b nor theta, so both are
rebuilt from its own series with the layer functions the run called.
"""

import numpy as np

from ehservo import (ControllerParams, FuzzyEstimator, PlantParams, SimResult, acceleration,
                     adapt, input_gain_b, membership, sgn)


def ideal_consequents(centers, plant: PlantParams) -> np.ndarray:
    """theta*: the band edge each rule must compensate.

    delta_l for centres below zero and delta_r above; at the centre zero any
    value in [delta_l, delta_r] is admissible, and the midpoint is taken.
    """
    mid = 0.5 * (plant.delta_l + plant.delta_r)
    return np.array([plant.delta_l if c < 0.0 else plant.delta_r if c > 0.0 else mid
                     for c in centers])


def lyapunov_series(result: SimResult, est: FuzzyEstimator, plant: PlantParams,
                    cp: ControllerParams, dt_control: float) -> np.ndarray:
    """V at each control sample of an adaptive run of est on plant under cp.

    Row k's b is input_gain_b at row k's state with the sign of row k - 1's
    voltage, and its theta the consequents that adapt leaves after rows 0 to
    k - 1.
    """
    theta, thetas, gains, sign_prev = est.d_hat, [], [], 0.0
    for x, v, PL, u, uhat, e in zip(*(getattr(result, name).tolist()
                                      for name in ("x", "v", "PL", "u", "uhat", "e"))):
        thetas.append(theta)
        gains.append(input_gain_b(x, v, acceleration(x, v, PL, plant), sign_prev, cp.model))
        theta = adapt(theta, e, membership(uhat, est.centers), cp.phi, dt_control)
        sign_prev = sgn(u)
    gap = np.array(thetas) - ideal_consequents(est.centers, plant)
    return (result.e * result.e / (2.0 * np.array(gains))
            + np.sum(gap * gap, axis=1) / (2.0 * cp.phi))
