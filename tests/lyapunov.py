"""The Lyapunov function of the control law, evaluated on a recorded run.

The stability argument bounds V = e^2/(2b) + |theta - theta*|^2/(2 phi), where
b is the input gain, theta the consequent vector of the fuzzy estimator and
theta* an ideal one. A SimResult records neither b nor theta, so both come
from the reference loop of the run (tests/reference.py), which the caller
holds run to bit for bit.
"""

import numpy as np

from ehservo import PlantParams
from reference import Reference


def ideal_consequents(centers, plant: PlantParams) -> np.ndarray:
    """theta*: the band edge each rule must compensate.

    delta_l for centres below zero and delta_r above; at the centre zero any
    value in [delta_l, delta_r] is admissible, and the midpoint is taken.
    """
    mid = 0.5 * (plant.delta_l + plant.delta_r)
    return np.array([plant.delta_l if c < 0.0 else plant.delta_r if c > 0.0 else mid
                     for c in centers])


def lyapunov_series(reference: Reference, centers, plant: PlantParams,
                    phi: float) -> np.ndarray:
    """V at each control sample of a run replayed by reference, whose
    estimator ran on the membership grid centers."""
    gap = reference.theta - ideal_consequents(centers, plant)
    e = reference.series["e"]
    return e * e / (2.0 * reference.b) + np.sum(gap * gap, axis=1) / (2.0 * phi)
