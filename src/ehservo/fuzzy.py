"""Zero-order Takagi-Sugeno estimator of the dead-zone compensation voltage.

Single scalar input (the equivalent control), N singleton consequents updated
online by a gradient-style law. The membership basis is a full-overlap set of
triangular hats with trapezoidal shoulders at both extremes, so the normalized
firing strengths sum to one everywhere and at most two of them are nonzero.

The consequent tuple theta is the estimator's whole state: FuzzyEstimator
validates the grid and the initial consequents once, and infer and adapt read
and return theta; sim.run's loop moves the consequents of the rules it infers from.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

DEFAULT_CENTERS = (-0.50, -0.10, -0.05, 0.00, 0.05, 0.10, 0.50)


@dataclass(frozen=True)
class FuzzyEstimator:
    """Membership center grid [V] plus the initial consequents d_hat [V].

    A single consequent seeds every rule, so the default starts at zero.
    """

    centers: tuple[float, ...] = DEFAULT_CENTERS
    d_hat: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        centers = tuple(float(c) for c in self.centers)
        d_hat = tuple(float(d) for d in self.d_hat)
        if len(d_hat) == 1:
            d_hat *= len(centers)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "d_hat", d_hat)
        if len(centers) < 2:
            raise ValueError(f"centers needs at least 2 entries, got {len(centers)}")
        if any(not math.isfinite(c) for c in centers):
            raise ValueError("centers must all be finite")
        if any(lo >= hi for lo, hi in zip(centers, centers[1:])):
            raise ValueError(f"centers must be strictly increasing, got {centers}")
        # membership divides by each gap: an overflowed one stops interpolating
        if any(not math.isfinite(hi - lo) for lo, hi in zip(centers, centers[1:])):
            raise ValueError(f"centers must have finite neighbour gaps, got {centers}")
        if len(d_hat) != len(centers):
            raise ValueError(
                f"d_hat length {len(d_hat)} does not match {len(centers)} centers"
            )
        if any(not math.isfinite(d) for d in d_hat):
            raise ValueError("d_hat must all be finite")


def membership(u_hat: float, centers: Sequence[float]) -> tuple[float, ...]:
    """Normalized firing strengths of every rule at input u_hat.

    Left of the first center and right of the last, the shoulder rule fires
    alone at strength one; between two neighboring centers the strengths
    interpolate linearly, summing to one.
    """
    if not math.isfinite(u_hat):
        raise ValueError(f"membership input must be finite, got {u_hat}")
    n = len(centers)
    psi = [0.0] * n
    if u_hat <= centers[0]:
        psi[0] = 1.0
    elif u_hat >= centers[n - 1]:
        psi[n - 1] = 1.0
    else:
        i = bisect_right(centers, u_hat) - 1
        frac = (u_hat - centers[i]) / (centers[i + 1] - centers[i])
        psi[i] = 1.0 - frac
        psi[i + 1] = frac
    return tuple(psi)


def infer(theta: Sequence[float], psi: Sequence[float]) -> float:
    """Estimated compensation voltage: the firing rules' consequents weighted by
    their strengths. An idle rule adds nothing, even an overflowed consequent."""
    return sum(d * w for d, w in zip(theta, psi, strict=True) if w != 0.0)


def adapt(
    theta: Sequence[float],
    e: float,
    psi: Sequence[float],
    phi: float,
    dt: float,
) -> tuple[float, ...]:
    """One forward-Euler step of the consequent update, rate phi, period dt.

    Returns the new consequent tuple; rules that did not fire keep their
    consequent bit-for-bit, and a zero step keeps every value (a zero may flip sign).
    """
    if not phi > 0.0:
        raise ValueError(f"adaptation rate phi must be strictly positive, got {phi}")
    if not dt > 0.0:
        raise ValueError(f"update period dt must be strictly positive, got {dt}")
    step = phi * e * dt
    return tuple(d if w == 0.0 else d - step * w
                 for d, w in zip(theta, psi, strict=True))
