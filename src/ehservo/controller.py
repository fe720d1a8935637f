"""Model-inverting tracking controller with fuzzy dead-zone compensation.

Provides the combined scalar tracking error, the coefficients of the reduced
third-order input/output model, the state-dependent input gain, the model-
inverting equivalent control, and the final voltage command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .plant import EPS_CAV, PlantParams, check_fields


@dataclass(frozen=True)
class ControllerParams:
    """Loop gains plus the controller's own copy of the plant parameters.

    The model is what the control law believes about the plant, dead zone
    aside. It has no default and is passed by keyword. The CLI sets it to the
    configured plant; a library caller may pass a mismatched copy, such as
    replace(plant, beta_e=7.5e8).
    """

    lam: float = 8.0      # p^2 + c1*p + c0 = (p + lam)^2, a double root [1/s]
    kappa: float = 1.0    # error feedback gain
    phi: float = 0.5      # adaptation rate
    model: PlantParams = field(kw_only=True)

    def __post_init__(self):
        check_fields(self, positive=("lam", "kappa", "phi"))
        # with lam > 0, the polynomial is Hurwitz iff c0 > 0; a finite c0 keeps c1 finite
        if not 0.0 < self.c0 < math.inf:
            raise ValueError(f"lam must have a positive, finite square, got {self.lam}")
        # the model's coefficients divide by Vt*Mt and the equivalent control by
        # the input gain, which is least where the pressure drop meets its floor
        m = self.model
        if m.Vt * m.Mt == 0.0:
            raise ValueError(f"Vt ({m.Vt}) times Mt ({m.Mt}) underflows to 0")
        b_floor = input_gain_b(0.0, 0.0, m.Ps * m.Ap / m.Mt, 1.0, m)
        if not b_floor > 0.0:
            raise ValueError(f"kv ({m.kv}) and the other constants give the model an input "
                             f"gain of {b_floor} at the pressure-drop floor, not a positive one")

    @property
    def c0(self) -> float:
        """Error-polynomial coefficient lam^2 [1/s^2]."""
        return self.lam * self.lam

    @property
    def c1(self) -> float:
        """Error-polynomial coefficient 2*lam [1/s]."""
        return 2.0 * self.lam


class ReferencePoint(NamedTuple):
    """Desired position and its first three time derivatives."""

    xd: float
    xd_dot: float
    xd_ddot: float
    xd_dddot: float


def model_coefficients(model: PlantParams) -> tuple[float, float, float]:
    """Coefficients (a0, a1, a2) of x''' = -a0*x - a1*x' - a2*x'' + b*(u - d(u))."""
    g = 4.0 * model.beta_e / (model.Vt * model.Mt)
    a0 = g * model.Ctp * model.K
    a1 = model.K / model.Mt + g * model.Ap * model.Ap + g * model.Ctp * model.Bp
    a2 = model.Bp / model.Mt + 4.0 * model.beta_e * model.Ctp / model.Vt
    return a0, a1, a2


def input_gain_b(
    x: float,
    x_dot: float,
    x_ddot: float,
    sign_u: float,
    model: PlantParams,
) -> float:
    """State-dependent input gain b [m/(s^3*V)], strictly positive.

    The load pressure is reconstructed from the measured state through the
    force balance. The pressure drop is floored at EPS_CAV, the same guard the
    plant flow model uses, which keeps the square root real and b > 0.

    sign_u is the sign of the voltage the gain is evaluated for; in a sampled
    loop the previous sample's sign is the standard stand-in.
    """
    load = (model.Mt * x_ddot + model.Bp * x_dot + model.K * x) / model.Ap
    drop = model.Ps - sign_u * load
    if drop < EPS_CAV:
        drop = EPS_CAV
    gain = 4.0 * model.beta_e * model.Ap / (model.Vt * model.Mt)
    return gain * model.Cd * model.w * model.kv * math.sqrt(drop / model.rho)


def combined_error(
    xerr: float,
    xerr_dot: float,
    xerr_ddot: float,
    cp: ControllerParams,
) -> float:
    """Scalar tracking error e = c0*xerr + c1*xerr' + xerr''."""
    return cp.c0 * xerr + cp.c1 * xerr_dot + xerr_ddot


def equivalent_control(
    x: float,
    x_dot: float,
    x_ddot: float,
    ref: ReferencePoint,
    a: tuple[float, float, float],
    b: float,
    cp: ControllerParams,
) -> float:
    """Feedforward voltage that would impose the target error dynamics.

    Inverts the reduced model: cancels the a-terms of the plant dynamics and
    injects the jerk reference minus the error-polynomial correction, all
    scaled by 1/b.
    """
    a0, a1, a2 = a
    num = (
        a0 * x
        + a1 * x_dot
        + a2 * x_ddot
        + ref.xd_dddot
        - cp.c1 * (x_ddot - ref.xd_ddot)
        - cp.c0 * (x_dot - ref.xd_dot)
    )
    return num / b


def control_law(u_hat: float, d_hat: float, e: float, cp: ControllerParams) -> float:
    """Voltage command: equivalent control plus dead-zone compensation minus error feedback."""
    return u_hat + d_hat - cp.kappa * e
