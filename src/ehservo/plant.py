"""Physical model of the valve-controlled hydraulic actuator.

Three-state ground truth: piston position x [m], velocity v [m/s] and load
pressure PL [Pa]. The control voltage maps through the valve dead zone to an
effective spool displacement, the spool meters flow through the orifice
equation, and the flow feeds the pressure/force balance on the piston.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Floor for the orifice-equation radicand [Pa]. Keeps the square root real
# when a transient pushes |PL| up toward the supply pressure.
EPS_CAV = 1.0e3


class BlowUpError(RuntimeError):
    """The simulation state left the finite range (numerical blow-up)."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True, slots=True)
class PlantParams:
    """Physical constants of the valve/cylinder/load assembly (SI units).

    Defaults describe a 250 kg mass-spring-damper load driven by a symmetric
    cylinder through a closed-center proportional valve whose spool overlap
    produces a dead band of [-1.1 V, 0.9 V] on the control voltage.
    """

    Ps: float = 7.0e6        # supply pressure [Pa]
    rho: float = 850.0       # fluid density [kg/m^3]
    Cd: float = 0.6          # discharge coefficient [-]
    w: float = 2.5e-2        # orifice area gradient [m]
    Ap: float = 3.0e-4       # ram area [m^2]
    Ctp: float = 2.0e-12     # total leakage coefficient [m^3/(s*Pa)]
    beta_e: float = 7.0e8    # effective bulk modulus [Pa]
    Vt: float = 6.0e-5       # total volume under compression [m^3]
    Mt: float = 250.0        # total mass of piston and load [kg]
    Bp: float = 100.0        # viscous damping [N*s/m]
    K: float = 75.0          # load spring constant [N/m]
    delta_l: float = -1.1    # left dead-zone edge [V]
    delta_r: float = 0.9     # right dead-zone edge [V]
    kv: float = 2.0e-6       # valve gain [m/V]

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("Ps", "rho", "Cd", "w", "Ap", "beta_e", "Vt", "Mt", "kv"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")
        for name in ("Ctp", "Bp", "K"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.delta_l < 0.0:
            raise ValueError(f"delta_l must be strictly negative, got {self.delta_l}")
        if not self.delta_r > 0.0:
            raise ValueError(f"delta_r must be strictly positive, got {self.delta_r}")


@dataclass(frozen=True, slots=True)
class PlantState:
    """Instantaneous state: position [m], velocity [m/s], load pressure [Pa]."""

    x: float = 0.0
    v: float = 0.0
    PL: float = 0.0


def sgn(z: float) -> float:
    """Three-valued sign, with sgn(0) = 0."""
    if z > 0.0:
        return 1.0
    if z < 0.0:
        return -1.0
    return 0.0


def dead_zone_output(u: float, p: PlantParams) -> float:
    """Effective spool displacement [m] for control voltage u [V].

    Inside the overlap band (delta_l, delta_r) the ports stay blocked and the
    output is zero; outside, displacement grows proportionally to the distance
    from the nearest band edge. Continuous and non-decreasing in u. A NaN
    voltage gives a NaN displacement, which the integrator reports as a
    blow-up.
    """
    return p.kv * (u - dead_zone_d(u, p))


def dead_zone_d(u: float, p: PlantParams) -> float:
    """Voltage absorbed by the dead zone, so that x_sp = kv*(u - d(u)).

    Saturates at the band edges: delta_l below the band, delta_r above, and
    equals u itself inside, where the valve passes no flow at all.
    """
    if u <= p.delta_l:
        return p.delta_l
    if u >= p.delta_r:
        return p.delta_r
    return u


def load_flow(x_sp: float, PL: float, p: PlantParams) -> float:
    """Flow [m^3/s] delivered to the actuator at spool displacement x_sp.

    Square-root orifice law on the pressure drop Ps - sgn(x_sp)*PL. The drop
    is floored at EPS_CAV so the radicand stays positive when |PL| transiently
    approaches Ps; a centered spool passes exactly zero flow.
    """
    if not (math.isfinite(x_sp) and math.isfinite(PL)):
        raise ValueError(f"load_flow requires finite inputs, got x_sp={x_sp}, PL={PL}")
    if x_sp == 0.0:
        return 0.0
    drop = p.Ps - PL if x_sp > 0.0 else p.Ps + PL
    if drop < EPS_CAV:
        drop = EPS_CAV
    return p.Cd * p.w * x_sp * math.sqrt(drop / p.rho)


def rhs_constants(p: PlantParams) -> tuple[float, ...]:
    """Constants of plant_rhs, formed once per parameter set.

    (Cd*w, rho, Ap, Bp, K, Mt, 4*beta_e/Vt, Ctp): each product is the one the
    equations form first, left to right, so hoisting it changes no bit.
    """
    return (p.Cd * p.w, p.rho, p.Ap, p.Bp, p.K, p.Mt, 4.0 * p.beta_e / p.Vt, p.Ctp)


def plant_rhs(
    x: float,
    v: float,
    PL: float,
    x_sp: float,
    Ps: float,
    c: tuple[float, ...],
) -> tuple[float, float, float]:
    """Time derivatives (dx/dt, dv/dt, dPL/dt) at spool displacement x_sp.

    The one written form of the plant's right-hand side, over plain floats:
    Ps is the supply pressure in force and c comes from rhs_constants. The
    flow term is load_flow's orifice law; dv/dt is the force balance, which
    does not depend on the spool. Raises BlowUpError on a non-finite state.
    """
    # one call for a finite state; the sum alone could overflow on finite parts
    if not math.isfinite(x + v + PL) and not (
        math.isfinite(x) and math.isfinite(v) and math.isfinite(PL)
    ):
        raise BlowUpError(f"non-finite plant state: x={x}, v={v}, PL={PL}")
    cdw, rho, Ap, Bp, K, Mt, g, Ctp = c
    if x_sp == 0.0:
        QL = 0.0
    else:
        drop = Ps - PL if x_sp > 0.0 else Ps + PL
        if drop < EPS_CAV:
            drop = EPS_CAV
        QL = cdw * x_sp * math.sqrt(drop / rho)
    return v, (Ap * PL - Bp * v - K * x) / Mt, g * (QL - Ap * v - Ctp * PL)


def plant_derivatives(s: PlantState, u: float, p: PlantParams) -> tuple[float, float, float]:
    """Time derivatives (dx/dt, dv/dt, dPL/dt) under held control voltage u."""
    return plant_rhs(s.x, s.v, s.PL, dead_zone_output(u, p), p.Ps, rhs_constants(p))


def acceleration(s: PlantState, p: PlantParams) -> float:
    """Piston acceleration [m/s^2] from the force balance.

    This is the signal the controller reads as the measured acceleration: the
    velocity derivative of plant_rhs, which the spool does not enter.
    """
    return plant_rhs(s.x, s.v, s.PL, 0.0, p.Ps, rhs_constants(p))[1]
