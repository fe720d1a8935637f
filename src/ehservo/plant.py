"""Physical model of the valve-controlled hydraulic actuator.

Three-state ground truth: piston position x [m], velocity v [m/s] and load
pressure PL [Pa]. The functions here take that state, and the held voltage u
and supply pressure ps, as plain floats, the way sim.run's kernel holds them.
The control voltage maps through the valve dead zone to an effective spool
displacement, the spool meters flow through the orifice equation against ps,
and the flow feeds the pressure/force balance on the piston.

plant_derivatives writes that right-hand side once, over dead_zone_output,
load_flow and acceleration. The RK4 stages of sim.run are its one copy, and
the tests pin that copy to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Ps: float = 7.0e6        # nominal supply pressure [Pa]
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
        check_fields(
            self,
            positive=("Ps", "rho", "Cd", "w", "Ap", "beta_e", "Vt", "Mt", "kv"),
            non_negative=("Ctp", "Bp", "K"),
            finite=("delta_l", "delta_r"),
        )
        if not self.delta_l < 0.0:
            raise ValueError(f"delta_l must be strictly negative, got {self.delta_l}")
        if not self.delta_r > 0.0:
            raise ValueError(f"delta_r must be strictly positive, got {self.delta_r}")


def check_fields(obj, finite=(), positive=(), non_negative=()) -> None:
    """Raise ValueError naming the first numeric field of obj that breaks its rule.

    Every named field must be finite; those in positive must also be > 0, and
    those in non_negative >= 0. The parameter dataclasses validate through it.
    """
    for name in (*finite, *positive, *non_negative):
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")
    for name in positive:
        if not getattr(obj, name) > 0.0:
            raise ValueError(f"{name} must be strictly positive, got {getattr(obj, name)}")
    for name in non_negative:
        if getattr(obj, name) < 0.0:
            raise ValueError(f"{name} must be non-negative, got {getattr(obj, name)}")


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


def load_flow(x_sp: float, PL: float, ps: float, p: PlantParams) -> float:
    """Flow [m^3/s] delivered to the actuator at spool displacement x_sp.

    Square-root orifice law on the drop ps - sgn(x_sp)*PL from the held supply
    ps. The drop is floored at EPS_CAV so the radicand stays positive when |PL|
    transiently approaches ps; a centered spool passes exactly zero flow.
    """
    if not (math.isfinite(x_sp) and math.isfinite(PL)):
        raise ValueError(f"load_flow requires finite inputs, got x_sp={x_sp}, PL={PL}")
    if x_sp == 0.0:
        return 0.0
    drop = ps - PL if x_sp > 0.0 else ps + PL
    if drop < EPS_CAV:
        drop = EPS_CAV
    return p.Cd * p.w * x_sp * math.sqrt(drop / p.rho)


def plant_derivatives(x: float, v: float, PL: float, u: float, ps: float,
                      p: PlantParams) -> tuple[float, float, float]:
    """Time derivatives (dx/dt, dv/dt, dPL/dt) of x, v, PL under held u and ps.

    The plant's one written right-hand side: the spool displacement through
    the dead zone, its flow through load_flow against ps, the force balance of
    acceleration and the continuity equation of the chamber pressure. The RK4
    stages of sim.run are its only copy, which the tests replay against it.
    Raises BlowUpError on a non-finite state or spool displacement.
    """
    if not (math.isfinite(x) and math.isfinite(v) and math.isfinite(PL)):
        raise BlowUpError(f"non-finite plant state: x={x}, v={v}, PL={PL}")
    x_sp = dead_zone_output(u, p)
    if not math.isfinite(x_sp):
        raise BlowUpError(f"non-finite spool displacement: x_sp={x_sp} at u={u}")
    QL = load_flow(x_sp, PL, ps, p)
    return v, acceleration(x, v, PL, p), 4.0 * p.beta_e / p.Vt * (QL - p.Ap * v - p.Ctp * PL)


def acceleration(x: float, v: float, PL: float, p: PlantParams) -> float:
    """Piston acceleration [m/s^2] from the force balance at state x, v, PL.

    This is the signal the controller reads as the measured acceleration, and
    the velocity derivative of plant_derivatives: the spool does not enter it.
    """
    return (p.Ap * PL - p.Bp * v - p.K * x) / p.Mt
