"""Property tests over random inputs: the fuzzy basis, the consequent update,
the dead-zone decomposition, one RK4 step of a linear plant, the closed loop
against its public layer functions, the finiteness of a completed run, the
plant's jerk against the controller's model and the config round trip.

Every test is derandomized with a bounded number of examples, so the suite
stays deterministic and quick.
"""

import math
import struct
import sys
from dataclasses import astuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, matrix_balance

from ehservo import (
    BlowUpError,
    ControllerParams,
    FuzzyEstimator,
    PlantParams,
    Scenario,
    acceleration,
    adapt,
    dead_zone_d,
    dead_zone_output,
    input_gain_b,
    membership,
    model_coefficients,
    plant_derivatives,
    rk4_step,
    run,
    sgn,
)
from ehservo.cli import config_dump, parse_kv, resolve_config
from ehservo.sim import SERIES, SUPPLY_MODES
from reference import assert_run_replays

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# membership grids of a voltage estimator: 2 to 9 strictly increasing centers
grids = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=2, max_size=9, unique=True
).map(lambda values: tuple(sorted(values)))
finite = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-6, 1e3, allow_nan=False)


@PROPERTY
@given(grids, finite)
def test_membership_is_a_partition_of_unity(centers, u_hat):
    psi = membership(u_hat, centers)
    assert sum(psi) == 1.0
    assert all(w >= 0.0 for w in psi)
    fired = [i for i, w in enumerate(psi) if w != 0.0]
    assert len(fired) in (1, 2)
    assert fired[-1] - fired[0] <= 1


@PROPERTY
@given(grids.flatmap(lambda c: st.tuples(
    st.just(c), st.lists(st.floats(-10.0, 10.0), min_size=len(c), max_size=len(c)))),
    finite, finite, positive, positive)
# a -0.0 consequent beside a rule that fires, with a negative step
@example(((-1.0, 0.0, 1.0), [-0.0, 0.0, 0.0]), 0.5, -1.0, 0.5, 0.0025)
def test_adapt_keeps_rules_that_did_not_fire(grid, u_hat, e, phi, dt):
    centers, d_hat = grid
    psi = membership(u_hat, centers)
    out = adapt(d_hat, e, psi, phi, dt)
    for w, before, after in zip(psi, d_hat, out, strict=True):
        if w == 0.0:
            assert _bits(after) == _bits(before)


@PROPERTY
@given(
    st.floats(-5.0, -1e-6), st.floats(1e-6, 5.0), st.floats(1e-9, 1e-3),
    st.floats(allow_nan=False),
)
@example(-1.1, 0.9, 2e-6, -0.0)
@example(-1.1, 0.9, 2e-6, -1.1)
@example(-1.1, 0.9, 2e-6, 0.9)
@example(-1.1, 0.9, 2e-6, math.inf)
@example(-1.1, 0.9, 1e-5, -1.1000000001)
@example(-1.1, 0.9, 1e-5, 0.8999999999)
def test_dead_zone_identity(delta_l, delta_r, kv, u):
    p = PlantParams(delta_l=delta_l, delta_r=delta_r, kv=kv)
    x_sp = dead_zone_output(u, p)
    assert _bits(x_sp) == _bits(p.kv * (u - dead_zone_d(u, p)))
    # the piecewise form: closed inside the band, linear from the nearest edge
    if u <= delta_l:
        piecewise = kv * (u - delta_l)
    elif u >= delta_r:
        piecewise = kv * (u - delta_r)
    else:
        piecewise = 0.0
    assert _bits(x_sp) == _bits(piecewise)


# PlantParams fields of the linear part, each drawn at 10**k times its default
LINEAR_FIELDS = ("Ap", "Ctp", "beta_e", "Vt", "Mt", "Bp", "K")


def linear_plant_matrix(p):
    """A of s' = A s, the plant with its spool shut: u inside the dead band."""
    g = 4.0 * p.beta_e / p.Vt
    return np.array([
        [0.0, 1.0, 0.0],
        [-p.K / p.Mt, -p.Bp / p.Mt, p.Ap / p.Mt],
        [0.0, -g * p.Ap, -g * p.Ctp],
    ])


@PROPERTY
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=len(LINEAR_FIELDS), max_size=len(LINEAR_FIELDS)),
    st.floats(1e-3, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1e7, 1e7),
)
def test_rk4_step_of_a_linear_plant(exponents, h_rho, x, v, PL):
    # u = 0 lies inside the dead band, so the spool is shut and the plant is
    # exactly s' = A s; the supply pressure is far out of reach of the clamp
    base = PlantParams()
    p = PlantParams(Ps=1e30, **{
        name: getattr(base, name) * 10.0**k for name, k in zip(LINEAR_FIELDS, exponents)
    })
    A = linear_plant_matrix(p)
    dt = h_rho / max(abs(np.linalg.eigvals(A)))
    s0 = np.array([x, v, PL])
    got = np.array(rk4_step(x, v, PL, 0.0, p.Ps, dt, p))

    # on a linear system one RK4 step is the degree-4 Taylor polynomial of expm(A dt)
    hA = dt * A
    term = taylor = np.eye(3)
    for k in range(1, 5):
        term = term @ hA / k
        taylor = taylor + term
    assert np.all(np.abs(got - taylor @ s0) <= 1e-13 * (np.abs(taylor) @ np.abs(s0)))

    # its distance from the exact flow is fifth order in h*rho(A), measured in
    # balanced coordinates, where position, velocity and pressure are comparable
    _, (scale, _) = matrix_balance(A, permute=False, separate=True)
    err = np.abs((got - expm(hA) @ s0) / scale).max()
    assert err <= (0.1 * h_rho**5 + 1e-13) * np.abs(s0 / scale).max()


# PlantParams fields scaled by 10**k: the pressure dynamics (Ps, kv, beta_e,
# Vt) reach the clamp and the EPS_CAV floor; the load sets how fast x moves
PLANT_FIELDS = ("Ps", "kv", "beta_e", "Vt", "Mt", "Ap", "Bp", "K", "Ctp")
plants = st.lists(
    st.floats(-1.0, 1.0), min_size=len(PLANT_FIELDS), max_size=len(PLANT_FIELDS)
).map(lambda ks: PlantParams(**{
    name: getattr(PlantParams(), name) * 10.0**k for name, k in zip(PLANT_FIELDS, ks)
}))


@PROPERTY
@given(
    plants, st.sampled_from(SUPPLY_MODES), st.booleans(),
    st.floats(-0.5, 0.5), st.floats(-1.0, 1.0), st.floats(-1.5, 1.5), st.floats(0.1, 20.0),
    positive,
)
# a consequent overflows at t = 0 and blows the run up once its rule fires
@example(PlantParams(), "constant", False, 100.0, 0.0, 0.0, 0.1, 1e308)
# the varying supply's peak 1.2*Ps overflows: both loops refuse it at t = 0
@example(PlantParams(Ps=1.6e308), "varying", False, 0.0, 0.0, 0.0, 0.1, 0.5)
def test_run_equals_its_layer_functions(plant, mode, frozen, x, v, PL_ratio, omega, phi):
    # run's fused kernel against the reference loop of the public functions
    # it inlines: the same rows bit for bit, or the same BlowUpError message
    # at the same time.
    # The initial load pressure reaches past the supply pressure, so the
    # first substeps hit the clamp, and with the spool opening toward it the
    # orifice drop falls to the floor.
    cp = ControllerParams(phi=phi, model=plant)
    sc = Scenario(
        duration=0.25, omega=omega, supply_pressure_mode=mode, freeze_adaptation=frozen,
        x0=x, v0=v, pl0=PL_ratio * plant.Ps,
    )
    assert_run_replays(sc, plant, cp, FuzzyEstimator())


# dead-zone edge magnitudes, from the smallest float up to 1e300 V
edges = st.floats(0.0, 1e300, exclude_min=True)


@PROPERTY
@given(
    st.floats(1.0, 1e308) | st.floats(1e308, sys.float_info.max),
    edges, edges, st.floats(-2.0, 2.0), st.sampled_from(SUPPLY_MODES), st.booleans(),
)
# 1.6e308*(1 + 0.2*sin 1) overflows the starting supply: the run blows up at t = 0
@example(1.6e308, 1e300, 1e300, 1.0, "varying", False)
def test_completed_run_is_finite(ps, left, right, x0, mode, frozen):
    # a run blows up, or completes with every series and metric finite
    plant = PlantParams(Ps=ps, delta_l=-left, delta_r=right)
    sc = Scenario(duration=0.05, supply_pressure_mode=mode, freeze_adaptation=frozen, x0=x0)
    try:
        res = run(sc, plant, ControllerParams(model=plant), FuzzyEstimator())
    except BlowUpError:
        return
    for name in SERIES:
        assert np.all(np.isfinite(getattr(res, name))), name
    assert all(map(math.isfinite, astuple(res.metrics))), res.metrics


@PROPERTY
@given(plants, st.floats(-0.5, 0.5), st.floats(-0.1, 0.1), st.floats(-0.9, 0.9),
       st.floats(-5.0, 5.0))
def test_plant_jerk_is_the_controller_model(p, x, v, PL_ratio, u):
    # the controller's reduced model x''' = -a0 x - a1 x' - a2 x'' + b (u - d(u))
    # is the jerk of plant_derivatives, away from the EPS_CAV floor (|PL| <= 0.9 Ps);
    # the gap is measured against the largest term, since the terms cancel
    PL = PL_ratio * p.Ps
    dx, dv, dPL = plant_derivatives(x, v, PL, u, p.Ps, p)
    jerk = (p.Ap * dPL - p.Bp * dv - p.K * dx) / p.Mt
    a0, a1, a2 = model_coefficients(p)
    acc = acceleration(x, v, PL, p)
    terms = (-a0 * x, -a1 * v, -a2 * acc,
             input_gain_b(x, v, acc, sgn(u), p) * (u - dead_zone_d(u, p)))
    assert abs(jerk - sum(terms)) <= 1e-12 * max(map(abs, terms))


@PROPERTY
@given(
    st.fixed_dictionaries({
        "kappa": positive, "phi": positive, "lambda": positive,
        "centers": grids,
    }, optional={"d_hat_init": st.floats(-10.0, 10.0)}),
)
def test_config_dump_round_trips(values):
    raw = {
        key: ", ".join(map(repr, value)) if key == "centers" else repr(value)
        for key, value in values.items()
    }
    cfg = resolve_config(raw)
    assert resolve_config(parse_kv(config_dump(cfg))) == cfg
