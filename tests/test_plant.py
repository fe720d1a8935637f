"""Plant model: dead zone, orifice flow, force balance, pressure dynamics."""

import math

import numpy as np
import pytest

from ehservo import (
    BlowUpError,
    PlantParams,
    PlantState,
    acceleration,
    dead_zone_d,
    dead_zone_output,
    load_flow,
    plant_derivatives,
    sgn,
)


@pytest.fixture
def params():
    # nominal parameters with the valve gain the hand-derived values below use
    return PlantParams(kv=1e-5)


class TestParamsValidation:
    def test_defaults_valid(self):
        PlantParams()

    @pytest.mark.parametrize("field", ["Ps", "rho", "Cd", "w", "Ap", "beta_e", "Vt", "Mt", "kv"])
    def test_positive_fields_rejected_at_zero(self, field):
        with pytest.raises(ValueError, match=field):
            PlantParams(**{field: 0.0})

    @pytest.mark.parametrize("field", ["Ctp", "Bp", "K"])
    def test_nonnegative_fields_reject_negative(self, field):
        with pytest.raises(ValueError, match=field):
            PlantParams(**{field: -1.0})

    def test_dead_zone_edges_ordering(self):
        with pytest.raises(ValueError, match="delta_l"):
            PlantParams(delta_l=0.5)
        with pytest.raises(ValueError, match="delta_r"):
            PlantParams(delta_r=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="Ps"):
            PlantParams(Ps=math.inf)


class TestDeadZone:
    def test_zero_inside_band(self, params):
        assert dead_zone_output(0.0, params) == 0.0

    def test_right_edge_is_zero(self, params):
        assert dead_zone_output(params.delta_r, params) == 0.0

    def test_beyond_right_edge(self, params):
        # kv*(2.0 - 0.9) with kv = 1e-5
        assert dead_zone_output(2.0, params) == 1e-5 * (2.0 - 0.9)
        assert dead_zone_output(2.0, params) == pytest.approx(1.1e-5, rel=1e-12)

    def test_continuous_and_monotone(self, params):
        us = np.linspace(-4.0, 4.0, 20001)
        outs = [dead_zone_output(u, params) for u in us]
        assert all(b >= a for a, b in zip(outs, outs[1:]))
        jumps = np.abs(np.diff(outs))
        assert jumps.max() <= params.kv * (us[1] - us[0]) * 1.001

    def test_d_middle_branch(self, params):
        assert dead_zone_d(0.0, params) == 0.0
        assert dead_zone_d(0.37, params) == 0.37

    def test_d_saturates_left(self, params):
        assert dead_zone_d(-3.0, params) == -1.1

    def test_d_bounded(self, params):
        rng = np.random.default_rng(42)
        for u in rng.uniform(-10, 10, 2000):
            assert params.delta_l <= dead_zone_d(u, params) <= params.delta_r

    def test_decomposition_identity_exact(self, params):
        # x_sp(u) == kv*(u - d(u)), bit for bit
        rng = np.random.default_rng(7)
        us = np.concatenate([
            rng.uniform(-10, 10, 5000),
            [params.delta_l, params.delta_r, 0.0, -1.1000000001, 0.8999999999],
        ])
        for u in us:
            assert dead_zone_output(u, params) == params.kv * (u - dead_zone_d(u, params))


class TestLoadFlow:
    def test_centered_spool_no_flow(self, params):
        assert load_flow(0.0, 3.0e6, params) == 0.0
        assert load_flow(0.0, -3.0e6, params) == 0.0

    def test_hand_value(self, params):
        # 0.6 * 0.025 * 1.1e-5 * sqrt(7e6/850), frozen from decimal arithmetic
        ql = load_flow(1.1e-5, 0.0, params)
        assert ql == pytest.approx(1.497350601405500e-5, rel=1e-12)

    def test_cavitation_clamp(self, params):
        # PL at the supply pressure: drop floored at 1e3 Pa
        ql = load_flow(1.1e-5, params.Ps, params)
        assert ql == pytest.approx(1.789676277003913e-7, rel=1e-12)

    def test_odd_symmetry_at_zero_load(self, params):
        rng = np.random.default_rng(3)
        for x_sp in rng.uniform(1e-8, 1e-4, 500):
            assert load_flow(-x_sp, 0.0, params) == -load_flow(x_sp, 0.0, params)

    def test_rejects_non_finite(self, params):
        with pytest.raises(ValueError):
            load_flow(math.nan, 0.0, params)
        with pytest.raises(ValueError):
            load_flow(1e-5, math.inf, params)


class TestDerivatives:
    def test_equilibrium(self, params):
        assert plant_derivatives(PlantState(0.0, 0.0, 0.0), 0.0, params) == (0.0, 0.0, 0.0)

    def test_spring_pullback(self, params):
        # vdot = -K*x/Mt = -75*0.1/250
        _, dv, _ = plant_derivatives(PlantState(0.1, 0.0, 0.0), 0.0, params)
        assert dv == pytest.approx(-0.03, rel=1e-12)

    def test_leakage_pressure_decay(self, params):
        # dPL = (4*beta_e/Vt) * (-Ctp*PL) = -28e6/3 at PL = 1e5
        _, _, dpl = plant_derivatives(PlantState(0.0, 0.0, 1e5), 0.0, params)
        assert dpl == pytest.approx(-9333333.333333333, rel=1e-12)

    def test_flow_term_is_load_flow(self, params):
        # plant_rhs inlines the orifice law; load_flow is its reference
        rng = np.random.default_rng(5)
        # near +/-Ps the pressure drop hits the EPS_CAV floor
        edge = [params.Ps, params.Ps - 10.0, -params.Ps, 0.0]
        for k in range(2000):
            PL = edge[k] if k < len(edge) else rng.uniform(-1.0, 1.0) * params.Ps
            s = PlantState(rng.normal(), rng.normal(), PL)
            u = rng.choice([-3.0, 3.0]) if k < len(edge) else rng.uniform(-4.0, 4.0)
            QL = load_flow(dead_zone_output(u, params), s.PL, params)
            expected = 4.0 * params.beta_e / params.Vt * (QL - params.Ap * s.v - params.Ctp * s.PL)
            assert plant_derivatives(s, u, params)[2] == expected

    def test_blow_up_on_non_finite_state(self, params):
        with pytest.raises(BlowUpError):
            plant_derivatives(PlantState(math.nan, 0.0, 0.0), 0.0, params)
        with pytest.raises(BlowUpError):
            plant_derivatives(PlantState(0.0, math.inf, 0.0), 0.0, params)


class TestAcceleration:
    def test_rest(self, params):
        assert acceleration(PlantState(0.0, 0.0, 0.0), params) == 0.0

    def test_pressure_drive(self, params):
        # Ap*PL/Mt = 3e-4 * 1e6 / 250
        assert acceleration(PlantState(0.0, 0.0, 1e6), params) == pytest.approx(1.2, rel=1e-12)

    def test_matches_velocity_derivative(self, params):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = PlantState(rng.normal(), rng.normal(), rng.uniform(-7e6, 7e6))
            _, dv, _ = plant_derivatives(s, rng.uniform(-3, 3), params)
            assert acceleration(s, params) == dv


def test_sgn_convention():
    assert sgn(3.2) == 1.0
    assert sgn(-1e-300) == -1.0
    assert sgn(0.0) == 0.0
