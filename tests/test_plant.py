"""Plant model: parameter checks, orifice flow, force balance, pressure dynamics.

The dead zone's piecewise form is a property test (test_properties.py)."""

import math

import numpy as np
import pytest

from ehservo import (
    BlowUpError,
    PlantParams,
    acceleration,
    load_flow,
    plant_derivatives,
    sgn,
)


@pytest.fixture
def params():
    return PlantParams()


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["Ps", "rho", "Cd", "w", "Ap", "beta_e", "Vt", "Mt", "kv"])
    def test_positive_fields_rejected_at_zero(self, field):
        with pytest.raises(ValueError, match=field):
            PlantParams(**{field: 0.0})

    @pytest.mark.parametrize("field", ["Ctp", "Bp", "K"])
    def test_nonnegative_fields_reject_negative(self, field):
        with pytest.raises(ValueError, match=field):
            PlantParams(**{field: -1.0})

    def test_dead_zone_edges_ordering(self):
        # the band holds 0 strictly inside: an edge at 0 is refused too
        for field, value in (("delta_l", 0.5), ("delta_l", 0.0),
                             ("delta_r", -0.5), ("delta_r", 0.0)):
            with pytest.raises(ValueError, match=field):
                PlantParams(**{field: value})


class TestLoadFlow:
    def test_centered_spool_no_flow(self, params):
        assert load_flow(0.0, 3.0e6, params.Ps, params) == 0.0
        assert load_flow(0.0, -3.0e6, params.Ps, params) == 0.0

    def test_hand_value(self, params):
        # 0.6 * 0.025 * 1.1e-5 * sqrt(7e6/850), frozen from decimal arithmetic
        ql = load_flow(1.1e-5, 0.0, params.Ps, params)
        assert ql == pytest.approx(1.497350601405500e-5, rel=1e-12)

    def test_cavitation_clamp(self, params):
        # PL at the supply pressure: drop floored at 1e3 Pa
        ql = load_flow(1.1e-5, params.Ps, params.Ps, params)
        assert ql == pytest.approx(1.789676277003913e-7, rel=1e-12)

    def test_odd_symmetry_at_zero_load(self, params):
        rng = np.random.default_rng(3)
        for x_sp in rng.uniform(1e-8, 1e-4, 500):
            assert (load_flow(-x_sp, 0.0, params.Ps, params)
                    == -load_flow(x_sp, 0.0, params.Ps, params))

    def test_rejects_non_finite(self, params):
        with pytest.raises(ValueError):
            load_flow(math.nan, 0.0, params.Ps, params)
        with pytest.raises(ValueError):
            load_flow(1e-5, math.inf, params.Ps, params)


class TestDerivatives:
    def test_equilibrium(self, params):
        assert plant_derivatives(0.0, 0.0, 0.0, 0.0, params.Ps, params) == (0.0, 0.0, 0.0)

    def test_spring_pullback(self, params):
        # vdot = -K*x/Mt = -75*0.1/250
        _, dv, _ = plant_derivatives(0.1, 0.0, 0.0, 0.0, params.Ps, params)
        assert dv == pytest.approx(-0.03, rel=1e-12)

    def test_leakage_pressure_decay(self, params):
        # dPL = (4*beta_e/Vt) * (-Ctp*PL) = -28e6/3 at PL = 1e5
        _, _, dpl = plant_derivatives(0.0, 0.0, 1e5, 0.0, params.Ps, params)
        assert dpl == pytest.approx(-9333333.333333333, rel=1e-12)

    def test_blow_up_on_non_finite_state(self, params):
        with pytest.raises(BlowUpError):
            plant_derivatives(math.nan, 0.0, 0.0, 0.0, params.Ps, params)
        with pytest.raises(BlowUpError):
            plant_derivatives(0.0, math.inf, 0.0, 0.0, params.Ps, params)
        # a NaN voltage reaches no orifice law: it is a non-finite spool
        with pytest.raises(BlowUpError, match="spool"):
            plant_derivatives(0.0, 0.0, 0.0, math.nan, params.Ps, params)


class TestAcceleration:
    def test_rest(self, params):
        assert acceleration(0.0, 0.0, 0.0, params) == 0.0

    def test_pressure_drive(self, params):
        # Ap*PL/Mt = 3e-4 * 1e6 / 250
        assert acceleration(0.0, 0.0, 1e6, params) == pytest.approx(1.2, rel=1e-12)


def test_sgn_convention():
    assert sgn(3.2) == 1.0
    assert sgn(-1e-300) == -1.0
    assert sgn(0.0) == 0.0
