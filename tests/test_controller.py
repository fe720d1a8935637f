"""Controller: model coefficients, input gain, combined error, control law."""

import numpy as np
import pytest

from ehservo import (
    ControllerParams,
    PlantParams,
    combined_error,
    control_law,
    dead_zone_d,
    dead_zone_output,
    equivalent_control,
    input_gain_b,
    model_coefficients,
)


@pytest.fixture
def model():
    return PlantParams(kv=1e-5)


@pytest.fixture
def cp(model):
    return ControllerParams(model=model)


class TestParamsValidation:
    # lam = 1e-170 is positive, but its square underflows to 0. A zero, infinite
    # or overflowing lam and an infinite kappa or phi are config cases of
    # test_cli.py, which also name the key
    @pytest.mark.parametrize("name, value", [
        ("lam", -2.0), ("kappa", 0.0), ("phi", 0.0), ("lam", 1e-170),
    ])
    def test_positivity(self, name, value, model):
        with pytest.raises(ValueError, match=name):
            ControllerParams(**{name: value}, model=model)

    def test_model_has_no_default(self):
        # the plant a controller models is always the caller's choice
        with pytest.raises(TypeError, match="model"):
            ControllerParams()

    def test_hurwitz_roots(self, cp):
        roots = np.roots([1.0, cp.c1, cp.c0])
        assert all(r.real < 0 for r in roots)


class TestModelCoefficients:
    # the nominal values are test_acceptance.py's test_coefficient_arithmetic
    def test_degenerate_terms_vanish(self):
        m = PlantParams(Ctp=0.0, K=0.0, Bp=0.0)
        a0, a1, a2 = model_coefficients(m)
        assert a0 == 0.0 and a2 == 0.0
        assert a1 == pytest.approx(4.0 * m.beta_e * m.Ap**2 / (m.Vt * m.Mt), rel=1e-12)


class TestInputGain:
    # the rest value is test_acceptance.py's test_coefficient_arithmetic
    def test_sign_irrelevant_at_rest(self, model):
        bs = {input_gain_b(0.0, 0.0, 0.0, s, model) for s in (-1.0, 0.0, 1.0)}
        assert len(bs) == 1

    def test_clamp_floor(self, model):
        # reconstructed load equal to the supply pressure engages the floor
        x_ddot = model.Ps * model.Ap / model.Mt
        b = input_gain_b(0.0, 0.0, x_ddot, 1.0, model)
        assert b == pytest.approx(9.111079228383559, rel=1e-12)

    def test_strictly_positive_everywhere(self, model):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            b = input_gain_b(
                rng.normal(scale=10), rng.normal(scale=10), rng.normal(scale=100),
                rng.choice([-1.0, 0.0, 1.0]), model,
            )
            assert b > 0.0


class TestCombinedError:
    def test_zero(self, cp):
        assert combined_error(0.0, 0.0, 0.0, cp) == 0.0

    def test_position_weight(self, cp):
        # 64*0.2 - 16*0.4 + 1.7, every term live
        assert combined_error(0.2, -0.4, 1.7, cp) == 8.1

    def test_linearity(self, cp):
        e1 = combined_error(0.2, -0.4, 1.7, cp)
        e3 = combined_error(3.0 * 0.2, 3.0 * -0.4, 3.0 * 1.7, cp)
        assert e3 == pytest.approx(3.0 * e1, rel=1e-12)


class TestEquivalentControl:
    # every term of the numerator live: x, its two derivatives, the two error
    # derivatives, the reference jerk and the model coefficients
    ARGS = (0.05, 0.01, -0.002, 0.008, -0.001, 0.0005, (28.0, 16837.6, 93.7))

    def test_all_zero(self, cp):
        assert equivalent_control(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0), 762.3, cp) == 0.0

    def test_hand_value(self, cp):
        # (28*0.05 + 16837.6*0.01 - 93.7*0.002 + 0.0005 + 16*0.001 - 64*0.008) / 400
        u_hat = equivalent_control(*self.ARGS, 400.0, cp)
        assert u_hat == pytest.approx(0.42273275, rel=1e-12)

    def test_doubling_gain_halves_output(self, cp):
        u1 = equivalent_control(*self.ARGS, 400.0, cp)
        u2 = equivalent_control(*self.ARGS, 800.0, cp)
        assert u2 == pytest.approx(0.5 * u1, rel=1e-12)


class TestControlLaw:
    def test_zero(self, cp):
        assert control_law(0.0, 0.0, 0.0, cp) == 0.0

    def test_composition(self, cp):
        assert control_law(0.5, 0.9, 0.1, cp) == pytest.approx(1.3, rel=1e-12)

    def test_dead_zone_cancellation(self, model, cp):
        # with a perfect estimate and zero combined error, the effective spool
        # displacement equals kv * u_hat: the band is invisible to the loop
        for u_hat in (0.3, 1.7, 0.0, -0.4, -2.2):
            edge = model.delta_r if u_hat >= 0 else model.delta_l
            u = control_law(u_hat, edge, 0.0, cp)
            assert dead_zone_d(u, model) == edge
            assert dead_zone_output(u, model) == pytest.approx(model.kv * u_hat, rel=1e-12, abs=1e-30)
