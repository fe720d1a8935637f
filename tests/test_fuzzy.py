"""Fuzzy estimator: membership basis, inference, adaptation law."""

import math

import numpy as np
import pytest

from ehservo import DEFAULT_CENTERS, FuzzyEstimator, adapt, infer, membership

C = DEFAULT_CENTERS


def ratio_form(u_hat, centers, d_hat):
    """Independent oracle: unnormalized firing strengths from explicit piecewise
    membership geometry, combined as sum(w*d)/sum(w)."""

    def tri(u, a, b, c):
        if u <= a or u >= c:
            return 0.0
        if u <= b:
            return (u - a) / (b - a)
        return (c - u) / (c - b)

    def left_shoulder(u, b, c):
        if u <= b:
            return 1.0
        if u >= c:
            return 0.0
        return (c - u) / (c - b)

    def right_shoulder(u, a, b):
        if u >= b:
            return 1.0
        if u <= a:
            return 0.0
        return (u - a) / (b - a)

    n = len(centers)
    ws = []
    for r in range(n):
        if r == 0:
            ws.append(left_shoulder(u_hat, centers[0], centers[1]))
        elif r == n - 1:
            ws.append(right_shoulder(u_hat, centers[-2], centers[-1]))
        else:
            ws.append(tri(u_hat, centers[r - 1], centers[r], centers[r + 1]))
    total = sum(ws)
    return sum(w * d for w, d in zip(ws, d_hat)) / total


class TestEstimatorValidation:
    def test_default_grid(self):
        est = FuzzyEstimator()
        assert est.centers == C
        assert est.d_hat == (0.0,) * 7

    def test_too_few_centers(self):
        with pytest.raises(ValueError, match="at least 2"):
            FuzzyEstimator([0.0])

    def test_non_increasing_centers(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FuzzyEstimator([0.0, 0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            FuzzyEstimator((0.0, 1.0), (0.0, 0.0, 0.0))


class TestMembership:
    def test_peak_at_center(self):
        assert membership(0.0, C) == (0, 0, 0, 1, 0, 0, 0)

    def test_midpoint_split(self):
        psi = membership(0.075, C)
        assert psi[4] == pytest.approx(0.5, abs=1e-15)
        assert psi[5] == pytest.approx(0.5, abs=1e-15)
        assert sum(psi[i] for i in (0, 1, 2, 3, 6)) == 0.0

    def test_left_shoulder_saturates(self):
        assert membership(-2.0, C) == (1, 0, 0, 0, 0, 0, 0)

    def test_right_shoulder_saturates(self):
        assert membership(2.0, C) == (0, 0, 0, 0, 0, 0, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            membership(math.nan, C)


class TestInfer:
    def test_zero_consequents(self):
        d_hat = FuzzyEstimator().d_hat
        for u in np.linspace(-1, 1, 101):
            assert infer(d_hat, membership(u, C)) == 0.0

    def test_piecewise_linear_continuous(self):
        d_hat = (1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.0)
        # continuity across each center
        for c in C:
            lo = infer(d_hat, membership(c - 1e-9, C))
            hi = infer(d_hat, membership(c + 1e-9, C))
            at = infer(d_hat, membership(c, C))
            assert lo == pytest.approx(at, abs=1e-7)
            assert hi == pytest.approx(at, abs=1e-7)
        # linear interpolation at segment midpoints
        for a, b in zip(C, C[1:]):
            mid = 0.5 * (a + b)
            ya = infer(d_hat, membership(a, C))
            yb = infer(d_hat, membership(b, C))
            assert infer(d_hat, membership(mid, C)) == pytest.approx(0.5 * (ya + yb), rel=1e-12)

    def test_rules_that_do_not_fire_add_nothing(self):
        # an overflowed consequent reaches the estimate only through its own rule
        d_hat = (math.inf, 0.25, 0.0, 0.5, 0.0, 0.0, -math.inf)
        assert infer(d_hat, membership(0.0, C)) == 0.5
        assert infer(d_hat, membership(-2.0, C)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            infer((0.0,) * 6, membership(0.0, C))


class TestAdapt:
    def test_zero_error_no_change(self):
        d_hat = (0.1,) * 7
        psi = membership(0.02, C)
        assert adapt(d_hat, 0.0, psi, 0.5, 0.0025) == d_hat

    def test_single_step_hand_value(self):
        # active entry moves by -phi*e*dt = -0.5*1*0.0025
        psi = membership(0.0, C)
        out = adapt(FuzzyEstimator().d_hat, 1.0, psi, 0.5, 0.0025)
        assert out[3] == -0.00125
        assert all(out[i] == 0.0 for i in range(7) if i != 3)

    def test_two_steps_equal_one_double_step(self):
        d_hat = (0.4,) * 7
        psi = membership(-0.03, C)
        twice = adapt(adapt(d_hat, 0.6, psi, 0.5, 0.0025), 0.6, psi, 0.5, 0.0025)
        once = adapt(d_hat, 0.6, psi, 0.5, 0.005)
        for a, b in zip(twice, once):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_requires_positive_rate_and_period(self):
        d_hat = FuzzyEstimator().d_hat
        psi = membership(0.0, C)
        with pytest.raises(ValueError):
            adapt(d_hat, 1.0, psi, 0.0, 0.0025)
        with pytest.raises(ValueError):
            adapt(d_hat, 1.0, psi, 0.5, 0.0)

    @pytest.mark.parametrize("e", [1.0, 0.0])
    def test_length_mismatch(self, e):
        with pytest.raises(ValueError):
            adapt((0.0,) * 6, e, membership(0.0, C), 0.5, 0.0025)
