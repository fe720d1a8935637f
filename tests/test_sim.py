"""Closed-loop executor: reference, supply modes, RK4, run mechanics, kernel replay, monitor."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehservo import (
    DEFAULT_CENTERS,
    BlowUpError,
    ControllerParams,
    FuzzyEstimator,
    MonitorParams,
    PlantParams,
    PlantState,
    Scenario,
    SimMetrics,
    SimResult,
    acceleration,
    combined_error,
    control_law,
    dead_zone_d,
    equivalent_control,
    input_gain_b,
    model_coefficients,
    reference_at,
    rk4_step,
    run,
    sgn,
    stability_monitor,
    supply_pressure,
)
from ehservo.sim import SUPPLY_MODES, MonitorReport
from lyapunov import lyapunov_series, replay_consequents


class TestScenarioValidation:
    def test_defaults(self):
        sc = Scenario()
        assert sc.substeps == 2
        assert sc.n_steps == 48000
        assert sc.duration == 120.0

    def test_non_integer_rate_ratio(self):
        with pytest.raises(ValueError, match="integer multiple"):
            Scenario(dt_plant=1 / 800, dt_control=1 / 300)

    def test_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Scenario(duration=0.0)
        # shorter than one control period: the run would have no rows
        with pytest.raises(ValueError, match="duration"):
            Scenario(duration=0.001)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="supply_pressure_mode"):
            Scenario(supply_pressure_mode="wobbly")

    def test_non_finite_initial_state(self):
        with pytest.raises(ValueError, match="initial_state"):
            Scenario(initial_state=PlantState(math.inf, 0.0, 0.0))

    def test_any_integer_ratio_supported(self):
        assert Scenario(dt_plant=1 / 2000, dt_control=1 / 400).substeps == 5


class TestReference:
    def test_at_zero(self):
        ref = reference_at(0.0, 0.5, 0.1)
        assert ref.xd == 0.0
        assert ref.xd_dot == 0.05
        assert ref.xd_ddot == 0.0
        assert ref.xd_dddot == pytest.approx(-0.0005, rel=1e-12)

    def test_quarter_period(self):
        ref = reference_at(math.pi / 0.2, 0.5, 0.1)
        assert ref.xd == pytest.approx(0.5, rel=1e-12)
        assert ref.xd_dot == pytest.approx(0.0, abs=1e-12)
        assert ref.xd_ddot == pytest.approx(-0.005, rel=1e-12)
        assert ref.xd_dddot == pytest.approx(0.0, abs=1e-12)

    def test_zero_amplitude(self):
        for t in (0.0, 1.7, 300.0):
            assert reference_at(t, 0.0, 0.1) == (0.0, 0.0, 0.0, 0.0)


class TestSupplyPressure:
    def test_constant_ignores_position(self):
        assert supply_pressure("constant", 123.0, 7e6) == 7e6

    def test_varying_at_origin(self):
        assert supply_pressure("varying", 0.0, 7e6) == 7e6

    def test_varying_at_quarter(self):
        assert supply_pressure("varying", math.pi / 2, 7e6) == pytest.approx(8.4e6, rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            supply_pressure("off", 0.0, 7e6)

    def test_varying_run_swings_under_ten_percent(self, varying_run, nominal_plant):
        # Ps*(1 + 0.2*sin x) over |x| <= 0.5 m swings by about +/-9.6%
        swing = float(np.max(np.abs(varying_run.Ps / nominal_plant.Ps - 1.0)))
        assert 0.09 < swing < 0.1


class TestRK4Step:
    def test_equilibrium_fixed_point(self):
        p = PlantParams()
        s = PlantState(0.0, 0.0, 0.0)
        assert rk4_step(s, 0.0, 1 / 800, p) == s

    def test_one_step_matches_two_half_steps(self):
        p = PlantParams()
        s = PlantState(0.01, 0.0, 0.0)
        for u in (0.0, 2.0):
            one = rk4_step(s, u, 1 / 800, p)
            two = rk4_step(rk4_step(s, u, 1 / 1600, p), u, 1 / 1600, p)
            assert abs(one.x - two.x) < 1e-10
            assert abs(one.v - two.v) < 1e-7
            assert abs(one.PL - two.PL) < 1.0

    def test_pressure_clamped_to_supply(self):
        p = PlantParams()
        s = PlantState(0.0, 0.0, 0.999 * p.Ps)
        out = rk4_step(s, 8.0, 1 / 800, p)
        assert abs(out.PL) <= p.Ps

    def test_blow_up_raises(self):
        p = PlantParams()
        with pytest.raises(BlowUpError):
            rk4_step(PlantState(math.nan, 0.0, 0.0), 0.0, 1 / 800, p)

    def test_nan_voltage_blows_up(self):
        # a NaN voltage is no closed valve: it reaches the state and is reported
        with pytest.raises(BlowUpError):
            rk4_step(PlantState(), math.nan, 1 / 800, PlantParams())

    def test_mass_spring_reduction(self):
        # with a vanishing bulk modulus the pressure stays at zero and the
        # plant is the bare damped oscillator Mt*x'' + Bp*x' + K*x = 0
        p = PlantParams(beta_e=1e-3)
        x0 = 0.05
        wn = math.sqrt(p.K / p.Mt)
        zeta = p.Bp / (2.0 * math.sqrt(p.K * p.Mt))
        wd = wn * math.sqrt(1.0 - zeta * zeta)
        s = PlantState(x0, 0.0, 0.0)
        dt = 1 / 800
        worst = 0.0
        for k in range(1, round(20.0 / dt) + 1):
            s = rk4_step(s, 0.0, dt, p)
            t = k * dt
            envelope = math.exp(-zeta * wn * t)
            closed = x0 * envelope * (math.cos(wd * t) + zeta * wn / wd * math.sin(wd * t))
            worst = max(worst, abs(s.x - closed))
        assert worst < 1e-7


class TestRunMechanics:
    def test_equilibrium_is_invariant(self):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=2.0, amplitude=0.0)
        res = run(sc, plant, cp, FuzzyEstimator.zeros())
        assert np.all(res.x == 0.0)
        assert np.all(res.u == 0.0)
        assert np.all(res.uhat == 0.0)
        assert np.all(res.e == 0.0)
        assert np.all(res.dhat == 0.0)

    def test_rows_uniformly_spaced(self):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        res = run(Scenario(duration=1.0), plant, cp, FuzzyEstimator.zeros())
        assert len(res.t) == 400
        assert np.allclose(np.diff(res.t), 0.0025, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", SUPPLY_MODES)
    def test_zero_order_hold_replay(self, mode):
        # the recorded rows plus the held voltage reproduce the next row's
        # state exactly: the plant sees one constant u per control period,
        # and each substep the supply pressure at the state it starts from
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=5.0, supply_pressure_mode=mode)
        res = run(sc, plant, cp, FuzzyEstimator.zeros())
        for k in (0, 1, 7, 100, 1200, len(res.t) - 2):
            s = PlantState(res.x[k], res.v[k], res.PL[k])
            for _ in range(sc.substeps):
                p_now = replace(plant, Ps=supply_pressure(mode, s.x, plant.Ps))
                s = rk4_step(s, res.u[k], sc.dt_plant, p_now)
            assert s.x == res.x[k + 1]
            assert s.v == res.v[k + 1]
            assert s.PL == res.PL[k + 1]

    def test_deterministic_series(self):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=10.0)
        r1 = run(sc, plant, cp, FuzzyEstimator.zeros())
        r2 = run(sc, plant, cp, FuzzyEstimator.zeros())
        for name in ("t", "x", "xd", "xerr", "v", "PL", "u", "uhat", "d", "dhat", "e", "Ps"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name))

    def test_frozen_adaptation_forces_zero_estimate(self):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        res = run(Scenario(duration=5.0, freeze_adaptation=True), plant, cp, FuzzyEstimator.zeros())
        assert np.all(res.dhat == 0.0)

    def test_varying_mode_moves_supply(self):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        res = run(Scenario(duration=40.0, supply_pressure_mode="varying"), plant, cp,
                  FuzzyEstimator.zeros())
        assert res.Ps.min() < 7e6 < res.Ps.max()
        assert np.all(res.Ps <= 8.4e6) and np.all(res.Ps >= 5.6e6)

    def test_blow_up_carries_time(self):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=2.0, initial_state=PlantState(1e306, 0.0, 0.0))
        with pytest.raises(BlowUpError) as err:
            run(sc, plant, cp, FuzzyEstimator.zeros())
        assert err.value.time is not None

    def test_blow_up_inside_substeps_carries_period_start(self):
        # a huge initial velocity passes the controller's checks and
        # overflows inside the RK4 stages of the third control period
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=2.0, initial_state=PlantState(0.0, 1e150, 0.0))
        with pytest.raises(BlowUpError) as err:
            run(sc, plant, cp, FuzzyEstimator.zeros())
        assert type(err.value) is BlowUpError
        assert err.value.time == 0.005
        message = str(err.value)
        assert message.startswith("non-finite plant state: ")
        assert message.endswith(" (control period starting at t=0.005 s)")

    def test_pressure_stays_within_supply(self, default_run):
        result, _ = default_run
        assert np.all(np.abs(result.PL) <= result.Ps)


def _replay_controller(res, sc, plant, cp):
    """The controller's columns recomputed from each recorded (t, x, v, PL) by
    the public functions, with the previous sample's voltage sign and the
    recorded d_hat (replay_consequents pins d_hat itself)."""
    a = model_coefficients(cp.model)
    names = ("t", "xd", "xerr", "e", "uhat", "u", "d", "Ps")
    out = {name: [] for name in names}
    sign_prev = 0.0
    rows = zip(res.x.tolist(), res.v.tolist(), res.PL.tolist(), res.dhat.tolist())
    for k, (x, v, PL, d_hat) in enumerate(rows):
        t = k * sc.dt_control
        x_ddot = acceleration(PlantState(x, v, PL), plant)
        ref = reference_at(t, sc.amplitude, sc.omega)
        xerr = x - ref.xd
        e = combined_error(xerr, v - ref.xd_dot, x_ddot - ref.xd_ddot, cp)
        b = input_gain_b(x, v, x_ddot, sign_prev, cp.model)
        u_hat = equivalent_control(x, v, x_ddot, ref, a, b, cp)
        u = control_law(u_hat, d_hat, e, cp)
        values = (t, ref.xd, xerr, e, u_hat, u, dead_zone_d(u, plant),
                  supply_pressure(sc.supply_pressure_mode, x, plant.Ps))
        for name, value in zip(names, values):
            out[name].append(value)
        sign_prev = sgn(u)
    return {name: np.array(col) for name, col in out.items()}


def _assert_controller_replays(res, sc, plant, cp):
    replayed = _replay_controller(res, sc, plant, cp)
    for name, column in replayed.items():
        differ = np.flatnonzero(column != getattr(res, name))
        assert differ.size == 0, f"{name} differs at {differ.size} samples, first {differ[0]}"


class TestKernelReplay:
    """run inlines the controller and the estimator over plain floats; the
    public functions are the reference it must equal bit for bit."""

    @pytest.mark.parametrize("mode, frozen", [
        ("constant", False), ("varying", False), ("constant", True),
    ])
    def test_controller_columns(self, mode, frozen):
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=5.0, supply_pressure_mode=mode, freeze_adaptation=frozen)
        est = FuzzyEstimator.zeros()
        res = run(sc, plant, cp, est)
        _assert_controller_replays(res, sc, plant, cp)
        if not frozen:
            replay_consequents(res, est, cp.phi)

    def test_consequents_on_varying_supply(self, varying_run, nominal_controller,
                                           zero_estimator):
        replay_consequents(varying_run, zero_estimator, nominal_controller.phi)

    def test_non_default_grid_and_start(self):
        # a faster reference drives u_hat past both shoulders and through the
        # interior; the consequents start away from zero
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        centers = (-0.3, -0.05, 0.0, 0.05, 0.3)
        est = FuzzyEstimator(centers, (-0.6, -0.2, 0.0, 0.2, 0.5))
        sc = Scenario(duration=15.0, omega=0.5)
        res = run(sc, plant, cp, est)
        assert np.any(res.uhat <= centers[0]) and np.any(res.uhat >= centers[-1])
        assert np.any((res.uhat > centers[0]) & (res.uhat < centers[-1]))
        replay_consequents(res, est, cp.phi)
        _assert_controller_replays(res, sc, plant, cp)


def _synthetic_result(e, uhat=None, dhat=None, dt=0.0025):
    n = len(e)
    z = np.zeros(n)
    uhat = z if uhat is None else uhat
    dhat = z if dhat is None else dhat
    metrics = SimMetrics(0, 0, 0, 0, 0)
    report = MonitorReport(0, (), 0, 0.0, 0.1, True, 0)
    return SimResult(
        t=np.arange(n) * dt, x=z, xd=z, xerr=z, v=z, PL=z, u=z, uhat=uhat,
        d=z, dhat=dhat, e=np.asarray(e, dtype=float), Ps=np.full(n, 7e6),
        dt_control=dt, centers=DEFAULT_CENTERS, metrics=metrics, monitor=report,
    )


class TestMonitorParamsValidation:
    @pytest.mark.parametrize("kwargs, name", [
        ({"window": math.nan}, "window"),
        ({"window": -5.0}, "window"),
        ({"window": 0.0}, "window"),
        ({"window": math.inf}, "window"),
        ({"tol": 0.0}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"e_threshold": -0.1}, "e_threshold"),
        ({"e_threshold": math.nan}, "e_threshold"),
        ({"e_threshold": math.inf}, "e_threshold"),
        ({"transient_fraction": 1.0}, "transient_fraction"),
        ({"transient_fraction": -0.1}, "transient_fraction"),
        ({"transient_fraction": math.nan}, "transient_fraction"),
    ])
    def test_rejects(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            MonitorParams(**kwargs)

    def test_accepts_closed_lower_edges(self):
        params = MonitorParams(e_threshold=0.0, transient_fraction=0.0)
        assert params.e_threshold == 0.0 and params.transient_fraction == 0.0


class TestStabilityMonitor:
    def test_zero_error_series_clean(self):
        res = _synthetic_result(np.zeros(48000))
        rep = stability_monitor(res, MonitorParams())
        assert rep.rms_violations == 0
        assert rep.final_window_mean_abs_e == 0.0
        assert rep.sign_violations == 0

    def test_growing_error_flags_every_pair(self):
        res = _synthetic_result(np.linspace(0.001, 10.0, 48000))
        rep = stability_monitor(res, MonitorParams())
        assert rep.n_windows == 9
        assert rep.rms_violations == rep.n_windows - 1

    def test_sign_check_counts_mismatches(self):
        n = 48000
        uhat = np.full(n, 0.2)          # clearly right of the innermost center
        dhat = np.full(n, -0.05)        # wrong sign for the right edge
        res = _synthetic_result(np.zeros(n), uhat=uhat, dhat=dhat)
        rep = stability_monitor(res, MonitorParams())
        assert rep.sign_violations == 4000  # every sample of the final 10 s window
        rep2 = stability_monitor(_synthetic_result(np.zeros(n), uhat=uhat, dhat=-dhat),
                                 MonitorParams())
        assert rep2.sign_violations == 0

    def test_threshold_comparison(self):
        res = _synthetic_result(np.full(48000, 0.2))
        rep = stability_monitor(res, MonitorParams(e_threshold=0.1))
        assert not rep.final_mean_ok
        rep = stability_monitor(res, MonitorParams(e_threshold=0.3))
        assert rep.final_mean_ok

    def test_sign_check_uses_the_run_grid(self):
        # innermost centers at +/-0.2 instead of the default +/-0.05
        res = _synthetic_result(np.zeros(48000), uhat=np.full(48000, 0.1),
                                dhat=np.full(48000, -0.05))
        assert stability_monitor(res).sign_violations == 4000
        res.centers = (-0.5, -0.2, 0.0, 0.2, 0.5)
        assert stability_monitor(res).sign_violations == 0

    def test_run_report_equals_rescoring(self):
        # every way of scoring one run with the same params gives one report,
        # also on a grid other than the default
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        est = FuzzyEstimator.zeros((-0.5, -0.2, 0.0, 0.2, 0.5))
        sc = Scenario(duration=15.0, omega=0.5)
        res = run(sc, plant, cp, est)
        assert res.centers == est.centers
        again = run(sc, plant, cp, est, MonitorParams())
        assert res.monitor == again.monitor == stability_monitor(res)
        assert res.monitor == stability_monitor(again, MonitorParams())


class TestClosedLoopProperties:
    def test_temporal_convergence_on_plant_rate(self, nominal_plant, nominal_controller,
                                                zero_estimator, default_run):
        # halving dt_plant moves the final-quarter RMS tracking error by < 1%
        base, _ = default_run
        fine = run(Scenario(dt_plant=1 / 1600), nominal_plant, nominal_controller,
                   zero_estimator)
        a = base.metrics.rms_xerr_final_quarter
        b = fine.metrics.rms_xerr_final_quarter
        assert abs(b - a) / a < 0.01

    def test_frozen_baseline_never_outperforms(self, default_run, frozen_run):
        adaptive, _ = default_run
        assert (frozen_run.metrics.rms_xerr_final_quarter
                >= adaptive.metrics.rms_xerr_final_quarter)

    def test_e2_decrease_fraction(self, default_run, nominal_plant, nominal_controller,
                                  zero_estimator):
        """The energy argument of the control law: its Lyapunov function
        V = e^2/(2b) + |theta - theta*|^2/(2 phi) is non-increasing in at least
        99% of the post-transient samples with |e| >= 1e-3.

        The argument bounds V, not e^2 alone: with the compensation exact, e may
        still rise where it sits at its floor. That floor comes from the
        zero-order hold: within one control period the model term a1*x' drifts
        by up to a1*A*omega^2*dt_control, which the held voltage cannot follow,
        leaving |e| near a1*A*omega^2*dt_control/(2*b*kappa), about 7e-4.
        Below it the sign of a one-sample change in V says nothing of the law.
        """
        result, _ = default_run
        cp = nominal_controller
        sc = Scenario()
        V = lyapunov_series(result, nominal_plant, cp, zero_estimator)
        floor = (model_coefficients(cp.model)[1] * sc.amplitude * sc.omega**2
                 * sc.dt_control / (2.0 * input_gain_b(0.0, 0.0, 0.0, 0.0, cp.model)
                                    * cp.kappa))
        threshold = 1e-3
        i0 = max(1, int(round(MonitorParams().transient_fraction * len(V))))
        counted = np.abs(result.e[i0:]) >= threshold
        frac = float(np.mean(V[i0:][counted] <= V[i0 - 1:-1][counted]))
        print(f"\n  V non-increase fraction (post-transient, |e| >= {threshold:g}, "
              f"sampled-data floor {floor:.2g}): {frac:.4f} over {counted.sum()} samples")
        assert threshold > floor
        assert frac >= 0.99
