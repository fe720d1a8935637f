"""Closed-loop executor: reference, supply modes, RK4, run mechanics, kernel replay, monitor."""

import math
import sys
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from ehservo import (
    DEFAULT_CENTERS,
    BlowUpError,
    ControllerParams,
    FuzzyEstimator,
    MonitorParams,
    PlantParams,
    Scenario,
    dead_zone_output,
    input_gain_b,
    plant_derivatives,
    reference_at,
    rk4_step,
    run,
    supply_pressure,
)
from ehservo import sim
from ehservo.cli import summarize
from ehservo.sim import SERIES, SUPPLY_MODES
from lyapunov import lyapunov_series
from reference import (
    assert_run_replays,
    exact_inverse,
    nominal_run,
    sampled_data_floor,
)

# a dead band that holds every finite voltage: the spool never opens
SHUT_SPOOL = replace(
    PlantParams(), delta_l=-sys.float_info.max, delta_r=sys.float_info.max
)
# a plant on which a state next to the largest float keeps x, v and PL
# finite over a substep while their sum overflows
SUM_ONLY = replace(PlantParams(), beta_e=1e5, Vt=0.03, Bp=0.0, K=0.1)


class TestScenarioValidation:
    def test_non_integer_rate_ratio(self):
        # a ratio of 2.0001 is off by 5e-5 of dt_control, far outside the 1e-9 tolerance
        for dt_control in (1 / 300, 2.0001 / 800):
            with pytest.raises(ValueError, match="integer multiple"):
                Scenario(dt_plant=1 / 800, dt_control=dt_control)
        # a ratio that overflows has no step count to round to
        with pytest.raises(ValueError, match="dt_plant"):
            Scenario(dt_plant=5e-324)

    def test_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Scenario(duration=0.0)
        # shorter than four control periods: some quarter the metrics score
        # would hold no sample
        for duration in (0.001, 0.0013, 0.0025, 0.0075, 0.0099):
            with pytest.raises(ValueError, match="four control periods"):
                Scenario(duration=duration)
        assert Scenario(duration=0.01).n_steps == 4
        with pytest.raises(ValueError, match="duration"):
            Scenario(duration=1e308)
        # finite counts whose 96-byte rows cannot be indexed
        for duration in (1e300, 2.5e15):
            with pytest.raises(ValueError, match="row buffer"):
                Scenario(duration=duration)
        # an indexable count passes; constructing allocates no column
        assert Scenario(duration=1e6).n_steps == 400_000_000
        # rounded to the nearest control period: 1.0013 s is 400.52 periods and
        # runs 401 rows (1.0025 s), 1.0012 s is 400.48 and runs 400
        assert Scenario(duration=1.0013).n_steps == 401
        assert Scenario(duration=1.0012).n_steps == 400

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="supply_pressure_mode"):
            Scenario(supply_pressure_mode="wobbly")

    def test_freeze_adaptation_must_be_bool(self):
        # a truthy string would otherwise freeze the run
        with pytest.raises(ValueError, match="^freeze_adaptation must be True or False, got 'no'$"):
            Scenario(freeze_adaptation="no")


class TestReference:
    def test_at_zero(self):
        xd, xd_dot, xd_ddot, xd_dddot = reference_at(0.0, 0.5, 0.1)
        assert xd == 0.0
        assert xd_dot == 0.05
        assert xd_ddot == 0.0
        assert xd_dddot == pytest.approx(-0.0005, rel=1e-12)

    def test_quarter_period(self):
        xd, xd_dot, xd_ddot, xd_dddot = reference_at(math.pi / 0.2, 0.5, 0.1)
        assert xd == pytest.approx(0.5, rel=1e-12)
        assert xd_dot == pytest.approx(0.0, abs=1e-12)
        assert xd_ddot == pytest.approx(-0.005, rel=1e-12)
        assert xd_dddot == pytest.approx(0.0, abs=1e-12)

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

    def test_varying_run_swings_under_ten_percent(self, varying_run):
        # Ps*(1 + 0.2*sin x) over |x| <= 0.5 m swings by about +/-9.6%, both ways
        Ps, nominal = varying_run.Ps, PlantParams().Ps
        swing = float(np.max(np.abs(Ps / nominal - 1.0)))
        assert 0.09 < swing < 0.1
        assert Ps.min() < nominal < Ps.max()


class TestRK4Step:
    def test_equilibrium_fixed_point(self):
        p = PlantParams()
        assert rk4_step(0.0, 0.0, 0.0, 0.0, p.Ps, 1 / 800, p) == (0.0, 0.0, 0.0)

    def test_one_step_matches_two_half_steps(self):
        p = PlantParams()
        s = (0.01, 0.0, 0.0)
        for u in (0.0, 2.0):
            one = rk4_step(*s, u, p.Ps, 1 / 800, p)
            two = rk4_step(*rk4_step(*s, u, p.Ps, 1 / 1600, p), u, p.Ps, 1 / 1600, p)
            assert abs(one[0] - two[0]) < 1e-10
            assert abs(one[1] - two[1]) < 1e-7
            assert abs(one[2] - two[2]) < 1.0

    def test_pressure_clamped_to_supply(self):
        p = PlantParams()
        _, _, PL = rk4_step(0.0, 0.0, 0.999 * p.Ps, 8.0, p.Ps, 1 / 800, p)
        assert abs(PL) <= p.Ps
        # the clamp is the held supply ps, not the nominal p.Ps
        _, _, PL = rk4_step(0.0, 0.0, p.Ps, 8.0, 0.5 * p.Ps, 1 / 800, p)
        assert PL == 0.5 * p.Ps
        # and the right-hand side reads the supply only through ps: the
        # nominal value changes no bit, with the orifice open, at the EPS_CAV
        # floor or at the clamp
        for PL0, u in ((0.3 * p.Ps, 2.0), (-0.3 * p.Ps, -3.0), (p.Ps, 8.0)):
            for ps in (0.5 * p.Ps, 0.9 * p.Ps, p.Ps, 1.1 * p.Ps):
                assert (rk4_step(0.01, 0.02, PL0, u, ps, 1 / 800, p)
                        == rk4_step(0.01, 0.02, PL0, u, ps, 1 / 800, replace(p, Ps=2 * p.Ps)))

    def test_blow_up_raises(self):
        p = PlantParams()
        with pytest.raises(BlowUpError):
            rk4_step(math.nan, 0.0, 0.0, 0.0, p.Ps, 1 / 800, p)

    def test_nan_voltage_blows_up(self):
        # a NaN voltage is no closed valve: it reaches the state and is reported
        p = PlantParams()
        with pytest.raises(BlowUpError):
            rk4_step(0.0, 0.0, 0.0, math.nan, p.Ps, 1 / 800, p)

    @pytest.mark.parametrize("dt", [0.0, -1 / 800, math.nan])
    def test_rejects_non_positive_step(self, dt):
        p = PlantParams()
        with pytest.raises(ValueError, match="^dt must be strictly positive"):
            rk4_step(0.0, 0.0, 0.0, 0.0, p.Ps, dt, p)


class TestRunMechanics:
    def test_equilibrium_is_invariant(self):
        res = nominal_run(Scenario(duration=2.0, amplitude=0.0))
        assert np.all(res.x == 0.0)
        assert np.all(res.u == 0.0)
        assert np.all(res.uhat == 0.0)
        assert np.all(res.e == 0.0)
        assert np.all(res.dhat == 0.0)

    @pytest.mark.parametrize("mode", SUPPLY_MODES)
    def test_zero_order_hold_replay(self, mode):
        # the plant sees one constant u over the five substeps of each control
        # period, and each substep the supply pressure at the state it starts
        # from: run equals composed_run, which calls rk4_step under that hold
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=5.0, dt_plant=1 / 2000, supply_pressure_mode=mode)
        assert sc.substeps == 5
        assert_run_replays(sc, plant, cp, FuzzyEstimator())

    def test_blow_up_inside_substeps_carries_period_start(self):
        # a huge initial velocity passes the controller's checks and
        # overflows inside the RK4 stages of the third control period
        with pytest.raises(BlowUpError) as err:
            nominal_run(Scenario(duration=2.0, v0=1e150))
        assert type(err.value) is BlowUpError
        assert err.value.time == 0.005
        message = str(err.value)
        assert message.startswith("non-finite plant state: ")
        assert message.endswith(" (control period starting at t=0.005 s)")

    @pytest.mark.parametrize("start, phi, message, time", [
        # a finite start whose velocity overflows the model's a1*v: composed_run
        # refuses the first equivalent control, before any voltage is formed
        ({"v0": 1e305}, 0.5, "non-finite equivalent control at t=0 s", 0.0),
        # updates of about 1.6e299 grow the consequents until the plant's
        # overflowing error overflows one, and the next voltage that fires an
        # overflowed rule is caught at the spool, whether û or û - κe is the
        # membership input
        ({"x0": 100.0}, 1e298, "non-finite spool displacement: x_sp=inf at u=inf "
         "(control period starting at t=0.01 s)", 0.01),
    ], ids=["equivalent_control", "voltage"])
    def test_non_finite_control_value_has_one_catcher(self, start, phi, message, time):
        sc = Scenario(duration=0.1, **start)
        plant = PlantParams()
        cp = ControllerParams(phi=phi, model=plant)
        assert assert_run_replays(sc, plant, cp, FuzzyEstimator()) is None
        with pytest.raises(BlowUpError) as err:
            run(sc, plant, cp, FuzzyEstimator())
        assert (str(err.value), err.value.time) == (message, time)

    # states found by searching with rk4_step: the first non-finite value of
    # the first substep appears in the input of RK4 stage 2, 3 or 4, or only
    # in the combined step. On SHUT_SPOOL each stage's flow is
    # 0*sqrt(radicand), which is 0*inf = NaN once a stage pressure has
    # overflowed to +inf (v = -1e301).
    @pytest.mark.parametrize("start, plant, stage", [
        ({"v0": 1e301}, PlantParams(), 2),
        ({"v0": 1e250}, PlantParams(), 3),
        ({"x0": 1e250}, PlantParams(), 4),
        ({"v0": 1e185}, PlantParams(), "combine"),
        ({"v0": 1e301}, SHUT_SPOOL, 2),
        ({"v0": -1e301}, SHUT_SPOOL, 2),
    ], ids=["stage2", "stage3", "stage4", "combine", "shut-stage2", "shut-stage2-nan"])
    def test_blow_up_names_the_first_non_finite_stage(self, start, plant, stage, monkeypatch):
        # run checks once per substep and hands the run over to composed_run,
        # whose rk4_step checks every stage and names the first that failed
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=1.0, **start)
        voltages = []  # the held voltage, once per stage called
        with monkeypatch.context() as m:
            m.setattr(sim, "plant_derivatives", lambda x, v, PL, u, ps, p:
                      voltages.append(u) or plant_derivatives(x, v, PL, u, ps, p))
            with pytest.raises(BlowUpError) as ref_err:
                sim.composed_run(sc, plant, cp, FuzzyEstimator())
        assert (dead_zone_output(voltages[0], plant) == 0.0) == (plant is SHUT_SPOOL)
        message = str(ref_err.value)
        after_combine = message.startswith("non-finite x + v + PL after RK4 step: ")
        assert ("combine" if after_combine else len(voltages)) == stage
        assert message.endswith(" (control period starting at t=0 s)")
        with pytest.raises(BlowUpError) as err:
            run(sc, plant, cp, FuzzyEstimator())
        assert (str(err.value), err.value.time) == (message, 0.0)

    @pytest.mark.parametrize("plant, cp, sc, message", [
        # a state next to the largest float, whose x + v + PL overflows after
        # the first substep while each part stays finite
        (SUM_ONLY, ControllerParams(lam=1e-3, model=SUM_ONLY),
         Scenario(duration=0.01, amplitude=0.0, x0=sys.float_info.max),
         "non-finite x + v + PL after RK4 step: x=1.7976931343005368e+308, "
         "v=-8.988461744108407e+301, PL=2.7259642346654553e+304"),
        # at rho = 1e-306 every orifice radicand drop/rho overflows while the
        # state stays finite, and a shut spool's flow is 0*inf = NaN
        (replace(SHUT_SPOOL, rho=1e-306), ControllerParams(model=PlantParams()),
         Scenario(duration=0.05, x0=0.01, v0=0.1, pl0=1e5),
         "non-finite plant state: x=0.0100625, v=0.100048125, PL=nan"),
    ], ids=["sum_only", "shut_spool_infinite_radicand"])
    def test_finite_parts_of_a_non_finite_sum_blow_up(self, plant, cp, sc, message):
        # rk4_step and load_flow follow the kernel's sum check and flow, so
        # both loops blow up at t = 0, with one handover
        assert assert_run_replays(sc, plant, cp, FuzzyEstimator()) is None
        with pytest.raises(BlowUpError) as err:
            run(sc, plant, cp, FuzzyEstimator())
        assert (str(err.value), err.value.time) == (
            f"{message} (control period starting at t=0 s)", 0.0)

    def test_columns_cost_eight_bytes_a_value(self):
        # the twelve series are stored unboxed, 96 bytes a row, and handed to
        # SimResult without a copy: run's peak traced allocation stays within
        # twice that (measured ~120 bytes a row; lists of boxed floats cost
        # ~450)
        sc = Scenario(duration=2.0)
        nominal_run(sc)  # imports and first-call set-up
        tracemalloc.start()
        try:
            res = nominal_run(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in SERIES:
            col = getattr(res, name)
            assert col.dtype == np.float64 and col.shape == (sc.n_steps,), name
            # columns of one row buffer interleave, so they share bounds but no byte
            assert np.may_share_memory(col, res.t), name
        assert peak <= 2 * len(SERIES) * 8 * sc.n_steps, f"{peak / sc.n_steps:.0f} B/row"

    def test_large_finite_error_keeps_a_finite_rms(self, default_run):
        # the run completes with |e| near 1e161: its squares overflow, and
        # the RMS of the metric quarters and of the monitor windows must not
        plant = PlantParams(beta_e=1e-3)
        cp = ControllerParams(model=plant)
        sc = Scenario(duration=1.0, v0=1e160)
        res = run(sc, plant, cp, FuzzyEstimator(), MonitorParams(window=0.1))
        assert np.max(np.abs(res.e)) > math.sqrt(sys.float_info.max)
        pairs = _rms_and_segments(res, 40)
        assert len(pairs) == 2 + 7
        for rms, seg in pairs:
            assert rms == pytest.approx(math.hypot(*seg.tolist()) / math.sqrt(seg.size),
                                        rel=1e-12)
        # where the squares do not overflow, each RMS keeps its plain bits
        for rms, seg in _rms_and_segments(default_run, 4000):
            assert rms == float(np.sqrt(np.mean(seg * seg)))

    def test_results_compare_by_identity(self):
        # a result holds arrays, so it compares and hashes as the one object it is
        a, b = (nominal_run(Scenario(duration=0.01)) for _ in range(2))
        assert a == a
        assert a != b
        assert hash(a) == hash(a)

    def test_pressure_stays_within_supply(self, default_run):
        assert np.all(np.abs(default_run.PL) <= default_run.Ps)


def _rms_and_segments(res, w):
    """Each RMS of res's metrics and monitor windows of w samples, with the
    series segment it was taken over (the transient is the first quarter)."""
    q = len(res.t) // 4
    windows = [res.e[q + k * w:q + (k + 1) * w] for k in range(len(res.monitor.window_rms))]
    return list(zip(
        [res.metrics.rms_xerr_first_quarter, res.metrics.rms_xerr_final_quarter,
         *res.monitor.window_rms],
        [res.xerr[:q], res.xerr[-q:], *windows],
    ))


class TestKernelReplay:
    """run inlines the controller, the estimator and the plant over plain
    floats; sim.composed_run, the loop of the layer functions, is what it must
    equal bit for bit, without handing a completed run over to it.

    The adaptive loop on constant supply is replayed by test_default_run, the
    varying supply by the varying case of test_controller_columns, and the
    frozen branch by its other two cases. The varying case and the
    frozen-300-900 case drive u past both dead-zone edges."""

    # the varying case reaches every branch of the 120 s varying run in an
    # eighth of its steps, with u_hat on both shoulders and in the interior and
    # Ps on both sides of nominal. The last case runs at 300/900 Hz.
    @pytest.mark.parametrize("sc, past_edges", [
        (Scenario(duration=15.0, omega=0.5, supply_pressure_mode="varying"), True),
        (Scenario(duration=5.0, freeze_adaptation=True), False),
        (Scenario(duration=15.0, omega=0.5, dt_control=1 / 300, dt_plant=1 / 900,
                  freeze_adaptation=True), True),
    ], ids=["varying-False", "constant-True", "frozen-300-900"])
    def test_controller_columns(self, sc, past_edges):
        plant = PlantParams()
        ref = assert_run_replays(sc, plant, ControllerParams(model=plant), FuzzyEstimator())
        u, uhat, Ps = ref.u, ref.uhat, ref.Ps
        if past_edges:
            assert u.min() < plant.delta_l and u.max() > plant.delta_r
        if sc.supply_pressure_mode == "varying":
            assert Ps.min() < plant.Ps < Ps.max()
            c = DEFAULT_CENTERS
            assert np.any(uhat <= c[0]) and np.any(uhat >= c[-1])
            assert np.any((uhat > c[0]) & (uhat < c[-1]))

    def test_default_run(self):
        # the one replay of the default 120 s run, whose series the energy
        # check reads
        plant = PlantParams()
        assert_run_replays(Scenario(), plant, ControllerParams(model=plant), FuzzyEstimator())

    @pytest.mark.parametrize("mode", ["constant", "varying"])
    def test_mismatched_model(self, mode):
        # the controller's model differs from the plant in every constant but
        # the dead zone, which it never reads
        plant = PlantParams()
        model = replace(plant, Ps=6.5e6, rho=860.0, Cd=0.62, w=0.026, Ap=3.1e-4,
                        Ctp=3e-12, beta_e=7.5e8, Vt=6.2e-5, Mt=260.0, Bp=110.0,
                        K=80.0, kv=2.1e-6)
        assert [f.name for f in fields(PlantParams)
                if getattr(model, f.name) == getattr(plant, f.name)] == ["delta_l", "delta_r"]
        sc = Scenario(duration=5.0, supply_pressure_mode=mode)
        ref = assert_run_replays(sc, plant, ControllerParams(model=model), FuzzyEstimator())
        matched = run(sc, plant, ControllerParams(model=plant), FuzzyEstimator())
        assert not np.array_equal(ref.x, matched.x)

    def test_non_default_grid_and_start(self):
        # a faster reference drives u_hat past both shoulders and through the
        # interior; the consequents start away from zero
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        centers = (-0.3, -0.05, 0.0, 0.05, 0.3)
        est = FuzzyEstimator(centers, (-0.6, -0.2, 0.0, 0.2, 0.5))
        sc = Scenario(duration=15.0, omega=0.5)
        uhat = assert_run_replays(sc, plant, cp, est).uhat
        assert np.any(uhat <= centers[0]) and np.any(uhat >= centers[-1])
        assert np.any((uhat > centers[0]) & (uhat < centers[-1]))


def _score(e, uhat=None, dhat=None, d=None, centers=DEFAULT_CENTERS, monitor=MonitorParams()):
    """The metrics and report run's scorer gives a series e at the default
    400 Hz, with zero xerr, and uhat, dhat and d zero unless given."""
    z = np.zeros(len(e))
    series = {"xerr": z, "d": z if d is None else d, "dhat": z if dhat is None else dhat,
              "e": np.asarray(e, dtype=float), "uhat": z if uhat is None else uhat}
    return sim._compute_metrics(series, 0.0025, centers, monitor)


class TestMonitorParamsValidation:
    # the non-finite windows are config cases of test_cli.py
    @pytest.mark.parametrize("window", [-5.0, 0.0])
    def test_rejects(self, window):
        with pytest.raises(ValueError, match="window"):
            MonitorParams(window=window)


class TestStabilityMonitor:
    def test_zero_error_series_clean(self):
        rep = _score(np.zeros(48000))[1]
        assert rep.rms_violations == 0
        assert rep.final_window_mean_abs_e == 0.0
        assert rep.sign_violations == 0

    def test_growing_error_flags_every_pair(self):
        rep = _score(np.linspace(0.001, 10.0, 48000))[1]
        assert len(rep.window_rms) == 9
        assert rep.rms_violations == 8

    def test_sign_check_counts_mismatches(self):
        # right of the innermost positive center an estimate <= 0 is a
        # mismatch, and mirrored left of the innermost negative one; on those
        # centers or between them nothing counts
        n = 48000
        cases = [(0.2, -0.05, 4000),  # every sample of the final 10 s window
                 (0.2, 0.0, 4000), (0.2, 0.05, 0), (0.05, -0.05, 0), (0.03, -0.05, 0)]
        for sign in (1.0, -1.0):
            for uhat, dhat, count in cases:
                rep = _score(np.zeros(n), uhat=np.full(n, sign * uhat),
                             dhat=np.full(n, sign * dhat))[1]
                assert rep.sign_violations == count, (sign * uhat, sign * dhat)

    def test_estimate_error_quarters(self):
        # mean |d_hat - d| over the first quarter and over the final one
        d = np.full(400, 0.9)
        dhat = np.full(400, 0.5)
        dhat[:100], dhat[300:] = -0.1, 0.65
        metrics = _score(np.zeros(400), dhat=dhat, d=d)[0]
        assert metrics.mean_dz_err_first_quarter == pytest.approx(1.0, rel=1e-12)
        assert metrics.mean_dz_err_final_quarter == pytest.approx(0.25, rel=1e-12)

    def test_threshold_comparison(self, capsys):
        # the summary compares the final-window mean |e| with its bound, 0.1
        for mean, verdict in ((0.2, "EXCEEDED"), (0.05, "ok")):
            metrics, rep = _score(np.full(48000, mean))
            summarize(SimpleNamespace(metrics=metrics, monitor=rep), elapsed=0.0)
            assert f": {mean:.6g} (threshold 0.1, {verdict})" in capsys.readouterr().out

    def test_sign_check_on_one_sided_grids(self):
        # a grid with no center on one side counts nothing on that side, and
        # on the other counts what the symmetric grid counts
        n = 48000
        symmetric = (-0.5, -0.1, 0.1, 0.5)
        for side in (1.0, -1.0):
            grid = (-0.5, -0.1) if side > 0.0 else (0.1, 0.5)  # no center on this side
            missing, present = ({"e": np.zeros(n), "uhat": np.full(n, s * 0.2),
                                 "dhat": np.full(n, -s * 0.05)} for s in (side, -side))
            for series in (missing, present):
                assert _score(**series, centers=symmetric)[1].sign_violations == 4000
            assert _score(**missing, centers=grid)[1].sign_violations == 0
            assert _score(**present, centers=grid)[1].sign_violations == 4000

    def test_sign_check_uses_the_run_grid(self):
        # innermost centers at +/-0.2 instead of the default +/-0.05
        series = {"e": np.zeros(48000), "uhat": np.full(48000, 0.1),
                  "dhat": np.full(48000, -0.05)}
        assert _score(**series)[1].sign_violations == 4000
        grid = (-0.5, -0.2, 0.0, 0.2, 0.5)
        assert _score(**series, centers=grid)[1].sign_violations == 0

    def test_overflowing_window_next_to_plain_ones(self):
        # only the window whose squares overflow is rescaled; the others keep
        # the bits of their plain RMS (a constant row would rescale exactly,
        # so the plain windows carry a ripple)
        e = 1e-3 * (1.5 + np.sin(0.01 * np.arange(48000)))
        q, w = 12000, 4000
        e[q + 4 * w:q + 5 * w] = 1e200
        rep = _score(e)[1]
        assert len(rep.window_rms) == 9
        for k, rms in enumerate(rep.window_rms):
            seg = e[q + k * w:q + (k + 1) * w]
            if k == 4:
                assert rms == pytest.approx(math.hypot(*seg) / math.sqrt(seg.size), rel=1e-12)
            else:
                assert rms == float(np.sqrt(np.mean(seg * seg)))
        assert rep.rms_violations == 1

    def test_window_too_long_to_count_scores_zero_windows(self):
        # window / dt_control overflows an int; it scores like any window
        # longer than the run
        sc = Scenario(duration=1.0)
        huge = nominal_run(sc, monitor=MonitorParams(window=1e308))
        assert huge.monitor.window_rms == ()
        long = nominal_run(sc, monitor=MonitorParams(window=1000.0))
        assert huge.monitor == long.monitor
        # the shortest run Scenario allows, 4 rows, scores none of its 10 s windows
        assert _score(np.zeros(4))[1].window_rms == ()

    def test_run_scores_with_its_grid(self):
        # run's report is its scorer's on its series and its estimator's own
        # grid, which here flags different samples than the default grid
        est = FuzzyEstimator((-0.5, -0.2, 0.0, 0.2, 0.5))
        res = nominal_run(Scenario(duration=15.0, omega=0.5), est)
        series = vars(res)
        assert res.monitor == sim._compute_metrics(series, 0.0025, est.centers,
                                                   MonitorParams())[1]
        assert res.monitor != sim._compute_metrics(series, 0.0025, DEFAULT_CENTERS,
                                                   MonitorParams())[1]


class TestClosedLoopProperties:
    def test_temporal_convergence_on_plant_rate(self, default_run):
        # halving dt_plant moves the final-quarter RMS tracking error by < 1%
        fine = nominal_run(Scenario(dt_plant=1 / 1600))
        a = default_run.metrics.rms_xerr_final_quarter
        b = fine.metrics.rms_xerr_final_quarter
        assert abs(b - a) / a < 0.01

    def test_e2_decrease_fraction(self, default_run):
        """The energy argument of the control law: its Lyapunov function
        V = e^2/(2b) + |theta - theta*|^2/(2 phi) is non-increasing in at least
        99% of the post-transient samples with |e| >= 1e-3.

        The argument bounds V, not e^2 alone: with the compensation exact, e may
        still rise where it sits at its floor, the zero-order hold's
        sampled_data_floor, about 7e-4. Below it the sign of a one-sample
        change in V says nothing of the law.
        """
        plant = PlantParams()
        cp = ControllerParams(model=plant)
        sc = Scenario()
        V = lyapunov_series(default_run, FuzzyEstimator(), plant, cp, sc.dt_control)
        floor = sampled_data_floor(sc, cp)
        threshold = 1e-3
        i0 = max(1, len(V) // 4)
        counted = np.abs(default_run.e[i0:]) >= threshold
        frac = float(np.mean(V[i0:][counted] <= V[i0 - 1:-1][counted]))
        print(f"\n  V non-increase fraction (post-transient, |e| >= {threshold:g}, "
              f"sampled-data floor {floor:.2g}): {frac:.4f} over {counted.sum()} samples")
        assert threshold > floor
        assert frac >= 0.99

    def test_exact_inverse_error_sits_at_the_sampled_data_floor(self):
        """With the dead zone inverted exactly, what is left of e on constant
        supply is the zero-order hold's: the final-quarter max |e| is within a
        factor of two of sampled_data_floor."""
        plant = PlantParams()
        est, cp = exact_inverse(plant)
        sc = Scenario()
        e = run(sc, plant, cp, est).e
        ratio = float(np.max(np.abs(e[len(e) - len(e) // 4:]))) / sampled_data_floor(sc, cp)
        print(f"\n  exact inverse, final-quarter max |e| / sampled-data floor: {ratio:.3f}")
        assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize("kappa, rate, product, blows_up", [
        (6.0, 400, 2.29, False), (7.0, 400, 2.67, True), (7.0, 800, 1.33, False),
    ], ids=["6-at-400Hz", "7-at-400Hz", "7-at-800Hz"])
    def test_kappa_ceiling_doubles_with_rate(self, kappa, rate, product, blows_up):
        """One held control period scales e by about 1 - kappa*b0*dt_control, so
        the ceiling in kappa, near kappa*b0*dt_control = 2, doubles with the rate."""
        plant = PlantParams()
        b0 = input_gain_b(0.0, 0.0, 0.0, 1.0, plant)
        assert round(b0, 2) == 152.46
        assert round(kappa * b0 / rate, 2) == product
        sc = Scenario(duration=20.0, dt_plant=0.5 / rate, dt_control=1.0 / rate)
        cp = ControllerParams(kappa=kappa, model=plant)
        if blows_up:
            with pytest.raises(BlowUpError) as err:
                run(sc, plant, cp, FuzzyEstimator())
            assert err.value.time < 1.0
        else:
            assert run(sc, plant, cp, FuzzyEstimator()).t[-1] > 19.9
