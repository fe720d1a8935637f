"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with the measured numbers before asserting at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import operator
import time

import numpy as np
from scipy.linalg import expm

from ehservo import (
    FuzzyEstimator,
    PlantParams,
    Scenario,
    dead_zone_d,
    dead_zone_output,
    infer,
    input_gain_b,
    membership,
    model_coefficients,
    rk4_step,
)
from ehservo.sim import SERIES
from reference import nominal_run
from test_fuzzy import ratio_form
from test_properties import linear_plant_matrix


_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


def _accept(name, checks, note=""):
    """Print the criterion's PASS/FAIL line from its (label, value, op, bound)
    checks, then assert every check, so the printed and the asserted bound
    are one value."""
    failed = [f"{label} {value!r} is not {op} {bound!r}"
              for label, value, op, bound in checks if not _OPS[op](value, bound)]
    detail = ", ".join(f"{label} {value:.4g} ({op} {bound:.4g})" if isinstance(value, float)
                       else f"{label} {value} ({op} {bound})"
                       for label, value, op, bound in checks)
    print(f"\nACCEPTANCE {'FAIL' if failed else 'PASS'}: {name}: {detail}{note}")
    assert not failed, f"{name}: {'; '.join(failed)}"


def test_dead_zone_identity_suite():
    """10^5 random voltages: exact decomposition identity, d(u) within the band."""
    p = PlantParams()
    rng = np.random.default_rng(2024)
    us = rng.uniform(-5.0, 5.0, 100_000)
    start = time.perf_counter()
    exact = 0
    bounded = 0
    for u in us:
        d = dead_zone_d(u, p)
        exact += dead_zone_output(u, p) == p.kv * (u - d)
        bounded += p.delta_l <= d <= p.delta_r
    elapsed = time.perf_counter() - start
    _accept("dead-zone identity suite", [
        ("exact", exact, "==", len(us)),
        ("in band", bounded, "==", len(us)),
        ("seconds", elapsed, "<", 1.0),
    ])


def test_fuzzy_oracle_equivalence():
    """Vector-form inference matches the independently coded ratio form; the
    membership basis is a partition of unity."""
    centers = FuzzyEstimator().centers
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    for _ in range(10_000):
        d_hat = tuple(rng.normal(scale=2.0, size=len(centers)))
        u_hat = rng.uniform(-1.5, 1.5)
        got = infer(d_hat, membership(u_hat, centers))
        want = ratio_form(u_hat, centers, d_hat)
        denom = max(abs(want), 1e-30)
        worst_rel = max(worst_rel, abs(got - want) / denom)

    worst_pu = 0.0
    for u in np.linspace(-2.2, 2.2, 10_000):
        worst_pu = max(worst_pu, abs(sum(membership(u, centers)) - 1.0))

    _accept("fuzzy oracle equivalence", [
        ("worst relative gap", worst_rel, "<=", 1e-12),
        ("worst partition defect", worst_pu, "<=", 1e-12),
    ])


def test_coefficient_arithmetic():
    """Model coefficients and the rest-state input gain match the brute-force
    arithmetic script (high-precision decimal/fraction math, run beforehand)
    to 12 significant digits."""
    model = PlantParams(kv=1e-5)
    a0, a1, a2 = model_coefficients(model)
    b = input_gain_b(0.0, 0.0, 0.0, 1.0, model)
    expected = {
        "a0": (a0, 28.0),
        "a1": (a1, 16837.633333333333),
        "a2": (a2, 93.73333333333333),
        "b": (b, 762.2875788973453),
    }
    _accept("coefficient arithmetic", [
        (f"{name} relative error", abs(got - want) / abs(want), "<=", 1e-12)
        for name, (got, want) in expected.items()
    ], note=f"; a0={a0:.12g} a1={a1:.12g} a2={a2:.12g} b={b:.12g}")


def test_integrator_order():
    """With zero input the plant is linear; against the matrix-exponential
    closed form the RK4 error shrinks at fourth order across the three rates."""
    p = PlantParams()
    A = linear_plant_matrix(p)
    x0 = np.array([0.05, 0.0, 0.0])
    T = 0.5
    errors = []
    for dt in (1 / 800, 1 / 1600, 1 / 3200):
        phi = expm(A * dt)
        s = tuple(x0)
        exact = x0.copy()
        worst = 0.0
        for _ in range(round(T / dt)):
            s = rk4_step(*s, 0.0, p.Ps, dt, p)
            exact = phi @ exact
            worst = max(worst, abs(s[0] - exact[0]))
        errors.append(worst)
    orders = {"800/1600 Hz": math.log2(errors[0] / errors[1]),
              "1600/3200 Hz": math.log2(errors[1] / errors[2])}
    _accept("integrator order", [
        ("max error at 800 Hz", errors[0], "<", 1e-9),
        *[(f"order {rates}", order, op, bound) for rates, order in orders.items()
          for op, bound in ((">=", 3.7), ("<=", 4.3))],
    ], note=f"; max errors at 1600 and 3200 Hz {errors[1]:.2e}, {errors[2]:.2e}")


def test_fig3_tracking_and_estimator_convergence(default_run, long_run):
    """Constant supply, 0.5 sin(0.1 t) reference, 120 s: the final quarter must
    show a five-fold RMS tracking improvement over the first, the dead-zone
    estimate a two-fold improvement, inside 10 s of wall clock. The clock
    times the 260 s run that the 120 s run is the prefix of."""
    _, elapsed = long_run
    m = default_run.metrics
    _accept("tracking-run reproduction", [
        ("seconds", elapsed, "<", 10.0),
        ("estimate ratio", m.mean_dz_err_final_quarter / m.mean_dz_err_first_quarter, "<=", 0.50),
        ("rms ratio", m.rms_xerr_final_quarter / m.rms_xerr_first_quarter, "<=", 0.20),
    ])


def test_fig4_varying_supply_robustness(default_run, varying_run):
    """Supply pressure swinging with position (about +/-9.6% over the run):
    completes without blow-up and stays within 1.5x the constant-supply
    tracking error."""
    ratio = (varying_run.metrics.rms_xerr_final_quarter
             / default_run.metrics.rms_xerr_final_quarter)
    _accept("varying-supply robustness", [("final-quarter rms ratio", ratio, "<=", 1.5)],
            note="; completed without blow-up")


def test_ablation_frozen_adaptation(default_run, frozen_run):
    """Disabling adaptation (zero compensation) must degrade tracking."""
    a = default_run.metrics.rms_xerr_final_quarter
    f = frozen_run.metrics.rms_xerr_final_quarter
    _accept("frozen-adaptation ablation", [("frozen rms", f, ">", a)],
            note=f"; {f / a:.1f}x the adaptive rms")


def test_window_monitor_violations(long_run):
    """Windowed RMS of the combined error must never grow beyond the 1.05
    factor between consecutive windows after the 25% transient.

    Each window is one period of the reference, so every window holds the same
    events: both reversals of the reference velocity, each with one crossing of
    the dead band, one in either direction. A 10 s window either holds a
    crossing or does not, and its RMS then differs by two orders of magnitude
    from its neighbour's; comparing such windows measures where the reversals
    fall, not whether the error grows. At least three windows (two pairs) are
    required, so the check cannot pass on no comparison at all.
    """
    period = 2.0 * math.pi / Scenario().omega
    report = long_run[0].monitor
    # the 1.05 bound is applied here too, so the monitor's constant cannot loosen it
    violations = sum(
        1 for lo, hi in zip(report.window_rms, report.window_rms[1:]) if not hi <= 1.05 * lo
    )
    _accept("stability monitor", [
        (f"{period:.1f} s windows", len(report.window_rms), ">=", 3),
        ("window violations", violations, "==", 0),
        ("the monitor's count", report.rms_violations, "==", violations),
    ], note="; window rms " + ", ".join(f"{w:.3g}" for w in report.window_rms))


def test_determinism_byte_identical_csv(default_run):
    """A fresh default run must hold the series of the default_run fixture,
    the first 120 s of the 260 s run, bit for bit, and score to equal metrics
    and monitor report: one check of determinism, of the prefix property and
    of the fixture's rescoring. The CSV is a function of the series, and
    test_default_runs_keep_their_digests pins the prefix's CSV bytes."""
    fresh = nominal_run(Scenario())
    differ = [name for name in SERIES
              if getattr(default_run, name).tobytes() != getattr(fresh, name).tobytes()]
    scores = (fresh.metrics, fresh.monitor) == (default_run.metrics, default_run.monitor)
    _accept("determinism", [
        ("series differing bitwise", differ, "==", []),
        ("equal scores", scores, "==", True),
    ], note="; fresh 120 s run against the 260 s run's prefix")
