"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with the measured numbers before asserting at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np
import pytest
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
from ehservo.cli import write_csv
from ehservo.sim import SERIES
from reference import nominal_run
from test_fuzzy import ratio_form
from test_properties import linear_plant_matrix


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    return ok


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
    ok = exact == len(us) and bounded == len(us) and elapsed < 1.0
    _report(
        "dead-zone identity suite", ok,
        f"{exact}/{len(us)} exact, {bounded}/{len(us)} in band, {elapsed:.2f} s (< 1 s)",
    )
    assert exact == len(us)
    assert bounded == len(us)
    assert elapsed < 1.0


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

    ok = worst_rel <= 1e-12 and worst_pu <= 1e-12
    _report(
        "fuzzy oracle equivalence", ok,
        f"worst relative gap {worst_rel:.2e} (<= 1e-12), "
        f"worst partition defect {worst_pu:.2e} (<= 1e-12)",
    )
    assert worst_rel <= 1e-12
    assert worst_pu <= 1e-12


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
    worst = max(abs(got - want) / abs(want) for got, want in expected.values())
    ok = worst <= 1e-12
    _report(
        "coefficient arithmetic", ok,
        f"a0={a0:.12g} a1={a1:.12g} a2={a2:.12g} b={b:.12g}, "
        f"worst relative error {worst:.2e} (<= 1e-12)",
    )
    for name, (got, want) in expected.items():
        assert got == pytest.approx(want, rel=1e-12), name


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
            s = rk4_step(*s, 0.0, dt, p)
            exact = phi @ exact
            worst = max(worst, abs(s[0] - exact[0]))
        errors.append(worst)
    p1 = math.log2(errors[0] / errors[1])
    p2 = math.log2(errors[1] / errors[2])
    ok = errors[0] < 1e-9 and 3.7 <= p1 <= 4.3 and 3.7 <= p2 <= 4.3
    _report(
        "integrator order", ok,
        f"max errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, "
        f"orders {p1:.3f}, {p2:.3f} (within [3.7, 4.3])",
    )
    assert errors[0] < 1e-9
    assert 3.7 <= p1 <= 4.3
    assert 3.7 <= p2 <= 4.3


def test_fig3_tracking_and_estimator_convergence(default_run, long_run):
    """Constant supply, 0.5 sin(0.1 t) reference, 120 s: the final quarter must
    show a five-fold RMS tracking improvement over the first, the dead-zone
    estimate a two-fold improvement, inside 10 s of wall clock. The clock
    times the 260 s run that the 120 s run is the prefix of."""
    _, elapsed = long_run
    m = default_run.metrics
    rms_ratio = m.rms_xerr_final_quarter / m.rms_xerr_first_quarter
    dz_ratio = m.mean_dz_err_final_quarter / m.mean_dz_err_first_quarter
    ok = rms_ratio <= 0.20 and dz_ratio <= 0.50 and elapsed < 10.0
    _report(
        "tracking-run reproduction", ok,
        f"rms ratio {rms_ratio:.3f} (<= 0.20), estimate ratio {dz_ratio:.3f} (<= 0.50), "
        f"{elapsed:.2f} s (< 10 s)",
    )
    assert elapsed < 10.0
    assert dz_ratio <= 0.50
    assert rms_ratio <= 0.20


def test_fig4_varying_supply_robustness(default_run, varying_run):
    """Supply pressure swinging with position (about +/-9.6% over the run):
    completes without blow-up and stays within 1.5x the constant-supply
    tracking error."""
    ratio = (varying_run.metrics.rms_xerr_final_quarter
             / default_run.metrics.rms_xerr_final_quarter)
    ok = ratio <= 1.5
    _report(
        "varying-supply robustness", ok,
        f"completed without blow-up, final-quarter rms ratio {ratio:.3f} (<= 1.5)",
    )
    assert ratio <= 1.5


def test_ablation_frozen_adaptation(default_run, frozen_run):
    """Disabling adaptation (zero compensation) must degrade tracking."""
    a = default_run.metrics.rms_xerr_final_quarter
    f = frozen_run.metrics.rms_xerr_final_quarter
    ok = f > a
    _report(
        "frozen-adaptation ablation", ok,
        f"frozen rms {f:.4g} vs adaptive rms {a:.4g} ({f/a:.1f}x worse)",
    )
    assert f > a


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
    ok = len(report.window_rms) >= 3 and violations == 0
    _report(
        "stability monitor", ok,
        f"{violations} window violations of {max(len(report.window_rms) - 1, 0)} "
        f"pairs of {period:.1f} s windows (require 0, with >= 2 pairs); window rms "
        + ", ".join(f"{w:.3g}" for w in report.window_rms),
    )
    assert len(report.window_rms) >= 3
    assert violations == 0
    assert report.rms_violations == violations


def test_determinism_byte_identical_csv(default_run, tmp_path):
    """A fresh default run must hold the series of the default_run fixture,
    the first 120 s of the 260 s run, bit for bit, score to equal metrics and
    monitor report, and serialize to a byte-identical CSV: one check of
    determinism, of the prefix property and of the fixture's rescoring."""
    fresh = nominal_run(Scenario())
    differ = [name for name in SERIES
              if getattr(default_run, name).tobytes() != getattr(fresh, name).tobytes()]
    scores = (fresh.metrics, fresh.monitor) == (default_run.metrics, default_run.monitor)
    p1, p2 = tmp_path / "prefix.csv", tmp_path / "fresh.csv"
    write_csv(default_run, p1)
    write_csv(fresh, p2)
    same = p1.read_bytes() == p2.read_bytes()
    _report(
        "determinism", same and scores and not differ,
        f"fresh 120 s run against the 260 s run's prefix, series differing bitwise: "
        f"{differ or 'none'}, equal scores: {scores}, {p1.stat().st_size} bytes each, "
        f"byte-identical: {same}",
    )
    assert not differ
    assert scores
    assert same
