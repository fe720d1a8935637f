"""Shared fixtures: the closed-loop runs are session-scoped because several
test modules score the same scenarios.

The default settings are simulated once, for 260 s. Nothing in the loop reads
n_steps, so a run is a bit-for-bit prefix of any longer run with the same
settings: the default 120 s run is the first Scenario().n_steps rows of the
260 s one, which test_determinism_byte_identical_csv holds to a fresh run."""

import math
import time

import pytest

from ehservo import FuzzyEstimator, MonitorParams, Scenario
from ehservo import sim
from ehservo.sim import SERIES, SimResult
from reference import nominal_run


@pytest.fixture(scope="session")
def long_run():
    """Constant-supply run of 260 s plus its wall-clock time, its monitor
    windows one period of the 62.8 s reference: after the 25% transient it
    still holds three of them."""
    scenario = Scenario(duration=260.0)
    start = time.perf_counter()
    result = nominal_run(scenario, monitor=MonitorParams(window=2.0 * math.pi / scenario.omega))
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def default_run(long_run):
    """The default 120 s constant-supply run: the first Scenario().n_steps rows
    of long_run, scored as run scores the default run."""
    sc = Scenario()
    series = {name: getattr(long_run[0], name)[:sc.n_steps] for name in SERIES}
    metrics, monitor = sim._compute_metrics(series, sc.dt_control, FuzzyEstimator().centers,
                                            MonitorParams())
    return SimResult(**series, metrics=metrics, monitor=monitor)


@pytest.fixture(scope="session")
def varying_run():
    """Same scenario with the supply pressure Ps*(1 + 0.2*sin x): about +/-9.6%
    over the |x| <= 0.5 m the reference spans."""
    return nominal_run(Scenario(supply_pressure_mode="varying"))


@pytest.fixture(scope="session")
def frozen_run():
    """Ablation: adaptation disabled, compensation forced to zero."""
    return nominal_run(Scenario(freeze_adaptation=True))
