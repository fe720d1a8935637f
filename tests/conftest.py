"""Shared fixtures: the long closed-loop runs are session-scoped because several
test modules score the same three 120 s scenarios."""

import math
import time

import pytest

from ehservo import ControllerParams, FuzzyEstimator, MonitorParams, PlantParams, Scenario, run
from reference import assert_run_replays


@pytest.fixture(scope="session")
def nominal_plant():
    return PlantParams()


@pytest.fixture(scope="session")
def nominal_controller(nominal_plant):
    return ControllerParams(model=nominal_plant)


@pytest.fixture(scope="session")
def zero_estimator():
    return FuzzyEstimator()


@pytest.fixture(scope="session")
def default_run(nominal_plant, nominal_controller, zero_estimator):
    """Default 120 s constant-supply run plus its wall-clock time."""
    start = time.perf_counter()
    result = run(Scenario(), nominal_plant, nominal_controller, zero_estimator)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="session")
def default_reference(nominal_plant, nominal_controller, zero_estimator, default_run):
    """The reference loop's replay of the default run, which the run must
    equal bit for bit; it carries the gain and consequents of every step."""
    return assert_run_replays(Scenario(), nominal_plant, nominal_controller, zero_estimator,
                              default_run[0])


@pytest.fixture(scope="session")
def varying_run(nominal_plant, nominal_controller, zero_estimator):
    """Same scenario with the supply pressure Ps*(1 + 0.2*sin x): about +/-9.6%
    over the |x| <= 0.5 m the reference spans."""
    scenario = Scenario(supply_pressure_mode="varying")
    return run(scenario, nominal_plant, nominal_controller, zero_estimator)


@pytest.fixture(scope="session")
def frozen_run(nominal_plant, nominal_controller, zero_estimator):
    """Ablation: adaptation disabled, compensation forced to zero."""
    scenario = Scenario(freeze_adaptation=True)
    return run(scenario, nominal_plant, nominal_controller, zero_estimator)


@pytest.fixture(scope="session")
def long_run(nominal_plant, nominal_controller, zero_estimator):
    """Constant-supply run of 260 s, its monitor windows one period of the
    62.8 s reference: after the 25% transient it still holds three of them."""
    scenario = Scenario(duration=260.0)
    period = 2.0 * math.pi / scenario.omega
    return run(scenario, nominal_plant, nominal_controller, zero_estimator,
               MonitorParams(window=period))
