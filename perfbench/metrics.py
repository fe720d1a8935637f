"""Metric registry: every metric the benchmark emits, its unit and direction.

End-to-end metrics are measured with tracing off. Per-layer metrics come
from a traced run and are computed from one traced pass's span aggregates;
each names the end-to-end metric it should move, and on which workloads.
BENCHMARK.json lists the same names, units and directions; the self-test
checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                  # "lower" or "higher"
    meaning: str


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "a fresh interpreter imports ehservo and resolves the default config "
           "(median of 15, spread over the run)"),
    Metric("wall_ms", "ms", "lower",
           "one pass of the workload at 1 s scenarios, CLI parsing, CSV writing and the summary "
           "included (sum over its units of each unit's fastest time)"),
    Metric("sim_s_per_s", "s/s", "higher",
           "simulated seconds per host second spent inside sim.run (sum over the units of a "
           "short pass of each unit's fastest time)"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the process that ran the passes"),
    Metric("completed_frac", "ratio", "higher",
           "scenarios that ran and passed every output check, over scenarios attempted"),
    Metric("rms_xerr_final_m", "m", "lower",
           "final-quarter RMS tracking error, mean over completed scenarios"),
    Metric("rms_ratio", "ratio", "lower",
           "final-quarter over first-quarter RMS tracking error, mean over completed scenarios"),
    Metric("dz_err_final_v", "V", "lower",
           "final-quarter mean |dhat - d|, mean over completed scenarios"),
    Metric("monitor_violations", "count", "lower",
           "rms-window plus estimate-sign violations, summed over the scenarios of one pass"),
)


@dataclass(frozen=True)
class PassTrace:
    """Span aggregates and counters of one traced pass."""

    stats: dict[str, tuple[int, int, int]]       # name -> (calls, total_ns, self_ns)
    counters: dict[str, int]
    csv_bytes: int

    def calls(self, span: str) -> int:
        return self.stats.get(span, (0, 0, 0))[0]

    def total_s(self, span: str) -> float:
        return self.stats.get(span, (0, 0, 0))[1] / 1e9

    def self_s(self, span: str) -> float:
        return self.stats.get(span, (0, 0, 0))[2] / 1e9

    def self_us(self, span: str) -> float:
        """Mean self time per call; 0 for a function that is never called."""
        calls = self.calls(span)
        return self.self_s(span) * 1e6 / calls if calls else 0.0


@dataclass(frozen=True)
class LayerMetric(Metric):
    value: Callable[[PassTrace], float]


def _calls(span):
    return lambda tr: tr.calls(span)


def _self_us(span):
    return lambda tr: tr.self_us(span)


def _total_s(*spans):
    return lambda tr: sum(tr.total_s(s) for s in spans)


def _useful_frac(tr: PassTrace) -> float:
    calls = tr.calls("fuzzy.adapt")
    return tr.counters.get("fuzzy.adapt.useful", 0) / calls if calls else 0.0


def _controller_self_s(tr: PassTrace) -> float:
    return sum(tr.self_s(name) for name in tr.stats if name.startswith("controller."))


ALL = "sim_s_per_s on constant, varying and sweep"
ADAPTIVE = "sim_s_per_s on constant and varying; about half as much on sweep"

PER_LAYER = (
    LayerMetric("plant.derivatives.calls", "count", "lower", ALL, _calls("plant.derivatives")),
    LayerMetric("plant.derivatives.self_us", "us", "lower", ALL, _self_us("plant.derivatives")),
    LayerMetric("plant.load_flow.self_us", "us", "lower", ALL, _self_us("plant.load_flow")),
    LayerMetric("plant.params_built", "count", "lower",
                "sim_s_per_s on varying only (about 0 on constant and sweep)",
                _calls("plant.params_init")),
    LayerMetric("plant.params_init.self_us", "us", "lower",
                "sim_s_per_s on varying only", _self_us("plant.params_init")),
    LayerMetric("sim.control_steps", "count", "lower", ALL,
                lambda tr: tr.counters.get("sim.control_steps", 0)),
    LayerMetric("sim.rk4_step.calls", "count", "lower", ALL, _calls("sim.rk4_step")),
    LayerMetric("sim.rk4_step.self_us", "us", "lower", ALL, _self_us("sim.rk4_step")),
    LayerMetric("sim.reference_at.self_us", "us", "lower", ALL, _self_us("sim.reference_at")),
    LayerMetric("sim.supply_pressure.calls", "count", "lower", ALL,
                _calls("sim.supply_pressure")),
    LayerMetric("sim.run.self_s", "s", "lower",
                ALL + "; also peak_rss_mb, since the row lists live there",
                lambda tr: tr.self_s("sim.run")),
    LayerMetric("sim.scoring_s", "s", "lower", "wall_ms, most on sweep",
                _total_s("sim.monitor_series", "sim.compute_metrics")),
    LayerMetric("sim.blowups", "count", "lower", "completed_frac",
                lambda tr: tr.counters.get("sim.blowups", 0)),
    LayerMetric("controller.input_gain_b.self_us", "us", "lower", ALL,
                _self_us("controller.input_gain_b")),
    LayerMetric("controller.equivalent_control.self_us", "us", "lower", ALL,
                _self_us("controller.equivalent_control")),
    LayerMetric("controller.combined_error.self_us", "us", "lower", ALL,
                _self_us("controller.combined_error")),
    LayerMetric("controller.control_law.self_us", "us", "lower", ALL,
                _self_us("controller.control_law")),
    LayerMetric("controller.self_s", "s", "lower", ALL, _controller_self_s),
    LayerMetric("fuzzy.membership.self_us", "us", "lower", ADAPTIVE,
                _self_us("fuzzy.membership")),
    LayerMetric("fuzzy.infer.self_us", "us", "lower", ADAPTIVE, _self_us("fuzzy.infer")),
    LayerMetric("fuzzy.adapt.calls", "count", "lower", ADAPTIVE, _calls("fuzzy.adapt")),
    LayerMetric("fuzzy.adapt.self_us", "us", "lower", ADAPTIVE, _self_us("fuzzy.adapt")),
    LayerMetric("fuzzy.estimators_built", "count", "lower", ADAPTIVE,
                _calls("fuzzy.estimator_init")),
    LayerMetric("fuzzy.estimator_init.self_us", "us", "lower", ADAPTIVE,
                _self_us("fuzzy.estimator_init")),
    LayerMetric("fuzzy.adapt.useful_frac", "ratio", "higher", ADAPTIVE, _useful_frac),
    LayerMetric("cli.resolve_config_s", "s", "lower", "setup_s, and wall_ms on sweep",
                _total_s("cli.resolve_config")),
    LayerMetric("cli.write_csv_s", "s", "lower",
                "wall_ms on constant and varying only, never sim_s_per_s",
                _total_s("cli.write_csv")),
    LayerMetric("cli.csv_bytes", "B", "lower",
                "wall_ms on constant and varying only, never sim_s_per_s",
                lambda tr: tr.csv_bytes),
    LayerMetric("cli.summarize_s", "s", "lower", "wall_ms on constant and varying only",
                _total_s("cli.summarize")),
)

# Computed from the whole traced run rather than from one pass.
OVERHEAD = Metric("trace.overhead_ratio", "ratio", "lower",
                  "median traced over median untraced full-size pass time in the same run")

PER_LAYER_ALL = PER_LAYER + (OVERHEAD,)
