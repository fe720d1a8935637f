"""In-memory span tracer that patches ehservo's functions from outside.

Each wrapped function is patched on the module whose globals its caller
resolves (``sim.run`` looks up ``ehservo.sim.plant_derivatives``, the CLI
looks up ``ehservo.cli.write_csv``), so the package itself is never edited.
A function that is gone, for example because it was inlined into its caller,
is skipped: it reports 0 calls and its time shows up in the caller's self
time.

Every call updates a per-name aggregate (calls, total and self nanoseconds),
where self time is the call's duration minus the time covered by wrapped
calls made inside it. Individual spans, with their parent's id, are kept only
for the coarse layer boundaries (a pass, ``cli.main``, ``sim.run``,
config resolution, scoring and CSV writing): the inner loop makes about two
million wrapped calls per 120 s run, too many to hold one record each.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name, keep individual spans). Attributes with a dot
# are methods on a class of that module; wrapping a dataclass's __post_init__
# counts its constructions.
TARGETS = (
    ("ehservo.cli", "main", "cli.main", True),
    ("ehservo.cli", "resolve_config", "cli.resolve_config", True),
    ("ehservo.cli", "write_csv", "cli.write_csv", True),
    ("ehservo.cli", "summarize", "cli.summarize", True),
    ("ehservo.cli", "run", "sim.run", True),
    ("ehservo.sim", "run", "sim.run", True),
    ("ehservo.sim", "_monitor_series", "sim.monitor_series", True),
    ("ehservo.sim", "_compute_metrics", "sim.compute_metrics", True),
    ("ehservo.sim", "rk4_step", "sim.rk4_step", False),
    ("ehservo.sim", "reference_at", "sim.reference_at", False),
    ("ehservo.sim", "supply_pressure", "sim.supply_pressure", False),
    ("ehservo.sim", "plant_derivatives", "plant.derivatives", False),
    ("ehservo.sim", "acceleration", "plant.acceleration", False),
    ("ehservo.sim", "dead_zone_d", "plant.dead_zone_d", False),
    ("ehservo.sim", "sgn", "plant.sgn", False),
    ("ehservo.plant", "load_flow", "plant.load_flow", False),
    ("ehservo.plant", "dead_zone_output", "plant.dead_zone_output", False),
    ("ehservo.plant", "PlantParams.__post_init__", "plant.params_init", False),
    ("ehservo.sim", "model_coefficients", "controller.model_coefficients", False),
    ("ehservo.sim", "input_gain_b", "controller.input_gain_b", False),
    ("ehservo.sim", "equivalent_control", "controller.equivalent_control", False),
    ("ehservo.sim", "combined_error", "controller.combined_error", False),
    ("ehservo.sim", "control_law", "controller.control_law", False),
    ("ehservo.sim", "membership", "fuzzy.membership", False),
    ("ehservo.sim", "infer", "fuzzy.infer", False),
    ("ehservo.sim", "adapt", "fuzzy.adapt", False),
    ("ehservo.fuzzy", "FuzzyEstimator.__post_init__", "fuzzy.estimator_init", False),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span aggregates, counters and coarse spans for one traced run."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}     # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []              # (id, parent_id, pass, name, start_ns, end_ns)
        self.missing: list[str] = []
        self.pass_index = 0
        self._stack: list[list[int]] = []         # open frames: [child_ns, span_id]
        self._patches: list[tuple] = []
        self._next_id = 1
        self._origin = time.perf_counter_ns()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def take(self) -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
        """Return the aggregates and counters gathered so far and zero them."""
        stats = {name: tuple(stat) for name, stat in self.stats.items()}
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        counters, self.counters = self.counters, {}
        return stats, counters

    def _open(self, keep: bool) -> list[int]:
        span_id = 0
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, stat: list[int], frame: list[int], name: str, start: int, end: int) -> None:
        elapsed = end - start
        stack = self._stack
        stack.pop()
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        if frame[1]:
            parent = next((f[1] for f in reversed(stack) if f[1]), 0)
            self.spans.append(
                (frame[1], parent, self.pass_index, name,
                 start - self._origin, end - self._origin)
            )

    @contextmanager
    def span(self, name: str):
        """A kept span opened by the benchmark itself, e.g. around one pass."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        frame = self._open(True)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(stat, frame, name, start, time.perf_counter_ns())

    def wrap(self, fn, name: str, keep: bool, observe=None):
        """Return a traced stand-in for fn; observe(args, kwargs, result, error) sees each call."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        if not keep and observe is None:
            def traced(*args, **kwargs):
                frame = [0, 0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
            return traced

        def traced_observed(*args, **kwargs):
            frame = self._open(keep)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(stat, frame, name, start, clock())
                if observe is not None:
                    observe(args, kwargs, result, error)
        return traced_observed

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def instrument(self) -> None:
        """Patch every TARGETS entry that exists in the imported package."""
        blowup = importlib.import_module("ehservo.plant").BlowUpError

        def observe_run(args, kwargs, result, error):
            if result is not None:
                self.count("sim.control_steps", len(result.t))
            if isinstance(error, blowup):
                self.count("sim.blowups")

        def observe_adapt(args, kwargs, result, error):
            step = (_arg(args, kwargs, 3, "phi") * _arg(args, kwargs, 1, "e")
                    * _arg(args, kwargs, 4, "dt"))
            if step != 0.0:
                self.count("fuzzy.adapt.useful")

        observers = {"sim.run": observe_run, "fuzzy.adapt": observe_adapt}
        for module_name, attr, name, keep in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.patch(owner, leaf, self.wrap(fn, name, keep, observers.get(name)))
