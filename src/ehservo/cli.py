"""Scenario runner: flat key=value configs in, CSV time series and metrics out."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, get_type_hints

from .controller import ControllerParams, input_gain_b
from .fuzzy import FuzzyEstimator
from .plant import BlowUpError, PlantParams
from .sim import SERIES as CSV_COLUMNS
from .sim import MONITOR_E_THRESHOLD, MonitorParams, Scenario, SimResult, run

CSV_HEADER = ",".join(CSV_COLUMNS)
# bytes %-formatting prints a float as str %-formatting does, with no encode per line
_CSV_ROW = b",".join([b"%.12g"] * len(CSV_COLUMNS)) + b"\n"


class ConfigError(ValueError):
    """A configuration file could not be parsed or violates an invariant."""


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


class _Kind(NamedTuple):
    """How a value reads from the text of a config line and prints back to it."""

    name: str                       # as in "cannot parse ... as a number"
    parse: Callable[[str], Any]     # raises ValueError on bad text
    show: Callable[[Any], str]


_NUMBER = _Kind("a number", float, repr)
_NUMBERS = _Kind(
    "a list of numbers",
    lambda text: tuple(float(tok) for tok in text.replace(",", " ").split()),
    lambda values: ", ".join(repr(v) for v in values),
)
_BOOL = _Kind("a boolean", _parse_bool, lambda value: str(value).lower())
_TEXT = _Kind("text", str, str)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one run."""

    plant: PlantParams
    controller: ControllerParams
    estimator: FuzzyEstimator
    scenario: Scenario
    monitor: MonitorParams


# how each field type reads and prints (the dataclasses' annotations are strings)
_KINDS = {"float": _NUMBER, "tuple[float, ...]": _NUMBERS, "bool": _BOOL, "str": _TEXT}
# the config keys that are not their field's name in lower case
_RENAMES = {"lam": "lambda", "d_hat": "d_hat_init", "window": "monitor_window"}

# The one config schema, in dump order: key -> (part, field, kind), one key per
# field of each RunConfig part, the controller's model aside: the CLI sets it
# to the plant. Unset fields keep their dataclass's default.
_SCHEMA: dict[str, tuple[str, str, _Kind]] = {
    _RENAMES.get(f.name, f.name.lower()): (part, f.name, _KINDS[f.type])
    for part, cls in get_type_hints(RunConfig).items()
    for f in fields(cls) if f.name != "model"
}

# (part, field) -> config key, the name a rejected value is reported by
_KEYS = {(part, field): key for key, (part, field, _) in _SCHEMA.items()}

# --scenario names -> supply_pressure_mode values
_SCENARIOS = {"constant-ps": "constant", "varying-ps": "varying"}

# --batch: output name -> scenario fields changed from the resolved config. Every
# job sets the same fields; none of them, and no --out, may be given with --batch.
_BATCH = {
    "constant_ps": {"supply_pressure_mode": "constant", "freeze_adaptation": False},
    "varying_ps": {"supply_pressure_mode": "varying", "freeze_adaptation": False},
    "constant_ps_frozen": {"supply_pressure_mode": "constant", "freeze_adaptation": True},
}


def parse_kv(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blank lines are skipped."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r}, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        raw[key] = value.strip()
    return raw


def resolve_config(raw: dict[str, str]) -> RunConfig:
    """Parse the given keys over the dataclass defaults and build the validated parameter sets."""
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")

    given: dict[str, dict[str, Any]] = defaultdict(dict)
    for key, (part, field, kind) in _SCHEMA.items():
        if key in raw:
            try:
                given[part][field] = kind.parse(raw[key])
            except ValueError:
                raise ConfigError(
                    f"key {key!r}: cannot parse {raw[key]!r} as {kind.name}"
                ) from None

    plant = _build(PlantParams, "plant", **given["plant"])
    controller = _build(ControllerParams, "controller", "plant",
                        **given["controller"], model=plant)
    estimator = _build(FuzzyEstimator, "estimator", **given["estimator"])
    scenario = _build(Scenario, "scenario", **given["scenario"])
    monitor = _build(MonitorParams, "monitor", **given["monitor"])
    return RunConfig(plant, controller, estimator, scenario, monitor)


def _build(make: Callable[..., Any], *parts: str, **values: Any) -> Any:
    """make(**values), a rejected value raised as a ConfigError led by its key:
    each check leads with the field it rejects, looked up under parts in turn."""
    try:
        return make(**values)
    except ValueError as err:
        field, sep, rest = str(err).partition(" ")
        key = next((_KEYS[t, field] for t in parts if (t, field) in _KEYS), field)
        raise ConfigError(key + sep + rest) from None


def _read_kv(path: str | Path) -> dict[str, str]:
    try:
        # the same bytes read the same under every locale, and a BOM is skipped
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_kv(text)


def config_dump(cfg: RunConfig) -> str:
    """Flat key=value dump of a resolved config; reloading it resolves to the same config."""
    return "".join(f"{key} = {kind.show(getattr(getattr(cfg, part), field))}\n"
                   for key, (part, field, kind) in _SCHEMA.items())


def _flag_overrides(args: argparse.Namespace) -> dict[str, str]:
    """Raw config text of the value flags, each stored under its config key."""
    raw = {key: value for key, value in vars(args).items()
           if key in _SCHEMA and value is not None}
    if "supply_pressure_mode" in raw:
        name = raw["supply_pressure_mode"]
        if name not in _SCENARIOS:
            raise ConfigError(f"--scenario must be one of {', '.join(_SCENARIOS)}, got {name!r}")
        raw["supply_pressure_mode"] = _SCENARIOS[name]
    return raw


def write_csv(result: SimResult, path: str | Path) -> None:
    """Write every series under CSV_HEADER with 12 significant digits and LF endings."""
    # A memoryview yields Python floats, which format faster than numpy
    # scalars to the same text; unlike tolist() it boxes one row at a time.
    series = [memoryview(getattr(result, name)) for name in CSV_COLUMNS]
    try:
        with open(path, "wb") as handle:
            handle.write(CSV_HEADER.encode() + b"\n")
            handle.writelines(_CSV_ROW % row for row in zip(*series))
    except OSError as err:
        raise OSError(f"cannot write CSV to {path}: {err}") from err


def _say(line: str) -> None:
    """Print a line to standard output. Once its reader has gone, it and all
    later output go to os.devnull, so a closed standard output stops no run."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def summarize(result: SimResult, elapsed: float) -> None:
    """Print a finished run's summary metrics and wall-clock time to standard output."""
    met, mon = result.metrics, result.monitor
    _say(f"rms tracking error, first quarter : {met.rms_xerr_first_quarter:.6g} m")
    _say(f"rms tracking error, final quarter : {met.rms_xerr_final_quarter:.6g} m")
    _say(f"max |tracking error| post-transient: {met.max_abs_xerr_post_transient:.6g} m")
    _say(f"mean |dhat - d|, first quarter    : {met.mean_dz_err_first_quarter:.6g} V")
    _say(f"mean |dhat - d|, final quarter    : {met.mean_dz_err_final_quarter:.6g} V")
    _say(f"rms-window violations             : {mon.rms_violations} of "
         f"{max(len(mon.window_rms) - 1, 0)} pairs")
    _say(f"final-window mean |e|             : {mon.final_window_mean_abs_e:.6g} "
         f"(threshold {MONITOR_E_THRESHOLD:.6g}, "
         f"{'ok' if mon.final_window_mean_abs_e <= MONITOR_E_THRESHOLD else 'EXCEEDED'})")
    _say(f"estimate sign violations          : {mon.sign_violations}")
    _say(f"wall-clock time                   : {elapsed:.2f} s")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on first use and kept: parse_args keeps no state
    between calls, so every call of main in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="ehservo",
        description="Closed-loop hydraulic servo simulation with adaptive fuzzy dead-zone compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario (or a batch) and emit CSV plus metrics")
    runp.add_argument("--config", help="flat key=value configuration file")
    runp.add_argument("--out", help="CSV output path")
    # The next three flags store raw text under their config key (argparse dest),
    # so their values are parsed and validated exactly like the config file's.
    runp.add_argument(
        "--scenario", dest="supply_pressure_mode", metavar="{" + ",".join(_SCENARIOS) + "}",
        help="select the supply-pressure mode",
    )
    runp.add_argument("--duration", help="override run duration [s]")
    runp.add_argument(
        "--freeze-adaptation", action="store_const", const="true",
        help="disable the adaptation law and force the compensation estimate to zero",
    )
    runp.add_argument(
        "--print-config", action="store_true",
        help="print the fully resolved configuration and exit",
    )
    runp.add_argument("--batch", metavar="DIR", help="run the scenario suite into DIR")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        for flag, path in (("--config", args.config), ("--out", args.out),
                           ("--batch", args.batch)):
            if path == "":
                raise ConfigError(f"{flag} must name a path, got ''")
        raw = {**(_read_kv(args.config) if args.config else {}), **_flag_overrides(args)}
        cfg = resolve_config(raw)
        if args.batch is not None:
            # each batch job sets these itself, so a given value would be dropped
            given = {"--out": args.out, **raw}
            for key in ("--out", *_BATCH["constant_ps"]):
                if given.get(key) is not None:
                    raise ConfigError(f"{key} ({given[key]!r}) cannot be set with --batch, "
                                      "which sets it for each of its runs")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    if args.print_config:
        _say(config_dump(cfg).rstrip("\n"))
        return 0

    try:
        jobs = [("", cfg.scenario, args.out)]   # (summary header, scenario, CSV path)
        if args.batch is not None:
            Path(args.batch).mkdir(parents=True, exist_ok=True)
            jobs = [(name, replace(cfg.scenario, **changes), Path(args.batch) / f"{name}.csv")
                    for name, changes in _BATCH.items()]
        # fail before the first run, without creating or truncating any CSV: an
        # existing target must itself be writable, a new one's directory must be
        for out in (Path(csv) for _, _, csv in jobs if csv is not None):
            if out.exists():
                writable = not out.is_dir() and os.access(out, os.W_OK)
            else:
                writable = out.parent.is_dir() and os.access(out.parent, os.W_OK)
            if not writable:
                raise OSError(f"cannot write CSV to {out}: neither a writable file "
                              "nor a new file in a writable directory")
        # run loads numpy to wrap its series: load it off the summary's wall-clock time
        import numpy  # noqa: F401
        for name, scenario, out in jobs:
            if name:
                _say(f"--- {name} ---")
            start = time.perf_counter()
            result = run(scenario, cfg.plant, cfg.controller, cfg.estimator, cfg.monitor)
            elapsed = time.perf_counter() - start
            if out is not None:
                write_csv(result, out)
                _say(f"wrote {out}")
            summarize(result, elapsed)
        return 0
    except BlowUpError as err:
        # one held control period scales e by about 1 - kappa*b0*dt_control (b0: gain at rest)
        cp = cfg.controller
        ceiling = cp.kappa * input_gain_b(0.0, 0.0, 0.0, 1.0, cp.model) * cfg.scenario.dt_control
        held = err.time is not None  # no time: refused before the first control period
        note = (f"; kappa*b0*dt_control = {ceiling:.3g} > 2: a voltage held over each control "
                "period cannot stabilise this gain") if held and ceiling > 2.0 else ""
        print(f"numerical blow-up: {err}{note}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        # every job of a batch runs for the configured duration
        print(f"out of memory: a run of duration {cfg.scenario.duration!r} s does not fit "
              "in the memory available", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
