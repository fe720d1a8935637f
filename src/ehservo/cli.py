"""Scenario runner: flat key=value configs in, CSV time series and metrics out."""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .controller import ControllerParams
from .fuzzy import FuzzyEstimator
from .plant import BlowUpError, PlantParams, PlantState
from .sim import SERIES as CSV_COLUMNS
from .sim import MonitorParams, Scenario, SimResult, run

CSV_HEADER = ",".join(CSV_COLUMNS)
_CSV_ROW = ",".join(["%.12g"] * len(CSV_COLUMNS)) + "\n"


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

# config key -> PlantParams field; each key has a "model_" twin for the controller's copy
_PLANT_FIELDS = {
    "ps": "Ps", "rho": "rho", "cd": "Cd", "w": "w", "ap": "Ap", "ctp": "Ctp",
    "beta_e": "beta_e", "vt": "Vt", "mt": "Mt", "bp": "Bp", "k": "K",
    "delta_l": "delta_l", "delta_r": "delta_r", "kv": "kv",
}

# The one config schema, in dump order: key -> (target, field, kind). The target
# names the object that holds the field (see config_dump). Unset fields keep their
# dataclass's default, and unset model_* fields copy the resolved plant. "lambda"
# is no field: it only seeds c0 = lambda^2 and c1 = 2*lambda, and is never dumped.
_SCHEMA: dict[str, tuple[str, str, _Kind]] = {
    **{key: ("plant", field, _NUMBER) for key, field in _PLANT_FIELDS.items()},
    **{"model_" + key: ("model", field, _NUMBER) for key, field in _PLANT_FIELDS.items()},
    "lambda": ("controller", "lambda", _NUMBER),
    **{key: ("controller", key, _NUMBER) for key in ("c0", "c1", "kappa", "phi")},
    "centers": ("estimator", "centers", _NUMBERS),
    "d_hat_init": ("estimator", "d_hat", _NUMBERS),
    **{key: ("scenario", key, _NUMBER)
       for key in ("duration", "dt_plant", "dt_control", "amplitude", "omega")},
    "supply_pressure_mode": ("scenario", "supply_pressure_mode", _TEXT),
    "x0": ("initial_state", "x", _NUMBER),
    "v0": ("initial_state", "v", _NUMBER),
    "pl0": ("initial_state", "PL", _NUMBER),
    "freeze_adaptation": ("scenario", "freeze_adaptation", _BOOL),
    "monitor_window": ("monitor", "window", _NUMBER),
    "monitor_tol": ("monitor", "tol", _NUMBER),
    "monitor_e_threshold": ("monitor", "e_threshold", _NUMBER),
    "transient_fraction": ("monitor", "transient_fraction", _NUMBER),
    "out": ("run", "out", _TEXT),
}

KNOWN_KEYS = tuple(_SCHEMA)

# --scenario names -> supply_pressure_mode values
_SCENARIOS = {"constant-ps": "constant", "varying-ps": "varying"}

# --batch: output name -> scenario fields changed from the resolved config
_BATCH = {
    "constant_ps": {"supply_pressure_mode": "constant"},
    "varying_ps": {"supply_pressure_mode": "varying"},
    "constant_ps_frozen": {"supply_pressure_mode": "constant", "freeze_adaptation": True},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one run."""

    plant: PlantParams
    controller: ControllerParams
    estimator: FuzzyEstimator
    scenario: Scenario
    monitor: MonitorParams
    out: str | None = None


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
    for key, (target, field, kind) in _SCHEMA.items():
        if key in raw:
            try:
                given[target][field] = kind.parse(raw[key])
            except ValueError:
                raise ConfigError(
                    f"key {key!r}: cannot parse {raw[key]!r} as {kind.name}"
                ) from None

    try:
        plant = PlantParams(**given["plant"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    try:
        model = replace(plant, **given["model"])
    except ValueError as err:
        raise ConfigError(f"controller model: {err}") from None

    gains = given["controller"]
    if "lambda" in gains:
        lam = gains.pop("lambda")
        if not lam > 0.0:
            raise ConfigError(f"lambda must be strictly positive, got {lam}")
        gains.setdefault("c0", lam * lam)
        gains.setdefault("c1", 2.0 * lam)

    try:
        controller = ControllerParams(**gains, model=model)
        estimator = FuzzyEstimator(**given["estimator"])
        initial_state = PlantState(**given["initial_state"])
        scenario = Scenario(**given["scenario"], initial_state=initial_state)
        monitor = MonitorParams(**given["monitor"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(plant, controller, estimator, scenario, monitor, **given["run"])


def _read_kv(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_kv(text)


def load_config(path: str | Path) -> RunConfig:
    """Read and resolve a flat key=value configuration file."""
    return resolve_config(_read_kv(path))


def config_dump(cfg: RunConfig) -> str:
    """Flat key=value dump of a resolved config; reloading it resolves to the same config.

    Every key is written except lambda, an unset out, and the model_* keys
    that only repeat the plant's value.
    """
    targets = {
        "plant": cfg.plant, "model": cfg.controller.model, "controller": cfg.controller,
        "estimator": cfg.estimator, "scenario": cfg.scenario,
        "initial_state": cfg.scenario.initial_state, "monitor": cfg.monitor, "run": cfg,
    }
    lines = []
    for key, (target, field, kind) in _SCHEMA.items():
        value = getattr(targets[target], field, None)
        if value is None or (target == "model" and value == getattr(cfg.plant, field)):
            continue
        lines.append(f"{key} = {kind.show(value)}")
    return "\n".join(lines) + "\n"


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
    series = [getattr(result, name) for name in CSV_COLUMNS]
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            handle.writelines(_CSV_ROW % row for row in zip(*series))
    except OSError as err:
        raise OSError(f"cannot write CSV to {path}: {err}") from err


def summarize(result: SimResult, elapsed: float | None = None) -> None:
    """Print the summary metrics of a finished run to standard output."""
    met, mon = result.metrics, result.monitor
    print(f"rms tracking error, first quarter : {met.rms_xerr_first_quarter:.6g} m")
    print(f"rms tracking error, final quarter : {met.rms_xerr_final_quarter:.6g} m")
    print(f"max |tracking error| post-transient: {met.max_abs_xerr_post_transient:.6g} m")
    print(f"mean |dhat - d|, first quarter    : {met.mean_dz_err_first_quarter:.6g} V")
    print(f"mean |dhat - d|, final quarter    : {met.mean_dz_err_final_quarter:.6g} V")
    print(f"rms-window violations             : {mon.rms_violations} of {max(mon.n_windows - 1, 0)} pairs")
    print(f"final-window mean |e|             : {mon.final_window_mean_abs_e:.6g} "
          f"(threshold {mon.e_threshold:.6g}, {'ok' if mon.final_mean_ok else 'EXCEEDED'})")
    print(f"estimate sign violations          : {mon.sign_violations}")
    if elapsed is not None:
        print(f"wall-clock time                   : {elapsed:.2f} s")


def _run_write_summarize(cfg: RunConfig, scenario: Scenario, out: str | Path | None) -> None:
    if out:
        # fail before the run, without creating or truncating the CSV itself
        parent = Path(out).parent
        if Path(out).is_dir() or not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise OSError(f"cannot write CSV to {out}: not a file in a writable directory")
    start = time.perf_counter()
    result = run(scenario, cfg.plant, cfg.controller, cfg.estimator, cfg.monitor)
    elapsed = time.perf_counter() - start
    if out:
        write_csv(result, out)
        print(f"wrote {out}")
    summarize(result, elapsed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehservo",
        description="Closed-loop hydraulic servo simulation with adaptive fuzzy dead-zone compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario (or a batch) and emit CSV plus metrics")
    runp.add_argument("--config", help="flat key=value configuration file")
    # The next four flags store raw text under their config key (argparse dest),
    # so their values are parsed and validated exactly like the config file's.
    runp.add_argument("--out", help="CSV output path")
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
    args = parser.parse_args(argv)

    try:
        raw = _read_kv(args.config) if args.config else {}
        cfg = resolve_config({**raw, **_flag_overrides(args)})
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    if args.print_config:
        print(config_dump(cfg), end="")
        return 0

    try:
        if not args.batch:
            _run_write_summarize(cfg, cfg.scenario, cfg.out)
            return 0
        directory = Path(args.batch)
        directory.mkdir(parents=True, exist_ok=True)
        for name, changes in _BATCH.items():
            print(f"--- {name} ---")
            _run_write_summarize(cfg, replace(cfg.scenario, **changes), directory / f"{name}.csv")
        return 0
    except BlowUpError as err:
        print(f"numerical blow-up: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
