"""The benchmark's workloads and the output checks made on every pass.

constant  ``ehservo run --out CSV`` in process: the default 120 s Fig. 3
          scenario. Every layer works, CSV writing included.
varying   the same with ``--scenario varying-ps`` (Fig. 4): same step count,
          but the plant parameters are rebuilt on every RK4 substep.
sweep     seeded Latin-hypercube draws of kappa, phi, lambda, the dead-zone
          edges and x0 around the defaults, each resolved through
          ``cli.resolve_config`` and run through ``sim.run`` twice, adaptive
          and with adaptation frozen. Metrics only, no CSV.

constant and varying are the paper's fixed experiments, so their inputs do
not depend on the seed; the sweep's draws do.

Every pass is made of timed units: the whole ``ehservo run`` for constant and
varying, one draw (config, adaptive run, frozen run) for the sweep. Output
checks are left out of the units' times.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# The documented CSV schema, spelled out here rather than read from the
# package so that a change to it fails the check.
CSV_HEADER = b"t,x,xd,xerr,v,PL,u,uhat,d,dhat,e,Ps\n"
CSV_COLUMNS = CSV_HEADER.decode().strip().split(",")
# Bytes a row of '%.12g' numbers can hold; 'nan' and 'inf' fall outside.
_CSV_NUMBER_BYTES = b"0123456789.-+e,\n"

FIG_DURATION = 120.0            # s, the paper's default run
CONTROL_PERIOD = 1.0 / 400.0    # s, the default controller rate

SWEEP_DRAWS = 16
# At 4 s the seed-to-seed spread of the sweep's mean metrics stays near 1%;
# at 2 s that of rms_ratio reaches 3%.
SWEEP_DURATION = 4.0
# About +/-20% around the defaults: every draw stays stable, and the
# Latin-hypercube mean metrics of two seeds agree to about 1%.
SWEEP_RANGES = {
    "kappa": (0.8, 1.25),
    "phi": (0.4, 0.625),
    "lambda": (7.0, 9.0),
    "delta_l": (-1.2, -1.0),
    "delta_r": (0.8, 1.0),
    "x0": (-0.02, 0.02),
}

# Simulated seconds per scenario in the short passes that are timed. A timed
# unit then lasts about 20 ms, and each unit is run often enough that some
# runs fall in the host's quiet moments; at 2 s the spread from run to run
# of varying's fastest times was about twice as large.
TIMED_DURATION = 1.0


@dataclass
class PassResult:
    """What one pass of a workload did and how long it took."""

    wall_s: float                # the whole pass, output checks excluded
    run_s: float                 # host time inside sim.run
    sim_s: float                 # simulated seconds completed
    attempted: int               # scenarios
    failed: int
    scores: list[tuple] = field(default_factory=list)   # one per completed scenario
    csv_bytes: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    units: list[tuple[float, float]] = field(default_factory=list)   # (wall_s, run_s) each


def score(result) -> tuple[float, float, float, int]:
    """(final-quarter RMS xerr, first-quarter RMS xerr, final |dhat-d|, violations)."""
    met, mon = result.metrics, result.monitor
    return (met.rms_xerr_final_quarter, met.rms_xerr_first_quarter,
            met.mean_dz_err_final_quarter, mon.rms_violations + mon.sign_violations)


def check_result(result, n_steps: int, dt: float, frozen: bool) -> list[str]:
    """Length, finiteness and time base of an in-memory run, plus the frozen-lane contract."""
    problems = []
    for name in CSV_COLUMNS:
        col = np.asarray(getattr(result, name))
        if col.shape != (n_steps,):
            problems.append(f"column {name} has shape {col.shape}, expected ({n_steps},)")
        elif not np.all(np.isfinite(col)):
            problems.append(f"column {name} holds non-finite values")
    if not problems and not np.allclose(result.t, np.arange(n_steps) * dt, rtol=0.0, atol=1e-9):
        problems.append("time column is not k * dt_control")
    if not all(math.isfinite(v) for v in score(result)):
        problems.append(f"non-finite metrics {score(result)}")
    if frozen and not problems and np.any(result.dhat != 0.0):
        problems.append("frozen adaptation produced a non-zero estimate")
    return problems


def check_csv_bytes(path: Path, n_rows: int) -> tuple[str, int, list[str]]:
    """Digest, size and a byte-level shape check of a written CSV."""
    problems = []
    digest = hashlib.sha256()
    newlines = commas = size = 0
    clean = True
    with open(path, "rb") as handle:
        header = handle.readline()
        if header != CSV_HEADER:
            problems.append(f"CSV header {header!r}")
        digest.update(header)
        size = len(header)
        last = header
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
            newlines += chunk.count(b"\n")
            commas += chunk.count(b",")
            clean = clean and not chunk.translate(None, _CSV_NUMBER_BYTES)
            last = chunk
    if newlines != n_rows:
        problems.append(f"CSV has {newlines} rows, expected {n_rows}")
    if commas != (len(CSV_COLUMNS) - 1) * newlines or not last.endswith(b"\n"):
        problems.append("CSV rows do not all have 12 fields and LF endings")
    if not clean:
        problems.append("CSV holds a token that is not a finite number")
    return digest.hexdigest(), size, problems


def check_csv_values(path: Path, dt: float, expected: tuple, varying: bool) -> list[str]:
    """Parse every value and recompute the final-quarter metrics from the file."""
    idx = {name: CSV_COLUMNS.index(name) for name in ("t", "xerr", "d", "dhat", "Ps")}
    cols = {name: array("d") for name in idx}
    with open(path) as handle:
        next(handle)
        for k, line in enumerate(handle):
            fields = line.split(",")
            values = [float(f) for f in fields]
            if len(values) != len(CSV_COLUMNS) or not all(map(math.isfinite, values)):
                return [f"CSV row {k + 1} is not 12 finite numbers: {line.strip()!r}"]
            for name, i in idx.items():
                cols[name].append(values[i])
    n = len(cols["t"])
    q = n // 4
    problems = []
    if any(abs(t - k * dt) > 1e-9 for k, t in enumerate(cols["t"])):
        problems.append("CSV time column is not k * dt_control")
    xerr = cols["xerr"][n - q:]
    rms = math.sqrt(math.fsum(v * v for v in xerr) / q) if q else 0.0
    dz_err = (abs(a - b) for a, b in zip(cols["dhat"][n - q:], cols["d"][n - q:]))
    dz = math.fsum(dz_err) / q if q else 0.0
    if not math.isclose(rms, expected[0], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"CSV final-quarter RMS xerr {rms!r} != reported {expected[0]!r}")
    if not math.isclose(dz, expected[2], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"CSV final-quarter |dhat-d| {dz!r} != reported {expected[2]!r}")
    if varying != (min(cols["Ps"]) < max(cols["Ps"])):
        problems.append("supply pressure column does not match the supply mode")
    return problems


def _failure(where: str) -> str:
    return f"{where}: {traceback.format_exc(limit=3).strip()}"


class CliWorkload:
    """One in-process ``ehservo run --out`` per pass (constant or varying)."""

    def __init__(self, ehservo, workdir: Path, varying: bool, duration: float | None = None):
        self.cli = ehservo.cli
        self.varying = varying
        self.csv_path = workdir / "run.csv"
        self.argv = ["run", "--out", str(self.csv_path)]
        if varying:
            self.argv += ["--scenario", "varying-ps"]
        if duration is not None:
            self.argv += ["--duration", repr(duration)]
        self.duration = FIG_DURATION if duration is None else duration
        self.n_steps = int(round(self.duration / CONTROL_PERIOD))
        self.reference: tuple | None = None
        # Time the CLI's own call into sim.run and keep its summary numbers.
        self.calls: list[tuple] = []
        self._original_run = original = self.cli.run

        def timed_run(scenario, *args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(scenario, *args, **kwargs)
            except BaseException:
                self.calls.append((time.perf_counter() - start, scenario, None))
                raise
            self.calls.append((time.perf_counter() - start, scenario, result))
            return result

        self.cli.run = timed_run

    def close(self) -> None:
        self.cli.run = self._original_run

    def run_pass(self, full_check: bool) -> PassResult:
        self.calls.clear()
        out, err = io.StringIO(), io.StringIO()
        problems = []
        code = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(self.argv)
        except SystemExit as exc:       # argparse rejecting the arguments
            code = exc.code
        except Exception:
            problems.append(_failure("ehservo run"))
        wall = time.perf_counter() - start
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()}")
        if not out.getvalue().strip():
            problems.append("no summary printed")
        run_s = sum(c[0] for c in self.calls)
        result = None
        if len(self.calls) != 1:
            problems.append(f"{len(self.calls)} calls into sim.run, expected 1")
        else:
            _, scenario, result = self.calls[0]
            mode = "varying" if self.varying else "constant"
            if scenario.supply_pressure_mode != mode or scenario.duration != self.duration:
                problems.append(f"ran {scenario.supply_pressure_mode!r} for {scenario.duration} s")
        self.calls.clear()

        digest, size = None, 0
        scores = []
        if result is not None:
            problems += check_result(result, self.n_steps, CONTROL_PERIOD, frozen=False)
            scores = [score(result)]
            del result
        if not problems:
            digest, size, csv_problems = check_csv_bytes(self.csv_path, self.n_steps)
            problems += csv_problems
        if not problems and full_check:
            problems += check_csv_values(self.csv_path, CONTROL_PERIOD, scores[0], self.varying)
        if not problems:
            if self.reference is None:
                self.reference = (digest, scores)
            elif self.reference != (digest, scores):
                problems.append("output differs from the first pass of this run")
        failed = 1 if problems else 0
        return PassResult(
            wall_s=wall, run_s=run_s, sim_s=0.0 if failed else self.duration,
            attempted=1, failed=failed, scores=[] if failed else scores,
            csv_bytes=size, digest=digest, problems=problems, units=[(wall, run_s)],
        )


def sweep_draws(seed: int, duration: float = SWEEP_DURATION, n: int = SWEEP_DRAWS) -> list[dict]:
    """Latin-hypercube draws as raw config dicts.

    Each parameter's range is cut into n equal strata, one value is drawn in
    each, and the strata of different parameters are paired at random.
    """
    rng = random.Random(seed)
    columns = {}
    for key, (lo, hi) in SWEEP_RANGES.items():
        u = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(u)
        columns[key] = [lo + (hi - lo) * v for v in u]
    fixed = {"duration": repr(duration), "monitor_window": repr(duration / 10.0)}
    return [{**{key: repr(col[i]) for key, col in columns.items()}, **fixed} for i in range(n)]


class SweepWorkload:
    """Seeded parameter draws, each run adaptive and frozen through sim.run."""

    def __init__(self, ehservo, seed: int, duration: float | None = None):
        self.ehservo = ehservo
        self.duration = SWEEP_DURATION if duration is None else duration
        self.draws = sweep_draws(seed, self.duration)
        self.n_steps = int(round(self.duration / CONTROL_PERIOD))
        self.reference: list | None = None

    def close(self) -> None:
        pass

    def run_pass(self, full_check: bool) -> PassResult:
        cli, sim, blowup = self.ehservo.cli, self.ehservo.sim, self.ehservo.BlowUpError
        res = PassResult(wall_s=0.0, run_s=0.0, sim_s=0.0, attempted=0, failed=0)
        lanes = []
        check_s = 0.0
        start = time.perf_counter()
        for i, raw in enumerate(self.draws):
            draw_start, draw_check_s, draw_run_s = time.perf_counter(), check_s, res.run_s
            try:
                cfg = cli.resolve_config(raw)
            except Exception:
                res.attempted += 2
                res.problems.append(_failure(f"draw {i} config"))
                lanes += [None, None]
                continue
            for frozen in (False, True):
                where = f"draw {i} {'frozen' if frozen else 'adaptive'}"
                scenario = replace(cfg.scenario, freeze_adaptation=frozen)
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = sim.run(scenario, cfg.plant, cfg.controller, cfg.estimator, cfg.monitor)
                except blowup as err:
                    result = None
                    res.problems.append(f"{where}: blow-up: {err}")
                except Exception:
                    result = None
                    res.problems.append(_failure(where))
                res.run_s += time.perf_counter() - t0
                if result is None:
                    lanes.append(None)
                    continue
                c0 = time.perf_counter()
                lane_problems = check_result(result, self.n_steps, scenario.dt_control, frozen)
                lane = None if lane_problems else score(result)
                del result
                check_s += time.perf_counter() - c0
                res.problems += [f"{where}: {p}" for p in lane_problems]
                lanes.append(lane)
            draw_wall = time.perf_counter() - draw_start - (check_s - draw_check_s)
            res.units.append((draw_wall, res.run_s - draw_run_s))
        res.wall_s = time.perf_counter() - start - check_s

        if self.reference is None:
            self.reference = lanes
        for i, (lane, ref) in enumerate(zip(lanes, self.reference)):
            if lane is not None and ref is not None and lane != ref:
                res.problems.append(f"lane {i} differs from the first pass of this run")
                lanes[i] = None
        res.scores = [lane for lane in lanes if lane is not None]
        res.failed = res.attempted - len(res.scores)
        res.sim_s = self.duration * len(res.scores)
        return res
