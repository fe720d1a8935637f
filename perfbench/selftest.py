"""Self-test of the benchmark at tiny simulated durations.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and metrics.py agree on every metric's name, unit
and direction; that every workload emits every end-to-end metric untraced and
every per-layer metric traced, each as a finite number; that the traced
counts are consistent with the run sizes; that a corrupted CSV, a non-zero
exit code and a blow-up are counted as failures, and that the sweep carries
on after a failed lane; and that the benchmark refuses to run without the
ehservo sources. Exits 1 on the first failed group of checks.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
from workloads import CONTROL_PERIOD, SWEEP_DRAWS, CliWorkload, SweepWorkload  # noqa: E402

ROOT = HERE.parent
TINY = 2.0          # simulated seconds per scenario


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, registry in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER_ALL)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        emitted = [(m.name, m.unit, m.better) for m in registry]
        if listed != emitted:
            fail(f"BENCHMARK.json {key} {listed} != metrics.py {emitted}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        fail("no setup_s metric")


def check_emitted(ehservo) -> None:
    for workload in run.WORKLOADS:
        for trace, registry in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER_ALL)):
            rec = run.measure(ehservo, ROOT, workload, seed=1, seconds=0.01, trace=trace,
                              duration=TINY)
            where = f"{workload} trace={int(trace)}"
            if not rec["correct"] or rec["failed"] or rec["attempted"] < 1:
                fail(f"{where}: checks failed: {rec['problems']}")
            if list(rec["metrics"]) != [m.name for m in registry]:
                fail(f"{where}: emitted {list(rec['metrics'])}")
            for name, value in rec["metrics"].items():
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{where}: {name} = {value!r}")
            if trace:
                check_counts(where, workload, rec["metrics"])
            else:
                if rec["metrics"]["completed_frac"] != 1.0 or not rec["metrics"]["setup_s"] > 0:
                    fail(f"{where}: {rec['metrics']}")
        print(f"selftest: {workload} emits every metric")


def check_counts(where: str, workload: str, m: dict) -> None:
    steps = round(TINY / CONTROL_PERIOD)
    lanes = 2 * SWEEP_DRAWS if workload == "sweep" else 1
    expect = {
        "sim.control_steps": lanes * steps,
        "sim.rk4_step.calls": lanes * steps * 2,
        "plant.derivatives.calls": lanes * steps * 8,
        "fuzzy.adapt.calls": (lanes // 2 if workload == "sweep" else 1) * steps,
        "sim.blowups": 0,
    }
    for name, value in expect.items():
        if m[name] != value:
            fail(f"{where}: {name} = {m[name]}, expected {value}")
    if (m["cli.csv_bytes"] > 0) == (workload == "sweep"):
        fail(f"{where}: cli.csv_bytes = {m['cli.csv_bytes']}")
    if (m["plant.params_built"] > steps) != (workload == "varying"):
        fail(f"{where}: plant.params_built = {m['plant.params_built']}")
    if not 0.0 < m["fuzzy.adapt.useful_frac"] <= 1.0 or not m["trace.overhead_ratio"] > 0:
        fail(f"{where}: {m}")


def check_failures(ehservo) -> None:
    workdir = Path(tempfile.mkdtemp(dir=ROOT / run.OUT_DIR))
    cli = ehservo.cli
    original_write = cli.write_csv

    def corrupt_write(result, path):
        original_write(result, path)
        with open(path, "a") as handle:
            handle.write(",".join(["nan"] * 12) + "\n")

    runner = CliWorkload(ehservo, workdir, varying=False, duration=TINY)
    try:
        good = runner.run_pass(full_check=True)
        cli.write_csv = corrupt_write
        bad = runner.run_pass(full_check=False)
        cli.write_csv = original_write
        runner.argv = runner.argv + ["--no-such-flag"]
        rejected = runner.run_pass(full_check=False)
    finally:
        cli.write_csv = original_write
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if good.failed or not bad.failed or not bad.problems:
        fail(f"corrupted CSV not caught: {good.problems} / {bad.problems}")
    if rejected.failed != 1 or not any("exit code 2" in p for p in rejected.problems):
        fail(f"non-zero exit code not counted: {rejected.problems}")

    sim = ehservo.sim
    original_run = sim.run
    calls = []

    def blow_up_once(scenario, *args, **kwargs):
        calls.append(scenario)
        if len(calls) == 3:
            raise ehservo.BlowUpError("injected", time=0.0)
        return original_run(scenario, *args, **kwargs)

    sweep = SweepWorkload(ehservo, seed=1, duration=TINY / 4)
    sim.run = blow_up_once
    try:
        res = sweep.run_pass(full_check=False)
    finally:
        sim.run = original_run
    lanes = 2 * SWEEP_DRAWS
    if (res.attempted, res.failed, len(calls)) != (lanes, 1, lanes):
        fail(f"sweep blow-up accounting: {res.attempted} attempted, {res.failed} failed, "
             f"{len(calls)} runs")
    print("selftest: failed checks and blow-ups are counted")


def check_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(dir=ROOT / run.OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "constant",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"ran without sources: {proc.returncode} {proc.stdout!r}")
    print("selftest: refuses to run without the ehservo sources")


def main() -> int:
    check_spec()
    ehservo = run.load_ehservo(ROOT)
    (ROOT / run.OUT_DIR).mkdir(exist_ok=True)
    check_emitted(ehservo)
    check_failures(ehservo)
    check_bare_directory()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
