"""Benchmark of the ehservo closed-loop simulator, driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload constant --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 10          # every workload, one after another

Workloads (see workloads.py): ``constant`` (the Fig. 3 run through the CLI),
``varying`` (the Fig. 4 run) and ``sweep`` (seeded parameter draws, adaptive
and frozen, through ``sim.run``). ehservo is imported from ``src/`` next to
this directory and nowhere else.

With ``--trace 0`` each workload runs for ``--seconds`` with tracing off and
every end-to-end metric of metrics.py is reported. A first, full-size pass
(the paper's 120 s runs for constant and varying, 4 s scenarios for the
sweep) is checked, gives the simulated metrics and is not timed. Then passes
of 1 s scenarios repeat until the time is up, and each unit of a pass (see
workloads.py) is timed. The host timings are the sum over units of each
unit's fastest time: other tenants of a shared host slow whole stretches of
seconds, and the fastest of many short units is what stays steady from run
to run. Set-up is timed in fresh interpreters spread over the run. With ``--trace 1`` the first part of
the time is spent untraced and the rest with every layer function wrapped
(tracer.py), both on full-size passes; the per-layer metrics and the tracing
overhead are reported. The loop is single-threaded and has no queues, so no
wait time exists to be recorded.

Every pass checks its outputs (exit code, CSV schema, row count, finite
values, identical digests and metrics across passes; see workloads.py).
Each metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Results, the environment, CSV digests and spans are also written to
``.perfbench/`` in the repository root.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
arguments are bad or ehservo cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import TIMED_DURATION, CliWorkload, SweepWorkload  # noqa: E402

WORKLOADS = ("constant", "varying", "sweep")
OUT_DIR = ".perfbench"
SETUP_RUNS = 15
MIN_PASSES = 3
TRACE_UNTRACED_SHARE = 0.4     # of --seconds, in a traced run
NO_WAIT_NOTE = "none recorded: the loop is single-threaded and has no queues"

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ehservo.cli; "
    "ehservo.cli.resolve_config({}); print(ehservo.cli.__file__)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or they do not import)."""


def load_ehservo(root: Path):
    """Import ehservo from root/src, refusing any other copy."""
    package = root / "src" / "ehservo"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no ehservo sources at {package}")
    sys.path.insert(0, str(root / "src"))
    try:
        ehservo = importlib.import_module("ehservo")
        for name in ("cli", "sim", "plant", "fuzzy", "controller"):
            importlib.import_module(f"ehservo.{name}")
    except ImportError as err:
        raise BenchError(f"cannot import ehservo: {err}") from None
    if Path(ehservo.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported ehservo from {ehservo.__file__}, not {package}")
    return ehservo


def time_setup(root: Path) -> float:
    """Wall time for a fresh interpreter to import ehservo and resolve the default config."""
    src = root / "src"
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(src)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=root)
    except subprocess.TimeoutExpired:
        raise BenchError("set-up interpreter did not finish within 120 s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    if not Path(proc.stdout.strip()).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"set-up interpreter imported {proc.stdout.strip()}")
    return elapsed


def repeat(one_pass, budget: float, min_passes: int) -> list:
    """Run passes until the next one would end after the budget, at least min_passes."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(one_pass(len(out)))
        now = time.perf_counter()
        if len(out) >= min_passes and (now - start) + (now - t0) > budget:
            return out


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def fastest(passes, which: int) -> float | None:
    """Sum over units of each unit's fastest time (which: 0 wall, 1 inside sim.run).

    On a shared 2-core VM, where other tenants slowed work by up to 2x for
    seconds at a time, the median of 2 s passes moved by 60% between 20 s
    windows and their fastest by under 10%.
    """
    clean = [p.units for p in passes if not p.failed]
    if not clean:
        return None
    return sum(min(units[u][which] for units in clean) for u in range(len(clean[0])))


def end_to_end(reference, passes, setup, attempted, failed) -> dict:
    """End-to-end metrics of an untraced run.

    The simulated metrics come from the full-size reference pass, the host
    timings from the short timed passes.
    """
    scores = reference.scores
    wall, run_s = fastest(passes, 0), fastest(passes, 1)
    sim_s = next((p.sim_s for p in passes if not p.failed), 0.0)
    return {
        "setup_s": statistics.median(setup),
        "wall_ms": wall * 1e3 if wall else None,
        "sim_s_per_s": sim_s / run_s if run_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "completed_frac": (attempted - failed) / attempted,
        "rms_xerr_final_m": _mean(s[0] for s in scores),
        "rms_ratio": _mean(s[0] / s[1] for s in scores),
        "dz_err_final_v": _mean(s[2] for s in scores),
        "monitor_violations": sum(s[3] for s in scores) if scores else None,
    }


def per_layer(traced, untraced) -> dict:
    values = {
        m.name: statistics.median(m.value(trace) for _, trace in traced)
        for m in metrics.PER_LAYER
    }
    values[metrics.OVERHEAD.name] = (
        statistics.median(p.wall_s for p, _ in traced)
        / statistics.median(p.wall_s for p in untraced)
    )
    return values


def measure(ehservo, root: Path, workload: str, seed: int, seconds: float, trace: bool,
            duration: float | None = None) -> dict:
    """Time one workload and return its metrics, pass records and trace.

    duration overrides the simulated length of each scenario (the self-test
    uses it to run at tiny sizes).
    """
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))

    def make_runner(size):
        if workload == "sweep":
            return SweepWorkload(ehservo, seed, size)
        return CliWorkload(ehservo, workdir, varying=workload == "varying", duration=size)

    runner = tracer = None
    kinds = []          # (kind, PassResult); kind is reference, warm-up, timed or traced
    traced = []
    try:
        setup = []
        start = time.perf_counter()

        def set_up_when_due():
            # Set-up runs are spread over the run, so that their median is not
            # taken from one busy stretch of the host.
            if len(setup) < SETUP_RUNS and \
                    time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
                setup.append(time_setup(root))

        if not trace:
            set_up_when_due()
        runner = make_runner(duration)
        # The first pass fills the interpreter's and allocator's caches; it is
        # checked in full but not timed.
        kinds.append(("reference", runner.run_pass(full_check=True)))
        if trace:
            budget = seconds * TRACE_UNTRACED_SHARE - (time.perf_counter() - start)
            kinds += [("timed", p) for p in
                      repeat(lambda i: runner.run_pass(full_check=False), budget, MIN_PASSES - 1)]
            tracer = Tracer()
            tracer.instrument()

            def traced_pass(i):
                tracer.pass_index = i
                with tracer.span("pass"):
                    result = runner.run_pass(full_check=False)
                stats, counters = tracer.take()
                return result, metrics.PassTrace(stats, counters, result.csv_bytes)

            traced = repeat(traced_pass, seconds * (1.0 - TRACE_UNTRACED_SHARE), 1)
            kinds += [("traced", p) for p, _ in traced]
        else:
            runner.close()
            runner = make_runner(TIMED_DURATION if duration is None else duration)
            kinds.append(("warm-up", runner.run_pass(full_check=True)))

            def timed_pass(i):
                set_up_when_due()
                return runner.run_pass(full_check=False)

            budget = seconds - (time.perf_counter() - start)
            kinds += [("timed", p) for p in repeat(timed_pass, budget, MIN_PASSES)]
            while len(setup) < SETUP_RUNS:
                setup.append(time_setup(root))
    finally:
        if tracer is not None:
            tracer.restore()
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [p for _, p in kinds]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timed = [p for kind, p in kinds if kind == "timed"]
    if trace:
        values = per_layer(traced, timed)
    else:
        values = end_to_end(kinds[0][1], timed, setup, attempted, failed)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "problems": [msg for p in passes for msg in p.problems],
        "csv_sha256": sorted({p.digest for p in passes if p.digest}),
        "csv_bytes": sorted({p.csv_bytes for p in passes if p.csv_bytes}),
        "timed_wall_s": {
            "passes": len(timed),
            "min": min(p.wall_s for p in timed),
            "median": statistics.median(p.wall_s for p in timed),
            "max": max(p.wall_s for p in timed),
        },
        "passes": [
            {"wall_s": p.wall_s, "run_s": p.run_s, "sim_s": p.sim_s, "kind": kind}
            for kind, p in kinds
        ],
    }
    if not trace:
        record["setup_runs_s"] = setup
    else:
        record["wait_time"] = NO_WAIT_NOTE
        record["unwrapped"] = tracer.missing
        record["spans"] = {
            "columns": ["id", "parent_id", "pass", "name", "start_ns", "end_ns"],
            "rows": tracer.spans,
        }
        record["span_stats"] = [
            {"pass": i, "stats": {k: dict(zip(("calls", "total_ns", "self_ns"), v))
                                  for k, v in t.stats.items()}, "counters": t.counters}
            for i, (_, t) in enumerate(traced)
        ]
    return record


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, ehservo) -> dict:
    numpy = importlib.import_module("numpy")
    digest = hashlib.sha256()
    package = root / "src" / "ehservo"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "ehservo_version": getattr(ehservo, "__version__", None),
        "ehservo_commit": _git_commit(root),
        "ehservo_source_sha256": digest.hexdigest(),
    }


def run_all(args) -> int:
    """Run every workload in its own interpreter, so each reports its own peak memory."""
    combined = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)

    root = HERE.parent
    try:
        ehservo = load_ehservo(root)
        env = environment(root, ehservo)
        rec = measure(ehservo, root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    registry = {m.name: m for m in (metrics.PER_LAYER_ALL if args.trace else metrics.END_TO_END)}
    rec["environment"] = env
    rec["meanings"] = {k: registry[k].meaning for k in rec["metrics"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (root / OUT_DIR / name).write_text(json.dumps(rec, indent=1) + "\n")
    tag = args.workload
    print(f"{tag}: environment {json.dumps(env)}")
    for problem in rec["problems"]:
        print(f"{tag}: CHECK FAILED: {problem}")
    if rec["csv_sha256"]:
        print(f"{tag}: csv sha256 {' '.join(rec['csv_sha256'])}, "
              f"bytes {' '.join(map(str, rec['csv_bytes']))}")
    spread = rec["timed_wall_s"]
    print(f"{tag}: {spread['passes']} timed passes, wall_s min {spread['min']:.4f} "
          f"median {spread['median']:.4f} max {spread['max']:.4f} s")
    if args.trace:
        print(f"{tag}: wait time {NO_WAIT_NOTE}")
    for key, value in rec["metrics"].items():
        m = registry[key]
        print(f"{tag:<9} {key:<40} {value!r} {m.unit} ({m.better} is better)")
    print(f"{tag}: {rec['attempted']} scenarios attempted, {rec['failed']} failed; "
          f"results in {OUT_DIR}/{name}")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": registry[k].unit} for k, v in rec["metrics"].items()},
    }))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
