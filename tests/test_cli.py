"""Config loading, CSV emission, summaries, and the command-line front end."""

import hashlib
import os
import platform
import subprocess
import sys
import textwrap
from dataclasses import fields
from itertools import cycle, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ehservo
from ehservo import ControllerParams, FuzzyEstimator, PlantParams, Scenario
from ehservo.cli import (
    CSV_HEADER,
    _NUMBER,
    _NUMBERS,
    _SCHEMA,
    ConfigError,
    config_dump,
    main,
    parse_kv,
    resolve_config,
    summarize,
    write_csv,
)
from ehservo.sim import SERIES, MonitorParams, MonitorReport, SimMetrics, SimResult
from reference import nominal_run


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _short_run(**scenario_kwargs):
    return nominal_run(Scenario(**{"duration": 2.0, **scenario_kwargs}))


class TestConfigResolution:
    def test_lambda_expansion(self):
        cfg = resolve_config(parse_kv("lambda = 8\n"))
        assert cfg.controller.c0 == 64.0 and cfg.controller.c1 == 16.0
        cfg = resolve_config(parse_kv("lambda = 5\n"))
        assert cfg.controller.c0 == 25.0 and cfg.controller.c1 == 10.0

    # lambda = 1e200 is finite, but its square c0 is not
    @pytest.mark.parametrize("value", ["0", "1e200"])
    def test_bad_lambda_named(self, value):
        with pytest.raises(ConfigError, match="^lambda"):
            resolve_config({"lambda": value})

    def test_unknown_key_named(self):
        # the controller's model is the plant: no key sets a copy of it.
        # Each is refused by name, by the parser and by the resolver, never dropped
        for key in ("pressure_gain", *("model_" + key for key in _PLANT_SAMPLES)):
            with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'"):
                parse_kv(f"{key} = -1\n")
            with pytest.raises(ConfigError, match=f"^unknown key '{key}'"):
                resolve_config({key: "nan"})

    def test_removed_knobs_are_unknown_keys(self):
        # lambda alone sets the error polynomial, the monitor's bounds and
        # transient are fixed, and the CSV path is the --out flag alone
        for key in ("c0", "c1", "monitor_tol", "monitor_e_threshold",
                    "transient_fraction", "out"):
            with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'"):
                parse_kv(f"{key} = 8\n")
            with pytest.raises(ConfigError, match=f"^unknown key '{key}'"):
                resolve_config({key: "nan"})

    def test_unparseable_value_named(self):
        for key, value, kind in (("kappa", "fast", "a number"),
                                 ("freeze_adaptation", "maybe", "a boolean")):
            with pytest.raises(ConfigError) as err:
                resolve_config(parse_kv(f"{key} = {value}\n"))
            assert str(err.value) == f"key '{key}': cannot parse '{value}' as {kind}"

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key = value"):
            resolve_config(parse_kv("kappa 2\n"))

    def test_comments_and_blanks_skipped(self):
        cfg = resolve_config(parse_kv("# comment\n\nkappa = 2  # inline\n"))
        assert cfg.controller.kappa == 2.0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config ")

    def test_file_not_utf8_is_one_line_error(self, tmp_path, capsys):
        # a Latin-1 degree sign in a comment
        path = tmp_path / "run.cfg"
        path.write_bytes("# oil at 40 \u00b0C\nkappa = 2\n".encode("latin-1"))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ")
        assert len(err.splitlines()) == 1

    def test_utf8_byte_order_mark_skipped(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfkappa = 2\n")
        assert main(["run", "--config", str(path), "--print-config"]) == 0
        assert "kappa = 2.0" in capsys.readouterr().out

    def test_centers_and_consequents(self):
        cfg = resolve_config(parse_kv("centers = -1, 0, 1\nd_hat_init = 0.25\n"))
        assert cfg.estimator.centers == (-1.0, 0.0, 1.0)
        assert cfg.estimator.d_hat == (0.25, 0.25, 0.25)

    def test_duplicate_key_names_both_lines(self):
        text = "kappa = 2\nphi = 1\nKAPPA = 3\n"
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'kappa', first set on line 1"):
            resolve_config(parse_kv(text))


_PLANT_SAMPLES = {
    "ps": "6e6", "rho": "900", "cd": "0.62", "w": "0.02", "ap": "3.2e-4", "ctp": "1e-12",
    "beta_e": "8e8", "vt": "5e-5", "mt": "240", "bp": "90", "k": "70",
    "delta_l": "-1.0", "delta_r": "0.8", "kv": "2.2e-6",
}

# One valid, non-default value per config key
NON_DEFAULT = {
    **_PLANT_SAMPLES,
    "lambda": "7", "kappa": "2", "phi": "1.5",
    "centers": "-1, 0, 1", "d_hat_init": "0.25",
    "duration": "30", "dt_plant": "0.000625", "dt_control": "0.005",
    "amplitude": "0.3", "omega": "0.2", "supply_pressure_mode": "varying",
    "x0": "0.1", "v0": "-0.01", "pl0": "1e5", "freeze_adaptation": "true",
    "monitor_window": "5",
}


def _changed_fields(cfg, base):
    """(part, field) pairs in which two resolved configs differ."""
    return {
        (part.name, f.name)
        for part in fields(cfg)
        for f in fields(getattr(cfg, part.name))
        if getattr(getattr(cfg, part.name), f.name) != getattr(getattr(base, part.name), f.name)
    }


class TestSchema:
    def test_every_key_has_a_sample(self):
        assert len(_SCHEMA) == 30
        assert set(NON_DEFAULT) == set(_SCHEMA)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_non_default_value_round_trips(self, key):
        cfg = resolve_config({key: NON_DEFAULT[key]})
        assert cfg != resolve_config({})
        assert cfg.controller.model == cfg.plant
        dumped = config_dump(cfg)
        assert f"{key} = " in dumped
        assert resolve_config(parse_kv(dumped)) == cfg

    # The plant keys all meet PlantParams' one check_fields call, so one value each, cycling
    # over them, checks that the refusal names the key. The other number keys keep all three
    # values, centers and d_hat_init through FuzzyEstimator's own checks; centers get a
    # second entry, so that finiteness, not length, refuses them.
    @pytest.mark.parametrize("value, key", [*zip(cycle(["inf", "-inf", "nan"]), sorted(
        key for key, (part, _, _) in _SCHEMA.items() if part == "plant")),
        *product(["inf", "-inf", "nan"], sorted(key for key, (part, _, kind) in _SCHEMA.items()
                 if part != "plant" and kind in (_NUMBER, _NUMBERS)))])
    def test_non_finite_number_named(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must (all )?be finite\b"):
            resolve_config({key: f"0, {value}" if key == "centers" else value})

    def test_every_field_reachable_from_a_key(self):
        base = resolve_config({})
        reached = set()
        for key, value in NON_DEFAULT.items():
            reached |= _changed_fields(resolve_config({key: value}), base)
        expected = (
            {("plant", f.name) for f in fields(PlantParams)}
            | {("controller", f.name) for f in fields(ControllerParams) if f.name != "model"}
            | {("estimator", f.name) for f in fields(FuzzyEstimator)}
            | {("scenario", f.name) for f in fields(Scenario)}
            | {("monitor", f.name) for f in fields(MonitorParams)}
        )
        assert expected - reached == set()


# SHA-256 of the CSV of `ehservo run --out`: the byte-identity yardstick of
# every kernel change. The series go through libm's sin and cos, so another
# platform's libm can change a digest; the failure message names the platform.
# write_csv does not depend on the run's mode, so the other two runs are pinned
# by their series alone.
YARDSTICK_SHA256 = {
    "default_run": "571f82736373ee1eab7919627951cc6805f4c4cf4fbad5da78ad4d97fe1a25f1",
}
# SHA-256 of the SERIES arrays at full precision (tobytes() in SERIES order) of
# that run, `--scenario varying-ps` and `--freeze-adaptation`: the CSV's 12
# digits miss a change in the last bits
SERIES_SHA256 = {
    "default_run": "c4bf8b6989fbc7aed4e803dc798155af4605465c74dd43c62fc09257394c43e5",
    "varying_run": "6550501087ed2b6fc19f3c1df9d32d19dacd7ce5e350087f321da1ccfef2b5d7",
    "frozen_run": "58c4a60261c27d37cdca70d9c308c79af6e6f3ddabeb338499d4b4471e8fde8a",
}


def _platform():
    return (f"{platform.platform()} ({platform.machine()}, libc "
            f"{' '.join(platform.libc_ver())}, Python {platform.python_version()}, "
            f"numpy {np.__version__})")


def _empty_result():
    z = np.zeros(0)
    return SimResult(
        t=z, x=z, xd=z, xerr=z, v=z, PL=z, u=z, uhat=z, d=z, dhat=z, e=z, Ps=z,
        metrics=SimMetrics(0, 0, 0, 0, 0),
        monitor=MonitorReport((), 0, 0.0, 0),
    )


class TestCsv:
    def test_unwritable_path_named(self, tmp_path):
        path = tmp_path / "missing" / "run.csv"
        with pytest.raises(OSError, match="^cannot write CSV to "):
            write_csv(_empty_result(), path)

    def test_header_only_for_empty_series(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(_empty_result(), path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_round_trip_precision(self, tmp_path):
        # on varying supply every column, Ps included, carries 12 digits
        res = _short_run(supply_pressure_mode="varying")
        path = tmp_path / "run.csv"
        write_csv(res, path)
        parsed = np.genfromtxt(path, delimiter=",", names=True)
        for name in SERIES:
            orig = getattr(res, name)
            assert np.allclose(parsed[name], orig, rtol=1e-11, atol=0.0), name

    @pytest.mark.parametrize("fixture", list(YARDSTICK_SHA256))
    def test_default_runs_keep_their_digests(self, fixture, request, tmp_path):
        path = tmp_path / "run.csv"
        write_csv(request.getfixturevalue(fixture), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == YARDSTICK_SHA256[fixture], (
            f"{fixture} CSV hashes to {digest} on {_platform()}"
        )

    @pytest.mark.parametrize("fixture", list(SERIES_SHA256))
    def test_default_runs_keep_their_series_digests(self, fixture, request):
        result = request.getfixturevalue(fixture)
        digest = hashlib.sha256()
        for name in SERIES:
            digest.update(getattr(result, name).tobytes())
        assert digest.hexdigest() == SERIES_SHA256[fixture], (
            f"{fixture} series hash to {digest.hexdigest()} on {_platform()}"
        )

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "run.csv"
        write_csv(_short_run(duration=0.1), path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestSummarize:
    def test_equilibrium_metrics_zero(self, capsys):
        res = _short_run(amplitude=0.0)
        summarize(res, elapsed=0.5)
        out = capsys.readouterr().out
        assert "rms tracking error, final quarter : 0 m" in out
        assert "wall-clock time" in out

    def test_reports_violations(self, capsys):
        summarize(_short_run(), elapsed=0.5)
        out = capsys.readouterr().out
        assert "rms-window violations" in out
        assert "final-window mean |e|" in out


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if main starts a run."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr("ehservo.cli.run", refuse)


class TestMain:
    def test_successful_run(self, tmp_path, capsys, monkeypatch):
        # the summary times the run from the clock's two readings around it
        clock = iter((100.0, 100.25))
        monkeypatch.setattr("ehservo.cli.time", SimpleNamespace(perf_counter=lambda: next(clock)))
        out = tmp_path / "out.csv"
        code = main(["run", "--duration", "1", "--out", str(out)])
        assert code == 0
        assert "wall-clock time                   : 0.25 s" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 401

    @pytest.mark.parametrize("config, flags, kappa_note", [
        ("x0 = 1e306\n", [], False),  # kappa*b0*dt_control = 1*152.46/400 = 0.38
        # the varying supply's peak 1.2*1.6e308 overflows: refused before the
        # first control period, so no held voltage is blamed, though
        # kappa*b0*dt_control = 1.82e+150
        ("ps = 1.6e308\n", ["--scenario", "varying-ps"], False),
    ], ids=["x0", "varying_ps_overflow"])
    def test_blow_up_exit_code(self, config, flags, kappa_note, tmp_path, capsys):
        cfg = _write(tmp_path, config)
        out = tmp_path / "run.csv"
        code = main(["run", "--config", str(cfg), *flags, "--duration", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical blow-up: ")
        assert ("kappa*b0*dt_control" in err[0]) == kappa_note
        assert not out.exists()

    def test_blow_up_past_the_kappa_ceiling_says_so(self, tmp_path, capsys):
        # kappa*b0*dt_control = 7*152.46/400 = 2.67: each held period scales e by about -1.67
        cfg = _write(tmp_path, "kappa = 7\n")
        assert main(["run", "--config", str(cfg), "--duration", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "kappa*b0*dt_control = 2.67 > 2" in err

    def test_batch_mode(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        assert main(["run", "--duration", "0.5", "--batch", str(batch)]) == 0
        names = sorted(p.name for p in batch.iterdir())
        assert names == ["constant_ps.csv", "constant_ps_frozen.csv", "varying_ps.csv"]

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_out_with_batch_is_config_error(self, form, tmp_path, capsys, no_run):
        # each batch run sets its own --out, supply mode and adaptation, so a
        # value given for any of them would be dropped unused
        cases = {
            "--out": (["--out", str(tmp_path / "missing" / "x.csv")], None),  # no config key
            "supply_pressure_mode": (["--scenario", "varying-ps"],
                                     "supply_pressure_mode = varying"),
            "freeze_adaptation": (["--freeze-adaptation"], "freeze_adaptation = false"),
        }
        batch = tmp_path / "batch"
        for key, (flags, line) in cases.items():
            if form == "config" and line is None:
                continue
            args = flags if form == "flag" else ["--config", str(_write(tmp_path, line + "\n"))]
            assert main(["run", "--duration", "0.01", "--batch", str(batch), *args]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {key} "), key
            assert not batch.exists()

    def test_config_paths_leave_numpy_unloaded(self):
        # a fresh interpreter, which no earlier test has made import numpy
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from ehservo.cli import main, resolve_config
            resolve_config({})
            assert main(["run", "--print-config"]) == 0
            assert main(["run", "--duration", "abc"]) == 1
            try:
                main(["run", "--help"])
            except SystemExit as stop:
                assert stop.code == 0
            else:
                raise AssertionError("--help returned")
            assert "numpy" not in sys.modules
            # the run path of main loads numpy before its clock starts
            import ehservo.cli
            entered, run = [], ehservo.cli.run
            def wrapped(*args, **kwargs):
                entered.append("numpy" in sys.modules)
                return run(*args, **kwargs)
            ehservo.cli.run = wrapped
            assert main(["run", "--duration", "0.01"]) == 0
            assert entered == [True]
            from ehservo import ControllerParams, FuzzyEstimator, PlantParams, Scenario
            plant = PlantParams()
            result = run(
                Scenario(duration=0.01), plant, ControllerParams(model=plant), FuzzyEstimator()
            )
            import numpy as np
            assert isinstance(result.x, np.ndarray)
        """)
        src = Path(ehservo.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_calls_share_no_state(self, capsys):
        # one parser serves every call of main in a process
        assert main(["run", "--print-config"]) == 0
        defaults = capsys.readouterr().out
        assert defaults == config_dump(resolve_config({}))
        with pytest.raises(SystemExit) as stop:
            main(["run", "--bogus"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(["run", "--duration", "5", "--print-config"]) == 0
        assert "duration = 5.0\n" in capsys.readouterr().out
        assert main(["run", "--print-config"]) == 0
        assert capsys.readouterr().out == defaults

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_closed_stdout_finishes_the_batch(self, flags, tmp_path):
        # a fresh interpreter whose standard output is a pipe with no reader:
        # every run still writes its CSV, and the exit code and stderr are
        # those of a clean batch
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from ehservo.cli import main
            sys.exit(main(["run", "--duration", "0.01", "--batch", sys.argv[2]]))
        """)
        src = Path(ehservo.__file__).resolve().parents[1]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-I", *flags, "-c", code, str(src), str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["constant_ps.csv", "constant_ps_frozen.csv", "varying_ps.csv"]

    def test_flags_override_config_keys(self, tmp_path, capsys):
        cfg = _write(tmp_path, "duration = abc\nsupply_pressure_mode = constant\n")
        assert main(["run", "--config", str(cfg), "--duration", "5",
                     "--scenario", "varying-ps", "--freeze-adaptation", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "duration = 5.0" in out
        assert "supply_pressure_mode = varying" in out
        assert "freeze_adaptation = true" in out

    # a bad value in the file or a bad flag, which goes through its key's
    # parsing and checks; an empty --out or --batch would run and write no
    # CSV, and an empty --config would run the defaults; finite, positive
    # plant constants whose products underflow leave the model no input gain,
    # and ones whose products overflow leave it infinite coefficients or an
    # infinite input gain at rest;
    # a reference phase omega*t that overflows would reach sin(inf), and a
    # reference jerk amplitude*omega**3 that overflows a non-finite control;
    # centers whose gap overflows would stop interpolating
    @pytest.mark.parametrize("line, flags, error", [
        ("kappa = inf", [], "config error: kappa"),
        ("delta_r = -1", [], "config error: delta_r "),
        ("", ["--duration", "abc"], "config error: key 'duration': "),
        ("", ["--duration", "-1"], "config error: duration "),
        ("", ["--scenario", "constant"], "config error: --scenario "),
        ("", ["--out", ""], "config error: --out "),
        ("", ["--batch", ""], "config error: --batch "),
        ("", ["--config", ""], "config error: --config "),
        ("vt = 1e-200\nmt = 1e-200", [], "config error: vt "),
        ("cd = 1e-200\nkv = 1e-200", [], "config error: kv "),
        ("cd = 1e-150\nkv = 1e-150\nrho = 1e300", [], "config error: kv "),
        ("vt = 1e-300\nmt = 1e-20", [], "config error: vt "),
        ("cd = 1e200\nw = 1e200", [], "config error: kv "),
        ("kv = 1e-200\nap = 1e5\nvt = 1e-150\nmt = 1e-150", [], "config error: vt "),
        ("amplitude = 0\nomega = 1e308", ["--duration", "2"], "config error: omega "),
        ("omega = 1e103", ["--duration", "1"], "config error: omega "),
        ("centers = -1e308, 1e308", [], "config error: centers "),
    ], ids=["kappa", "delta_r", "duration_flag", "duration_negative", "scenario_flag",
            "out_flag", "batch_flag", "config_flag", "vt_mt", "cd_kv", "gain_floor",
            "coefficients_overflow", "gain_at_rest_overflow", "coefficients_overflow_ap", "omega",
            "omega_jerk", "centers_gap"])
    def test_bad_value_rejected_before_run(self, line, flags, error, tmp_path, capsys,
                                           no_run):
        cfg = _write(tmp_path, line + "\n")
        assert main(["run", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error)
        assert len(err.splitlines()) == 1

    def test_window_too_long_to_count_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "monitor_window = 1e308\n")
        assert main(["run", "--config", str(cfg), "--duration", "1"]) == 0
        assert "rms-window violations             : 0 of 0 pairs" in capsys.readouterr().out

    @pytest.mark.parametrize("form", ["out", "out_dir", "read_only", "batch", "batch_csv"])
    def test_unwritable_output_is_one_line_error(self, form, tmp_path, capsys, monkeypatch,
                                                 no_run):
        # --out into a missing directory, onto a directory or onto a read-only
        # file; --batch onto a file, or with its last CSV path a directory
        taken = _write(tmp_path, "", name="taken")
        access = os.access
        monkeypatch.setattr("ehservo.cli.os.access", lambda p, m: p != taken and access(p, m))
        (tmp_path / "batch" / "constant_ps_frozen.csv").mkdir(parents=True)
        args = {"out": ["--out", str(tmp_path / "missing" / "run.csv")],
                "out_dir": ["--out", str(tmp_path)],
                "read_only": ["--out", str(taken)],
                "batch": ["--batch", str(taken)],
                "batch_csv": ["--batch", str(tmp_path / "batch")]}[form]
        assert main(["run", "--duration", "0.1", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not [path for path in tmp_path.rglob("*.csv") if path.is_file()]

    def test_run_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        # a run that raises MemoryError stands in for one whose row buffer the
        # allocator refuses, such as --duration 1e6 (38.4 GB)
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("ehservo.cli.run", no_memory)
        out = tmp_path / "run.csv"
        assert main(["run", "--duration", "1e6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ")
        assert "1000000.0" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_any_file_name_is_an_output(self, tmp_path, monkeypatch):
        # the path is no config value, so a '#' or edge whitespace is no error
        monkeypatch.chdir(tmp_path)
        for name in ("run#1.csv", " run.csv"):
            assert main(["run", "--duration", "0.01", "--out", name]) == 0
            assert (tmp_path / name).read_text().startswith(CSV_HEADER + "\n")

    def test_existing_target_judged_by_itself(self, monkeypatch):
        # a writable target, such as the null device, in a directory that is not
        access = os.access
        monkeypatch.setattr("ehservo.cli.os.access", lambda path, mode: (
            path != Path(os.devnull).parent and access(path, mode)))
        assert main(["run", "--duration", "0.01", "--out", os.devnull]) == 0
