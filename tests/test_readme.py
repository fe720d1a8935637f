"""README.md runs and reads as the code does: its python example and its
`ehservo run` lines run as written, its config table names exactly the config
schema's keys and gives their defaults, every module attribute it names exists,
and every call it writes with bare-name arguments has those parameters.
ehservo's __all__ lists exactly the public names the package binds."""

import importlib
import inspect
import re
import shlex
import types
from pathlib import Path

import ehservo
from ehservo import cli
from ehservo.cli import _SCHEMA, config_dump, resolve_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_shell_examples_run(tmp_path, monkeypatch, capsys):
    # each `ehservo run` line of the "Command line" block, shortened to 0.01 s
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("ehservo run")]
    assert len(commands) >= 4
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main([*argv[1:], "--duration", "0.01"]) == 0, argv
    assert capsys.readouterr().err == ""


def _config_table_rows(text):
    """Each row of README's config table as its backticked key names and its
    default cell."""
    lines = text.splitlines()
    start = lines.index("| key | meaning | default |")
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        yield re.findall(r"`([^`]+)`", cells[1]), cells[-2].strip()


def test_config_table_names_every_schema_key():
    rows = _config_table_rows(README.read_text())
    assert {key for keys, _ in rows for key in keys} == set(_SCHEMA)


def _config_value(text):
    """A default as a config value: a Unicode minus reads as '-', a trailing
    unit word is dropped, 'a/b' is a fraction, and what is not a number stays
    text."""
    token = text.replace("\u2212", "-").split()[0]
    num, _, den = token.partition("/")
    try:
        return float(num) / float(den or 1)
    except ValueError:
        return token


def _config_values(text):
    """The set of values a list of defaults gives: its items are
    comma-separated, and '±a' stands for '-a, a'."""
    return {_config_value(item) for item in re.sub(r"±([^,]+)", r"-\1, \1", text).split(",")}


def test_config_table_defaults_match_the_code():
    # every row's default cell gives one item per key: comma-separated, or
    # ';'-separated where a key takes a list, such as the membership grid
    dumped = dict(line.split(" = ", 1)
                  for line in config_dump(resolve_config({})).splitlines())
    for keys, default in _config_table_rows(README.read_text()):
        items = default.split(";" if ";" in default else ",")
        assert len(items) == len(keys), keys
        for key, item in zip(keys, items):
            assert _config_values(item) == _config_values(dumped[key]), key


def test_named_module_attributes_exist():
    # a backticked `plant.x`, `sim.x`, `fuzzy.x`, `controller.x` or `cli.x`
    # must name an attribute of that ehservo module, and a backticked call
    # `name(...)` an attribute of ehservo, so a deleted name cannot stay in
    # the docs
    text = README.read_text()
    names = re.findall(r"`(plant|sim|fuzzy|controller|cli)\.(\w+)", text)
    calls = re.findall(r"`(\w+)\(", text)
    assert names and calls
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"ehservo.{module}"), name)]
    missing += [f"{name}(" for name in calls if not hasattr(ehservo, name)]
    assert not missing, f"README names attributes that do not exist: {missing}"


def test_named_call_signatures_match_the_code():
    # a backticked call whose arguments are all bare names, such as
    # `rk4_step(x, v, PL, u, ps, dt, p)`, gives the parameters of that
    # ehservo function in order, so a changed signature cannot stay in the docs
    calls = re.findall(r"`(\w+)\((\w+(?:, \w+)*)\)`", README.read_text())
    assert calls
    wrong = [f"{name}({args})" for name, args in calls
             if args.split(", ") != list(inspect.signature(getattr(ehservo, name)).parameters)]
    assert not wrong, f"README gives signatures the code does not have: {wrong}"


def test_exported_names_are_all():
    # every __all__ entry resolves, and every public name ehservo binds other
    # than its submodules is exported, so a name cannot be deleted from one
    # and stay in the other
    missing = [name for name in ehservo.__all__ if not hasattr(ehservo, name)]
    assert not missing, f"__all__ names attributes that do not exist: {missing}"
    bound = {name for name, value in vars(ehservo).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(ehservo.__all__)
