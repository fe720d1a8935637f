"""README.md runs and reads as the code does: its python example and its
`ehservo run` lines run as written, its config table names exactly the config
schema's keys, and every module attribute it names exists."""

import importlib
import re
import shlex
from pathlib import Path

from ehservo import cli
from ehservo.cli import KNOWN_KEYS

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


def _config_table_keys(text):
    """Backticked names in the first column of README's config table."""
    lines = text.splitlines()
    start = lines.index("| key | meaning | default |")
    keys = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        keys |= set(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return keys


def test_config_table_names_every_schema_key():
    keys = _config_table_keys(README.read_text())
    assert "model_*" in keys
    model_twins = {key for key in KNOWN_KEYS if key.startswith("model_")}
    assert keys - {"model_*"} == set(KNOWN_KEYS) - model_twins


def test_named_module_attributes_exist():
    # a backticked `plant.x`, `sim.x`, `fuzzy.x`, `controller.x` or `cli.x`
    # must name an attribute of that ehservo module, so a deleted name cannot
    # stay in the docs
    names = re.findall(r"`(plant|sim|fuzzy|controller|cli)\.(\w+)", README.read_text())
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"ehservo.{module}"), name)]
    assert not missing, f"README names attributes that do not exist: {missing}"
