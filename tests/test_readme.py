"""README.md runs and reads as the code does: its python example runs as written,
and its config table names exactly the config schema's keys."""

import re
from pathlib import Path

from ehservo.cli import KNOWN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


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
