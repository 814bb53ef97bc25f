"""Every python block in README.md runs as written, and its config table
lists what the CLI reads from a config file."""

import json
import re
from pathlib import Path

import pytest

from logergodic.cli import _FLAGS_ONLY, main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
CONFIG = README.read_text().split("### Config file\n")[1].split("\n## ")[0]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_config_table_keys_are_the_config_settable_options():
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", CONFIG, re.M))
    # a key is followed by its default, its flag, the next key or "as for"
    table = {name: set(re.findall(r"`(\w+)`(?= =| \(|,| as )", row))
             for name, row in rows.items()}
    settable = {name: {param.name for param in command.params} - _FLAGS_ONLY
                for name, command in main.commands.items()}
    assert table == {name: keys for name, keys in settable.items() if keys}


def test_config_table_top_level_row_is_the_group_options():
    row = re.search(r"^\| \(top level\) \| (.*) \|$", CONFIG, re.M).group(1)
    table = {name: json.loads(default.strip("`"))
             for name, default in re.findall(r"`(\w+)` = (`[^`]*`|[^,]+)", row)}
    assert table == {param.name: param.default for param in main.params if param.expose_value}
