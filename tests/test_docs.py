"""README.md cannot drift from the config schema.

Every INI example in README.md that starts with a ``[section]`` line is
read and typed by ``resrelax.config``, and README's key table lists
exactly the sections and keys of ``config._SCHEMA``.
"""

import pathlib
import re

import pytest

from resrelax.config import _SCHEMA, RunConfig, _parse_value, _read_ini

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()

INI_BLOCKS = [block for block in re.findall(r"```ini\n(.*?)```", README,
                                            re.DOTALL)
              if block.startswith("[")]


def test_readme_has_ini_examples():
    assert INI_BLOCKS


@pytest.mark.parametrize("block", INI_BLOCKS)
def test_readme_ini_examples_are_read_and_typed(block):
    raw = _read_ini(block.splitlines(), "README.md")
    sections = {name: {key: _parse_value(value) for key, value in sec.items()}
                for name, sec in raw.items()}
    for name in sections:
        RunConfig("README.md", sections, only=name)


def test_readme_key_table_lists_the_schema():
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", README, re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(section, key) for section, keys in _SCHEMA.items()
                         for key in keys}
