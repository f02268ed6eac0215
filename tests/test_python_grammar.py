"""Every file under ``src/`` and ``tests/`` parses under the oldest Python
grammar that ``pyproject.toml``'s ``requires-python`` admits.

``ast.parse`` with ``feature_version`` rejects syntax newer than that
version, such as ``except*`` and ``type X = ...`` for 3.10. The check covers
grammar only, not stdlib APIs: a call to a function added after that version
still passes it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize(
    "newer",
    ["try:\n    pass\nexcept* ValueError:\n    pass\n", "type Pair = tuple[int, int]\n"],
)
def test_newer_grammar_is_rejected(newer):
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=oldest_python())


def test_sources_and_tests_parse_under_the_oldest_grammar():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())
