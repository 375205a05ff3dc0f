"""``errors.open_text`` is the one way the package opens a file for reading."""

import ast
import re
from pathlib import Path

import pytest

import aftershocks

_MODULES = sorted(Path(aftershocks.__file__).parent.glob("*.py"))


def _is_write_mode(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"[rwaxbt+]+", node.value) is not None
        and re.search(r"[wax]", node.value) is not None
    )


def _reads(source: str) -> list[str]:
    """``line: call`` for each call in ``source`` that may read a file: an
    ``open`` without a literal write mode, ``read_text`` or ``read_bytes``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("read_text", "read_bytes"):
            found.append(f"{node.lineno}: {name}")
        elif name == "open" and not any(_is_write_mode(a) for a in [*node.args, *(k.value for k in node.keywords)]):
            found.append(f"{node.lineno}: open")
    return found


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_opens_files_for_reading(path):
    assert _reads(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_every_way_to_read():
    source = 'open(p)\nopen(p, "rb")\np.open()\np.read_text()\np.read_bytes()\nopen(p, "w")\np.open(mode="a")\n'
    assert _reads(source) == ["1: open", "2: open", "3: open", "4: read_text", "5: read_bytes"]
