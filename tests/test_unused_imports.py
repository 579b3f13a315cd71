"""No module in ``src/``, ``tests/`` or ``demos/`` imports a name it never reads.

An AST pass: every name an import statement binds must appear as a name
somewhere in the same file, or in its ``__all__``.  An import whose lines
carry ``# noqa: F401`` is a deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_covers_the_tree():
    names = {p.relative_to(ROOT).as_posix() for p in FILES}
    assert {"src/unlearn_forge/models.py", "tests/oracles.py",
            "demos/demo_label_ldp.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("import json\nimport os\nfrom math import pi, tau\n"
              "from typing import Any  # noqa: F401\nprint(os.sep, tau)\n")
    assert unused_imports(source) == ["line 1: json", "line 3: pi"]
