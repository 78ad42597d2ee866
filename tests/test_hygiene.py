"""Source hygiene: every module-level import in src/gvc is used, and no
module imports the same name twice."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gvc"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used_once(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imports(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [n for n in imported if n not in used] == [], "unused import"
    assert sorted({n for n in imported if imported.count(n) > 1}) == [], "imported twice"
