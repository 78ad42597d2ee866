"""Source hygiene: every module-level import in src/gvc is used, no module
imports the same name twice, every module-level function and class and every
method is referenced, and library code changes no interpreter-global
state."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
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


def _references(tree):
    """Identifiers a syntax tree mentions: names, attributes, imported names
    and identifier-like strings (bench/tracing.py wraps functions by name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of each module-level function and class, and
    of each method of those classes that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_referenced():
    # a module-level function or class, or a method, that nothing in src/,
    # tests/, scripts/ or bench/ mentions outside its own definition is dead
    # code; a method counts as mentioned wherever its name is
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for d in ("src", "tests", "scripts", "bench")
             for path in sorted((SRC.parent.parent / d).rglob("*.py"))}
    total = sum((_references(t) for t in trees.values()), Counter())
    unused = []
    for path in MODULES:
        for qualname, node in _definitions(trees[path]):
            if total[node.name] - _references(node)[node.name] == 0:
                unused.append(f"{path.name}:{qualname}")
    assert unused == []


def test_no_interpreter_global_state():
    # library code must not change interpreter-wide settings or key caches
    # on object identity: no setrecursionlimit, no builtin id()
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "setrecursionlimit") or (
                    isinstance(f, ast.Name) and f.id in ("setrecursionlimit", "id")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


SPIN = '''
import json, sys
from gvc.frontend import load_source
from gvc.oracle import Oracle
from gvc.verifier import verify_program
from gvc.vm import Transaction, load_program, run_script
from gvc.weaver import weave

src = ("contract C:\\n  #@ predicate spin(n) = spin(n + 1);\\n"
       "  method go(x: uint64):\\n    #@ requires ? and spin(x);\\n"
       "    #@ ensures ?;\\n    y := x;\\n")
limit = sys.getrecursionlimit()
program, _ = load_source(src, "spin.gcl")
tx = Transaction("C", "go", (0,))
[out], _ = run_script(load_program(weave(program, verify_program(program))), [tx])
site = Oracle(program).judge({}, tx).site
print(json.dumps({"vm": [out.reason, out.check_gas], "oracle": [site.kind, site.line],
                  "limit": [limit, sys.getrecursionlimit()]}))
'''


def test_predicate_recursion_leaves_the_interpreter_alone():
    # spin(0) recurses until the shared depth cap, in the VM and in the
    # oracle, without touching the interpreter's recursion limit
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", SPIN], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["vm"] == ["PredicateDepthExceeded", 1024]
    assert got["oracle"] == ["predicate-depth", 0]
    assert got["limit"][0] == got["limit"][1]
