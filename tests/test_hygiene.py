"""Source hygiene of the package: every import at module level, and every
import used."""

import ast
from pathlib import Path

import pytest

import trajpriv

MODULES = sorted(Path(trajpriv.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_import(path):
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(parse(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = parse(path)
    bound = {name: node.lineno for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in imported_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(bound) - used) == []


def test_checks_catch_what_they_look_for(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import json\nimport math\n\n\ndef f():\n"
                    "    import os\n    return math.pi\n")
    with pytest.raises(AssertionError):
        test_no_function_local_import(path)
    with pytest.raises(AssertionError):
        test_no_unused_import(path)
