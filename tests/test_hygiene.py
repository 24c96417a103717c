"""Source hygiene: no module under ``src/ggs``, ``tests`` or ``perfbench``
imports a name it never uses; the check only reads the files."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SOURCE = ROOT / "src" / "ggs"
PERFBENCH = ROOT / "perfbench"


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_every_imported_name_is_used():
    modules = (
        sorted(SOURCE.rglob("*.py"))
        + sorted(TESTS.glob("*.py"))
        + sorted(PERFBENCH.glob("*.py"))
    )
    assert PERFBENCH / "run.py" in modules
    found = {}
    for path in modules:
        unused = unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert not found, found


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom re import match, sub\nsub('a', 'b', 'c')\n")
    assert unused_imports(tree) == ["match (line 2)", "os (line 1)"]
