"""No polysteer module imports a name it never uses.

A module-level import counts as used when the module loads its name
somewhere (annotations included) or lists it in `__all__`, which is how a
package re-exports. Deleting code tends to leave imports dangling, and no
linter runs on this tree, so this test is the check.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polysteer"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in loaded and name not in exported
    ]


def test_the_guard_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["line 1: path", "line 2: sys"]


def test_no_module_imports_an_unused_name():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(PACKAGE))] = unused
    assert not found, f"unused module-level imports: {found}"
