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


def ratlin_names_used(source: str) -> set[str]:
    """The names a module takes from ``ratlin``: imported from it, or read
    as attributes of the imported package."""
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ratlin":
            used.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ratlin"
        ):
            used.add(node.attr)
    return used


def test_the_export_guard_sees_both_forms():
    source = "from . import ratlin\nfrom .ratlin import rank\nratlin.literal_row(['1'])\n"
    assert ratlin_names_used(source) == {"rank", "literal_row"}


def test_every_ratlin_export_is_used_outside_ratlin():
    # An export only ratlin itself reads is dead code the re-export hides
    # from the unused-import check above.
    from polysteer import ratlin

    used = set()
    for path in PACKAGE.rglob("*.py"):
        if "ratlin" not in path.relative_to(PACKAGE).parts:
            used |= ratlin_names_used(path.read_text())
    assert sorted(set(ratlin.__all__) - used) == []


def imported_names(source: str) -> set[str]:
    """Every import in a module as a dotted name: the module imported, or
    the module and the name taken from it, with relative dots dropped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_the_import_guard_sees_every_form():
    source = (
        "from .ratlin.gauss import _eliminate\nfrom .ratlin import gauss\n"
        "import polysteer.ratlin.gauss\nfrom functools import cached_property\n"
    )
    assert imported_names(source) == {
        "ratlin.gauss._eliminate", "ratlin.gauss", "polysteer.ratlin.gauss",
        "functools.cached_property",
    }


def modules_importing(wanted) -> dict[str, list[str]]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = sorted(n for n in imported_names(path.read_text()) if wanted(path, n))
        if names:
            found[str(path.relative_to(PACKAGE))] = names
    return found


def test_only_ratlin_imports_from_gauss():
    # The rows _eliminate returns are read in ratlin.gauss alone; every
    # other module solves through what ratlin exports (IntegerSolver).
    found = modules_importing(
        lambda path, name: "ratlin" not in path.relative_to(PACKAGE).parts
        and "gauss" in name.split(".")
    )
    assert not found, f"modules importing ratlin.gauss directly: {found}"


def test_no_module_imports_cached_property():
    # A frozen dataclass fills a derived attribute on first use, as
    # Face._active_sum is filled, rather than through cached_property.
    found = modules_importing(lambda path, name: name.split(".")[-1] == "cached_property")
    assert not found, f"modules importing cached_property: {found}"
