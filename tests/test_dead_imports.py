"""Guard against orphans: every name a module of ``almkit`` imports is used
in that module, every module-level private name is read somewhere in the
package, and every name in ``almkit.__all__`` resolves.  Read from the
modules' syntax trees, so deleting a function cannot leave its imports
behind unnoticed, and a private helper cannot outlive its last caller in
the package (kept alive by tests alone)."""

import ast
from pathlib import Path

import pytest

import almkit

PACKAGE = Path(almkit.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Names the module reads, and the strings it lists in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module) -> dict:
    """Each module-level name with one leading underscore (functions,
    classes and assigned names; dunders are not private), with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in targets if name.startswith("_")})
    return {name: line for name, line in names.items() if not name.startswith("__")}


def read_names(tree: ast.Module) -> set:
    """Names the module reads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    orphans = {
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    }
    assert orphans == set(), f"private names nothing in almkit reads: {sorted(orphans)}"


def test_every_exported_name_resolves():
    missing = [name for name in almkit.__all__ if not hasattr(almkit, name)]
    assert missing == []
    assert len(set(almkit.__all__)) == len(almkit.__all__)
