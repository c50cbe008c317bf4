"""Every name that the package or one of its modules lists in ``__all__``
must exist on it, and every name it imports must be read or exported, so
that removing a name leaves no dangling export and no stale import."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import henkin

MODULES = ["henkin"] + [f"henkin.{m.name}" for m in pkgutil.iter_modules(henkin.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    """A module-level import that no code reads and ``__all__`` does not
    list is left over from code that has gone."""
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(module, "__all__", ()))
    assert [n for n in imported if n not in read and n not in exported] == []
