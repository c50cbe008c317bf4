"""Every name that the package or one of its modules lists in ``__all__``
must exist on it, so that removing a name leaves no dangling export."""

import importlib
import pkgutil

import pytest

import henkin

MODULES = ["henkin"] + [f"henkin.{m.name}" for m in pkgutil.iter_modules(henkin.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
