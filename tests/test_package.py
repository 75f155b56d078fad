"""Package surface: what each module exports."""

import importlib
import pkgutil

import pytest

import riglab

MODULES = sorted(f"riglab.{info.name}" for info in pkgutil.iter_modules(riglab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    """Every ``__all__`` entry names an attribute of its module (tools
    that wrap exports by name, like span tracing, rely on it)."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
