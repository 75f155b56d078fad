"""Package surface: what each module exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _private_imports(path):
    """(module, name) of every underscore name that ``path`` imports from
    another riglab module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "riglab"):
            found += [(node.module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(Path(riglab.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    """A module uses only the public names of the other riglab modules."""
    assert _private_imports(path) == []
