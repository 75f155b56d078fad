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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_BENCHMARK_MODULES = ("cli", "sampler", "stats", "theory")


def _dotted(node):
    """``a.b.c`` of an attribute chain rooted at a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _benchmark_names():
    """Every riglab name the benchmark modules use: ``cli.X``,
    ``sampler.X``, ``stats.X`` and ``theory.X`` chains, and the names of
    ``from riglab[.M] import X``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if chain and chain.split(".")[0] in _BENCHMARK_MODULES:
                    found.add(f"riglab.{chain}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "riglab":
                found |= {f"{node.module}.{alias.name}" for alias in node.names}
    return found


def _resolves(dotted):
    """Walk ``dotted`` from ``riglab`` one attribute at a time, importing
    the submodule where no attribute of that name is bound yet."""
    parts = dotted.split(".")
    obj = riglab
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
                continue
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_benchmark_names_resolve():
    """The benchmark runs outside the tier-1 suite, so a riglab name it
    calls or patches that goes missing must fail here."""
    names = _benchmark_names()
    assert {name.split(".")[1] for name in names} >= set(_BENCHMARK_MODULES), sorted(names)
    assert sorted(name for name in names if not _resolves(name)) == []
