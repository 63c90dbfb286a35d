"""Structure guards on the package source, checked with ast.

A module of polystab imports only public names from its sibling modules:
a leading underscore marks a name as private to the module that defines it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polystab"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """Underscore names that source imports from polystab modules, as "module.name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "polystab":
            continue
        where = "." * node.level + module + ("." if module else "")
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(where + name)
    return found


def test_package_modules_found():
    assert SRC / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,expected", [
    ("from .ensemble import _simulate_chunk", [".ensemble._simulate_chunk"]),
    ("from polystab.gamma import log_gamma_ratio, _helper", ["polystab.gamma._helper"]),
    ("from . import _private", ["._private"]),
    ("from . import analysis, __version__", []),
    ("from numpy.random import _pickle", []),
    ("from .checks import integer, positive_real", []),
])
def test_guard_flags_private_names(source, expected):
    assert private_imports(source) == expected
