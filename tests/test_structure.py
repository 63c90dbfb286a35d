"""Structure guards on the package source, checked with ast.

A module of polystab imports only public names from its sibling modules:
a leading underscore marks a name as private to the module that defines it.
Its one scipy import is ndtri, in the ensemble: importing scipy.special
costs about twice numpy's own import time (~0.31 s against ~0.15 s on a
2-core Xeon), so each further scipy module shows in every command's set-up
time.
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


def scipy_imports(source: str) -> list[str]:
    """The scipy imports of source, as "module:name" or "module" for a plain import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "scipy":
                found += [f"{node.module}:{alias.name}" for alias in node.names]
    return found


def test_only_scipy_import_is_ndtri_in_ensemble():
    found = {path.name: scipy_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: names for name, names in found.items() if names} == {
        "ensemble.py": ["scipy.special:ndtri"]
    }


@pytest.mark.parametrize("source,expected", [
    ("from scipy.special import ndtri", ["scipy.special:ndtri"]),
    ("import scipy.stats", ["scipy.stats"]),
    ("import numpy, scipy as sp", ["scipy"]),
    ("from scipy import optimize", ["scipy:optimize"]),
    ("def f():\n    from scipy.special import gammaln", ["scipy.special:gammaln"]),
    ("from .scipy import x", []),
    ("import numpy.linalg", []),
])
def test_scipy_guard_finds_every_form(source, expected):
    assert scipy_imports(source) == expected


def imported_names(source: str, module: str) -> set[str]:
    """The names that source imports from the polystab module of that name.

    An import of the module itself, which would reach every name in it, is
    reported as the module's own name.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, module), (0, f"polystab.{module}")
        ):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, None), (0, "polystab")
        ):
            found.update(alias.name for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            found.update(module for alias in node.names if alias.name == f"polystab.{module}")
    return found


def test_ensemble_uses_only_the_batch_kernels_and_dt_checks():
    source = (SRC / "ensemble.py").read_text(encoding="utf-8")
    assert imported_names(source, "integrators") == {
        "em_step_batch", "bem_step_batch", "check_implicit_dt", "check_decay_dt"
    }


@pytest.mark.parametrize("source,expected", [
    ("from .integrators import em_step_batch, bem_step", {"em_step_batch", "bem_step"}),
    ("from .integrators import (\n    em_step,\n)\nfrom .checks import integer", {"em_step"}),
    ("def f():\n    from .integrators import solve_implicit", {"solve_implicit"}),
    ("from polystab.integrators import em_step", {"em_step"}),
    ("from . import integrators, checks", {"integrators"}),
    ("from polystab import integrators", {"integrators"}),
    ("import polystab.integrators as it", {"integrators"}),
    ("from ..integrators import em_step", set()),
    ("from . import problems", set()),
    ("from .problems import SdeProblem", set()),
])
def test_import_guard_finds_every_form(source, expected):
    assert imported_names(source, "integrators") == expected
