"""Structure guards on the package source, checked with ast.

A module of polystab imports only public names from its sibling modules:
a leading underscore marks a name as private to the module that defines it.
Its one scipy name is ndtri, in the noise module. The noise module loads
ndtri and Philox from their compiled submodules, scipy.special._ufuncs and
numpy.random._philox, without running either package's init, and the
public imports of the two are only fallbacks: each further package init
would show in every command's set-up. So noise is the one module that uses
importlib, it calls importlib only inside _load_compiled, and it calls
_load_compiled with exactly those two literal (package, submodule, name)
triples. Every random draw of the package comes from that Philox, so no
module names default_rng or np.random, whose first use runs numpy.random's
init. The noise module builds its generators with numpy's public Philox,
so no module imports from numpy.random.bit_generator.
The benchmark harness under perfbench/ reaches polystab only through
names the package exports, so deleting one of them fails here first, and
every name in a module's __all__ must exist, so a deletion that leaves a
stale export fails too. The dimension picks the implicit solver in one
place: only solve_implicit_batch refers to the two private solvers, and no
integrator takes a solver config. Every scheme is one record of the
ensemble's table SCHEMES, and every kernel in it keeps one step contract,
step(problem, x, t, t_next, dt, db) -> (x_new, ok), so the chunk loop
holds no code for any one scheme. The scheme names appear in the package
only in that table and in the counterexample's explicit companion run, so
no code branches on a name. No module reads the environment, and
run_ensemble and simulate_ensemble take the problem and its config and
nothing else: the thread count comes from the CPUs the process may use, not
from a setting. A run and its statistics are two steps: run_ensemble and
simulate_ensemble each call the one private run function directly, so a
warning's stack level fits both, and simulate_ensemble is that run and
MomentSeries.from_record, the one reduction. The reduction reads a record
and nothing of the run: neither it nor any helper it calls refers to the
integrators, noise or problems modules, the thread pool, a chunk or a run.
A sampled check reports the one record, checks.ConditionCheck, so no other
module defines a class with a passed field or property; the recurrence
check's result, which lists every violation, is the one exception. Each
solver error has one raiser, its validating adapter (StepError em_step,
ImplicitSolveError solve_implicit), and no code in the package catches
either by name: a solver that cannot finish a lane reports it in its
result. A drift or diffusion is called in four places only: the two step
kernels, which combine its values arithmetically, the ensemble's one-time
shape check, and problems.coefficient_values, through which every other
caller reads the values at the block's shape. LAPACK is called in one
place, integrators._lapack_solve, through numpy's solve gufunc: no other
function names _umath_linalg, and no module calls linalg.solve.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import polystab
from polystab import ensemble, problems

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polystab"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def stale_exports(module) -> list[str]:
    """The names in module.__all__ (none if it has no __all__) that module lacks."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    name = "polystab" if path.stem == "__init__" else f"polystab.{path.stem}"
    assert stale_exports(importlib.import_module(name)) == []


def test_stale_export_guard_flags_a_missing_name():
    module = type(polystab)("fake")
    module.__all__ = ["present", "deleted"]
    module.present = 1
    assert stale_exports(module) == ["deleted"]


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


def test_only_scipy_import_is_ndtri_in_noise():
    found = {path.name: scipy_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: names for name, names in found.items() if names} == {
        "noise.py": ["scipy.special:ndtri"]
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


def importlib_uses(source: str) -> set[str]:
    """How source uses importlib: each import of it, as written, and each call
    through it, unparsed with its arguments."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(f"import {a.name}" for a in node.names
                         if a.name.split(".")[0] == "importlib")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "importlib":
            found.update(f"from {node.module} import {a.name}" for a in node.names)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).startswith("importlib."):
            found.add(ast.unparse(node))
    return found


COMPILED_LOADS = [("numpy.random", "_philox", "Philox"), ("scipy.special", "_ufuncs", "ndtri")]


def importlib_calls_outside_loader(source: str) -> list[str]:
    """The calls through importlib in source outside a function named _load_compiled, unparsed."""
    tree = ast.parse(source)
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_load_compiled"
              for node in ast.walk(f)}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and ast.unparse(node.func).startswith("importlib.")]


def compiled_loads(source: str) -> list:
    """Each call of _load_compiled in source: its arguments as a tuple when all
    are positional string literals, else the call unparsed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_load_compiled":
            literal = not node.keywords and all(
                isinstance(a, ast.Constant) and isinstance(a.value, str) for a in node.args)
            found.append(tuple(a.value for a in node.args) if literal else ast.unparse(node))
    return found


def test_only_noise_uses_importlib_and_only_on_its_two_compiled_loads():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert [name for name, text in sources.items() if importlib_uses(text)] == ["noise.py"]
    noise_source = sources["noise.py"]
    assert {use for use in importlib_uses(noise_source) if use.startswith(("import ", "from "))} \
        == {"import importlib", "import importlib.util"}
    assert importlib_calls_outside_loader(noise_source) == []
    loads = {name: compiled_loads(text) for name, text in sources.items()}
    assert {name: sorted(found, key=str) for name, found in loads.items() if found} == {
        "noise.py": COMPILED_LOADS}


@pytest.mark.parametrize("source,expected", [
    ("def _load_compiled(p, s, n):\n    return importlib.import_module(p + s)", []),
    ("import importlib\nimportlib.import_module('scipy.stats')",
     ["importlib.import_module('scipy.stats')"]),
    ("def other(name):\n    return importlib.util.find_spec(name)",
     ["importlib.util.find_spec(name)"]),
])
def test_loader_guard_finds_calls_outside_the_loader(source, expected):
    assert importlib_calls_outside_loader(source) == expected


@pytest.mark.parametrize("source,expected", [
    ("ndtri = _load_compiled('scipy.special', '_ufuncs', 'ndtri')",
     [("scipy.special", "_ufuncs", "ndtri")]),
    ("def f():\n    return ensemble._load_compiled('scipy.stats', '_stats', 'x')",
     [("scipy.stats", "_stats", "x")]),
    ("_load_compiled(package, '_philox', 'Philox')", ["_load_compiled(package, '_philox', 'Philox')"]),
    ("_load_compiled('numpy.random', '_philox', name='Philox')",
     ["_load_compiled('numpy.random', '_philox', name='Philox')"]),
    ("load_compiled('numpy.random', '_philox', 'Philox')", []),
])
def test_compiled_load_guard_finds_every_form(source, expected):
    assert compiled_loads(source) == expected


@pytest.mark.parametrize("source,expected", [
    ("import importlib\nimportlib.import_module('scipy.stats')",
     {"import importlib", "importlib.import_module('scipy.stats')"}),
    ("import importlib.util as u", {"import importlib.util"}),
    ("from importlib import import_module\nimport_module(name)",
     {"from importlib import import_module"}),
    ("from importlib.util import find_spec", {"from importlib.util import find_spec"}),
    ("def f(name):\n    return importlib.util.find_spec(name)", {"importlib.util.find_spec(name)"}),
    ("import importlib_metadata\nimport numpy.lib", set()),
])
def test_importlib_guard_finds_every_form(source, expected):
    assert importlib_uses(source) == expected


def numpy_random_names(source: str) -> list[str]:
    """Each np.random or numpy.random attribute read in source, and each
    default_rng it names (as a name, an attribute or an import), sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append(f"{node.value.id}.random")
        elif (isinstance(node, ast.Attribute) and node.attr == "default_rng") \
                or (isinstance(node, ast.Name) and node.id == "default_rng") \
                or (isinstance(node, ast.alias) and node.name == "default_rng"):
            found.append("default_rng")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_default_rng_or_np_random(path):
    assert numpy_random_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,expected", [
    ("rng = np.random.default_rng(0)", ["default_rng", "np.random"]),
    ("import numpy\nx = numpy.random.uniform(0.0, 1.0)", ["numpy.random"]),
    ("from numpy.random import default_rng", ["default_rng"]),
    ("def f(make):\n    return make.default_rng", ["default_rng"]),
    ("rng = default_rng(7)", ["default_rng"]),
    ("from numpy.random import Philox", []),
    ("Philox = _load_compiled('numpy.random', '_philox', 'Philox')", []),
    ("x = np.randomize(y) + rng.random()", []),
])
def test_numpy_random_guard_finds_every_form(source, expected):
    assert numpy_random_names(source) == expected


BIT_GENERATOR = "numpy.random.bit_generator"


def bit_generator_imports(source: str) -> list[str]:
    """The imports of numpy.random.bit_generator or of names from it in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == BIT_GENERATOR]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}:{alias.name}" for alias in node.names
                      if node.module == BIT_GENERATOR
                      or f"{node.module}.{alias.name}" == BIT_GENERATOR]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bit_generator_internals(path):
    assert bit_generator_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,expected", [
    ("from numpy.random.bit_generator import ISeedSequence",
     ["numpy.random.bit_generator:ISeedSequence"]),
    ("import numpy.random.bit_generator as bg", ["numpy.random.bit_generator"]),
    ("from numpy.random import bit_generator", ["numpy.random:bit_generator"]),
    ("from numpy.random import Philox", []),
    ("import numpy.random", []),
])
def test_bit_generator_guard_finds_every_form(source, expected):
    assert bit_generator_imports(source) == expected


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


def polystab_attributes(source: str) -> set[tuple[str, str]]:
    """The polystab names that source reads as attributes, as (module, name).

    module is "" for a name read through the package itself (import polystab
    as ps; ps.<name>) and the module's name for one read through a module
    imported from it (from polystab import ensemble; ensemble.<name>).
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: "" for a in node.names if a.name == "polystab"})
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) == (0, "polystab"):
            bound.update({a.asname or a.name: a.name for a in node.names})
    return {
        (bound[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }


def test_benchmark_files_found():
    assert {p.name for p in PERFBENCH} >= {"child.py", "micro.py", "workloads.py"}


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_benchmark_reads_only_exported_names(path):
    missing = []
    for module, name in sorted(polystab_attributes(path.read_text(encoding="utf-8"))):
        if module:
            found = hasattr(importlib.import_module(f"polystab.{module}"), name)
        else:  # a module attribute such as __file__ is not exported but always there
            found = name in polystab.__all__ or (name.startswith("__") and hasattr(polystab, name))
        if not found:
            missing.append(f"{module or 'polystab'}.{name}")
    assert missing == []


@pytest.mark.parametrize("source,expected", [
    ("import polystab as ps\nps.em_step(ps.StepContext)", {("", "em_step"), ("", "StepContext")}),
    ("import polystab\npolystab.SimConfig", {("", "SimConfig")}),
    ("from polystab import cli, ensemble as e\ncli.main\ne.SCHEMES", {("cli", "main"), ("ensemble", "SCHEMES")}),
    ("import polystab.cli\nimport numpy as ps\nps.zeros", set()),
    ("from polystab.problems import bem_example\nbem_example.label", set()),
])
def test_benchmark_guard_finds_every_form(source, expected):
    assert polystab_attributes(source) == expected


SOLVERS = ("_solve_scalar_batch", "_solve_vector_batch")


def solver_references(source: str) -> list[tuple[str, str]]:
    """(function, solver) for each reference to a private solver outside its own def.

    function is the name of the innermost def holding the reference, or ""
    at module level.
    """
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Name) and child.id in SOLVERS:
                    found.append((where, child.id))
                elif isinstance(child, ast.Attribute) and child.attr in SOLVERS:
                    found.append((where, child.attr))
                visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_solve_implicit_batch_is_the_only_dimension_dispatch():
    found = set()
    for path in MODULES:
        found.update(solver_references(path.read_text(encoding="utf-8")))
    assert found == {("solve_implicit_batch", name) for name in SOLVERS}


@pytest.mark.parametrize("source,expected", [
    ("def solve_implicit_batch(p, b):\n    return _solve_scalar_batch(p, b)",
     [("solve_implicit_batch", "_solve_scalar_batch")]),
    ("def bem_step_batch(p, b):\n"
     "    solve = _solve_scalar_batch if p.dimension == 1 else _solve_vector_batch\n"
     "    return solve(p, b)",
     [("bem_step_batch", "_solve_scalar_batch"), ("bem_step_batch", "_solve_vector_batch")]),
    ("solve = integrators._solve_vector_batch", [("", "_solve_vector_batch")]),
    ("def _solve_scalar_batch(drift, t, b, dt):\n    return b", []),
    ("def bem_step_batch(p, b):\n    return solve_implicit_batch(p, b)", []),
])
def test_dispatch_guard_flags_a_second_call_site(source, expected):
    assert solver_references(source) == expected


def lapack_sites(source: str) -> list[tuple[str, str]]:
    """(function, name) for each reference to _umath_linalg or to a linalg.solve.

    function is the name of the innermost def holding the reference, or ""
    at module level; an import is not a reference.
    """
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "_umath_linalg":
                found.append((where, child.id))
            elif isinstance(child, ast.Attribute):
                if child.attr == "_umath_linalg":
                    found.append((where, child.attr))
                elif child.attr == "solve" and ast.unparse(child.value).split(".")[-1] == "linalg":
                    found.append((where, "linalg.solve"))
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_lapack_solve_is_the_only_lapack_call():
    found = set()
    for path in MODULES:
        found.update(lapack_sites(path.read_text(encoding="utf-8")))
    assert found == {("_lapack_solve", "_umath_linalg")}


@pytest.mark.parametrize("source,expected", [
    ("def f(a, b):\n    return np.linalg.solve(a, b)", [("f", "linalg.solve")]),
    ("from numpy import linalg\ndef f(a, b):\n    return linalg.solve(a, b)",
     [("f", "linalg.solve")]),
    ("solve = numpy.linalg._umath_linalg.solve", [("", "_umath_linalg")]),
    ("from numpy.linalg import _umath_linalg\n"
     "def _lapack_solve(a, b):\n    return _umath_linalg.solve(a, b)",
     [("_lapack_solve", "_umath_linalg")]),
    ("def f(x):\n    return np.linalg.norm(x)", []),
])
def test_lapack_guard_finds_every_form(source, expected):
    assert lapack_sites(source) == expected


def cfg_parameters(source: str) -> list[str]:
    """The functions of source that take a parameter named cfg."""
    return [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "cfg" in {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
    ]


def test_no_integrator_takes_a_solver_config():
    assert cfg_parameters((SRC / "integrators.py").read_text(encoding="utf-8")) == []


def test_config_guard_flags_a_cfg_parameter():
    source = "def solve(problem, b, cfg=None):\n    pass\ndef step(x, *, cfg):\n    pass\ndef ok(x):\n    pass"
    assert cfg_parameters(source) == ["solve", "step"]


KERNEL_PARAMETERS = ["problem", "x", "t", "t_next", "dt", "db"]


def kernel_signatures(source: str, names) -> dict[str, tuple[list[str], bool]]:
    """For each def of source named in names: its parameters and whether every return is a pair."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            returns = [n for n in ast.walk(node) if isinstance(n, ast.Return)]
            pairs = bool(returns) and all(
                isinstance(r.value, ast.Tuple) and len(r.value.elts) == 2 for r in returns
            )
            found[node.name] = (params, pairs)
    return found


def test_every_scheme_kernel_keeps_the_step_contract():
    assert tuple(ensemble.SCHEMES) == ("em", "bem")
    assert all(name == scheme.name for name, scheme in ensemble.SCHEMES.items())
    names = {scheme.step.__name__ for scheme in ensemble.SCHEMES.values()}
    assert names == {"em_step_batch", "bem_step_batch"}
    found = kernel_signatures((SRC / "integrators.py").read_text(encoding="utf-8"), names)
    assert found == {name: (KERNEL_PARAMETERS, True) for name in names}


@pytest.mark.parametrize("source,expected", [
    ("def em_step_batch(problem, x, t, t_next, dt, db):\n    return x, None",
     {"em_step_batch": (KERNEL_PARAMETERS, True)}),
    ("def bem_step_batch(problem, x, k, dt, db):\n    return x",
     {"bem_step_batch": (["problem", "x", "k", "dt", "db"], False)}),
    ("def bem_step_batch(problem, x, t, t_next, dt, db):\n"
     "    if t:\n        return x, None\n    return x",
     {"bem_step_batch": (KERNEL_PARAMETERS, False)}),
    ("def em_step_batch(problem, x, t, dt, db, *, k):\n    return x, None",
     {"em_step_batch": (["problem", "x", "t", "dt", "db", "k"], True)}),
    ("def em_step(problem, y, ctx):\n    return y", {}),
])
def test_kernel_guard_reads_parameters_and_returns(source, expected):
    assert kernel_signatures(source, {"em_step_batch", "bem_step_batch"}) == expected


def per_scheme_code(source: str, function: str) -> list[str]:
    """What the def named function reads of a scheme: each .scheme attribute and scheme name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) and inner.attr == "scheme":
                    found.append(".scheme")
                elif isinstance(inner, ast.Constant) and inner.value in ensemble.SCHEMES:
                    found.append(repr(inner.value))
    return found


def test_chunk_loop_has_no_per_scheme_code():
    source = (SRC / "ensemble.py").read_text(encoding="utf-8")
    assert per_scheme_code(source, "_run") != []  # the guard reads this file
    assert per_scheme_code(source, "_simulate_chunk") == []


@pytest.mark.parametrize("source,expected", [
    ("def _simulate_chunk(kernel, config):\n    return kernel(config.dt)", []),
    ("def _simulate_chunk(problem, config):\n    if config.scheme == 'em':\n        pass",
     [".scheme", "'em'"]),
    ("def _simulate_chunk(problem, config, name):\n    return {'bem': f}[name]", ["'bem'"]),
    ("def _simulate_chunk(problem, config):\n    def step(x):\n        return config.scheme",
     [".scheme"]),
    ("def simulate_ensemble(config):\n    return config.scheme == 'bem'", []),
])
def test_scheme_guard_flags_a_branch_or_a_lookup(source, expected):
    assert per_scheme_code(source, "_simulate_chunk") == expected


SCHEME_NAMES = ("em", "bem")


def scheme_name_sites(source: str) -> list[tuple[str, str]]:
    """(where, name) for each string constant of source that is a scheme name.

    where is the innermost def or class holding it, else the target of the
    module-level assignment holding it, else "".
    """
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(node, ast.Module) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                visit(child, ",".join(getattr(t, "id", "") for t in targets))
                continue
            if isinstance(child, ast.Constant) and child.value in SCHEME_NAMES:
                found.append((where, child.value))
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_scheme_names_appear_only_in_the_table_and_the_companion_run():
    found = {(path.stem, where, name) for path in MODULES
             for where, name in scheme_name_sites(path.read_text(encoding="utf-8"))}
    assert found == {
        ("ensemble", "SCHEMES", "em"), ("ensemble", "SCHEMES", "bem"),
        ("cli", "_cmd_counterexample", "em"),
    }


@pytest.mark.parametrize("source,expected", [
    ('def _cmd_simulate(spec):\n'
     '    return analysis.em_envelope if spec.scheme == "em" else analysis.bem_envelope',
     [("_cmd_simulate", "em")]),
    ('envelope = em_envelope if spec.scheme == "em" else bem_envelope', [("envelope", "em")]),
    ('SCHEMES = {"em": Scheme("em", f), "bem": Scheme("bem", g)}',
     [("SCHEMES", "em"), ("SCHEMES", "em"), ("SCHEMES", "bem"), ("SCHEMES", "bem")]),
    ('SCHEMES: dict = {"em": f}', [("SCHEMES", "em")]),
    ('def simulate_ensemble(config):\n    if config.scheme == "bem":\n        check()',
     [("simulate_ensemble", "bem")]),
    ('if scheme == "em":\n    pass', [("", "em")]),
    ('class Run:\n    scheme = "bem"', [("Run", "bem")]),
    ('"""The em and bem schemes."""\nname = f"{scheme}-em"\nx = "emx"', []),
])
def test_scheme_name_guard_finds_every_site(source, expected):
    assert sorted(scheme_name_sites(source)) == sorted(expected)


ENVIRONMENT_NAMES = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """Each read of os.environ or os.getenv in source, as "os.name", in whichever form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in ENVIRONMENT_NAMES]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,expected", [
    ("import os\nn = os.environ.get('N', '1')", ["os.environ"]),
    ("import os\nn = os.environ['N']", ["os.environ"]),
    ("import os as o\nn = o.getenv('N')", ["os.getenv"]),
    ("from os import environ, getenv as g\n", ["os.environ", "os.getenv"]),
    ("import os\nn = len(os.sched_getaffinity(0))", []),
])
def test_environment_guard_finds_every_form(source, expected):
    assert environment_reads(source) == expected


def test_simulate_ensemble_takes_only_the_problem_and_its_config():
    assert list(inspect.signature(ensemble.simulate_ensemble).parameters) == ["problem", "config"]


def test_run_ensemble_takes_only_the_problem_and_its_config():
    assert list(inspect.signature(ensemble.run_ensemble).parameters) == ["problem", "config"]


def function_body(source: str, name: str) -> list[str] | None:
    """The statements of the module-level def named name, unparsed, its docstring
    left out; None if source has no such def."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            return [ast.unparse(stmt) for stmt in body]
    return None


def test_both_entries_call_the_one_run_and_simulate_ensemble_reduces_it():
    source = (SRC / "ensemble.py").read_text(encoding="utf-8")
    assert function_body(source, "run_ensemble") == ["return _run(problem, config)"]
    assert function_body(source, "simulate_ensemble") == [
        "return MomentSeries.from_record(_run(problem, config))"]


@pytest.mark.parametrize("source,expected", [
    ('def f(p, c):\n    """Doc."""\n    return g(p, c)', ["return g(p, c)"]),
    ("def f(p, c):\n    r = g(p, c)\n    return h(r)", ["r = g(p, c)", "return h(r)"]),
    ("class A:\n    def f(p, c):\n        return g(p, c)", None),
])
def test_body_guard_reads_the_statements(source, expected):
    assert function_body(source, "f") == expected


RUN_MODULES = ("integrators", "noise", "problems")
RUN_NAMES = {"concurrent", "ThreadPoolExecutor", "_simulate_chunk", "_usable_cpus", "_run",
             "run_ensemble", "simulate_ensemble"}


def reduction_reach(source: str) -> list[str] | None:
    """What MomentSeries.from_record in source reaches of the run, sorted: each
    name that it, or a module-level function it refers to (and so on), refers
    to and that is a name source imports from the integrators, noise or
    problems modules, one of those modules, or one of RUN_NAMES. None if
    source has no MomentSeries.from_record."""
    tree = ast.parse(source)
    run_names = set(RUN_NAMES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if module in RUN_MODULES or alias.name in RUN_MODULES:
                    run_names.add(alias.asname or alias.name)
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo = [f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "MomentSeries"
            for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "from_record"]
    if not todo:
        return None
    seen, found = set(), set()
    while todo:
        for node in ast.walk(todo.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in run_names:
                found.add(name)
            elif name in functions and name not in seen:
                seen.add(name)
                todo.append(functions[name])
    return sorted(found)


def test_the_reduction_reads_only_its_record():
    assert reduction_reach((SRC / "ensemble.py").read_text(encoding="utf-8")) == []


REDUCTION = "class MomentSeries:\n    @classmethod\n    def from_record(cls, record):\n"


@pytest.mark.parametrize("source,expected", [
    ("from .noise import fill_standard_normals\n" + REDUCTION
     + "        return fill_standard_normals(record.sq, 0, 0, 0)", ["fill_standard_normals"]),
    ("from .integrators import em_step_batch as step\ndef _helper(r):\n    return step(r)\n"
     "def _outer(r):\n    return _helper(r)\n" + REDUCTION + "        return _outer(record)",
     ["step"]),
    (REDUCTION + "        from concurrent.futures import ThreadPoolExecutor\n"
     "        return ThreadPoolExecutor", ["ThreadPoolExecutor"]),
    (REDUCTION + "        return ensemble._simulate_chunk(record)", ["_simulate_chunk"]),
    ("from . import problems\n" + REDUCTION
     + "        return problems.coefficient_values(record)", ["problems"]),
    (REDUCTION + "        return run_ensemble(record.problem, record.config)", ["run_ensemble"]),
    ("from .problems import SdeProblem\ndef _mean_of_sum(v, n):\n    return _mean_of_sum(v, n)\n"
     "def _run(p: SdeProblem):\n    return p\n" + REDUCTION
     + "        return _mean_of_sum(record.sq, 1)", []),
    ("class MomentSeries:\n    def from_csv(cls, path):\n        return path", None),
])
def test_reduction_guard_finds_every_reach(source, expected):
    assert reduction_reach(source) == expected


def test_audit_takes_only_the_problem_and_its_grids():
    assert list(inspect.signature(problems.audit_conditions).parameters) == [
        "problem", "states", "times"]


def passed_classes(source: str) -> list[str]:
    """The classes of source that define passed: as a field, an attribute or a method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.AnnAssign):
                names = [getattr(item.target, "id", None)]
            elif isinstance(item, ast.Assign):
                names = [getattr(t, "id", None) for t in item.targets]
            else:
                names = []
            if "passed" in names:
                found.append(node.name)
    return found


def test_only_the_check_record_and_the_recurrence_result_have_passed():
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in passed_classes(path.read_text(encoding="utf-8"))}
    assert found == {"checks.ConditionCheck", "analysis.RecurrenceCheckResult"}


@pytest.mark.parametrize("source,expected", [
    ("@dataclass(frozen=True)\nclass R:\n    name: str\n    passed: bool", ["R"]),
    ("class R:\n    @property\n    def passed(self) -> bool:\n        return True", ["R"]),
    ("class R:\n    passed = True", ["R"]),
    ("def f():\n    class Inner:\n        passed: bool = False", ["Inner"]),
    ("class R:\n    all_passed: bool\n    def passes(self):\n        return self.passed", []),
    ("passed = True\ndef passed_count(checks):\n    return 0", []),
])
def test_passed_guard_finds_every_form(source, expected):
    assert passed_classes(source) == expected


SOLVER_ERRORS = ("StepError", "ImplicitSolveError")


def error_sites(source: str) -> list[tuple[str, str, str]]:
    """("raise" or "except", error, function) for each raise of a SOLVER_ERRORS
    error and each handler that names one; function is the innermost def, or ""."""
    found = []

    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                found.extend(("raise", n, where) for n in [name(child.exc)] if n in SOLVER_ERRORS)
            elif isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                found.extend(("except", n, where) for n in map(name, types) if n in SOLVER_ERRORS)
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_each_solver_error_has_one_raiser_and_no_handler():
    found = set()
    for path in MODULES:
        found.update(error_sites(path.read_text(encoding="utf-8")))
    assert found == {("raise", "StepError", "em_step"),
                     ("raise", "ImplicitSolveError", "solve_implicit")}


@pytest.mark.parametrize("source,expected", [
    ("def solve_implicit(p):\n    raise ImplicitSolveError('x', state=p)",
     [("raise", "ImplicitSolveError", "solve_implicit")]),
    ("def em_step(y):\n    def inner():\n        raise StepError\n    return inner",
     [("raise", "StepError", "inner")]),
    ("raise integrators.StepError('x') from None", [("raise", "StepError", "")]),
    ("def solve(b):\n    try:\n        bisect(b)\n    except ImplicitSolveError:\n        pass",
     [("except", "ImplicitSolveError", "solve")]),
    ("try:\n    f()\nexcept (ValueError, integrators.ImplicitSolveError) as e:\n    pass",
     [("except", "ImplicitSolveError", "")]),
    ("def f():\n    try:\n        g()\n    except RuntimeError:\n        raise ValueError('x')",
     []),
    ("def f():\n    try:\n        g()\n    except:\n        raise", []),
])
def test_error_guard_finds_every_form(source, expected):
    assert error_sites(source) == expected


def coefficient_calls(source: str) -> list[tuple[str, str]]:
    """(function, callee) for each coefficient call in source: a call of
    <expr>.drift or <expr>.diffusion, or of a name drift or fn. function is
    the innermost def holding the call, or "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr in ("drift", "diffusion"):
                    found.append((where, func.attr))
                elif isinstance(func, ast.Name) and func.id in ("drift", "fn"):
                    found.append((where, func.id))
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_coefficients_are_called_only_by_the_kernels_the_shape_check_and_coefficient_values():
    found = {(path.stem, where, callee) for path in MODULES
             for where, callee in coefficient_calls(path.read_text(encoding="utf-8"))}
    assert found == {
        ("problems", "coefficient_values", "fn"),
        ("integrators", "em_step_batch", "drift"), ("integrators", "em_step_batch", "diffusion"),
        ("integrators", "bem_step_batch", "diffusion"),
        ("ensemble", "_check_output_shapes", "fn"),
    }


@pytest.mark.parametrize("source,expected", [
    ("def em_step_batch(problem, x, t):\n    return x + problem.drift(x, t)",
     [("em_step_batch", "drift")]),
    ("def audit(report, x):\n    return report.problem.diffusion(x, 0.0)", [("audit", "diffusion")]),
    ("def _bisect_root_scalar(drift, t, b):\n    return drift(np.float64(b), t)",
     [("_bisect_root_scalar", "drift")]),
    ("def _eval_checked(fn, x, t):\n    return np.asarray(fn(x, t), dtype=float)",
     [("_eval_checked", "fn")]),
    ("def solve(drift, b):\n    def resid(x):\n        return x - drift(x, 0.0) - b\n    return resid",
     [("resid", "drift")]),
    ("f = problem.drift(x, 0.0)", [("", "drift")]),
    ("def solve(drift, x, t):\n    return coefficient_values(drift, x, t)", []),
    ("def solve(problem, b):\n    return solve_implicit_batch(problem.drift, b)", []),
    ("def f(p):\n    return p.drift_calls(), drift_fn(p), fn_(p)", []),
])
def test_coefficient_guard_finds_every_form(source, expected):
    assert coefficient_calls(source) == expected
