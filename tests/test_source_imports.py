"""Every import in a ``costas_lab`` module is used by that module, and
every import sits at module level, so a module's dependencies are the
imports at its top.  No module reads the process environment: a run's
inputs are its config file and its command line.  No module imports
``multiprocessing``, ``subprocess`` or ``concurrent``: a run is one
process.  The one bisection loop is ``core.bisect``: every edge search
shares its adjacent-float stop.  Code is made at run time (``exec``,
``eval``, ``compile``) only in ``core.rebuild``, which builds ``ode``'s
inline phase-model steppers and ``signal_sim``'s sample-loop kernels
from their source: a kernel is ``_sample_loop`` with its flags folded
and its dead branches, front ends and phase detectors alike, pruned.
``signal_sim`` calls no ``.tolist()``: the sample loop reads its inputs
through memoryviews of float64 arrays, not from Python float lists (32 B
a value, where the array holds 8 B).  No module imports another module's
underscore name (``__version__`` aside): a name one module shares with
another is public.  ``baseband`` imports nothing from ``analysis``: the
ODE models do not depend on the closed forms, and the averaged beat-note
model lives beside the closed form it integrates."""

import ast
import inspect
from pathlib import Path

import pytest

import costas_lab
from costas_lab import core

SOURCE = Path(costas_lab.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def _imported(node) -> str:
    """The module an import statement names, as written."""
    if isinstance(node, ast.Import):
        return "import " + ", ".join(alias.name for alias in node.names)
    return "from " + "." * node.level + (node.module or "")


def _nested_imports(tree: ast.Module) -> list[str]:
    """Imports inside a function or method body, relative or absolute."""
    # a set: an import in a nested function is walked once per enclosing one
    found = {(node.lineno, _imported(node))
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_found():
    tree = ast.parse("import math\nimport os.path\nfrom typing import Optional, Sequence\n"
                     "def f(x: Sequence) -> float:\n    return os.path.sep\n")
    assert _unused_imports(tree) == ["line 1: math", "line 3: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_at_module_level(path):
    assert _nested_imports(ast.parse(path.read_text())) == []


def test_nested_relative_import_found():
    # absolute imports count too, such as a lazy ``import multiprocessing``
    tree = ast.parse("from .core import wrap_phase\n"
                     "def f():\n    import multiprocessing as mp, os\n    from . import ode\n"
                     "    def inner():\n        from .core import pd_period\n"
                     "class C:\n    async def g(self):\n        from ..x.y import z\n"
                     "        from numpy import linspace\n")
    assert _nested_imports(tree) == ["line 3: import multiprocessing, os", "line 4: from .",
                                     "line 6: from .core", "line 9: from ..x.y",
                                     "line 10: from numpy"]


# the packages that start worker processes, child programs or executor pools
POOL_MODULES = {"multiprocessing", "subprocess", "concurrent"}


def _pool_imports(tree: ast.Module) -> list[str]:
    """Imports, at any depth, of a module under :data:`POOL_MODULES`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in POOL_MODULES for name in names):
            found.append((node.lineno, _imported(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_pool_import(path):
    assert _pool_imports(ast.parse(path.read_text())) == []


def test_pool_import_found():
    tree = ast.parse("import math, subprocess\nfrom concurrent.futures import ProcessPoolExecutor\n"
                     "from .multiprocessing import x\nimport multiprocessingx\n"
                     "def f():\n    import multiprocessing.pool as mp\n")
    assert _pool_imports(tree) == ["line 1: import math, subprocess",
                                   "line 2: from concurrent.futures",
                                   "line 6: import multiprocessing.pool"]


def _environment_reads(tree: ast.Module) -> list[str]:
    """Reads of the process environment: ``os.environ``, ``os.getenv``, or
    an ``environ`` or ``getenv`` imported by name."""
    found = set()
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("environ", "getenv"):
            found.add((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_read(path):
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_read_found():
    tree = ast.parse("import os\nfrom os import getenv\n"
                     "def f():\n    return os.environ.get('A'), os.path.sep\n"
                     "seed = getenv('B')\n")
    assert _environment_reads(tree) == ["line 4: environ", "line 5: getenv"]


# a midpoint's operands: values, not arithmetic
_OPERANDS = (ast.Name, ast.Attribute, ast.Subscript)


def _is_midpoint(node) -> bool:
    """``0.5 * (a + b)``, ``(a + b) * 0.5`` or ``(a + b) / 2`` of two values."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        pairs, half = [(node.left, node.right), (node.right, node.left)], 0.5
    elif isinstance(node.op, ast.Div):
        pairs, half = [(node.right, node.left)], 2
    else:
        return False
    return any(isinstance(c, ast.Constant) and c.value == half
               and isinstance(s, ast.BinOp) and isinstance(s.op, ast.Add)
               and isinstance(s.left, _OPERANDS) and isinstance(s.right, _OPERANDS)
               for c, s in pairs)


def _bisection_steps(tree: ast.Module) -> list[tuple[int, str]]:
    """Midpoints computed inside a ``for`` or ``while`` loop: the step of a
    hand-written bisection.  A midpoint outside a loop, such as the
    estimate a caller takes from its last bracket, is not one."""
    found = {(node.lineno, ast.unparse(node))
             for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
             for node in ast.walk(loop) if _is_midpoint(node)}
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_bisection_only_in_core(path):
    found = _bisection_steps(ast.parse(path.read_text()))
    if path.name != "core.py":
        assert found == []
        return
    body, first = inspect.getsourcelines(core.bisect)
    assert len(found) == 1 and first <= found[0][0] < first + len(body)


def test_bisection_step_found():
    tree = ast.parse("def f(lo, hi):\n"
                     "    while hi - lo > 1e-9:\n"
                     "        mid = 0.5 * (lo + hi)\n"
                     "        lo, hi = (lo, mid) if g(mid) else (mid, hi)\n"
                     "    for _ in range(9):\n"
                     "        c = (a + b) / 2\n"
                     "        d = (s.lo + b[0]) * 0.5 + 0.5 * (a + 2 * b)\n"
                     "        e = 0.5 * h + (a + b + c) / 2 + (a - b) / 2 + (a + b) / 3\n"
                     "    return 0.5 * (lo + hi)\n")
    assert _bisection_steps(tree) == [(3, "0.5 * (lo + hi)"), (6, "(a + b) / 2"),
                                      (7, "(s.lo + b[0]) * 0.5")]


# the builtins that run code made at run time
DYNAMIC_CODE = {"exec", "eval", "compile"}


def _dynamic_code(tree: ast.Module) -> list[tuple[int, str]]:
    """Calls, by name, of a builtin in :data:`DYNAMIC_CODE`; an attribute
    such as ``re.compile`` is not one."""
    return sorted((node.lineno, node.func.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in DYNAMIC_CODE)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_dynamic_code_only_in_stepper_build(path):
    # the ODE steppers and the signal kernels are both built by core.rebuild
    found = _dynamic_code(ast.parse(path.read_text()))
    if path.name != "core.py":
        assert found == []
        return
    body, first = inspect.getsourcelines(core.rebuild)
    assert sorted(name for _, name in found) == ["compile", "exec"]
    assert all(first <= line < first + len(body) for line, _ in found)


def test_dynamic_code_found():
    tree = ast.parse("import re\nexec('x = 1')\n"
                     "def f(src):\n    return eval(compile(src, 'f', 'eval'))\n"
                     "pattern = re.compile('a+')\n")
    assert _dynamic_code(tree) == [(2, "exec"), (4, "compile"), (4, "eval")]


def _tolist_calls(tree: ast.Module) -> list[int]:
    """Lines that call a ``.tolist()`` method, on any object."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "tolist")


def test_signal_sim_makes_no_list_inputs():
    assert _tolist_calls(ast.parse((SOURCE / "signal_sim.py").read_text())) == []


def test_tolist_call_found():
    tree = ast.parse("import numpy as np\nu = np.cos(x).tolist()\n"
                     "def f(a):\n    return zip(range(3), a[1:].tolist(), memoryview(a))\n"
                     "g = a.tolist\n")
    assert _tolist_calls(tree) == [2, 4]


def _package_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    """``from`` imports out of this package, relative or by its name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "costas_lab")]


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from another package module, ``__version__``
    aside."""
    return [f"line {node.lineno}: {alias.name}" for node in _package_imports(tree)
            for alias in node.names if alias.name[0] == "_" and alias.name != "__version__"]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import(path):
    assert _private_imports(ast.parse(path.read_text())) == []


def test_private_import_found():
    tree = ast.parse("from __future__ import annotations\nfrom . import __version__\n"
                     "from .analysis import _derived, RangeError\nfrom .core import _x as x\n"
                     "from costas_lab.ode import _STAGE\nfrom os import _exit\n")
    assert _private_imports(tree) == ["line 3: _derived", "line 4: _x", "line 5: _STAGE"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports names from, or imports whole."""
    found = set()
    for node in _package_imports(tree):
        if node.module in (None, "costas_lab"):     # from . import analysis
            found.update(alias.name for alias in node.names)
        else:
            found.add(node.module.split(".")[-1])
    return found


def test_baseband_imports_nothing_from_analysis():
    assert "analysis" not in _imported_modules(ast.parse((SOURCE / "baseband.py").read_text()))


def test_imported_module_found():
    tree = ast.parse("import math\nfrom .core import bisect\nfrom . import analysis, ode\n"
                     "from costas_lab.detectors import phi_bpsk\nfrom costas_lab import cli\n")
    assert _imported_modules(tree) == {"core", "analysis", "ode", "detectors", "cli"}
