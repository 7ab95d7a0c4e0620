"""Every import in a ``costas_lab`` module is used by that module, and
every import sits at module level, so a module's dependencies are the
imports at its top.  No module reads the process environment: a run's
inputs are its config file and its command line.  No module imports
``multiprocessing``, ``subprocess`` or ``concurrent``: a run is one
process.  The one bisection loop is ``core.bisect``: every edge search
shares its adjacent-float stop.  Each of ``ode``'s inline phase-model
steppers is its generic stepper with the stage calls written out, so a
change to one stepper is a change to its twin."""

import ast
import copy
import inspect
from itertools import zip_longest
from pathlib import Path

import pytest

import costas_lab
from costas_lab import core, ode

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


# ode's inline phase-model steppers, each with the generic stepper it copies
INLINE_TWINS = [("_rk4_phase", "_rk4_steps"), ("_rk45_phase", "_rk45_steps")]
# an inline stepper's first statement: ClassicPhaseModel._rhs_consts unpacked
UNPACK_CONSTS = "dw0, k0, tau1, ratio, scale, freq, fn = consts"


class _InlineStage(ast.NodeTransformer):
    """Write each stage call ``pN, qN = rhs(T, (X, Y))`` out as the phase
    model's slope, ``classic_rhs`` on the unpacked constants."""

    def visit_Assign(self, node):
        call = node.value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "rhs"):
            return node
        (p, q), (x, y) = node.targets[0].elts, call.args[1].elts
        return ast.parse(f"{p.id} = scale * fn(freq * ({ast.unparse(y)}))\n"
                         f"{q.id} = dw0 - k0 * (({ast.unparse(x)}) / tau1 + ratio * {p.id})").body


def _statements(body) -> list[tuple[int, str]]:
    """Each statement of ``body``, then the statements nested in it, in
    source order: its line and its dump without the nested statements."""
    out = []
    for node in body:
        shallow, nested = copy.copy(node), []
        for name, value in ast.iter_fields(node):
            if value and isinstance(value, list) and isinstance(value[0], (ast.stmt,
                                                                           ast.excepthandler)):
                nested.append(value)
                setattr(shallow, name, [])
        out.append((node.lineno, ast.dump(shallow)))
        for block in nested:
            out.extend(_statements(block))
    return out


def _twin_mismatches(tree: ast.Module, inline: str, generic: str) -> list[str]:
    """Where the function ``inline`` differs from ``generic`` with its stage
    calls written out: past their docstrings, ``inline`` takes ``consts``
    for ``rhs``, unpacks it first and then runs the same statements."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    twin = funcs[inline]
    base = _InlineStage().visit(copy.deepcopy(funcs[generic]))
    found = []
    if [a.arg for a in twin.args.args] != ["consts"] + [a.arg for a in base.args.args[1:]]:
        found.append(f"line {twin.lineno}: arguments")
    if ast.unparse(twin.body[1]) != UNPACK_CONSTS:
        found.append(f"line {twin.body[1].lineno}: not {UNPACK_CONSTS}")
    for mine, theirs in zip_longest(_statements(twin.body[2:]), _statements(base.body[1:])):
        if mine is None or theirs is None or mine[1] != theirs[1]:
            found.append(f"line {mine[0]}" if mine else f"missing line {theirs[0]}")
    return found


@pytest.mark.parametrize("inline,generic", INLINE_TWINS)
def test_inline_stepper_is_its_generic_twin(inline, generic):
    assert _twin_mismatches(ast.parse(Path(ode.__file__).read_text()), inline, generic) == []


_TWINS_SOURCE = """
def _steps(rhs, a, b, h):
    \"\"\"Generic.\"\"\"
    while a < 1.0:
        try:
            p2, q2 = rhs(a, (a + h * b, b))
        except ValueError:
            return None
        h = h * (5.0 if p2 > 5.0 else 0.2)
    return a

def _phase(consts, a, b, h):
    \"\"\"Inline.\"\"\"
    dw0, k0, tau1, ratio, scale, freq, fn = consts
    while a < 1.0:
        try:
            p2 = scale * fn(freq * b)
            q2 = dw0 - k0 * ((a + h * b) / tau1 + ratio * p2)
        except ValueError:
            return None
        h = h * (5.0 if p2 > 5.0 else 0.2)
    return a
"""


def test_twin_mismatch_found():
    assert _twin_mismatches(ast.parse(_TWINS_SOURCE), "_phase", "_steps") == []
    # a controller constant changed in the inline twin only
    head, _, tail = _TWINS_SOURCE.rpartition("else 0.2)")
    changed = head + "else 0.25)" + tail
    assert _twin_mismatches(ast.parse(changed), "_phase", "_steps") == ["line 21"]
    # a stage that reads the wrong slope, and a stepper whose
    # arguments or constants differ
    assert _twin_mismatches(ast.parse(_TWINS_SOURCE.replace("ratio * p2", "ratio * q2")),
                            "_phase", "_steps") == ["line 18"]
    moved = _TWINS_SOURCE.replace("consts, a, b, h", "consts, b, a, h").replace(
        "fn = consts", "fn = c")
    assert _twin_mismatches(ast.parse(moved), "_phase", "_steps") == [
        "line 12: arguments", "line 14: not " + UNPACK_CONSTS]
