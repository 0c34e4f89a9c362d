"""Package modules and tests import only public names from racsep modules,
and package modules import only at module level and only what they use;
only the command line opens files."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "racsep").glob("*.py"))
NOQA_UNUSED = "# noqa: F401"
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_imports(source):
    """(line, name) of every underscore name imported from a racsep module
    (``from racsep.x import _y``, ``from .x import _y``, ``import racsep._x``)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "racsep":
                yield from ((node.lineno, f"{module}.{a.name}")
                            for a in node.names if _private(a.name))
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names
                        if a.name.split(".")[0] == "racsep"
                        and any(map(_private, a.name.split("."))))


def test_detector_flags_private_imports():
    source = ("from .verification import _grid_matrix_rank\n"
              "from racsep.network import as_symbols, _check_compat\n"
              "import racsep._impl\n"
              "from racsep import __version__\n"
              "from numpy import _private_ok\n")
    assert list(private_imports(source)) == [
        (1, "verification._grid_matrix_rank"),
        (2, "racsep.network._check_compat"),
        (3, "racsep._impl")]


def local_imports(source):
    """Line of every import statement below module level."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top]


def test_detector_flags_local_imports():
    source = ("import os\n"
              "from .tn import min_cut\n"
              "def f():\n"
              "    from .tn import build_mps\n"
              "    import math\n"
              "class C:\n"
              "    import json\n"
              "if True:\n"
              "    import sys\n")
    assert local_imports(source) == [4, 5, 7, 9]


def test_no_function_local_imports_in_package():
    offenders = [(path.name, line) for path in PACKAGE
                 for line in local_imports(path.read_text())]
    assert offenders == []


def test_no_private_cross_module_imports():
    assert len(SOURCES) > 10
    offenders = [(path.relative_to(ROOT).as_posix(), line, name)
                 for path in SOURCES
                 for line, name in private_imports(path.read_text())]
    assert offenders == []


def unused_imports(source):
    """(line, name) of every name a module-level import binds that the module
    never references; ``__future__`` imports and lines marked
    ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name not in used and NOQA_UNUSED not in lines[a.lineno - 1]:
                    yield a.lineno, name


def test_detector_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .network import (Cell,\n"
              "                      step_deep)\n"
              "from .network import as_symbols  # noqa: F401\n"
              "def f(c: Cell) -> int:\n"
              "    import json\n"
              "    return np.sum(os.path.sep) + field\n")
    assert list(unused_imports(source)) == [
        (2, "math"), (5, "dataclass"), (7, "step_deep")]


def test_no_unused_imports_in_package():
    offenders = [(path.name, line, name) for path in PACKAGE
                 if path.name != "__init__.py"
                 for line, name in unused_imports(path.read_text())]
    assert offenders == []


def traced_functions(source):
    """The ``(layer, function)`` pairs of the ``FUNCTIONS`` table in the
    benchmark tracer's source, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS"
                for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(layer, fn) for layer, fns in table.items() for fn in fns]
    return []


def test_detector_reads_the_traced_functions():
    source = ("import sys\n"
              "FUNCTIONS = {\"cli\": (\"main\",),\n"
              "             \"tn\": (\"contract\", \"min_cut\")}\n"
              "OTHER = {\"ranks\": (\"rank_exact\",)}\n")
    assert traced_functions(source) == [
        ("cli", "main"), ("tn", "contract"), ("tn", "min_cut")]


def test_every_function_the_benchmark_traces_exists():
    # the tracer getattr's each listed racsep.<layer>.<fn> when it installs,
    # so deleting or renaming one breaks traced benchmark runs
    listed = traced_functions(
        (ROOT / "perfbench" / "tracer.py").read_text())
    assert len(listed) > 20
    missing = [f"racsep.{layer}.{fn}" for layer, fn in listed
               if not callable(getattr(importlib.import_module(
                   f"racsep.{layer}"), fn, None))]
    assert missing == []


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def dead_helpers(sources):
    """(module, name) of every underscore name that a module-level statement
    of ``sources`` (module name -> source) defines and that no other
    statement of any of them references, by name or as an attribute."""
    defs, refs = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defs += [(module, name, node) for name in _defined(node)
                     if _private(name)]
            refs.append((node, {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(node)
                                if isinstance(n, (ast.Name, ast.Attribute))}))
    return [(module, name) for module, name, node in defs
            if not any(name in used for other, used in refs
                       if other is not node)]


def test_detector_flags_dead_helpers():
    sources = {"a": ("def _used():\n"
                     "    return 1\n"
                     "def _dead(n):\n"
                     "    return _dead(n - 1)\n"
                     "_TABLE = {}\n"
                     "class _Kept:\n"
                     "    def _method(self):\n"
                     "        pass\n"
                     "def public():\n"
                     "    return _used() + len(_TABLE)\n"),
               "b": ("from . import a\n"
                     "x = a._Kept\n"
                     "_unused: int = 3\n"
                     "__all__ = ['x']\n")}
    assert dead_helpers(sources) == [("a", "_dead"), ("b", "_unused")]


def test_no_dead_helpers_in_package():
    # a private helper that no other statement of the package uses is dead
    # code, even when tests still call it
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert dead_helpers(sources) == []


def benchmark_names(source):
    """Every dotted racsep path a benchmark source uses: what it imports
    from racsep, what it reads off a racsep name it imported, and the
    ``("racsep.<module>", name)`` string pairs it looks up."""
    tree = ast.parse(source)
    bound, names = {}, set()  # local name -> the racsep path it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names
                         if a.name.split(".")[0] == "racsep")
        elif isinstance(node, ast.ImportFrom) and not node.level and (
                node.module.split(".")[0] == "racsep"):
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
                names.add(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            names.add(f"{bound[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts):
            module, attr = (e.value for e in node.elts)
            if module.split(".")[0] == "racsep":
                names.add(f"{module}.{attr}")
    return names


def resolves(path):
    """Whether a dotted path names a module, or an attribute chain read off
    the longest importable module prefix of it."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_detector_reads_the_benchmark_names():
    source = ("import racsep\n"
              "import numpy as np\n"
              "from racsep import cli, network as net\n"
              "from racsep.verification import CSV_COLUMNS\n"
              "from tracer import FUNCTIONS\n"
              "def f(p):\n"
              "    np.zeros(2)\n"
              "    racsep.draw_params(p).x\n"
              "    net.forward_deep(cli.main(FUNCTIONS.keys()))\n"
              "    return [('racsep.ranks', 'rank_exact'), ('os', 'sep'),\n"
              "            ('racsep', 'x', 'y')]\n")
    assert benchmark_names(source) == {
        "racsep.cli", "racsep.network", "racsep.verification.CSV_COLUMNS",
        "racsep.draw_params", "racsep.network.forward_deep",
        "racsep.cli.main", "racsep.ranks.rank_exact"}
    assert resolves("racsep.cli.main") and resolves("racsep.DenseTensor.dims")
    assert not resolves("racsep.tn.NoSuchName")
    assert not resolves("racsep.no_such_module.main")


def test_every_name_the_benchmark_uses_exists():
    # the benchmark imports these names or reads them off racsep modules,
    # so deleting or renaming one fails every benchmark run
    sources = sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(benchmark_names(path.read_text())
                         for path in sources))
    assert {"racsep.network.RAC_PRODUCT", "racsep.verification.draw_params",
            "racsep.builders.step_deep", "racsep.tn.min_cut"} <= used
    assert sorted(path for path in used if not resolves(path)) == []


def open_calls(source):
    """Line of every call of ``open`` or of an ``open`` attribute
    (``io.open``, ``path.open``)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and (
                      isinstance(node.func, ast.Name) and node.func.id == "open"
                      or isinstance(node.func, ast.Attribute)
                      and node.func.attr == "open"))


def test_detector_flags_open_calls():
    source = ("import io\n"
              "def f(path):\n"
              "    with open(path) as fh:\n"
              "        return fh.read() + io.open(path).read()\n"
              "opener = open\n"
              "path.open('w')\n")
    assert open_calls(source) == [3, 4, 6]


def test_only_the_cli_opens_files():
    # the library turns text into objects and back; reading and writing
    # files is the command line's job
    offenders = [(path.name, line) for path in PACKAGE
                 if path.name != "cli.py"
                 for line in open_calls(path.read_text())]
    assert offenders == []
    assert open_calls((ROOT / "src" / "racsep" / "cli.py").read_text())
