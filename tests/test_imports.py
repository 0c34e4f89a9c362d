"""Package modules and tests import only public names from racsep modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "racsep").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


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


def test_no_private_cross_module_imports():
    assert len(SOURCES) > 10
    offenders = [(path.relative_to(ROOT).as_posix(), line, name)
                 for path in SOURCES
                 for line, name in private_imports(path.read_text())]
    assert offenders == []
