"""The package imports the standard library, numpy and scipy, and nothing else.

The imports are read from the source with ``ast``, so what an interpreter
happens to load at start-up (``sys.modules``) does not hide a new dependency.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "segadapt"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "segadapt"}


def _imported_packages(tree):
    """(line, top-level package) of every absolute import anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_imports_only_the_stdlib_numpy_and_scipy():
    sources = sorted(SRC.glob("*.py"))
    outside = [f"{path.name}:{line}: {package}"
               for path in sources
               for line, package in _imported_packages(ast.parse(path.read_text("utf-8")))
               if package not in ALLOWED]
    assert sources
    assert not outside, outside
