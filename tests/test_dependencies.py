"""The package imports the standard library, numpy and scipy, and nothing else.

The imports are read from the source with ``ast``, so what an interpreter
happens to load at start-up (``sys.modules``) does not hide a new dependency.
Importing the package loads the standard library and numpy only: scipy is
imported inside ``pixel_features``, the one function that filters an image,
at its first call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from test_data import _allocating_pixel_features

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "segadapt"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "segadapt"}


def _packages(node):
    """(line, top-level package) of ``node`` if it is an absolute import, else nothing."""
    if isinstance(node, ast.Import):
        return [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [(node.lineno, node.module.partition(".")[0])]
    return []


def _imported_packages(tree):
    """(line, top-level package) of every absolute import anywhere in ``tree``."""
    for node in ast.walk(tree):
        yield from _packages(node)


def _imported_at_module_level(tree):
    """The imports of ``tree`` outside function bodies, which run when the module is imported."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield from _packages(node)
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_the_package_imports_only_the_stdlib_numpy_and_scipy():
    sources = sorted(SRC.glob("*.py"))
    outside = [f"{path.name}:{line}: {package}"
               for path in sources
               for line, package in _imported_packages(ast.parse(path.read_text("utf-8")))
               if package not in ALLOWED]
    assert sources
    assert not outside, outside


def test_no_module_imports_scipy_at_module_level():
    # scipy.ndimage takes 0.2-0.3 s and 26 MB to load; a process that filters
    # no image (segadapt gradcurves) should not pay for it
    sources = sorted(SRC.glob("*.py"))
    eager = [f"{path.relative_to(ROOT)}:{line}"
             for path in sources
             for line, package in _imported_at_module_level(ast.parse(path.read_text("utf-8")))
             if package == "scipy"]
    assert sources
    assert not eager, eager


_FIRST_USE = """
import sys

import numpy as np

from segadapt import cli, data

cli.main(["gradcurves", "--grid", "101", "--out", sys.argv[1]])
loaded_before = "scipy.ndimage" in sys.modules
image = np.random.default_rng(0).random((3, 13, 17))
feats = data.pixel_features(image)
np.savez(sys.argv[2], loaded_before=loaded_before,
         loaded_after="scipy.ndimage" in sys.modules, image=image, feats=feats)
"""


def test_gradcurves_leaves_scipy_ndimage_unloaded_until_the_first_pixel_features(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _FIRST_USE, str(tmp_path / "curves.csv"),
                    str(tmp_path / "first_use.npz")],
                   env=env, check=True, capture_output=True, timeout=120)
    got = np.load(tmp_path / "first_use.npz")
    assert (tmp_path / "curves.csv").stat().st_size > 0
    assert not got["loaded_before"]
    assert got["loaded_after"]
    assert got["feats"].tobytes() == _allocating_pixel_features(got["image"]).tobytes()
