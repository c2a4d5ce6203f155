"""Which numeric kernels this interpreter runs, for messages and subprocess checks.

The float32 forward rounds by OpenBLAS's core and numpy's dispatch level, so the
seed-0 pin names them when it fails, and the kernel check reads them back in a
child whose environment forced one of them.
"""

import ctypes
import glob
import os

import numpy as np


def numeric_kernels() -> tuple:
    """The OpenBLAS core and numpy's highest enabled dispatch target; ``unknown`` for either unread."""
    core = level = "unknown"
    try:
        lib, = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (ValueError, OSError, AttributeError):
        pass
    try:
        import numpy._core._multiarray_umath as umath
        level = [d for d in umath.__cpu_dispatch__ if umath.__cpu_features__.get(d)][-1]
    except (ImportError, AttributeError, IndexError):
        pass
    return core, level
