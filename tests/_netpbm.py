"""Reference readers and writer for the files ``segadapt.netpbm`` writes, shared by the tests.

The PPM/PGM readers read back what ``write_ppm`` and ``write_pgm`` wrote.
``csv_by_rows`` is the CSV writer's formatting rule applied one value at a
time, row by row: the oracle for ``write_csv``, which formats a block of rows
with one ``%`` operation over a row template of ``%.17g`` and ``%s`` fields,
and for ``emit_csv``, which also formats a shared grid only once.
"""

import numpy as np


def _read_header(fh, magic: bytes):
    if fh.readline().strip() != magic:
        raise ValueError(f"not a {magic.decode()} file")
    fields: list[int] = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ValueError("truncated header")
        if line.startswith(b"#"):
            continue
        fields.extend(int(tok) for tok in line.split())
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only 8-bit images are supported")
    return w, h


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P6")
        raw = np.frombuffer(fh.read(3 * w * h), dtype=np.uint8)
    return raw.reshape(h, w, 3).transpose(2, 0, 1)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P5")
        raw = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    return raw.reshape(h, w)


def csv_by_rows(header: str, rows) -> bytes:
    """``header`` and ``rows`` as CSV bytes: floats ``.17g``, every other value ``str()``."""
    lines = [header] + [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")
