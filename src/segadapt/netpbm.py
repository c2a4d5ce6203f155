"""File writers: CSV for logs and curves; 8-bit binary PPM (P6) and PGM (P5)."""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv", "write_ppm", "write_pgm"]


# rows formatted at a time, so the text of a long log or curve file is never all in memory
_BLOCK_ROWS = 1024


def write_csv(path, header: str, columns) -> None:
    """``header`` then one line per row of ``columns``, equal-length sequences or 1-D arrays.

    A float (numpy float64 too) prints with 17 significant digits (``nan``
    stays ``nan``); any other value, a numpy float32 included, prints as
    ``str(value)``.  The header is written verbatim.  Each block of rows is
    one ``%`` operation over a row template: a float64 array column is a
    ``%.17g`` field, filled from the block's float64 columns stacked row by
    row; every other cell is rendered by the rule above, ``%`` doubled, and
    placed in the template as text.
    """
    columns = list(columns)
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, lengths[0] if lengths else 0, _BLOCK_ROWS):
            block = [col[lo:lo + _BLOCK_ROWS] for col in columns]
            floats = [col for col in block if _is_float64(col)]
            cells = [["%.17g"] * len(col) if _is_float64(col) else _text_cells(col)
                     for col in block]
            template = "".join([",".join(row) + "\n" for row in zip(*cells)])
            values = np.column_stack(floats).ravel().tolist() if floats else []
            fh.write(template % tuple(values))


def _is_float64(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


def _text_cells(column) -> list[str]:
    return [(f"{v:.17g}" if isinstance(v, float) else str(v)).replace("%", "%%")
            for v in column]


def _scaled_u8(values: np.ndarray) -> np.ndarray:
    """Intensities in [0, 1] (or already-uint8 data) to 8-bit samples."""
    values = np.asarray(values)
    if values.dtype == np.uint8:
        return values
    if np.issubdtype(values.dtype, np.floating):
        return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)
    return np.clip(values, 0, 255).astype(np.uint8)


def _verbatim_u8(values: np.ndarray) -> np.ndarray:
    """Small integer-valued data (class ids, loss weights) kept as-is."""
    values = np.asarray(values)
    if values.dtype == np.uint8:
        return values
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) image (float in [0, 1] or uint8) as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a (3, H, W) image, got shape {image.shape}")
    h, w = image.shape[1:]
    pixels = _scaled_u8(image).transpose(1, 2, 0)  # interleave RGB
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_pgm(path, values: np.ndarray) -> None:
    """Write a (H, W) array of class ids or loss weights as binary P5."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a (H, W) array, got shape {values.shape}")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_verbatim_u8(values).tobytes())
