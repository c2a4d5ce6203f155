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
    one ``%`` operation over one row template repeated per row: a float64
    array column is a ``%.17g`` field, every other column a ``%s`` field
    whose cells are rendered by the rule above, so text is never read as
    part of the template.
    """
    columns = list(columns)
    for i, col in enumerate(columns):
        if isinstance(col, np.ndarray) and col.ndim != 1:
            raise ValueError(f"column {i} must be 1-D, got shape {col.shape}")
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    floats = [isinstance(col, np.ndarray) and col.dtype == np.float64 for col in columns]
    template = ",".join("%.17g" if is_float else "%s" for is_float in floats) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, lengths[0] if lengths else 0, _BLOCK_ROWS):
            block = [col[lo:lo + _BLOCK_ROWS] for col in columns]
            rows = len(block[0])
            values = [None] * (len(block) * rows)
            for j, (col, is_float) in enumerate(zip(block, floats)):
                # row-major: cell j of each row sits at j::len(block)
                values[j::len(block)] = col.tolist() if is_float else [
                    f"{v:.17g}" if isinstance(v, float) else v for v in col]
            fh.write(template * rows % tuple(values))


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
