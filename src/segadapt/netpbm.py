"""File writers: CSV for logs and curves; 8-bit binary PPM (P6)/PGM (P5), with readers."""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv", "write_ppm", "write_pgm", "read_ppm", "read_pgm"]


def write_csv(path, header: str, rows) -> None:
    """``header`` then one line per row; floats get 17 significant digits (``nan`` stays)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


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
