"""8×8 block type-II DCT, the transform at the heart of JPEG.

Implemented as a matrix product with the orthonormal DCT-II basis, applied
to all blocks of a plane at once.  The inverse is the transpose product,
so ``idct2(dct2(x)) == x`` up to float error — a property the tests pin
down.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import CodecError

BLOCK = 8


@lru_cache(maxsize=16)
def _dct_matrix(n: int = BLOCK) -> np.ndarray:
    k = np.arange(n)
    basis = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    scale = np.full((n, 1), np.sqrt(2.0 / n))
    scale[0, 0] = np.sqrt(1.0 / n)
    matrix = scale * basis
    matrix.setflags(write=False)  # shared via the cache
    return matrix


_DCT = _dct_matrix()
_IDCT = _DCT.T


def blockify(plane: np.ndarray) -> np.ndarray:
    """Split an H×W plane into an (H/8 · W/8, 8, 8) stack of blocks."""
    h, w = plane.shape
    if h % BLOCK or w % BLOCK:
        raise CodecError(f"plane dims must be multiples of {BLOCK}, got {h}x{w}")
    blocks = plane.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
    return blocks.transpose(0, 2, 1, 3).reshape(-1, BLOCK, BLOCK)


def unblockify(blocks: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of :func:`blockify` for a plane of the given shape."""
    h, w = shape
    if h % BLOCK or w % BLOCK:
        raise CodecError(f"plane dims must be multiples of {BLOCK}, got {h}x{w}")
    expected = (h // BLOCK) * (w // BLOCK)
    if blocks.shape != (expected, BLOCK, BLOCK):
        raise CodecError(
            f"expected {expected} blocks of {BLOCK}x{BLOCK}, got {blocks.shape}"
        )
    grid = blocks.reshape(h // BLOCK, w // BLOCK, BLOCK, BLOCK)
    return grid.transpose(0, 2, 1, 3).reshape(h, w)


def dct2(blocks: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT of a (..., 8, 8) block stack."""
    return _DCT @ blocks @ _DCT.T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of a (..., 8, 8) coefficient stack."""
    return _IDCT @ coeffs @ _IDCT.T


def idct_plane(quantized: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Dequantize and inverse transform an (R, C, 8, 8) grid of quantized
    integer blocks into a fresh 8R×8C float64 plane.

    Bit-identical to ``unblockify(idct2(dequantize(quantized, table)
    .reshape(-1, 8, 8)), (8 * R, 8 * C))`` in three whole-array calls:
    one multiply that widens to float64 in the same pass (exact: every
    product of an int32 and a table entry fits in 53 bits), then the
    same two matrix products per block, the second one writing through a
    block view of the plane, so the copies of ``astype`` and
    :func:`unblockify` disappear.  Each block of that view is a
    row-strided 8×8 matrix, which ``matmul`` handles as it does a
    contiguous one.  The plane reuses the dequantized coefficients'
    buffer, free once the first product is taken, so the call allocates
    two plane-sized arrays, not three.
    """
    r, c = quantized.shape[:2]
    coeffs = np.multiply(quantized, table, dtype=np.float64)
    partial = np.matmul(_IDCT, coeffs)
    plane = coeffs.reshape(r * BLOCK, c * BLOCK)
    blocks = plane.reshape(r, BLOCK, c, BLOCK).transpose(0, 2, 1, 3)
    np.matmul(partial, _IDCT.T, out=blocks)
    return plane


def pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Edge-pad a plane so both dims are multiples of the block size."""
    h, w = plane.shape
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    if not ph and not pw:
        return plane
    return np.pad(plane, ((0, ph), (0, pw)), mode="edge")
