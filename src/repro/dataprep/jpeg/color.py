"""RGB ↔ YCbCr conversion and chroma subsampling (JPEG / BT.601 style)."""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError

# BT.601 full-range coefficients, as used by JFIF.
_RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_YCBCR_TO_RGB = np.linalg.inv(_RGB_TO_YCBCR)


def rgb_to_ycbcr_planes(rgb: np.ndarray):
    """Split an H×W×3 uint8 RGB image into float64 Y, Cb, Cr planes
    (Y in 0..255, Cb/Cr centered on 128).

    Channel-at-a-time linear combinations instead of a pixel×matrix
    product: same math, no (H·W, 3)-shaped temporaries.
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise CodecError(f"expected HxWx3 RGB, got shape {rgb.shape}")
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    m = _RGB_TO_YCBCR
    y = m[0, 0] * r + m[0, 1] * g + m[0, 2] * b
    cb = m[1, 0] * r + m[1, 1] * g + m[1, 2] * b
    cb += 128.0
    cr = m[2, 0] * r + m[2, 1] * g + m[2, 2] * b
    cr += 128.0
    return y, cb, cr


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert H×W×3 uint8 RGB to float64 YCbCr (Y in 0..255, Cb/Cr centered
    on 128)."""
    y, cb, cr = rgb_to_ycbcr_planes(rgb)
    out = np.empty(rgb.shape, dtype=np.float64)
    out[..., 0] = y
    out[..., 1] = cb
    out[..., 2] = cr
    return out


def ycbcr_planes_to_rgb(
    y: np.ndarray, cb: np.ndarray, cr: np.ndarray
) -> np.ndarray:
    """Convert float Y/Cb/Cr planes back to uint8 RGB with clipping."""
    out = np.empty(y.shape + (3,), dtype=np.uint8)
    for i, channel in enumerate(rgb_channels(y, cb, cr)):
        out[..., i] = channel
    return out


def rgb_channels(y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
    """Yield the R, G and B planes of float Y/Cb/Cr planes, rounded and
    clipped to 0..255 but still float64.

    The planes may carry leading stack dimensions and any strides.  The
    yielded buffer is reused for the next channel, so a caller stores
    (or narrows to uint8) each one before asking for the next; that lets
    the windowed decode write each image's window wherever it goes.
    """
    if not (y.shape == cb.shape == cr.shape):
        raise CodecError("Y, Cb, Cr planes must share a shape")
    cb = cb - 128.0
    cr = cr - 128.0
    m = _YCBCR_TO_RGB
    buf = np.empty(y.shape, dtype=y.dtype)
    tmp = np.empty(y.shape, dtype=y.dtype)
    for i in range(3):
        np.multiply(y, m[i, 0], out=buf)
        np.multiply(cb, m[i, 1], out=tmp)
        buf += tmp
        np.multiply(cr, m[i, 2], out=tmp)
        buf += tmp
        np.rint(buf, out=buf)
        np.clip(buf, 0, 255, out=buf)
        yield buf


def rgb_channels_420(y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
    """:func:`rgb_channels` for 4:2:0: ``cb``/``cr`` are half-resolution
    planes.

    The chroma terms of the color matrix are computed at quarter area and
    then nearest-neighbour upsampled — elementwise multiplication commutes
    with sample replication, so the result is bit-identical to upsampling
    first, at a fraction of the arithmetic.  The upsample repeats each
    chroma column into a full-width row and adds it to both luma rows of
    the pair, so the add runs along whole contiguous rows.
    """
    h, w = y.shape[-2:]
    hh, hw = cb.shape[-2:]
    if (2 * hh, 2 * hw) != (h, w) or cb.shape != cr.shape:
        raise CodecError("chroma planes must be half the luma resolution")
    lead = y.shape[:-2]
    cb = cb - 128.0
    cr = cr - 128.0
    m = _YCBCR_TO_RGB
    buf = np.empty(y.shape, dtype=y.dtype)
    pairs = buf.reshape(lead + (hh, 2, w))
    ctmp = np.empty(cb.shape, dtype=cb.dtype)
    for i in range(3):
        np.multiply(cb, m[i, 1], out=ctmp)
        chroma = m[i, 2] * cr
        chroma += ctmp
        np.multiply(y, m[i, 0], out=buf)
        pairs += np.repeat(chroma, 2, axis=-1)[..., None, :]
        np.rint(buf, out=buf)
        np.clip(buf, 0, 255, out=buf)
        yield buf


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Convert float YCbCr back to uint8 RGB with clipping."""
    if ycc.ndim != 3 or ycc.shape[2] != 3:
        raise CodecError(f"expected HxWx3 YCbCr, got shape {ycc.shape}")
    return ycbcr_planes_to_rgb(ycc[..., 0], ycc[..., 1], ycc[..., 2])


def subsample_420(channel: np.ndarray) -> np.ndarray:
    """2×2 average-pool a chroma plane (4:2:0).  Requires even dims."""
    h, w = channel.shape
    if h % 2 or w % 2:
        raise CodecError(f"4:2:0 subsampling needs even dimensions, got {h}x{w}")
    return channel.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def upsample_420(channel: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2× upsample of a chroma plane."""
    h, w = channel.shape
    return np.broadcast_to(
        channel[:, None, :, None], (h, 2, w, 2)
    ).reshape(2 * h, 2 * w)
