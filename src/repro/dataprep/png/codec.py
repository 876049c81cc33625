"""The PNG-like container: filter, compress, frame.

:func:`decode_batch` is the one decode implementation; :func:`decode` is
its batch of one.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CodecError
from repro.dataprep.png import deflate
from repro.dataprep.png.filters import filter_image, unfilter_image

_MAGIC = b"RPNG"
_VERSION = 1


def encode(image: np.ndarray) -> bytes:
    """Compress an H×W×{1,3,4} uint8 image losslessly."""
    if image.ndim != 3 or image.shape[2] not in (1, 3, 4):
        raise CodecError(f"expected HxWx{{1,3,4}} image, got {image.shape}")
    if image.dtype != np.uint8:
        raise CodecError(f"expected uint8, got {image.dtype}")
    h, w, c = image.shape
    methods, residuals = filter_image(image)
    # Interleave the filter byte before each scanline, PNG-style.
    raw = np.empty((h, w * c + 1), dtype=np.uint8)
    raw[:, 0] = methods
    raw[:, 1:] = residuals
    out = bytearray(_MAGIC)
    out.extend(struct.pack("<BHHB", _VERSION, h, w, c))
    out.extend(deflate.compress(raw.tobytes()))
    return bytes(out)


def decode(data: bytes) -> np.ndarray:
    """Decompress one RPNG blob (:func:`decode_batch` of one)."""
    return decode_batch([data])[0]


def decode_batch(datas, *, out: "np.ndarray | None" = None) -> list:
    """Decode many RPNG blobs, each inflated by :func:`deflate.decompress`
    and unfiltered row by row.  Malformed blobs raise the per-blob error.

    ``out`` optionally receives the decoded images in place (an
    ``N x h x w x c`` uint8 arena slot; every image must match) and is
    returned instead of a fresh list.
    """
    datas = [bytes(d) for d in datas]
    if out is not None and len(out) != len(datas):
        raise CodecError(
            f"decode out= holds {len(out)} slots for {len(datas)} blobs"
        )
    headers = []
    for data in datas:
        if data[:4] != _MAGIC:
            raise CodecError("not an RPNG stream")
        try:
            version, h, w, c = struct.unpack_from("<BHHB", data, 4)
        except struct.error as exc:
            raise CodecError(f"malformed RPNG stream: {exc}") from exc
        if version != _VERSION:
            raise CodecError(f"unsupported RPNG version {version}")
        headers.append((h, w, c))
    offset = 4 + struct.calcsize("<BHHB")
    results = [] if out is None else out
    for i, (data, (h, w, c)) in enumerate(zip(datas, headers)):
        raw = deflate.decompress(data[offset:])
        stride = w * c
        if len(raw) != h * (stride + 1):
            raise CodecError("decompressed payload has the wrong size")
        lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
        image = unfilter_image(lines[:, 0].tolist(), lines[:, 1:], (h, w, c))
        if out is None:
            results.append(image)
        else:
            if image.shape != out.shape[1:]:
                raise CodecError(
                    f"decode out= expects uniform {out.shape[1:]} images,"
                    f" got {image.shape}"
                )
            out[i, ...] = image
    return results
