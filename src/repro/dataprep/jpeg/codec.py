"""The JPEG encoder/decoder pair over a small binary container.

Pipeline (per ITU-T T.81 baseline):

encode: RGB → YCbCr → (4:2:0 chroma subsample) → level shift → 8×8 DCT →
quantize → zig-zag + RLE → canonical Huffman → bitstream.

decode is the exact reverse.  Tables are optimized per image and shipped
in the header (see :mod:`repro.dataprep.jpeg.huffman`).

:func:`encode_batch` and :func:`decode_batch` are the one implementation:
they run the color/DCT/quantize stages over whole stacks of same-geometry
images and the entropy stages through the vectorized coder in
:mod:`repro.dataprep.jpeg.entropy_fast`.  :func:`encode` and
:func:`decode` are their batch of one.  :func:`encode_reference` and
:func:`decode_reference` keep the symbol-at-a-time entropy coder as the
executable spec: byte-identical streams, identical pixels.
:func:`decode_batch` can also deliver one :class:`Window` of each frame,
optionally mirrored, transforming only the blocks the window touches.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodecError
from repro.dataprep.jpeg import color, dct, entropy_fast, quant
from repro.dataprep.jpeg.huffman import (
    BitReader,
    BitWriter,
    HuffmanTable,
    TableSpec,
    block_symbols,
    decode_block,
    table_from_spec,
)

_MAGIC = b"RJPG"
_VERSION = 1


def _component_planes(rgb: np.ndarray, subsample: bool) -> List[np.ndarray]:
    """YCbCr planes ready for blocking (one image; the reference encoder's
    layout)."""
    h, w = rgb.shape[:2]
    # 4:2:0 needs even dims before halving; pad once here.
    pad_h = (-h) % (16 if subsample else 8)
    pad_w = (-w) % (16 if subsample else 8)
    if pad_h or pad_w:
        rgb = np.pad(rgb, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    y, cb, cr = color.rgb_to_ycbcr_planes(rgb)
    if subsample:
        cb = color.subsample_420(cb)
        cr = color.subsample_420(cr)
    return [y, cb, cr]


def _quantized_blocks(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    blocks = dct.blockify(plane - 128.0)
    coeffs = dct.dct2(blocks)
    return quant.quantize(coeffs, table)


def _encode_plane(
    plane: np.ndarray, table: np.ndarray
) -> Tuple[np.ndarray, List, List]:
    """Quantized blocks plus DC/AC symbol event streams for one plane."""
    quantized = _quantized_blocks(plane, table)
    dc_events: List = []
    ac_events: List = []
    prev_dc = 0
    for block in quantized:
        dc_ev, ac_ev, prev_dc = block_symbols(block, prev_dc)
        dc_events.append(dc_ev)
        ac_events.append(ac_ev)
    return quantized, dc_events, ac_events


def _collect_frequencies(event_lists: List[List]) -> Dict[int, int]:
    freqs: Dict[int, int] = {}
    for events in event_lists:
        for symbol, _amp, _size in events:
            freqs[symbol] = freqs.get(symbol, 0) + 1
    return freqs


def _merge_frequencies(*freq_dicts: Dict[int, int]) -> Dict[int, int]:
    merged: Dict[int, int] = {}
    for freqs in freq_dicts:
        for symbol, count in freqs.items():
            merged[symbol] = merged.get(symbol, 0) + count
    return merged


def _write_table(spec: TableSpec, out: bytearray) -> None:
    out.extend(struct.pack("<16H", *spec.counts))
    out.extend(struct.pack("<H", len(spec.symbols)))
    out.extend(struct.pack(f"<{len(spec.symbols)}H", *spec.symbols))


def _read_table(buf: bytes, offset: int) -> Tuple[TableSpec, int]:
    counts = struct.unpack_from("<16H", buf, offset)
    offset += 32
    (nsym,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    symbols = struct.unpack_from(f"<{nsym}H", buf, offset)
    offset += 2 * nsym
    return TableSpec(tuple(counts), tuple(symbols)), offset


def _entropy_encode_planes(
    plane_symbols: Sequence[entropy_fast.PlaneSymbols],
) -> Tuple[List[bytes], List[HuffmanTable]]:
    """Huffman tables (optimized per image) + per-plane bitstreams for
    one image's three planes of symbols."""
    y, cb, cr = plane_symbols
    dc_luma = HuffmanTable.from_frequencies(
        entropy_fast.symbol_frequencies(y.dc_syms)
    )
    ac_luma = HuffmanTable.from_frequencies(
        entropy_fast.symbol_frequencies(y.ac_syms)
    )
    dc_chroma = HuffmanTable.from_frequencies(
        _merge_frequencies(
            entropy_fast.symbol_frequencies(cb.dc_syms),
            entropy_fast.symbol_frequencies(cr.dc_syms),
        )
    )
    ac_chroma = HuffmanTable.from_frequencies(
        _merge_frequencies(
            entropy_fast.symbol_frequencies(cb.ac_syms),
            entropy_fast.symbol_frequencies(cr.ac_syms),
        )
    )
    streams = [
        entropy_fast.plane_bitstream(y, dc_luma, ac_luma),
        entropy_fast.plane_bitstream(cb, dc_chroma, ac_chroma),
        entropy_fast.plane_bitstream(cr, dc_chroma, ac_chroma),
    ]
    return streams, [dc_luma, ac_luma, dc_chroma, ac_chroma]


def _frame(
    quality: int,
    subsample: bool,
    shape: Tuple[int, int],
    tables: Sequence[HuffmanTable],
    streams: Sequence[bytes],
) -> bytes:
    h, w = shape
    out = bytearray()
    out.extend(_MAGIC)
    out.extend(
        struct.pack("<BBBHH", _VERSION, quality, int(subsample), h, w)
    )
    for table in tables:
        _write_table(table.spec, out)
    out.extend(struct.pack("<3I", *(len(s) for s in streams)))
    for stream in streams:
        out.extend(stream)
    return bytes(out)


def _check_image(rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise CodecError(f"expected HxWx3 RGB, got {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise CodecError(f"expected uint8 input, got {rgb.dtype}")
    if rgb.shape[0] < 1 or rgb.shape[1] < 1:
        raise CodecError("image must be non-empty")


@dataclass(frozen=True)
class _Frame:
    """A parsed RJPG container: header fields, Huffman table specs, and
    the three per-plane entropy streams."""

    quality: int
    subsample: bool
    h: int
    w: int
    specs: Tuple[TableSpec, ...]
    streams: Tuple[bytes, ...]

    @property
    def geometry_key(self) -> Tuple[int, bool, int, int]:
        """Frames sharing this key can share one batched transform."""
        return (self.quality, self.subsample, self.h, self.w)


@dataclass(frozen=True)
class _PlaneGeometry:
    """Padded plane shapes the encoder used for one image geometry.

    Luma is padded to whole MCUs (16×16 pixels for 4:2:0, 8×8 for
    4:4:4), so each chroma plane is a whole number of 8×8 blocks too.
    """

    luma_shape: Tuple[int, int]
    chroma_shape: Tuple[int, int]
    mcu: int

    @property
    def plane_shapes(self) -> Tuple[Tuple[int, int], ...]:
        return (self.luma_shape, self.chroma_shape, self.chroma_shape)


def _plane_geometry(subsample: bool, h: int, w: int) -> _PlaneGeometry:
    mcu = 16 if subsample else 8
    ph = h + ((-h) % mcu)
    pw = w + ((-w) % mcu)
    chroma_shape = (ph // 2, pw // 2) if subsample else (ph, pw)
    return _PlaneGeometry((ph, pw), chroma_shape, mcu)


class Window(NamedTuple):
    """The part of a frame a windowed decode delivers: rows
    ``top:top + height`` and columns ``left:left + width``, mirrored
    left-right when ``flip`` is set."""

    top: int
    left: int
    height: int
    width: int
    flip: bool = False


@contextlib.contextmanager
def _malformed_is_codec_error():
    """Report a malformed stream's low-level failure as a CodecError."""
    try:
        yield
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        raise CodecError(f"malformed RJPG stream: {exc}") from exc


def _parse_frame(data: bytes) -> _Frame:
    if data[:4] != _MAGIC:
        raise CodecError("not an RJPG stream")
    with _malformed_is_codec_error():
        version, quality, subsample_flag, h, w = struct.unpack_from(
            "<BBBHH", data, 4
        )
        if version != _VERSION:
            raise CodecError(f"unsupported RJPG version {version}")
        offset = 4 + struct.calcsize("<BBBHH")
        specs: List[TableSpec] = []
        for _ in range(4):
            spec, offset = _read_table(data, offset)
            specs.append(spec)
        lengths = struct.unpack_from("<3I", data, offset)
        offset += 12
        streams: List[bytes] = []
        for length in lengths:
            streams.append(data[offset : offset + length])
            offset += length
        return _Frame(
            quality, bool(subsample_flag), h, w, tuple(specs), tuple(streams)
        )


def encode(rgb: np.ndarray, quality: int = 75, subsample: bool = True) -> bytes:
    """Compress an H×W×3 uint8 RGB image (:func:`encode_batch` of one)."""
    return encode_batch([rgb], quality=quality, subsample=subsample)[0]


def encode_reference(
    rgb: np.ndarray, quality: int = 75, subsample: bool = True
) -> bytes:
    """:func:`encode` with the symbol-at-a-time entropy coder (the
    executable spec; byte-identical output)."""
    _check_image(rgb)
    luma_q = quant.scaled_table(quant.LUMA_BASE, quality)
    chroma_q = quant.scaled_table(quant.CHROMA_BASE, quality)
    planes = _component_planes(rgb, subsample)
    encoded = [
        _encode_plane(dct.pad_to_blocks(plane), luma_q if i == 0 else chroma_q)
        for i, plane in enumerate(planes)
    ]

    dc_luma = HuffmanTable.from_frequencies(_collect_frequencies(encoded[0][1]))
    ac_luma = HuffmanTable.from_frequencies(_collect_frequencies(encoded[0][2]))
    dc_chroma = HuffmanTable.from_frequencies(
        _collect_frequencies(encoded[1][1] + encoded[2][1])
    )
    ac_chroma = HuffmanTable.from_frequencies(
        _collect_frequencies(encoded[1][2] + encoded[2][2])
    )

    streams = []
    for i, (_q, dc_events, ac_events) in enumerate(encoded):
        dc_table = dc_luma if i == 0 else dc_chroma
        ac_table = ac_luma if i == 0 else ac_chroma
        writer = BitWriter()
        for dc_ev, ac_ev in zip(dc_events, ac_events):
            for symbol, amp, size in dc_ev:
                dc_table.write_symbol(writer, symbol)
                writer.write(amp, size)
            for symbol, amp, size in ac_ev:
                ac_table.write_symbol(writer, symbol)
                writer.write(amp, size)
        streams.append(writer.getvalue())
    return _frame(
        quality,
        subsample,
        rgb.shape[:2],
        [dc_luma, ac_luma, dc_chroma, ac_chroma],
        streams,
    )


def encode_batch(
    images: Sequence[np.ndarray],
    quality: int = 75,
    subsample: bool = True,
) -> List[bytes]:
    """Compress a stack of same-shape images, batching the transform.

    Color conversion, padding, blockify, DCT and quantization run once
    over the whole stack (images are stacked into one tall plane per
    component, so the 8×8 matmuls amortize across the batch); the
    per-image entropy stage then slices out each image's blocks.  Output
    is byte-for-byte what :func:`encode_reference` produces per image.
    """
    images = list(images)
    if not images:
        return []
    first = images[0]
    _check_image(first)
    if any(im.shape != first.shape or im.dtype != first.dtype for im in images):
        # Mixed shapes: no batching win to be had, encode one by one.
        return [
            encode_batch([im], quality=quality, subsample=subsample)[0]
            for im in images
        ]

    h, w = first.shape[:2]
    batch = len(images)
    luma_q = quant.scaled_table(quant.LUMA_BASE, quality)
    chroma_q = quant.scaled_table(quant.CHROMA_BASE, quality)

    # Stack images vertically: every per-plane op below (color matrix,
    # 2×2 pooling, 8×8 blocking) is local to row groups whose heights
    # are multiples of the padded image height, so images never mix.
    pad_h = (-h) % (16 if subsample else 8)
    pad_w = (-w) % (16 if subsample else 8)
    stacked = np.stack(images)
    if pad_h or pad_w:
        stacked = np.pad(
            stacked, ((0, 0), (0, pad_h), (0, pad_w), (0, 0)), mode="edge"
        )
    ph, pw = h + pad_h, w + pad_w
    tall = stacked.reshape(batch * ph, pw, 3)
    planes = list(color.rgb_to_ycbcr_planes(tall))
    if subsample:
        planes = [planes[0]] + [color.subsample_420(p) for p in planes[1:]]

    results: List[List[entropy_fast.PlaneSymbols]] = [[] for _ in range(batch)]
    for i, plane in enumerate(planes):
        table = luma_q if i == 0 else chroma_q
        plane = dct.pad_to_blocks(plane)
        quantized = _quantized_blocks(plane, table)
        per_image = quantized.shape[0] // batch
        for j in range(batch):
            results[j].append(
                entropy_fast.plane_symbols(
                    quantized[j * per_image : (j + 1) * per_image]
                )
            )

    out: List[bytes] = []
    for symbols in results:
        streams, tables = _entropy_encode_planes(symbols)
        out.append(_frame(quality, subsample, (h, w), tables, streams))
    return out



# The batched transform pays off by amortizing numpy dispatch across
# small frames, but its float64 working set must stay in the per-core
# L2 (2 MB on the 2-core VM): colour conversion alone took 1.67 ms per
# 256×256 image in a 4-image chunk against 1.20 ms for one image.  So
# the chunk size keeps roughly this many pixels in flight.  Median
# full-frame transform ms/image over 32 corpus-like images on the 2-core
# VM, budget 262,144 → 65,536: 64² (chunk 64 → 16) 0.229 → 0.155,
# 128² (16 → 4) 0.900 → 0.563, 256² (4 → 1) 2.024 → 1.852; 512² stays
# at 1.
_TRANSFORM_PIXEL_BUDGET = 65_536


def transform_chunk_images(h: int, w: int) -> int:
    """Images of ``h``×``w`` pixels per batched transform pass."""
    return max(1, _TRANSFORM_PIXEL_BUDGET // max(1, h * w))


# Lock-step entropy decode beats the per-stream walk once its fixed
# numpy-dispatch cost per iteration is spread over enough lanes.  The
# walk splits every stream into segment lanes
# (:func:`entropy_fast.decode_planes_batch`) and decodes a symbol pair
# per LUT entry, so two or three 256x256 images already fill it.  The
# group walk (``_entropy_decode_group``) against per-image
# ``entropy_fast.decode_plane`` on corpus-like quality-80 images, median
# per-image/group ratio of 21-31 interleaved rounds, one pinned core of
# the 2-core VM:
#
#   images   256x256      128x128      64x64
#   2        1.11-1.12x   0.37x        0.19x
#   3        1.48-1.54x
#   4        1.85-1.92x   0.71x        0.35x
#   6        2.49x        0.97-1.00x
#   8        2.85x        1.21-1.25x   0.67x
#   12                    1.79x        0.94-0.97x
#   16                    2.08x        1.17-1.20x
#
# The one-symbol walk broke even at 4-5 images of 256x256, ~13 of
# 128x128 and ~25 of 64x64 (calibration 6); the two-symbol walk breaks
# even below 2, at ~6 and at ~12-13.  Calibration 3 gives crossovers of
# 3, 6 and 12 through :func:`lockstep_min_images`.
# ``benchmarks/bench_speed_floors.py::
# test_jpeg_segmented_lockstep_speedup_at_batch_32`` holds the batch-32
# ratio to a floor.
_LOCKSTEP_MIN_IMAGES = 3

# Smaller planes cut fewer segments (each keeps at least
# ``entropy_fast._MIN_SEGMENT_BLOCKS`` blocks) and amortize the walk's
# fixed setup over fewer symbols, so they need proportionally more
# streams, roughly with the square root of the block deficit (the
# measured crossovers above).
_LOCKSTEP_REF_BLOCKS = 1024


def lockstep_min_images(luma_blocks: int) -> int:
    """The measured lock-step crossover (in streams) for planes of
    ``luma_blocks`` 8x8 blocks.

    Derived from the calibrated 256x256 crossover: the per-iteration
    dispatch cost is geometry-independent, but the fixed per-stream
    setup is amortized over fewer symbols on small planes, pushing the
    crossover up roughly with the square root of the block deficit.
    """
    if luma_blocks <= 0:
        return _LOCKSTEP_MIN_IMAGES
    scale = max(1.0, _LOCKSTEP_REF_BLOCKS / luma_blocks) ** 0.5
    return max(2, int(round(_LOCKSTEP_MIN_IMAGES * scale)))


def _decode_plane_reference(
    stream: bytes, dc_t: HuffmanTable, ac_t: HuffmanTable, n_blocks: int
) -> np.ndarray:
    """Symbol-at-a-time twin of :func:`entropy_fast.decode_plane`."""
    reader = BitReader(stream)
    blocks = np.empty((n_blocks, 8, 8), dtype=np.int32)
    prev_dc = 0
    for b in range(n_blocks):
        blocks[b], prev_dc = decode_block(reader, dc_t, ac_t, prev_dc)
    return blocks


def _entropy_decode_planes(
    frame: _Frame,
    geometry: _PlaneGeometry,
    decode_plane: Callable[[bytes, HuffmanTable, HuffmanTable, int], np.ndarray],
) -> List[np.ndarray]:
    """One image's quantized 8×8 blocks per plane, each plane's stream
    walked on its own by ``decode_plane``."""
    dc_luma, ac_luma, dc_chroma, ac_chroma = (
        table_from_spec(s) for s in frame.specs
    )
    tables = [(dc_luma, ac_luma), (dc_chroma, ac_chroma), (dc_chroma, ac_chroma)]
    return [
        decode_plane(stream, dc_t, ac_t, (shape[0] // 8) * (shape[1] // 8))
        for stream, shape, (dc_t, ac_t) in zip(
            frame.streams, geometry.plane_shapes, tables
        )
    ]


def _entropy_decode_group(
    frames: Sequence[_Frame], geometry: _PlaneGeometry
) -> List[List[np.ndarray]]:
    """Per-image quantized blocks for a geometry group, Huffman-decoded
    in two lock-step walks (:func:`entropy_fast.decode_planes_batch`):
    one over every luma stream, one over every chroma stream.  The walk
    cuts each stream into segment lanes of similar length, so one walk
    over all three planes would not stall on long streams either.  It
    was bit-identical and faster (44.2 against 49.8 ms per 32 corpus-like
    256×256 images), but its peak allocation rose from 20.4 to 27.2 MB,
    so the planes keep separate walks for memory."""
    luma_tasks = []
    chroma_tasks = []
    shapes = geometry.plane_shapes
    nb = [(s[0] // 8) * (s[1] // 8) for s in shapes]
    for f in frames:
        dc_luma, ac_luma, dc_chroma, ac_chroma = (
            table_from_spec(s) for s in f.specs
        )
        luma_tasks.append((f.streams[0], dc_luma, ac_luma, nb[0]))
        chroma_tasks.append((f.streams[1], dc_chroma, ac_chroma, nb[1]))
        chroma_tasks.append((f.streams[2], dc_chroma, ac_chroma, nb[2]))
    luma = entropy_fast.decode_planes_batch(luma_tasks)
    chroma = entropy_fast.decode_planes_batch(chroma_tasks)
    return [
        [luma[i], chroma[2 * i], chroma[2 * i + 1]]
        for i in range(len(frames))
    ]


def _mcu_span(
    starts: Sequence[int], length: int, mcu: int, total: int
) -> Tuple[int, List[int]]:
    """The MCUs a chunk's windows need along one axis: the widest span
    any window ``[start, start + length)`` touches, and each image's
    first MCU, clamped so that span stays inside the ``total`` MCUs of
    the frame.  One span for the whole chunk lets its blocks stack."""
    firsts = [start // mcu for start in starts]
    span = max(
        -(-(start + length) // mcu) - first for start, first in zip(starts, firsts)
    )
    return span, [min(first, total - span) for first in firsts]


def _colour_span(starts: Sequence[int], length: int, cell: int) -> Tuple[int, int]:
    """The rows (or columns) of a stacked chunk to colour-convert: the
    union of every window ``[start, start + length)``, widened to whole
    ``cell``-pixel chroma cells (2 for 4:2:0, 1 for 4:4:4)."""
    lo = min(start - start % cell for start in starts)
    hi = max(-(-(start + length) // cell) * cell for start in starts)
    return lo, hi


def _transform(
    frames: Sequence[_Frame],
    geometry: _PlaneGeometry,
    per_image: Sequence[Sequence[np.ndarray]],
    windows: Sequence[Window],
    dests: Sequence[np.ndarray],
) -> None:
    """The transform stage for a chunk of frames that share one geometry
    key and one window size: write each frame's window (mirrored when
    its ``flip`` is set) into its ``dests`` entry, an ``oh×ow×3`` uint8
    array of any strides.  A full-frame decode is the window that covers
    the frame.

    Only the MCU rows and columns a window touches are dequantized and
    inverse transformed; the chunk's windows share the widest such span
    (:func:`_mcu_span`), so their blocks stack into one tall plane per
    component — the mirror image of :func:`encode_batch`'s layout: the
    per-plane ops are local to row groups, so images never mix.  Colour
    conversion covers only the windows, widened to whole chroma cells
    (:func:`_colour_span`).  Every step is the same per-block or
    per-pixel float64 arithmetic as the full-frame decode, so a window's
    pixels are bit-identical to the same window cut from the full frame.
    """
    first = frames[0]
    n = len(frames)
    oh, ow = windows[0].height, windows[0].width
    mcu = geometry.mcu
    luma_h, luma_w = geometry.luma_shape
    span_r, first_r = _mcu_span([w.top for w in windows], oh, mcu, luma_h // mcu)
    span_c, first_c = _mcu_span([w.left for w in windows], ow, mcu, luma_w // mcu)
    luma_q = quant.scaled_table(quant.LUMA_BASE, first.quality)
    chroma_q = quant.scaled_table(quant.CHROMA_BASE, first.quality)
    planes: List[np.ndarray] = []
    for p, (shape, qtable) in enumerate(
        zip(geometry.plane_shapes, [luma_q, chroma_q, chroma_q])
    ):
        # Blocks per MCU side: 2 for 4:2:0 luma, 1 for every other plane.
        per = mcu // 8 if p == 0 else 1
        grid = (shape[0] // 8, shape[1] // 8, 8, 8)
        picked = [
            blocks[p].reshape(grid)[
                r * per : (r + span_r) * per, c * per : (c + span_c) * per
            ]
            for blocks, r, c in zip(per_image, first_r, first_c)
        ]
        stacked = picked[0] if n == 1 else np.concatenate(picked)
        coeffs = quant.dequantize(stacked, qtable).reshape(-1, 8, 8)
        rows, cols = span_r * per * 8, span_c * per * 8
        plane = dct.unblockify(dct.idct2(coeffs), (n * rows, cols))
        plane += 128.0
        planes.append(plane.reshape(n, rows, cols))

    cell = 2 if first.subsample else 1
    tops = [w.top - r * mcu for w, r in zip(windows, first_r)]
    lefts = [w.left - c * mcu for w, c in zip(windows, first_c)]
    r_lo, r_hi = _colour_span(tops, oh, cell)
    c_lo, c_hi = _colour_span(lefts, ow, cell)
    y = planes[0][:, r_lo:r_hi, c_lo:c_hi]
    cb, cr = (
        p[:, r_lo // cell : r_hi // cell, c_lo // cell : c_hi // cell]
        for p in planes[1:]
    )
    channels = (
        color.rgb_channels_420(y, cb, cr) if first.subsample
        else color.rgb_channels(y, cb, cr)
    )
    targets = [
        (dest[:, ::-1] if w.flip else dest, t - r_lo, l - c_lo)
        for dest, w, t, l in zip(dests, windows, tops, lefts)
    ]
    for i, channel in enumerate(channels):
        for k, (dest, t, l) in enumerate(targets):
            dest[..., i] = channel[k, t : t + oh, l : l + ow]


def decode(data: bytes) -> np.ndarray:
    """Decompress back to H×W×3 uint8 RGB (:func:`decode_batch` of one)."""
    return decode_batch([data])[0]


def decode_reference(data: bytes) -> np.ndarray:
    """:func:`decode` with the symbol-at-a-time entropy decoder (the
    executable spec; identical pixels).  The transform stage is the
    shared one."""
    frame = _parse_frame(bytes(data))
    geometry = _plane_geometry(frame.subsample, frame.h, frame.w)
    image = np.empty((frame.h, frame.w, 3), dtype=np.uint8)
    with _malformed_is_codec_error():
        blocks = _entropy_decode_planes(
            frame, geometry, _decode_plane_reference
        )
        _transform([frame], geometry, [blocks], [_full_window(frame)], [image])
    return image


def _full_window(frame: _Frame) -> Window:
    return Window(0, 0, frame.h, frame.w)


def _checked_window(window: Sequence, frame: _Frame) -> Window:
    window = Window(*window)
    top, left, height, width, _ = window
    if not (
        0 <= top and 0 < height and top + height <= frame.h
        and 0 <= left and 0 < width and left + width <= frame.w
    ):
        raise CodecError(
            f"window {tuple(window)} lies outside a {frame.h}x{frame.w} frame"
        )
    return window


def decode_batch(
    datas: Sequence[bytes],
    *,
    out: Optional[np.ndarray] = None,
    windows: Optional[Sequence[Sequence]] = None,
) -> List[np.ndarray]:
    """Decode a batch of streams, batching the transform stage.

    Frames are grouped by (quality, subsample, h, w) and window size.  A
    group's entropy stage walks each image's streams on their own below
    the lock-step crossover for its geometry (:func:`lockstep_min_images`)
    and in one lock-step walk per plane kind at or above it; its
    transform stage runs in chunks of :func:`transform_chunk_images`
    images (see :func:`_transform`).  Output is pixel-identical to
    :func:`decode_reference` per item, in input order.

    ``windows`` (one :class:`Window`, or a ``(top, left, height, width,
    flip)`` tuple, per stream) decodes each stream's window only: item
    ``i`` is ``decode_reference(datas[i])[top:top + height,
    left:left + width]``, reversed along its width when ``flip`` is set.
    Without it every frame is decoded whole.

    ``out`` (an ``N×h×w×3`` uint8 stack, ``h×w`` the window size)
    receives the images in place — the arena path: nothing is stacked
    and no per-image result arrays outlive the call.  With ``out`` every
    image must have the stack's shape.
    """
    datas = list(datas)
    if out is not None and len(out) != len(datas):
        raise CodecError(
            f"out= holds {len(out)} slots for {len(datas)} streams"
        )
    frames = [_parse_frame(bytes(data)) for data in datas]
    if windows is None:
        wins = [_full_window(frame) for frame in frames]
    else:
        if len(windows) != len(frames):
            raise CodecError(
                f"{len(windows)} windows for {len(frames)} streams"
            )
        wins = [_checked_window(w, f) for w, f in zip(windows, frames)]
    groups: Dict[Tuple, List[int]] = {}
    for i, (frame, win) in enumerate(zip(frames, wins)):
        groups.setdefault(
            (frame.geometry_key, win.height, win.width), []
        ).append(i)
    if out is None:
        dests = [np.empty((w.height, w.width, 3), dtype=np.uint8) for w in wins]
    else:
        dests = out
        for w in wins:
            if (w.height, w.width, 3) != out.shape[1:]:
                raise CodecError(
                    f"decode out= expects uniform {out.shape[1:]} images, "
                    f"got {(w.height, w.width, 3)}"
                )
    with _malformed_is_codec_error():
        for indices in groups.values():
            group = [frames[i] for i in indices]
            first = group[0]
            geometry = _plane_geometry(first.subsample, first.h, first.w)
            luma_h, luma_w = geometry.luma_shape
            if len(group) >= lockstep_min_images((luma_h // 8) * (luma_w // 8)):
                blocks = _entropy_decode_group(group, geometry)
            else:
                blocks = [
                    _entropy_decode_planes(f, geometry, entropy_fast.decode_plane)
                    for f in group
                ]
            chunk = transform_chunk_images(first.h, first.w)
            for start in range(0, len(group), chunk):
                part = indices[start : start + chunk]
                _transform(
                    group[start : start + chunk],
                    geometry,
                    blocks[start : start + chunk],
                    [wins[i] for i in part],
                    [dests[i] for i in part],
                )
    return dests  # type: ignore[return-value]
