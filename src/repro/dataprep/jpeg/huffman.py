"""Entropy coding for the JPEG codec: zig-zag scan, run-length coding of
AC coefficients, differential DC coding, and canonical Huffman codes.

Like libjpeg's ``-optimize`` mode, the encoder builds Huffman tables from
the actual symbol statistics of the image (with the JPEG 16-bit code
length limit enforced by the Annex-K style adjustment) and ships the
table spec — (BITS, HUFFVAL), i.e. code-length counts plus symbol order —
in the stream header.  The decoder rebuilds the canonical code and walks
the bitstream symbol by symbol.  This is the serial, branchy phase that
makes JPEG decode a poor fit for GPUs (§V-B of the paper).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import CodecError

MAX_CODE_LENGTH = 16

_U64_MASK = (1 << 64) - 1

# -- zig-zag scan -----------------------------------------------------------


def _zigzag_order(n: int = 8) -> np.ndarray:
    """Index order of the zig-zag scan of an n×n block (flat indices)."""
    order = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        # Odd anti-diagonals run top-right → bottom-left (ascending i),
        # even ones the other way (ascending j).
        key=lambda ij: (ij[0] + ij[1], ij[0] if (ij[0] + ij[1]) % 2 else ij[1]),
    )
    return np.array([i * n + j for i, j in order])


ZIGZAG = _zigzag_order()
UNZIGZAG = np.argsort(ZIGZAG)


def zigzag_scan(block: np.ndarray) -> np.ndarray:
    """Flatten an 8×8 block in zig-zag order."""
    return block.reshape(-1)[ZIGZAG]


def zigzag_unscan(flat: np.ndarray) -> np.ndarray:
    """Rebuild an 8×8 block from a zig-zag ordered vector."""
    return flat[UNZIGZAG].reshape(8, 8)


# -- magnitude categories ---------------------------------------------------


def magnitude_category(value: int) -> int:
    """JPEG size category: number of bits needed for |value|."""
    return int(abs(int(value))).bit_length()


def encode_amplitude(value: int) -> Tuple[int, int]:
    """(size, amplitude-bits) for a coefficient, JPEG style: negative
    values are stored in one's complement of their magnitude."""
    value = int(value)
    size = magnitude_category(value)
    if size == 0:
        return 0, 0
    if value > 0:
        return size, value
    return size, value + (1 << size) - 1


def decode_amplitude(size: int, bits: int) -> int:
    """Inverse of :func:`encode_amplitude`."""
    if size == 0:
        return 0
    if bits >> (size - 1):  # top bit set → positive
        return bits
    return bits - (1 << size) + 1


# -- bit I/O -----------------------------------------------------------------


class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self) -> None:
        self._chunks: List[int] = []
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits and value >> nbits):
            raise CodecError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._chunks.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        """Finish the stream, padding the last byte with 1-bits (JPEG
        pads with 1s so a truncated EOB can't be forged from padding)."""
        out = list(self._chunks)
        if self._nbits:
            pad = 8 - self._nbits
            out.append(((self._acc << pad) | ((1 << pad) - 1)) & 0xFF)
        return bytes(out)


class BitReader:
    """MSB-first bit consumer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    def read(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        end = self._pos + nbits
        if end > len(self._data) * 8:
            raise CodecError("bitstream underrun")
        value = 0
        pos = self._pos
        while nbits:
            byte = self._data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, nbits)
            shift = avail - take
            value = (value << take) | ((byte >> shift) & ((1 << take) - 1))
            pos += take
            nbits -= take
        self._pos = pos
        return value


# -- vectorized bit I/O ------------------------------------------------------


def pack_bits(values: np.ndarray, nbits: np.ndarray) -> bytes:
    """Vectorized :class:`BitWriter`: MSB-first packing of ``(value, nbits)``
    pairs, final byte padded with 1-bits.  Byte-identical to feeding the
    pairs to ``BitWriter.write`` one at a time."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    nbits = np.ascontiguousarray(nbits, dtype=np.int64)
    if values.shape != nbits.shape or values.ndim != 1:
        raise CodecError("values and nbits must be equal-length 1-D arrays")
    if values.size == 0:
        return b""
    if np.any(nbits < 0) or np.any(nbits > 63):
        raise CodecError("bit widths must be in 0..63")
    if np.any(values >> nbits):
        raise CodecError("value does not fit in its bit width")
    total = int(nbits.sum())
    if total == 0:
        return b""
    ends = np.cumsum(nbits)
    elem = np.repeat(np.arange(values.size), nbits)
    # Bit p of the stream is bit (ends[elem]-1-p) of its element, i.e.
    # each element is emitted MSB first.
    shift = ends[elem] - 1 - np.arange(total)
    bits = ((values[elem] >> shift) & 1).astype(np.uint8)
    pad = (-total) % 8
    if pad:
        bits = np.concatenate([bits, np.ones(pad, dtype=np.uint8)])
    return np.packbits(bits).tobytes()


def bit_windows_array(data: bytes) -> np.ndarray:
    """64-bit big-endian windows of ``data`` at every byte offset, padded
    with 1-bits past the end (JPEG pads with 1s, so trailing peeks are
    harmless).  ``windows[i]`` holds bytes ``i..i+7`` MSB-first; together
    with a bit cursor this supports O(1) peeks of up to 57 bits."""
    n = len(data) + 1
    rows = -(-n // 8)
    padded = data + b"\xff" * (8 * rows - len(data) + 7)
    win = np.empty(8 * rows, dtype=np.uint64)
    # Windows at offsets j, j + 8, j + 16, ... are the big-endian words
    # of the byte string shifted by j: eight strided copies, no shifts.
    by_phase = win.reshape(rows, 8)
    for j in range(8):
        by_phase[:, j] = np.frombuffer(
            padded, dtype=">u8", count=rows, offset=j
        )
    return win[:n]


def bit_windows(data: bytes) -> List[int]:
    """:func:`bit_windows_array` as a list of Python ints (the form the
    symbol-at-a-time decode loop indexes fastest)."""
    return bit_windows_array(data).tolist()


# -- canonical Huffman -------------------------------------------------------


@dataclass(frozen=True)
class TableSpec:
    """Serializable Huffman table: JPEG's (BITS, HUFFVAL) pair.

    ``counts[i]`` is the number of codes of length ``i+1``;
    ``symbols`` lists symbols in canonical order.
    """

    counts: Tuple[int, ...]
    symbols: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != MAX_CODE_LENGTH:
            raise CodecError(f"expected {MAX_CODE_LENGTH} length counts")
        if sum(self.counts) != len(self.symbols):
            raise CodecError("counts and symbol list disagree")


def _code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Huffman code length per symbol, limited to MAX_CODE_LENGTH.

    Standard heap construction followed by the classic length-limiting
    adjustment (JPEG Annex K.3 flavor): overlong leaves are raised by
    moving a sibling pair one level down.
    """
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        return {next(iter(frequencies)): 1}
    heap: List[Tuple[int, int, object]] = []
    for i, (sym, freq) in enumerate(sorted(frequencies.items())):
        heap.append((freq, i, sym))
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, counter, (n1, n2)))
        counter += 1
    lengths: Dict[int, int] = {}

    def walk(node, depth):
        if isinstance(node, tuple):
            walk(node[0], depth + 1)
            walk(node[1], depth + 1)
        else:
            lengths[node] = max(depth, 1)

    walk(heap[0][2], 0)

    # Limit code lengths to MAX_CODE_LENGTH.
    by_length: Dict[int, int] = {}
    for length in lengths.values():
        by_length[length] = by_length.get(length, 0) + 1
    max_len = max(by_length)
    while max_len > MAX_CODE_LENGTH:
        # Take two leaves at max_len: one becomes a child of a leaf raised
        # from the deepest shorter level, net effect: counts[max_len] -= 2,
        # counts[max_len-1] += 1, counts[shorter] -= 1, counts[shorter+1] += 2.
        by_length[max_len] -= 2
        by_length[max_len - 1] = by_length.get(max_len - 1, 0) + 1
        shorter = max_len - 2
        while by_length.get(shorter, 0) == 0:
            shorter -= 1
        by_length[shorter] -= 1
        by_length[shorter + 1] = by_length.get(shorter + 1, 0) + 2
        while by_length.get(max_len, 0) == 0:
            max_len -= 1
    # Reassign lengths to symbols: shortest codes to most frequent symbols.
    ordered = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
    new_lengths: Dict[int, int] = {}
    idx = 0
    for length in sorted(k for k, v in by_length.items() if v > 0):
        for _ in range(by_length[length]):
            sym = ordered[idx][0]
            new_lengths[sym] = length
            idx += 1
    assert idx == len(ordered)
    return new_lengths


class HuffmanTable:
    """A canonical Huffman code usable for both encoding and decoding."""

    def __init__(self, spec: TableSpec) -> None:
        self.spec = spec
        self._encode: Dict[int, Tuple[int, int]] = {}
        self._decode: Dict[Tuple[int, int], int] = {}
        code = 0
        idx = 0
        for length_minus_1, count in enumerate(spec.counts):
            length = length_minus_1 + 1
            for _ in range(count):
                symbol = spec.symbols[idx]
                if symbol in self._encode:
                    raise CodecError(f"duplicate symbol {symbol} in table")
                self._encode[symbol] = (code, length)
                self._decode[(length, code)] = symbol
                code += 1
                idx += 1
            code <<= 1

    @classmethod
    def from_frequencies(cls, frequencies: Dict[int, int]) -> "HuffmanTable":
        lengths = _code_lengths(frequencies)
        counts = [0] * MAX_CODE_LENGTH
        for length in lengths.values():
            counts[length - 1] += 1
        symbols: List[int] = []
        for target in range(1, MAX_CODE_LENGTH + 1):
            # Canonical symbol order: by length, then by symbol value.
            symbols.extend(
                sorted(s for s, l in lengths.items() if l == target)
            )
        return cls(TableSpec(tuple(counts), tuple(symbols)))

    def write_symbol(self, writer: BitWriter, symbol: int) -> None:
        try:
            code, length = self._encode[symbol]
        except KeyError:
            raise CodecError(f"symbol {symbol} not in Huffman table") from None
        writer.write(code, length)

    def read_symbol(self, reader: BitReader) -> int:
        code = 0
        for length in range(1, MAX_CODE_LENGTH + 1):
            code = (code << 1) | reader.read(1)
            symbol = self._decode.get((length, code))
            if symbol is not None:
                return symbol
        raise CodecError("invalid Huffman code in bitstream")

    @property
    def runtime(self) -> "TableRuntime":
        """Memoized vectorized encode arrays + decode LUT for this code."""
        return table_runtime(self.spec)


@dataclass(frozen=True)
class TableRuntime:
    """Precomputed fast-path artifacts for one canonical code.

    ``enc_code``/``enc_len`` map a symbol to its (code, length); a length
    of 0 marks a symbol absent from the table.  ``lut`` is the classic
    full-width decode table sized to the longest code actually present:
    indexing with the next ``lut_bits`` bits of the stream yields
    ``(symbol << 5) | code_length`` (0 for invalid prefixes), so one
    list lookup replaces a bit-by-bit tree walk.
    """

    enc_code: np.ndarray
    enc_len: np.ndarray
    lut: List[int]
    lut_bits: int


@lru_cache(maxsize=512)
def table_runtime(spec: TableSpec) -> TableRuntime:
    table = table_from_spec(spec)
    max_symbol = max(spec.symbols, default=0)
    enc_code = np.zeros(max_symbol + 1, dtype=np.int64)
    enc_len = np.zeros(max_symbol + 1, dtype=np.int64)
    # Size the LUT to the longest code present (tables are optimized per
    # image, so construction cost is paid per image, not once).
    lut_bits = max(
        (i + 1 for i, c in enumerate(spec.counts) if c), default=1
    )
    lut = np.zeros(1 << lut_bits, dtype=np.int64)
    for symbol, (code, length) in table._encode.items():
        enc_code[symbol] = code
        enc_len[symbol] = length
        # Every lut_bits-wide word starting with this code decodes to
        # it; the code is prefix-free so the slices never overlap.
        start = code << (lut_bits - length)
        span = 1 << (lut_bits - length)
        lut[start : start + span] = (symbol << 5) | length
    enc_code.setflags(write=False)
    enc_len.setflags(write=False)
    return TableRuntime(enc_code, enc_len, lut.tolist(), lut_bits)


@lru_cache(maxsize=512)
def table_from_spec(spec: TableSpec) -> HuffmanTable:
    """Memoized canonical-code construction (decoders see the same spec
    for every block of a plane, and across images with common tables)."""
    return HuffmanTable(spec)


# -- block-level RLE + Huffman ----------------------------------------------

EOB = 0x00
ZRL = 0xF0


def block_symbols(
    quantized: np.ndarray, prev_dc: int
) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]], int]:
    """Symbol streams for one quantized 8×8 block.

    Returns ``(dc_events, ac_events, dc_value)`` where each event is
    ``(symbol, amplitude_bits, amplitude_size)``.
    """
    flat = zigzag_scan(quantized)
    dc = int(flat[0])
    size, amp = encode_amplitude(dc - prev_dc)
    dc_events = [(size, amp, size)]
    ac_events: List[Tuple[int, int, int]] = []
    run = 0
    coeffs = flat[1:]
    last_nonzero = np.nonzero(coeffs)[0]
    limit = int(last_nonzero[-1]) + 1 if last_nonzero.size else 0
    for value in coeffs[:limit]:
        value = int(value)
        if value == 0:
            run += 1
            if run == 16:
                ac_events.append((ZRL, 0, 0))
                run = 0
            continue
        size, amp = encode_amplitude(value)
        ac_events.append(((run << 4) | size, amp, size))
        run = 0
    if limit < coeffs.size:
        ac_events.append((EOB, 0, 0))
    return dc_events, ac_events, dc


def decode_block(
    reader: BitReader,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
    prev_dc: int,
) -> Tuple[np.ndarray, int]:
    """Decode one block; returns the quantized 8×8 block and its DC value."""
    flat = np.zeros(64, dtype=np.int32)
    size = dc_table.read_symbol(reader)
    diff = decode_amplitude(size, reader.read(size))
    dc = prev_dc + diff
    flat[0] = dc
    pos = 1
    while pos < 64:
        symbol = ac_table.read_symbol(reader)
        if symbol == EOB:
            break
        if symbol == ZRL:
            pos += 16
            continue
        run, size = symbol >> 4, symbol & 0x0F
        pos += run
        if pos >= 64 or size == 0:
            raise CodecError("corrupt AC coefficient stream")
        flat[pos] = decode_amplitude(size, reader.read(size))
        pos += 1
    return zigzag_unscan(flat), dc
