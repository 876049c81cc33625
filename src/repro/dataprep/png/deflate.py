"""Deflate-style entropy coding of the LZ77 token stream.

Uses the real deflate alphabets — literal/length symbols 0..285 with the
standard extra-bit tables, distance symbols 0..29 — and canonical
Huffman codes built from the actual stream statistics ("dynamic Huffman"
mode), shipped as (BITS, HUFFVAL) specs in the header.  The Huffman
machinery is shared with the JPEG codec.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

from repro.errors import CodecError
from repro.dataprep.jpeg.huffman import (
    BitReader,
    BitWriter,
    HuffmanTable,
    TableSpec,
    bit_windows,
    pack_bits,
    table_runtime,
)
from repro.dataprep.png.lz77 import Match, Token, expand, tokenize

END_OF_BLOCK = 256

# RFC 1951 §3.2.5: length codes 257..285.
_LENGTH_BASE = (
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51,
    59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
)
_LENGTH_EXTRA = (
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
    4, 5, 5, 5, 5, 0,
)

# Distance codes 0..29.
_DIST_BASE = (
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
    513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
)
_DIST_EXTRA = (
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
    10, 11, 11, 12, 12, 13, 13,
)


def _code_for(value: int, bases: Tuple[int, ...], extras: Tuple[int, ...]) -> Tuple[int, int, int]:
    """(code index, extra-bit count, extra-bit value) for a length or
    distance."""
    for idx in range(len(bases) - 1, -1, -1):
        if value >= bases[idx]:
            return idx, extras[idx], value - bases[idx]
    raise CodecError(f"value {value} below alphabet base")


def length_symbol(length: int) -> Tuple[int, int, int]:
    idx, nbits, extra = _code_for(length, _LENGTH_BASE, _LENGTH_EXTRA)
    return 257 + idx, nbits, extra


def distance_symbol(distance: int) -> Tuple[int, int, int]:
    idx, nbits, extra = _code_for(distance, _DIST_BASE, _DIST_EXTRA)
    return idx, nbits, extra


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


# Array mirrors of the alphabet tables for the vectorized encoder.
_LENGTH_BASE_ARR = np.array(_LENGTH_BASE, dtype=np.int64)
_LENGTH_EXTRA_ARR = np.array(_LENGTH_EXTRA, dtype=np.int64)
_DIST_BASE_ARR = np.array(_DIST_BASE, dtype=np.int64)
_DIST_EXTRA_ARR = np.array(_DIST_EXTRA, dtype=np.int64)


def compress(data: bytes, max_chain: int = 32) -> bytes:
    """LZ77 + dynamic canonical Huffman, one block.

    Vectorized encoder: length/distance symbols come from
    ``np.searchsorted`` over the alphabet bases, symbol frequencies from
    ``np.bincount``, and the payload from one :func:`pack_bits` call over
    the per-field ``(value, width)`` arrays scattered into stream order.
    Byte-identical to :func:`compress_reference`.
    """
    tokens = tokenize(data, max_chain=max_chain)

    lit_vals: List[int] = []
    match_lens: List[int] = []
    match_dists: List[int] = []
    flags: List[bool] = []
    for token in tokens:
        if isinstance(token, Match):
            flags.append(True)
            match_lens.append(token.length)
            match_dists.append(token.distance)
        else:
            flags.append(False)
            lit_vals.append(token)

    flags_arr = np.array(flags, dtype=bool)
    lit_arr = np.array(lit_vals, dtype=np.int64)
    len_arr = np.array(match_lens, dtype=np.int64)
    dist_arr = np.array(match_dists, dtype=np.int64)

    lidx = np.searchsorted(_LENGTH_BASE_ARR, len_arr, side="right") - 1
    lsym = lidx + 257
    lbits = _LENGTH_EXTRA_ARR[lidx]
    lextra = len_arr - _LENGTH_BASE_ARR[lidx]
    didx = np.searchsorted(_DIST_BASE_ARR, dist_arr, side="right") - 1
    dbits = _DIST_EXTRA_ARR[didx]
    dextra = dist_arr - _DIST_BASE_ARR[didx]

    litlen_counts = np.bincount(
        np.concatenate([lit_arr, lsym]), minlength=END_OF_BLOCK + 1
    )
    litlen_counts[END_OF_BLOCK] += 1
    litlen_freq = {
        int(s): int(c) for s, c in enumerate(litlen_counts) if c
    }
    dist_freq = {
        int(s): int(c) for s, c in enumerate(np.bincount(didx)) if c
    }

    litlen = HuffmanTable.from_frequencies(litlen_freq)
    dist = HuffmanTable.from_frequencies(dist_freq) if dist_freq else None

    lit_rt = table_runtime(litlen.spec)
    nfields = np.where(flags_arr, 4, 1)
    total = int(nfields.sum()) + 1  # + END_OF_BLOCK
    values = np.zeros(total, dtype=np.int64)
    widths = np.zeros(total, dtype=np.int64)
    starts = np.zeros(len(tokens), dtype=np.int64)
    if len(tokens) > 1:
        np.cumsum(nfields[:-1], out=starts[1:])
    ls = starts[~flags_arr]
    values[ls] = lit_rt.enc_code[lit_arr]
    widths[ls] = lit_rt.enc_len[lit_arr]
    if dist is not None:
        dist_rt = table_runtime(dist.spec)
        ms = starts[flags_arr]
        values[ms] = lit_rt.enc_code[lsym]
        widths[ms] = lit_rt.enc_len[lsym]
        values[ms + 1] = lextra
        widths[ms + 1] = lbits
        values[ms + 2] = dist_rt.enc_code[didx]
        widths[ms + 2] = dist_rt.enc_len[didx]
        values[ms + 3] = dextra
        widths[ms + 3] = dbits
    values[total - 1] = lit_rt.enc_code[END_OF_BLOCK]
    widths[total - 1] = lit_rt.enc_len[END_OF_BLOCK]
    payload = pack_bits(values, widths)

    out = bytearray()
    out.extend(struct.pack("<I", len(data)))
    _write_table(litlen.spec, out)
    out.append(1 if dist is not None else 0)
    if dist is not None:
        _write_table(dist.spec, out)
    out.extend(payload)
    return bytes(out)


def compress_reference(data: bytes, max_chain: int = 32) -> bytes:
    """Symbol-at-a-time :func:`compress` (the executable spec)."""
    tokens = tokenize(data, max_chain=max_chain)

    litlen_freq = {END_OF_BLOCK: 1}
    dist_freq = {}
    events: List[Tuple] = []
    for token in tokens:
        if isinstance(token, Match):
            lsym, lbits, lextra = length_symbol(token.length)
            dsym, dbits, dextra = distance_symbol(token.distance)
            litlen_freq[lsym] = litlen_freq.get(lsym, 0) + 1
            dist_freq[dsym] = dist_freq.get(dsym, 0) + 1
            events.append(("m", lsym, lbits, lextra, dsym, dbits, dextra))
        else:
            litlen_freq[token] = litlen_freq.get(token, 0) + 1
            events.append(("l", token))

    litlen = HuffmanTable.from_frequencies(litlen_freq)
    # The distance table may be empty when no matches exist.
    dist = HuffmanTable.from_frequencies(dist_freq) if dist_freq else None

    writer = BitWriter()
    for event in events:
        if event[0] == "l":
            litlen.write_symbol(writer, event[1])
        else:
            _, lsym, lbits, lextra, dsym, dbits, dextra = event
            litlen.write_symbol(writer, lsym)
            writer.write(lextra, lbits)
            assert dist is not None
            dist.write_symbol(writer, dsym)
            writer.write(dextra, dbits)
    litlen.write_symbol(writer, END_OF_BLOCK)
    payload = writer.getvalue()

    out = bytearray()
    out.extend(struct.pack("<I", len(data)))
    _write_table(litlen.spec, out)
    out.append(1 if dist is not None else 0)
    if dist is not None:
        _write_table(dist.spec, out)
    out.extend(payload)
    return bytes(out)


def decompress(data: bytes) -> bytes:
    """Invert :func:`compress`; malformed streams raise CodecError."""
    try:
        return _decompress_checked(data)
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        raise CodecError(f"malformed deflate stream: {exc}") from exc


def decompress_reference(data: bytes) -> bytes:
    """Symbol-at-a-time :func:`decompress` (the executable spec)."""
    try:
        return _decompress_checked_reference(data)
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        raise CodecError(f"malformed deflate stream: {exc}") from exc


def _decompress_checked(data: bytes) -> bytes:
    """Table-driven decode: one LUT probe per Huffman symbol against a
    64-bit window cursor, match copies via slices (cyclic tiling for the
    overlapping case).  Same outputs as the reference loop on well-formed
    streams; malformed streams always surface as CodecError."""
    (expected_len,) = struct.unpack_from("<I", data, 0)
    offset = 4
    litlen_spec, offset = _read_table(data, offset)
    lit_rt = table_runtime(litlen_spec)
    llut = lit_rt.lut
    lw = lit_rt.lut_bits
    lmask = (1 << lw) - 1
    has_dist = data[offset]
    offset += 1
    dlut = None
    dw = dmask = 0
    if has_dist:
        dist_spec, offset = _read_table(data, offset)
        dist_rt = table_runtime(dist_spec)
        dlut = dist_rt.lut
        dw = dist_rt.lut_bits
        dmask = (1 << dw) - 1
    payload = data[offset:]
    windows = bit_windows(payload)
    total_bits = len(payload) * 8

    out = bytearray()
    append = out.append
    pos = 0
    win = windows[0]
    s0 = s = 64
    try:
        while True:
            if s < 32:
                pos += s0 - s
                win = windows[pos >> 3]
                s0 = s = 64 - (pos & 7)
            entry = llut[(win >> (s - lw)) & lmask]
            if not entry:
                raise CodecError("invalid Huffman code in bitstream")
            s -= entry & 31
            if pos + s0 - s > total_bits:
                raise CodecError("bitstream underrun")
            symbol = entry >> 5
            if symbol < END_OF_BLOCK:
                append(symbol)
                continue
            if symbol == END_OF_BLOCK:
                break
            idx = symbol - 257
            if idx >= 29:
                raise CodecError(f"invalid length symbol {symbol}")
            nb = _LENGTH_EXTRA[idx]
            if nb:
                s -= nb
                length = _LENGTH_BASE[idx] + ((win >> s) & ((1 << nb) - 1))
            else:
                length = _LENGTH_BASE[idx]
            if dlut is None:
                raise CodecError("match emitted but no distance table present")
            if s < 32:
                pos += s0 - s
                win = windows[pos >> 3]
                s0 = s = 64 - (pos & 7)
            entry = dlut[(win >> (s - dw)) & dmask]
            if not entry:
                raise CodecError("invalid Huffman code in bitstream")
            s -= entry & 31
            dsym = entry >> 5
            if dsym >= 30:
                raise CodecError(f"invalid distance symbol {dsym}")
            nb = _DIST_EXTRA[dsym]
            if nb:
                s -= nb
                distance = _DIST_BASE[dsym] + ((win >> s) & ((1 << nb) - 1))
            else:
                distance = _DIST_BASE[dsym]
            if pos + s0 - s > total_bits:
                raise CodecError("bitstream underrun")
            produced = len(out)
            if produced + length > expected_len:
                raise CodecError("decompressed beyond the declared length")
            if distance > produced:
                raise CodecError(
                    f"match distance {distance} beyond output "
                    f"({produced} bytes)"
                )
            start = produced - distance
            if distance >= length:
                out += out[start : start + length]
            else:
                seg = bytes(out[start:])
                reps = -(-length // distance)
                out += (seg * reps)[:length]
    except IndexError:
        raise CodecError("bitstream underrun") from None
    if len(out) != expected_len:
        raise CodecError(
            f"declared {expected_len} bytes, reconstructed {len(out)}"
        )
    return bytes(out)


def _decompress_checked_reference(data: bytes) -> bytes:
    (expected_len,) = struct.unpack_from("<I", data, 0)
    offset = 4
    litlen_spec, offset = _read_table(data, offset)
    litlen = HuffmanTable(litlen_spec)
    has_dist = data[offset]
    offset += 1
    dist = None
    if has_dist:
        dist_spec, offset = _read_table(data, offset)
        dist = HuffmanTable(dist_spec)
    reader = BitReader(data[offset:])

    tokens: List[Token] = []
    produced = 0
    while True:
        symbol = litlen.read_symbol(reader)
        if symbol == END_OF_BLOCK:
            break
        if symbol < 256:
            tokens.append(symbol)
            produced += 1
            continue
        idx = symbol - 257
        if not 0 <= idx < len(_LENGTH_BASE):
            raise CodecError(f"invalid length symbol {symbol}")
        length = _LENGTH_BASE[idx] + reader.read(_LENGTH_EXTRA[idx])
        if dist is None:
            raise CodecError("match emitted but no distance table present")
        dsym = dist.read_symbol(reader)
        if not 0 <= dsym < len(_DIST_BASE):
            raise CodecError(f"invalid distance symbol {dsym}")
        distance = _DIST_BASE[dsym] + reader.read(_DIST_EXTRA[dsym])
        tokens.append(Match(length, distance))
        produced += length
        if produced > expected_len:
            raise CodecError("decompressed beyond the declared length")
    out = expand(tokens)
    if len(out) != expected_len:
        raise CodecError(
            f"declared {expected_len} bytes, reconstructed {len(out)}"
        )
    return out
