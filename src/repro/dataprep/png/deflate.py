"""Deflate-style entropy coding of the LZ77 token stream.

Uses the real deflate alphabets — literal/length symbols 0..285 with the
standard extra-bit tables, distance symbols 0..29 — and canonical
Huffman codes built from the actual stream statistics ("dynamic Huffman"
mode), shipped as (BITS, HUFFVAL) specs in the header.  The Huffman
machinery is shared with the JPEG codec.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

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


# Lock-step token decode beats the per-stream loop only once its fixed
# numpy-dispatch cost per token row (four masked phases over shared
# windows) is amortized over enough streams.  The crossover is
# content-dependent: literal-heavy payloads (noise-like filter
# residuals) cross near ~140 streams because match phases are skipped,
# match-heavy payloads closer to ~350.  192 is the measured middle
# ground for photo-like PNG batches.
_LOCKSTEP_MIN_STREAMS = 192

# Array mirrors for the lock-step walk (uint64 domain: they mix with
# bit cursors and 64-bit windows).
_LENGTH_BASE_U64 = np.array(_LENGTH_BASE, dtype=np.uint64)
_LENGTH_EXTRA_U64 = np.array(_LENGTH_EXTRA, dtype=np.uint64)
_DIST_BASE_U64 = np.array(_DIST_BASE, dtype=np.uint64)
_DIST_EXTRA_U64 = np.array(_DIST_EXTRA, dtype=np.uint64)

#: Event rows are stored in chunked matrices of this many iterations
#: (bounds transient memory without per-iteration list appends).
_CHUNK_ROWS = 256


def decompress_batch(datas: Sequence[bytes]) -> List[bytes]:
    """Decompress many streams, decoding their Huffman tokens in
    lock-step (the PR 4 SIMD discipline, extended to the inflate path).

    One vectorized walk advances a bit cursor per stream and decodes
    one litlen symbol (plus its masked length-extra / distance-symbol /
    distance-extra phases) per iteration across every live stream; the
    serial LZ77 expansion then runs per stream over the recorded token
    matrix, with literal runs emitted as single slices.  Byte-identical
    to :func:`decompress` per item; malformed streams are re-decoded on
    the per-stream path so they raise exactly the reference error.

    Below the measured crossover ``_LOCKSTEP_MIN_STREAMS`` the
    per-stream loop is used directly.
    """
    datas = [bytes(d) for d in datas]
    if len(datas) < _LOCKSTEP_MIN_STREAMS:
        return [decompress(d) for d in datas]
    try:
        parsed = [_parse_stream(d) for d in datas]
    except CodecError:
        # At least one malformed header: per-stream decode reports it
        # with the exact reference error (in input order).
        return [decompress(d) for d in datas]
    return _decompress_lockstep(datas, parsed)


def _parse_stream(data: bytes):
    """(expected_len, litlen runtime, dist runtime | None, payload)."""
    try:
        (expected_len,) = struct.unpack_from("<I", data, 0)
        offset = 4
        litlen_spec, offset = _read_table(data, offset)
        lit_rt = table_runtime(litlen_spec)
        has_dist = data[offset]
        offset += 1
        dist_rt = None
        if has_dist:
            dist_spec, offset = _read_table(data, offset)
            dist_rt = table_runtime(dist_spec)
        return expected_len, lit_rt, dist_rt, data[offset:]
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        raise CodecError(f"malformed deflate stream: {exc}") from exc


def _decompress_lockstep(datas: List[bytes], parsed: List) -> List[bytes]:
    from repro.dataprep.jpeg.huffman import bit_windows_array

    n = len(datas)
    expected = [p[0] for p in parsed]
    payloads = [p[3] for p in parsed]

    # Flat per-stream windows: window index = woff[s] + (pos[s] >> 3).
    wins = [bit_windows_array(p) for p in payloads]
    woff = np.zeros(n, dtype=np.uint64)
    woff[1:] = np.cumsum([len(w) for w in wins[:-1]])
    warr = np.concatenate(wins)
    total_bits = np.array([len(p) * 8 for p in payloads], dtype=np.uint64)

    # Flat LUTs with per-stream offsets and widths.  The peek uses each
    # stream's own width via ``>> (63 - bits) >> 1`` (two shifts keep
    # the shift count in 0..63 even for 0-bit reads).
    lit_luts = [np.asarray(p[1].lut, dtype=np.int64) for p in parsed]
    lit_off = np.zeros(n, dtype=np.uint64)
    lit_off[1:] = np.cumsum([lu.size for lu in lit_luts[:-1]])
    lit_flat = np.concatenate(lit_luts)
    lit_shift = np.array(
        [63 - p[1].lut_bits for p in parsed], dtype=np.uint64
    )
    # Streams without a distance table get a 2-entry invalid LUT: any
    # match attempt decodes entry 0 and the lane falls back per-stream
    # (which raises the exact "no distance table" error).
    dist_luts = [
        np.asarray(p[2].lut, dtype=np.int64)
        if p[2] is not None
        else np.zeros(2, dtype=np.int64)
        for p in parsed
    ]
    dist_off = np.zeros(n, dtype=np.uint64)
    dist_off[1:] = np.cumsum([lu.size for lu in dist_luts[:-1]])
    dist_flat = np.concatenate(dist_luts)
    dist_shift = np.array(
        [63 - (p[2].lut_bits if p[2] is not None else 1) for p in parsed],
        dtype=np.uint64,
    )

    pos = np.zeros(n, dtype=np.uint64)
    done = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    t_end = np.full(n, -1, dtype=np.int64)
    prev_pos = pos.copy()
    SEVEN = np.uint64(7)
    THREE = np.uint64(3)
    ONE = np.uint64(1)
    K29 = np.uint64(29)

    def peek(width_shift: np.ndarray) -> np.ndarray:
        """Next bits of every stream at its cursor, MSB-aligned to each
        stream's width (``width_shift`` = 63 - width)."""
        win = warr[(pos >> THREE) + woff]
        return ((win << (pos & SEVEN)) >> width_shift) >> ONE

    sym_chunks: List[np.ndarray] = []
    md_chunks: List[np.ndarray] = []
    T = 0
    row = _CHUNK_ROWS  # force allocation on the first iteration
    while not done.all():
        if row == _CHUNK_ROWS:
            sym_chunks.append(np.zeros((_CHUNK_ROWS, n), dtype=np.uint16))
            md_chunks.append(np.zeros((_CHUNK_ROWS, n), dtype=np.uint32))
            row = 0
        active = ~done

        # Phase A: one litlen symbol per stream.
        entry = lit_flat[peek(lit_shift) + lit_off]
        sym = (entry >> 5) * active
        pos += (entry & 31).astype(np.uint64) * active

        # Phases B-D fire only when some lane decoded a match this
        # iteration — filtered PNG residuals are literal-heavy, so most
        # iterations skip three of the four window reads.
        ismatch = active & (sym > END_OF_BLOCK)
        if ismatch.any():
            # Phase B: length extra bits (match lanes only).
            lidx = np.minimum(np.maximum(sym - 257, 0), 28)
            failed |= ismatch & (sym - 257 > 28)
            nb = _LENGTH_EXTRA_U64[lidx] * ismatch
            length = (_LENGTH_BASE_U64[lidx] + peek(63 - nb)) * ismatch
            pos += nb

            # Phase C: distance symbol (match lanes only).
            dentry = dist_flat[peek(dist_shift) + dist_off]
            dstall = ismatch & (dentry == 0)
            dsym = ((dentry >> 5) * ismatch).astype(np.uint64)
            failed |= ismatch & (dsym > K29)
            pos += (dentry & 31).astype(np.uint64) * ismatch

            # Phase D: distance extra bits (match lanes only).
            dnb = _DIST_EXTRA_U64[np.minimum(dsym, K29)] * ismatch
            distance = _DIST_BASE_U64[np.minimum(dsym, K29)] + peek(63 - dnb)
            distance *= ismatch
            pos += dnb

            failed |= dstall
            md_chunks[-1][row] = (length << np.uint64(16)) | distance
        # else: the pre-zeroed md row already encodes "no match".

        # A consumed token that ran past its stream is an underrun.
        over = active & (pos > total_bits)
        failed |= over
        np.minimum(pos, total_bits, out=pos)

        sym_chunks[-1][row] = sym

        isend = active & (sym == END_OF_BLOCK)
        t_end[isend] = T
        done |= isend | failed
        row += 1
        T += 1
        if T % 64 == 0:
            # An invalid litlen prefix never advances its cursor; flag
            # stalled lanes so the per-stream path raises for them.
            stalled = ~done & (pos == prev_pos)
            failed |= stalled
            done |= stalled
            np.copyto(prev_pos, pos)

    sym_mat = np.concatenate(sym_chunks)[:T]
    md_mat = np.concatenate(md_chunks)[:T]

    out: List[Optional[bytes]] = [None] * n
    for s in range(n):
        if not failed[s] and t_end[s] >= 0:
            out[s] = _expand_lane(
                sym_mat[: t_end[s], s], md_mat[: t_end[s], s], expected[s]
            )
        if out[s] is None:
            # Malformed (or lock-step-inapplicable) lane: the reference
            # path reproduces the exact CodecError.
            out[s] = decompress(datas[s])
    return out  # type: ignore[return-value]


def _expand_lane(
    syms: np.ndarray, mds: np.ndarray, expected_len: int
) -> Optional[bytes]:
    """LZ77 expansion of one stream's token column; literal runs are
    emitted as single slices.  None marks a malformed token stream (the
    caller re-decodes it per-stream for the exact error)."""
    matches = np.flatnonzero(syms > END_OF_BLOCK)
    lit = syms.astype(np.uint8)
    if matches.size == 0:
        body = lit.tobytes()
        return body if len(body) == expected_len else None
    lens = (mds[matches] >> 16).tolist()
    dists = (mds[matches] & 0xFFFF).tolist()
    buf = bytearray()
    prev = 0
    for m, length, distance in zip(matches.tolist(), lens, dists):
        if m > prev:
            buf += lit[prev:m].tobytes()
        produced = len(buf)
        if (
            produced + length > expected_len
            or distance == 0
            or distance > produced
        ):
            return None
        start = produced - distance
        if distance >= length:
            buf += buf[start : start + length]
        else:
            seg = bytes(buf[start:])
            reps = -(-length // distance)
            buf += (seg * reps)[:length]
        prev = m + 1
    if prev < syms.size:
        buf += lit[prev:].tobytes()
    return bytes(buf) if len(buf) == expected_len else None


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
