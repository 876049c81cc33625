"""Vectorized JPEG entropy stage: numpy RLE + table-driven decode.

The reference path in :mod:`repro.dataprep.jpeg.huffman` walks every
block symbol by symbol through ``BitWriter``/``BitReader``.  This module
produces *byte-identical* bitstreams an order of magnitude faster:

* encode: zig-zag, DC differencing, run-length coding and amplitude
  categories are computed for a whole plane of blocks with numpy; the
  resulting ``(code, nbits)`` arrays are packed in one shot with
  :func:`repro.dataprep.jpeg.huffman.pack_bits` (``np.packbits`` under
  the hood) instead of one ``BitWriter.write`` call per symbol.
* decode: a 16-bit lookup table (memoized per table spec) resolves each
  Huffman code with a single list index, and a precomputed 64-bit window
  array makes every peek O(1); the sequential walk that remains is the
  irreducible part of JPEG entropy decode (§V-B of the paper).

The symbol *semantics* — including ZRL runs, EOB placement and the JPEG
one's-complement amplitude convention — exactly mirror
``block_symbols``/``decode_block``, which the golden tests pin down.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodecError
from repro.dataprep.jpeg.huffman import (
    EOB,
    ZIGZAG,
    UNZIGZAG,
    ZRL,
    HuffmanTable,
    TableSpec,
    bit_windows_array,
    pack_bits,
    table_runtime,
)

_POW2 = 1 << np.arange(17, dtype=np.int64)


def _bit_sizes(values: np.ndarray) -> np.ndarray:
    """JPEG size category (``int.bit_length`` of \\|v\\|), vectorized."""
    return np.searchsorted(_POW2, np.abs(values), side="right").astype(np.int64)


@dataclass(frozen=True)
class PlaneSymbols:
    """Stream-ordered symbol arrays for one plane of quantized blocks.

    DC events (one per block) and AC events are kept separate so the
    encoder can build per-class frequency tables; ``ac_block`` maps each
    AC event back to its block and ``block_start`` gives each block's
    offset into the AC event arrays, which together pin down the exact
    interleaving of the final bitstream.
    """

    n_blocks: int
    dc_syms: np.ndarray  # (N,)  DC size-category symbols
    dc_amps: np.ndarray  # (N,)  DC amplitude bits
    ac_syms: np.ndarray  # (M,)  AC (run, size) symbols incl. ZRL/EOB
    ac_amps: np.ndarray  # (M,)  AC amplitude bits
    ac_sizes: np.ndarray  # (M,) AC amplitude bit counts
    ac_block: np.ndarray  # (M,) owning block of each AC event
    block_start: np.ndarray  # (N,) AC-array offset of each block


def plane_symbols(quantized: np.ndarray) -> PlaneSymbols:
    """Vectorized equivalent of running ``block_symbols`` over a plane."""
    q = np.asarray(quantized)
    if q.ndim != 3 or q.shape[1:] != (8, 8):
        raise CodecError(f"expected (N, 8, 8) blocks, got {q.shape}")
    n = q.shape[0]
    flat = q.reshape(n, 64)[:, ZIGZAG].astype(np.int64)

    # DC: differential coding against the previous block's DC.
    dc = flat[:, 0]
    diff = dc - np.concatenate(([0], dc[:-1]))
    dc_syms = _bit_sizes(diff)
    dc_amps = np.where(diff > 0, diff, diff + (1 << dc_syms) - 1)
    dc_amps = np.where(dc_syms == 0, 0, dc_amps)

    # AC: run-length coding of the 63 remaining coefficients per block.
    ac = flat[:, 1:]
    nz_blk, nz_pos = np.nonzero(ac)
    has_nz = np.zeros(n, dtype=bool)
    last_pos = np.zeros(n, dtype=np.int64)
    if nz_blk.size:
        has_nz[nz_blk] = True
        last_pos[nz_blk] = nz_pos  # row-major order: later wins
        first = np.empty(nz_blk.size, dtype=bool)
        first[0] = True
        first[1:] = nz_blk[1:] != nz_blk[:-1]
        prev_pos = np.where(first, -1, np.concatenate(([0], nz_pos[:-1])))
        gap = nz_pos - prev_pos - 1
        zrl_runs = gap >> 4  # each full run of 16 zeros emits a ZRL
        values = ac[nz_blk, nz_pos]
        sizes = _bit_sizes(values)
        amps = np.where(values > 0, values, values + (1 << sizes) - 1)
        syms = ((gap & 15) << 4) | sizes
        per_nz = zrl_runs + 1
        ac_count = np.bincount(
            nz_blk, weights=per_nz, minlength=n
        ).astype(np.int64)
    else:
        per_nz = np.zeros(0, dtype=np.int64)
        ac_count = np.zeros(n, dtype=np.int64)

    eob = (~has_nz) | (last_pos < 62)
    total = ac_count + eob
    block_start = np.concatenate(([0], np.cumsum(total)[:-1]))
    m = int(total.sum())
    # Unassigned slots inside a block's nonzero segment are ZRLs by
    # construction (each nonzero occupies zrl_runs slots + 1 symbol slot).
    ac_syms = np.full(m, ZRL, dtype=np.int64)
    ac_amps = np.zeros(m, dtype=np.int64)
    ac_sizes = np.zeros(m, dtype=np.int64)
    if nz_blk.size:
        before = np.concatenate(([0], np.cumsum(per_nz)[:-1]))
        # AC-event offset of each nonzero within its own block.
        within = before - np.maximum.accumulate(np.where(first, before, 0))
        sym_pos = block_start[nz_blk] + within + zrl_runs
        ac_syms[sym_pos] = syms
        ac_amps[sym_pos] = amps
        ac_sizes[sym_pos] = sizes
    eob_pos = (block_start + total - 1)[eob]
    ac_syms[eob_pos] = EOB
    ac_block = np.repeat(np.arange(n), total)
    return PlaneSymbols(
        n_blocks=n,
        dc_syms=dc_syms,
        dc_amps=dc_amps,
        ac_syms=ac_syms,
        ac_amps=ac_amps,
        ac_sizes=ac_sizes,
        ac_block=ac_block,
        block_start=block_start,
    )


def symbol_frequencies(symbols: np.ndarray) -> Dict[int, int]:
    """Frequency dict of a symbol array (for ``from_frequencies``)."""
    counts = np.bincount(symbols.astype(np.int64))
    return {int(s): int(c) for s, c in enumerate(counts) if c}


def plane_bitstream(
    ps: PlaneSymbols, dc_table: HuffmanTable, ac_table: HuffmanTable
) -> bytes:
    """Pack a plane's symbols into the JPEG bitstream in one shot."""
    rt_dc = dc_table.runtime
    rt_ac = ac_table.runtime
    n, m = ps.n_blocks, ps.ac_syms.size
    if np.any(ps.dc_syms >= rt_dc.enc_len.size) or np.any(
        ps.ac_syms >= rt_ac.enc_len.size
    ):
        raise CodecError("symbol not in Huffman table")
    dc_lens = rt_dc.enc_len[ps.dc_syms]
    ac_lens = rt_ac.enc_len[ps.ac_syms]
    if np.any(dc_lens == 0) or np.any(ac_lens == 0):
        raise CodecError("symbol not in Huffman table")
    # Stream slot of each event: block b's DC sits before its AC events,
    # and b earlier DC events precede every AC event of block b.
    dc_slot = ps.block_start + np.arange(n)
    ac_slot = np.arange(m) + ps.ac_block + 1
    values = np.zeros(2 * (n + m), dtype=np.int64)
    widths = np.zeros(2 * (n + m), dtype=np.int64)
    values[2 * dc_slot] = rt_dc.enc_code[ps.dc_syms]
    widths[2 * dc_slot] = dc_lens
    values[2 * dc_slot + 1] = ps.dc_amps
    widths[2 * dc_slot + 1] = ps.dc_syms  # DC symbol == amplitude size
    values[2 * ac_slot] = rt_ac.enc_code[ps.ac_syms]
    widths[2 * ac_slot] = ac_lens
    values[2 * ac_slot + 1] = ps.ac_amps
    widths[2 * ac_slot + 1] = ps.ac_sizes
    return pack_bits(values, widths)


@lru_cache(maxsize=512)
def _ac_lut(spec: TableSpec) -> Tuple[List[int], int]:
    """Repack a table's decode LUT for the JPEG AC role.

    Entry layout: ``(run << 11) | (amplitude_size << 6) | advance`` with
    ``advance = code_length + amplitude_size`` — the total cursor move,
    so the amplitude field ends exactly at the advanced cursor and is a
    plain ``(win >> s) & mask``.  EOB is stored with run 63 (it pushes
    the coefficient cursor past the end of the block), ZRL with run 16;
    both have size 0.  0 marks an invalid prefix, -1 a symbol that is
    corrupt in AC position (zero size that is neither EOB nor ZRL).
    One list index then yields everything the decode loop needs.
    """
    rt = table_runtime(spec)
    entries = np.asarray(rt.lut, dtype=np.int64)
    sym = entries >> 5
    length = entries & 31
    run = sym >> 4
    size = sym & 15
    packed = (run << 11) | (size << 6) | (length + size)
    packed = np.where(sym == EOB, (63 << 11) | length, packed)
    packed = np.where(sym == ZRL, (16 << 11) | length, packed)
    packed = np.where(
        (size == 0) & (sym != EOB) & (sym != ZRL) & (length > 0), -1, packed
    )
    packed = np.where(length == 0, 0, packed)
    return packed.tolist(), rt.lut_bits


@lru_cache(maxsize=512)
def _dc_lut(spec: TableSpec) -> Tuple[List[int], int]:
    """Packed decode LUT for the JPEG DC role.

    Entry layout: ``(amplitude_size << 6) | advance`` with
    ``advance = code_length + amplitude_size`` (the DC symbol *is* the
    amplitude size).  0 marks an invalid prefix, -1 a symbol that is
    corrupt in DC position (a size category beyond JPEG's 16).
    """
    rt = table_runtime(spec)
    entries = np.asarray(rt.lut, dtype=np.int64)
    size = entries >> 5
    length = entries & 31
    packed = (size << 6) | (length + size)
    packed = np.where(size > 16, -1, packed)
    packed = np.where(length == 0, 0, packed)
    return packed.tolist(), rt.lut_bits


def decode_plane(
    stream: bytes,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
    n_blocks: int,
) -> np.ndarray:
    """LUT-driven decode of ``n_blocks`` quantized blocks from ``stream``.

    Exactly inverts :func:`plane_bitstream` (and the reference
    ``decode_block`` loop); returns an (N, 8, 8) int32 stack.
    """
    out = _decode_blocks(stream, dc_table, ac_table, n_blocks)
    # DC differential coding inverts to a running sum down the plane.
    np.cumsum(out[:, 0], out=out[:, 0])
    return out[:, UNZIGZAG].reshape(n_blocks, 8, 8)


def _decode_blocks(
    stream: bytes,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
    n_blocks: int,
    pos: int = 0,
    first_block: int = 0,
) -> np.ndarray:
    """The sequential walk behind :func:`decode_plane`, resumable at a
    block start: decodes blocks ``first_block .. n_blocks - 1`` from bit
    ``pos`` of ``stream`` into zig-zag-ordered int32 rows that still
    hold DC *differences* (the caller runs the DC prefix sum)."""
    warr = bit_windows_array(stream)
    windows = warr.tolist()
    total_bits = len(stream) * 8
    dc_lut, dc_bits = _dc_lut(dc_table.spec)
    dc_mask = (1 << dc_bits) - 1
    ac_lut, ac_bits = _ac_lut(ac_table.spec)
    ac_mask = (1 << ac_bits) - 1
    # The hot loop never touches amplitudes: each nonzero coefficient
    # (DC diffs included, at in-block index 0) is recorded as one packed
    # int — (flat index << 39) | (size << 34) | end-bit-position — and
    # the amplitude bits are gathered, sign-extended and scattered with
    # numpy after the walk; DC prediction becomes a cumulative sum.
    events: List[int] = []
    append = events.append
    # One fetched 64-bit window serves several symbols: ``s`` is the
    # number of window bits still ahead of the cursor, so the next
    # n-bit field is ``(win >> (s - n)) & mask_n`` and a refill is only
    # needed when fewer than 32 bits remain (a symbol plus its
    # amplitude never exceeds 32 bits).  ``pos`` is re-synced from the
    # consumed count ``s0 - s`` at refills and block ends.
    try:
        win = windows[pos >> 3]
        s0 = s = 64 - (pos & 7)
        for b in range(n_blocks - first_block):
            if s < 32:
                pos += s0 - s
                win = windows[pos >> 3]
                s0 = s = 64 - (pos & 7)
            entry = dc_lut[(win >> (s - dc_bits)) & dc_mask]
            if entry <= 0:
                if entry:
                    raise CodecError("corrupt DC coefficient stream")
                raise CodecError("invalid Huffman code in bitstream")
            base = b << 45  # (b << 6) ready-shifted into the index field
            s -= entry & 63
            if entry > 63:
                append(base | (entry >> 6 << 34) | (pos + s0 - s))
            k = 1
            while k < 64:
                if s < 32:
                    pos += s0 - s
                    win = windows[pos >> 3]
                    s0 = s = 64 - (pos & 7)
                entry = ac_lut[(win >> (s - ac_bits)) & ac_mask]
                if entry <= 0:
                    if entry:
                        raise CodecError("corrupt AC coefficient stream")
                    raise CodecError("invalid Huffman code in bitstream")
                k += entry >> 11
                size = (entry >> 6) & 31
                if size:
                    if k >= 64:
                        raise CodecError("corrupt AC coefficient stream")
                    s -= entry & 63
                    append(
                        base | (k << 39) | (size << 34) | (pos + s0 - s)
                    )
                    k += 1
                else:
                    s -= entry & 63
            # One bounds check per block: the windows are padded with
            # 1-bits, so an overrunning block decodes junk harmlessly
            # and is rejected here before anything is returned.
            if pos + s0 - s > total_bits:
                raise CodecError("bitstream underrun")
    except IndexError:
        raise CodecError("bitstream underrun") from None
    except ValueError:
        # Defensive: any negative-shift style arithmetic fault from a
        # corrupt stream is the same condition as running out of bits.
        raise CodecError("bitstream underrun") from None
    out = np.zeros((n_blocks - first_block, 64), dtype=np.int32)
    if events:
        ev = np.array(events, dtype=np.int64)
        idx = ev >> 39
        size = (ev >> 34) & 31
        start = (ev & ((1 << 34) - 1)) - size
        r = (start & 7).astype(np.uint64)
        amp = (
            (warr[start >> 3] << r) >> (np.uint64(64) - size.astype(np.uint64))
        ).astype(np.int64)
        vals = np.where(amp >> (size - 1) != 0, amp, amp - (1 << size) + 1)
        out.reshape(-1)[idx] = vals
    return out


# Batch LUT entries decode one *or two* symbols per lookup.  Each
# stream gets three tables of ``2**bits`` packed ``uint32`` entries,
# indexed by the lane's ``bits``-wide peek:
#
# * DC-pair: a DC symbol, plus the block's first AC symbol when its
#   code and amplitude also fit in the peek;
# * AC-pair: an AC symbol that is not EOB, plus the next AC symbol when
#   it fits.  A lane reads it while its coefficient cursor is below
#   :data:`_PAIR_K`: a run of at most 16 cannot reach 64 from there, so
#   the first symbol never ends the block and the second is always AC;
# * AC-single: one AC symbol, for a cursor at :data:`_PAIR_K` or above.
#
# EOB is never the first symbol of a pair, so every block end is a row
# end and a row holds at most one DC symbol, always its first.  Entry
# layout, low to high:
#
# * bits 0-5: the advance, every bit the row consumes (codes and
#   amplitudes), so the row's last amplitude ends at the new cursor;
# * bits 6-10: amplitude size of the row's last symbol (31: a marker);
# * bits 11-14: amplitude size of a pair's first symbol (0 for a single
#   symbol, or a first symbol without amplitude);
# * bits 15-18: code plus amplitude bits of a pair's second symbol, so
#   the first amplitude ends that far before the row's end bit;
# * bits 19-23: the cursor step of a pair's second symbol (31 for EOB),
#   so the first symbol's coefficient index is the row's cursor minus
#   that step minus one (minus 64 after an EOB);
# * bits 24-31: the row's coefficient-cursor step, a signed byte that
#   the walk reads through an ``int8`` view of the entries.
#
# The coefficient cursor stops at 64 (block ended, the next symbol is
# DC): ``k = min(k + step, 64)``.  AC steps are run + 1 past a nonzero,
# 16 for ZRL and 63 for EOB; the DC step is -63, which takes the cursor
# from 64 to 1, so a lane needs no separate reset.  The epilogue
# recovers the coefficient index of a row's last symbol as ``kn - 1``.
#
# An invalid prefix, or a symbol that is corrupt in its position,
# becomes :data:`_MARKER`: amplitude size 31, a step of 127 (the cursor
# leaves the block, far past any legal value) and a one-bit advance.
# Every lane therefore moves at least one bit per row (a lane that
# starts mid-code never stalls), and a marker on a kept row fails the
# epilogue's coefficient check.
_PAIR_K = 48
_MARKER = (127 << 24) | (31 << 6) | 1

# A peek as narrow as the longest code seldom holds two symbols with
# their amplitudes: chroma codes are 7-9 bits long on corpus-like
# images.  Widening every stream's peek to 11 bits cut a 32-image
# group's chroma walk from 320 to 256 iterations (luma from 544 to 512).
_PAIR_BITS = 11


def _symbol_fields(
    spec: TableSpec, bits: int, dc: bool
) -> Tuple[np.ndarray, ...]:
    """Per ``bits``-wide peek: code length, amplitude size, cursor step,
    whether the symbol is legal in this role, and whether it is EOB."""
    rt = table_runtime(spec)
    lut = np.asarray(rt.lut, dtype=np.int64)
    if rt.lut_bits < bits:
        # The prefix property makes a ``repeat`` expansion exact.
        lut = np.repeat(lut, 1 << (bits - rt.lut_bits))
    sym = lut >> 5
    length = lut & 31
    if dc:
        size = sym
        step = np.full(lut.size, 1 - 64, dtype=np.int64)
        legal = (length > 0) & (size <= 16)
        eob = np.zeros(lut.size, dtype=bool)
    else:
        size = sym & 15
        eob = sym == EOB
        step = np.where(eob, 63, np.where(sym == ZRL, 16, (sym >> 4) + 1))
        legal = (length > 0) & ((size > 0) | eob | (sym == ZRL))
    return length, size, step, legal, eob


def _pair_table(
    first: Tuple[np.ndarray, ...], second: Optional[Tuple[np.ndarray, ...]]
) -> np.ndarray:
    """The packed entries of one table: each peek's symbol in the
    ``first`` role, joined by the following AC symbol (``second``) when
    the first is not EOB and both codes and amplitudes fit the peek."""
    l1, s1, step1, legal1, eob1 = first
    bits = l1.size.bit_length() - 1
    adv1 = l1 + s1
    entry = ((step1 & 255) << 24) | (s1 << 6) | adv1
    if second is not None:
        can = legal1 & ~eob1 & (adv1 < bits)
        peek = np.arange(l1.size, dtype=np.int64)
        # The second symbol's peek, zero-filled past the known bits: a
        # code that fits inside them decodes the same either way.
        nxt = (peek << np.where(can, adv1, 0)) & (l1.size - 1)
        l2, s2, step2, legal2, _ = (f[nxt] for f in second)
        adv2 = l2 + s2
        pair = can & legal2 & (adv1 + adv2 <= bits)
        joined = (
            (((step1 + step2) & 255) << 24)
            | (np.minimum(step2, 31) << 19)
            | (adv2 << 15)
            | (s1 << 11)
            | (s2 << 6)
            | (adv1 + adv2)
        )
        entry = np.where(pair, joined, entry)
    return np.where(legal1, entry, _MARKER).astype(np.uint32)


# Sized for batch decode: a 256-image group touches 512 distinct
# optimized table pairs (a luma and a chroma pair per frame); anything
# smaller thrashes and rebuilds every LUT on every call.  Entries are
# ``uint32``: the batch walk gathers from every live LUT each
# iteration, so narrow entries keep its cache-miss working set small.
@lru_cache(maxsize=1024)
def _pair_luts(dc_spec: TableSpec, ac_spec: TableSpec) -> Tuple[np.ndarray, int]:
    """One stream's DC-pair, AC-pair and AC-single tables, concatenated,
    and their shared peek width: the longer of the two codes' LUTs, but
    at least :data:`_PAIR_BITS`."""
    bits = max(
        table_runtime(dc_spec).lut_bits,
        table_runtime(ac_spec).lut_bits,
        _PAIR_BITS,
    )
    dc = _symbol_fields(dc_spec, bits, dc=True)
    ac = _symbol_fields(ac_spec, bits, dc=False)
    tables = np.concatenate(
        [_pair_table(dc, ac), _pair_table(ac, ac), _pair_table(ac, None)]
    )
    tables.setflags(write=False)
    return tables, bits


# Event rows are recorded into preallocated chunk matrices of this many
# iterations, so the epilogue's per-chunk working set stays
# cache-resident and no list-of-rows is ever re-copied through
# ``np.array``.  With 8-byte cursor rows, 512-row chunks (1 MB matrices
# at 256 lanes) raised ``prep-image`` peak RSS on the seed-2 corpus
# from 143 to 158 MB; 256-row chunks walk as fast.
_CHUNK = 256

# Segmenting: a walk aims for about ``_TARGET_LANES`` lanes, splitting
# each stream into equal-bit segments of at least
# ``_MIN_SEGMENT_BLOCKS`` blocks.  The walk's iteration count is the
# row count of its longest lane, and its per-iteration numpy dispatch
# cost grows only slowly with the lane count, so more, shorter lanes
# win until the per-lane work and the sync overlap below catch up.  On
# a 2-core VM, the one-symbol walk over a 32-image 256x256 group took
# ~1.55 ms/image at 128 lanes and ~1.35 at 256 (best of 15), and
# settings up to 1024 lanes moved it only within noise (2048 was
# slower).  With two-symbol rows, 512 lanes read within 2% of 256 (min
# of 25 interleaved rounds), so the target stays 256.
_TARGET_LANES = 256
_MIN_SEGMENT_BLOCKS = 64

# A segment lane keeps decoding until its cursor is this many bits past
# its successor's start (or past the end of the stream), and the
# successor's rows within that window are searched for the sync point.
# With two-symbol rows, lanes of the seed-1 prep corpus synced within
# 209 (luma) and 268 (chroma) bits of an arbitrary start, median 29,
# over 6,946 starts (the one-symbol walk: 204 and 268, median 28).  At
# 256 bits one stream in 128 images falls back to the sequential walk,
# as before; a 192-bit window took 13-14 of them.
_SYNC_WINDOW_BITS = 256

# Iterations between the walk's termination checks and trap clamps.
_CHECK_EVERY = 32


def _segment_counts(
    n_blocks: np.ndarray, total_bits: np.ndarray
) -> np.ndarray:
    """Segments per stream for one walk: segments of about equal bit
    length, enough of them to bring the walk to about
    :data:`_TARGET_LANES` lanes, but never one under
    :data:`_MIN_SEGMENT_BLOCKS` blocks (and always at least one)."""
    seg_bits = max(1, -(-int(total_bits.sum()) // _TARGET_LANES))
    want = np.rint(total_bits / seg_bits).astype(np.int64)
    return np.maximum(np.minimum(want, n_blocks // _MIN_SEGMENT_BLOCKS), 1)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the row ranges ``[lo[i], hi[i])`` into (i, row) pairs."""
    lens = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(lo.size), lens)
    shift = np.repeat(lo - (np.cumsum(lens) - lens), lens)
    return owner, np.arange(int(lens.sum())) + shift


def _gather(
    chunks: Sequence[Tuple[np.ndarray, ...]],
    rows: np.ndarray,
    lanes: np.ndarray,
) -> List[np.ndarray]:
    """Every field of the chunked row matrices, read at (rows, lanes)."""
    ci = rows // _CHUNK
    lo = int(ci.min()) if ci.size else 0
    hi = int(ci.max()) if ci.size else 0
    if lo == hi:
        rr = rows - lo * _CHUNK
        return [m[rr, lanes] for m in chunks[lo]]
    out = [np.empty(rows.size, dtype=m.dtype) for m in chunks[0]]
    for c in range(lo, hi + 1):
        at = np.flatnonzero(ci == c)
        rr, ll = rows[at] - c * _CHUNK, lanes[at]
        for o, m in zip(out, chunks[c]):
            o[at] = m[rr, ll]
    return out


def decode_planes_batch(
    tasks: Sequence[Tuple[bytes, HuffmanTable, HuffmanTable, int]],
) -> List[np.ndarray]:
    """Lock-step Huffman decode of many plane streams at once.

    Every lane advances one or two symbols per iteration under
    vectorized numpy ops, so the per-symbol interpreter overhead — the
    whole cost of :func:`decode_plane` — is amortized over the lanes.
    Each lane indexes its stream's packed LUTs through per-lane offsets
    into one flat buffer, so streams with different Huffman tables (the
    normal case: tables are optimized per image) batch together.

    **Segments.**  The walk's iteration count is the row count of its
    longest lane, so each stream is split into ``k`` segments that start
    at evenly spaced bit offsets (:func:`_segment_counts` picks ``k``),
    and every segment is its own lane.  A segment lane starts as if at a
    block start (the DC table), so it decodes junk until Huffman
    self-synchronization puts it on the true symbol boundaries.  The
    decoder's whole state is (bit cursor, coefficient cursor), so the
    first row end a lane shares with its predecessor's walk is its sync
    point: from there on both lanes decode the same symbols.  Two lanes
    on the same boundaries can still pair symbols one apart, but every
    block end is a row end, so they meet at the next block end at the
    latest.  The epilogue finds that point for every lane pair, keeps
    the predecessor's rows up to it and the successor's rows after it,
    and rebases the successor's block numbers by the predecessor's count
    there (:func:`_stitch`).  A successor that has not synced within
    :data:`_SYNC_WINDOW_BITS` is dropped together with every later lane
    of its stream, and the stream's remaining blocks are decoded
    sequentially (:func:`_decode_blocks`) from the first block the
    predecessor starts after its own sync point.  DC prediction is the
    plane-wide prefix sum it always was, and the encoded bytes are
    untouched.

    **The loop.**  Every iteration is twelve ufunc calls on
    preallocated operands: five for the peek (two shifts drop the
    consumed bits and keep the per-lane ``bits``, no mask), two to pick
    the table by coefficient cursor and add the peek, one LUT gather,
    and four to advance the bit and coefficient cursors.  One entry
    decodes a symbol pair whenever both symbols fit the peek (see
    :func:`_pair_table`), so a lane runs about 0.6 rows per symbol.  Rows are recorded *unconditionally* as three matrices
    (coefficient cursor after the row, raw LUT entry, end bit) written
    straight into chunked event matrices — the end-bit row *is* the
    lane cursors.  Every entry advances its lane by at least one bit
    (invalid prefixes included), so each lane passes its stop bit within
    a bounded number of rows; lanes that are done keep decoding junk —
    reading the next stream's bytes or parked in an all-zero trap region
    at the end of the buffer (index 0 of a canonical-Huffman LUT is
    always a valid code) — and junk rows are dropped in the epilogue
    because they fall outside their lane's kept range or past the
    stream's last block.  Block numbering, stitching, event filtering
    (one or two nonzeros per row), the bounds check and the
    corrupt-coefficient check are all reconstructed vectorized over the
    recorded chunks, so a corrupt stream raises :class:`CodecError`
    exactly when :func:`decode_plane` would.

    Output ``i`` is bit-identical to ``decode_plane(*tasks[i])``:
    streams are concatenated with the same 8-byte 1-bit spacer padding
    :func:`~repro.dataprep.jpeg.huffman.bit_windows_array` applies, so
    even trailing peeks past a stream's end see the same bits, and the
    amplitude gather is the same arithmetic on a shared window array.

    Working memory is four narrow matrices of (rows of the longest lane)
    × (lanes) — callers should group streams of similar length (e.g.
    luma planes apart from chroma planes) so the matrix is dense.  The
    outputs are views into one coefficient buffer, written in natural
    (un-zig-zagged) order by the scatter itself.
    """
    if not tasks:
        return []
    n = len(tasks)
    streams = [bytes(t[0]) for t in tasks]
    n_blocks = np.array([t[3] for t in tasks], dtype=np.int64)
    if np.any(n_blocks <= 0):
        raise CodecError("plane must have at least one block")
    # One window array over all streams.  Per-stream 1-bit spacers keep
    # end-of-stream peeks identical to the single-stream decoder; the
    # final zero word is the parking trap for finished lanes.  The zero
    # tail is wide enough that a parked cursor advancing at most 63 bits
    # per iteration cannot escape it between the periodic clamps below
    # (_CHECK_EVERY * 63 bits < 1024 bytes), so the hot loop carries no
    # bounds clamp at all.
    payload = b"".join(s + b"\xff" * 8 for s in streams) + b"\x00" * 1024
    warr = bit_windows_array(payload)
    trap = (len(payload) - 1024) * 8
    total_bits = np.array([len(s) * 8 for s in streams], dtype=np.int64)
    base_bit = np.zeros(n, dtype=np.int64)
    np.cumsum(total_bits[:-1] + 64, out=base_bit[1:])
    end_bit = base_bit + total_bits
    # Each stream's three tables share one peek width, so the peek
    # shift is a per-lane constant; streams with the same tables (a
    # frame's two chroma planes) share one copy in the flat buffer.
    parts = []
    stream_off = np.empty(n, dtype=np.int64)
    lut_bits = np.empty(n, dtype=np.int64)
    placed: Dict[Tuple[TableSpec, TableSpec], int] = {}
    lut_off = 0
    for i, (_, dc_t, ac_t, _nb) in enumerate(tasks):
        tables, bits = _pair_luts(dc_t.spec, ac_t.spec)
        key = (dc_t.spec, ac_t.spec)
        if key not in placed:
            placed[key] = lut_off
            parts.append(tables)
            lut_off += tables.shape[0]
        stream_off[i] = placed[key]
        lut_bits[i] = bits
    flat_lut = np.concatenate(parts)
    block_base = np.zeros(n, dtype=np.int64)
    np.cumsum(n_blocks[:-1], out=block_base[1:])
    out = np.zeros((int(n_blocks.sum()), 64), dtype=np.int32)

    # Lanes: stream ``sid``, segment ``seg``, starting at bit ``start``.
    # ``head`` bounds the rows searched for a lane's sync point; a lane
    # stops once its cursor passes its successor's ``head`` (the last
    # lane of a stream: the stream's end).
    segs = _segment_counts(n_blocks, total_bits)
    lanes = int(segs.sum())
    sid = np.repeat(np.arange(n), segs)
    first_lane = np.zeros(n, dtype=np.int64)
    np.cumsum(segs[:-1], out=first_lane[1:])
    seg = np.arange(lanes) - first_lane[sid]
    start = base_bit[sid] + (seg * total_bits[sid]) // segs[sid]
    last = seg == segs[sid] - 1
    head = np.minimum(start + _SYNC_WINDOW_BITS, end_bit[sid])
    stop = np.where(last, end_bit[sid], np.roll(head, -1))

    # Every hot-loop operand is a preallocated array: a scalar operand
    # costs numpy a conversion per call, and so do mixed dtypes (the
    # advance is widened on output, the step byte as an input).  Cursors
    # and LUT offsets are ``intp``, take's native index type.
    # A lane's coefficient cursor is kept as ``k_row + k``: its row of
    # ``k_off`` maps the cursor to the table it reads next (DC-pair at
    # 64 and the unused 0, AC-pair below _PAIR_K, AC-single from there
    # up), and ``k_cap`` is its block-ended state.
    pos = start.astype(np.intp)
    stop_p = stop.astype(np.intp)
    trap_p = np.intp(trap)
    table = np.zeros(65, dtype=np.intp)
    table[1:_PAIR_K] = 1
    table[_PAIR_K:64] = 2
    k_off = (stream_off[sid][:, None] + (table << lut_bits[sid][:, None])).ravel()
    k_row = np.arange(0, lanes * 65, 65, dtype=np.intp)
    k_cap = k_row + 64
    kk = k_cap.copy()  # every lane starts at a block start
    sbm = (64 - lut_bits[sid]).astype(np.uint64)
    THREE = np.full(lanes, 3, dtype=np.intp)
    SEVEN = np.full(lanes, 7, dtype=np.intp)
    LOW6 = np.full(lanes, 63, dtype=np.uint32)
    t0 = np.empty(lanes, dtype=np.intp)
    win = np.empty(lanes, dtype=np.uint64)
    sh = np.empty(lanes, dtype=np.intp)
    off = np.empty(lanes, dtype=np.intp)
    adv = np.empty(lanes, dtype=np.intp)
    sh_u, win_i = sh.view(np.uint64), win.view(np.intp)
    top = 3 if sys.byteorder == "little" else 0  # the step byte
    # Every row advances its lane by at least one bit, so this many
    # iterations take every lane past its stop bit.
    cap = int((stop - start).max()) + 2 * _CHECK_EVERY
    done = False
    chunks: List[Tuple[np.ndarray, ...]] = []
    c_kn = c_en = c_st = c_po = None
    r = _CHUNK
    T = 0
    for t in range(cap):
        if not (t % _CHECK_EVERY):
            np.minimum(pos, trap_p, out=pos)
            if bool((pos > stop_p).all()):
                done = True
                break
        if r == _CHUNK:
            c_kn = np.empty((_CHUNK, lanes), dtype=np.intp)
            c_en = np.empty((_CHUNK, lanes), dtype=np.uint32)
            c_st = c_en.view(np.int8)[:, top::4]
            c_po = np.empty((_CHUNK, lanes), dtype=np.intp)
            chunks.append((c_kn, c_en, c_po))
            r = 0
        np.right_shift(pos, THREE, out=t0)
        # Bound-method take skips the np.take dispatch wrapper — it is
        # measurably cheaper at hot-loop call counts.
        warr.take(t0, out=win)
        np.bitwise_and(pos, SEVEN, out=sh)
        np.left_shift(win, sh_u, out=win)
        np.right_shift(win, sbm, out=win)  # the peek, mask-free
        k_off.take(kk, out=off)
        np.add(off, win_i, out=off)
        entry = c_en[r]
        flat_lut.take(off, out=entry)
        kn = c_kn[r]
        np.add(kk, c_st[r], out=kn)
        np.bitwise_and(entry, LOW6, out=adv)
        row = c_po[r]
        np.add(pos, adv, out=row)
        pos = row
        np.minimum(kn, k_cap, out=kk)
        r += 1
        T += 1
    if not done and not bool((np.minimum(pos, trap_p) > stop_p).all()):
        raise CodecError("bitstream underrun")  # unreachable: see cap

    # Epilogue pass 1: each lane's coefficient cursor after every row
    # (the walk recorded it offset by ``k_row``), and its running DC
    # count (its local block number + 1) per row — a row starts with a
    # DC symbol when the row before it ended its block — appended to
    # the chunk's matrices.
    carry = np.zeros(lanes, dtype=np.int32)
    ended = np.ones(lanes, dtype=bool)  # every lane starts at a block
    for c, chunk in enumerate(chunks):
        rows = min(_CHUNK, T - c * _CHUNK)
        chunk = tuple(m[:rows] for m in chunk)
        kn = chunk[0]
        kn -= k_row[None, :]
        is_dc = np.empty((rows, lanes), dtype=bool)
        is_dc[0] = ended
        np.greater_equal(kn[:-1], 64, out=is_dc[1:])
        ended = kn[-1] >= 64
        cum = np.cumsum(is_dc, axis=0, dtype=np.int32)
        cum += carry[None, :]
        carry = cum[-1].copy()
        chunks[c] = chunk + (cum,)

    # Kept rows ``lo < row <= hi`` per lane, the offset from its local
    # block numbers to its plane's, and the streams left to the
    # sequential walk.
    lo, hi, off, tails = _stitch(
        chunks, T, sid, seg, start, head, first_lane, base_bit
    )

    # Epilogue pass 2: keep each lane's rows inside (lo, hi] that fall
    # in its plane's blocks, run the coefficient check, gather the
    # amplitudes and scatter — the same closing moves as decode_plane,
    # batched per chunk, over a row's last symbol and then a pair's
    # first.  Rows are numbered straight into ``out``.
    row_base = (off - 1 + block_base[sid]).astype(np.int32)
    row_end = (block_base + n_blocks)[sid].astype(np.int32)
    in_plane = np.zeros(lanes, dtype=np.int64)
    flat_out = out.reshape(-1)
    row0 = 0
    for c_kn, c_en, c_po, cum in chunks:
        rows = c_kn.shape[0]
        gb = np.add(cum, row_base[None, :], out=cum)  # out row per symbol
        real = gb < row_end[None, :]
        # Block numbers never fall along a lane, so each lane's in-plane
        # rows are a prefix of its walk.
        in_plane += real.sum(axis=0)
        ridx = np.arange(row0, row0 + rows)[:, None]
        real &= ridx > lo[None, :]
        real &= ridx <= hi[None, :]
        row0 += rows
        # The row's last symbol: nonzero amplitude size in bits 6-10.
        sel = np.flatnonzero(((c_en & np.uint32(0x1F << 6)) != 0) & real)
        if sel.size:
            kn = c_kn.ravel().take(sel)
            if kn.max() > 64:  # coefficient index kn - 1 past the block
                raise CodecError("corrupt AC coefficient stream")
            entry = c_en.ravel().take(sel)
            _scatter(
                flat_out, warr, gb.ravel().take(sel), kn - 1,
                (entry >> np.uint32(6)) & np.uint32(31), c_po.ravel().take(sel),
            )
        # A pair's first symbol: amplitude size in bits 11-14.
        sel = np.flatnonzero(((c_en & np.uint32(0xF << 11)) != 0) & real)
        if sel.size:
            entry = c_en.ravel().take(sel)
            step2 = (entry >> np.uint32(19)) & np.uint32(31)
            d1 = np.where(step2 == 31, 64, step2 + 1)
            _scatter(
                flat_out, warr, gb.ravel().take(sel),
                c_kn.ravel().take(sel) - d1,
                (entry >> np.uint32(11)) & np.uint32(15),
                c_po.ravel().take(sel) - ((entry >> np.uint32(15)) & np.uint32(15)),
            )
    # Bounds check: the last kept row of a stream must end inside it.
    last_row = np.minimum(np.minimum(hi, in_plane - 1), T - 1)
    kept = np.flatnonzero(last_row > lo)
    last_pos = base_bit.copy()
    if kept.size:
        end = _gather(chunks, last_row[kept], kept)[2]
        np.maximum.at(last_pos, sid[kept], end.astype(np.int64))
    if np.any(last_pos > end_bit):
        raise CodecError("bitstream underrun")
    for i, bit, block in tails:
        nb = int(n_blocks[i])
        if block < nb:
            b0 = int(block_base[i])
            tail = _decode_blocks(
                streams[i], tasks[i][1], tasks[i][2], nb, bit, block
            )
            out[b0 + block : b0 + nb] = tail[:, UNZIGZAG]
    results: List[np.ndarray] = []
    for i in range(n):
        plane = out[block_base[i] : block_base[i] + n_blocks[i]]
        np.cumsum(plane[:, 0], out=plane[:, 0])
        results.append(plane.reshape(int(n_blocks[i]), 8, 8))
    return results


def _scatter(
    flat_out: np.ndarray,
    warr: np.ndarray,
    block: np.ndarray,
    coef: np.ndarray,
    size: np.ndarray,
    end: np.ndarray,
) -> None:
    """Gather each nonzero's amplitude (``size`` bits ending at bit
    ``end`` of ``warr``), sign-extend it and write it to coefficient
    ``coef`` (zig-zag index) of output row ``block``, in natural order."""
    first = end - size
    word = warr.take(first >> 3)
    word <<= (first & 7).astype(np.uint64)
    word >>= 64 - size
    amp = word.view(np.int64)
    neg = (amp >> (size - 1)) == 0
    idx = (block.astype(np.int64) << 6) | ZIGZAG[coef]
    flat_out[idx] = amp - neg * ((1 << size) - 1)


def _stitch(
    chunks: Sequence[Tuple[np.ndarray, ...]],
    T: int,
    sid: np.ndarray,
    seg: np.ndarray,
    start: np.ndarray,
    head: np.ndarray,
    first_lane: np.ndarray,
    base_bit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int, int]]]:
    """Join every segment lane to its predecessor at their sync point.

    A lane's cursor rises strictly until it leaves its stream, so "rows
    ending at or before bit b" is a row prefix, and both sides of the
    search are row ranges: the successor's rows up to its ``head`` bound
    and the predecessor's rows between the successor's start and that
    bound.  Each row's state is keyed (pair, end bit, coefficient
    cursor after the row); keys rise along a range, so one
    ``searchsorted`` finds every pair's first shared state.

    Returns each lane's kept row range ``(lo, hi]``, the offset that
    turns its local block number into the plane's, and the sequential
    tails ``(stream, bit, block)`` of streams with a lane that never
    synced.
    """
    lanes = sid.size
    succ = np.flatnonzero(seg > 0)
    pred = succ - 1
    pos_t = chunks[0][2].dtype
    # Per lane as a predecessor: rows ending at or before its
    # successor's start and head (thresholds 0 count nothing: every row
    # ends past bit 0).  As a successor: rows ending at or before its
    # own head — at most the first _SYNC_WINDOW_BITS rows.
    nxt_start = np.zeros(lanes, dtype=pos_t)
    nxt_head = np.zeros(lanes, dtype=pos_t)
    own_head = np.zeros(lanes, dtype=pos_t)
    nxt_start[pred] = start[succ]
    nxt_head[pred] = head[succ]
    own_head[succ] = head[succ]
    n_start = np.zeros(lanes, dtype=np.int64)
    n_head = np.zeros(lanes, dtype=np.int64)
    n_own = np.zeros(lanes, dtype=np.int64)
    for c, chunk in enumerate(chunks):
        po = chunk[2]
        n_start += (po <= nxt_start).sum(axis=0)
        n_head += (po <= nxt_head).sum(axis=0)
        if c * _CHUNK < _SYNC_WINDOW_BITS:
            head_rows = po[: _SYNC_WINDOW_BITS - c * _CHUNK]
            n_own += (head_rows <= own_head).sum(axis=0)
    n_start, n_head_p, n_head_s = n_start[pred], n_head[pred], n_own[succ]
    s_pair, s_row = _ranges(np.zeros_like(n_head_s), n_head_s)
    p_pair, p_row = _ranges(n_start, n_head_p)

    def keys(pair, row, lane):
        kn, _, po, cum = _gather(chunks, row, lane)
        k_after = np.where(kn < 64, kn, 0).astype(np.int64)
        rel = po.astype(np.int64) - start[succ[pair]]
        return (pair << 32) | (rel << 7) | k_after, cum

    sk, s_cum = keys(s_pair, s_row, succ[s_pair])
    pk, p_cum = keys(p_pair, p_row, pred[p_pair])
    synced = np.zeros(succ.size, dtype=bool)
    r_succ = np.zeros(succ.size, dtype=np.int64)
    r_pred = np.zeros(succ.size, dtype=np.int64)
    delta = np.zeros(lanes, dtype=np.int64)
    if sk.size and pk.size:
        ix = np.minimum(np.searchsorted(pk, sk), pk.size - 1)
        hits = np.flatnonzero(pk[ix] == sk)
        pairs, first = np.unique(s_pair[hits], return_index=True)
        h = hits[first]
        synced[pairs] = True
        r_succ[pairs] = s_row[h]
        r_pred[pairs] = p_row[ix[h]]
        delta[succ[pairs]] = p_cum[ix[h]].astype(np.int64) - s_cum[h]
    lo = np.full(lanes, -1, dtype=np.int64)
    hi = np.full(lanes, T, dtype=np.int64)
    lo[succ] = r_succ
    hi[pred] = r_pred
    # The predecessor's matched row must lie in its own kept range.
    bad = np.zeros(lanes, dtype=bool)
    bad[succ] = ~(synced & (r_pred >= lo[pred]))
    off = np.cumsum(delta)
    off -= off[first_lane][sid]
    tails: List[Tuple[int, int, int]] = []
    for i in np.unique(sid[bad]):
        f = int(first_lane[i])
        e = f + int(np.count_nonzero(sid == i))
        m = f + int(np.argmax(bad[f:e]))
        hi[m:e] = -1
        # Resume at the first block the predecessor starts after its own
        # sync point (the stream's start for a first lane).
        p = m - 1
        x, bit, block = 0, int(start[f]), 0
        while p > f:
            cum_p = np.concatenate([c[3][:, p] for c in chunks])
            x = int(np.searchsorted(cum_p, cum_p[lo[p]] + 1))
            if x < T:
                bit = int(np.concatenate([c[2][:, p] for c in chunks])[x - 1])
                block = int(cum_p[x] + off[p] - 1)
                break
            hi[p] = -1
            p -= 1
            x, bit, block = 0, int(start[f]), 0
        hi[p] = x - 1
        tails.append((int(i), bit - int(base_bit[i]), block))
    return lo, hi, off, tails
