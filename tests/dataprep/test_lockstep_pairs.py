"""Two-symbol entries of the lock-step entropy walk at their boundaries.

``entropy_fast.decode_planes_batch`` decodes a DC symbol and the AC
symbol after it, or two AC symbols, with one LUT entry whenever both
fit the lane's peek.  The planes here force every place where that
could go wrong: a nonzero coefficient on zig-zag index 63 ending a
block without EOB, ZRL chains (including ones that run past the block,
which the sequential decoder accepts), EOB at every coefficient index,
DC-only blocks, pairs exactly as long as the peek and one bit longer,
and invalid or corrupt symbols on either side of a would-be pair.  Each
plane must decode bit-identically to ``decode_plane``, with one lane per
stream and with many short lanes, and must fail exactly when
``decode_plane`` fails.
"""

import numpy as np
import pytest

from repro.dataprep.jpeg import entropy_fast
from repro.dataprep.jpeg.huffman import (
    EOB,
    ZRL,
    HuffmanTable,
    TableSpec,
    pack_bits,
    zigzag_unscan,
)
from repro.errors import CodecError
from tests.properties.test_prop_segmented_lockstep import segmentation

SEGMENTATIONS = {
    "one lane per stream": dict(target_lanes=1),
    "many short lanes": dict(target_lanes=64, min_blocks=2),
}


def outcome(fn):
    try:
        return fn()
    except CodecError:
        return CodecError


def assert_batch_matches_sequential(tasks, fails=False):
    """Every segmentation decodes ``tasks`` as ``decode_plane`` does
    (which fails on some task exactly when ``fails``)."""
    want = [outcome(lambda t=t: entropy_fast.decode_plane(*t)) for t in tasks]
    assert any(w is CodecError for w in want) == fails
    for name, settings in SEGMENTATIONS.items():
        with segmentation(**settings):
            got = outcome(lambda: entropy_fast.decode_planes_batch(tasks))
        if fails:
            assert got is CodecError, name
            continue
        assert got is not CodecError, name
        for plane, expected in zip(got, want):
            assert np.array_equal(plane, expected), name


def block(coeffs, dc=0):
    """A quantized 8×8 block with ``{zig-zag index: value}`` set."""
    flat = np.zeros(64, dtype=np.int64)
    flat[0] = dc
    for index, value in coeffs.items():
        flat[index] = value
    return zigzag_unscan(flat)


def plane(blocks, rng=None):
    """The plane task of ``blocks`` (in a shuffled order when ``rng`` is
    given), Huffman tables optimized for it as the encoder does."""
    blocks = np.stack(blocks)
    if rng is not None:
        blocks = blocks[rng.permutation(len(blocks))]
    ps = entropy_fast.plane_symbols(blocks)
    dc_t = HuffmanTable.from_frequencies(
        entropy_fast.symbol_frequencies(ps.dc_syms)
    )
    ac_t = HuffmanTable.from_frequencies(
        entropy_fast.symbol_frequencies(ps.ac_syms)
    )
    return entropy_fast.plane_bitstream(ps, dc_t, ac_t), dc_t, ac_t, len(blocks)


def filler(rng, n):
    """Ordinary low-frequency blocks around the boundary cases."""
    return [
        block(
            {int(i): int(rng.integers(-20, 21)) or 1 for i in rng.integers(1, 12, 3)},
            dc=int(rng.integers(-300, 300)),
        )
        for _ in range(n)
    ]


def ends_without_eob(task_blocks):
    ps = entropy_fast.plane_symbols(np.stack(task_blocks))
    last = np.append(ps.block_start[1:], ps.ac_syms.size) - 1
    has_ac = np.append(ps.block_start[1:], ps.ac_syms.size) > ps.block_start
    return int(np.count_nonzero(has_ac & (ps.ac_syms[last] != EOB)))


def test_nonzero_at_zigzag_63_ends_the_block_without_eob():
    rng = np.random.default_rng(1)
    # The nonzero at 63 comes from an AC-single row (cursor >= 48), as
    # the second half of a (ZRL, nonzero) pair from cursor 47, and
    # after every cursor in a block with all 63 coefficients set.
    cases = [
        {63: 5},
        {50: 3, 63: -2},
        {47: 2, 63: 1},
        {46: 1, 63: 1},
        {62: 1, 63: 1},
        {32: 4, 63: -7},
        {i: 1 + i % 3 for i in range(1, 64)},
        {i: -1 for i in range(40, 64)},
    ]
    blocks = [block(c, dc=int(rng.integers(-50, 50))) for c in cases * 6]
    blocks += filler(rng, 80)
    assert ends_without_eob(blocks) == 6 * len(cases)
    assert_batch_matches_sequential([plane(blocks, rng)])


def test_zrl_chains():
    rng = np.random.default_rng(2)
    cases = [
        {17: 1},
        {1: 1, 18: 1, 35: 1, 52: 1},
        {63: 1},
        {33: 2, 63: 3},
        {16: 1, 32: -1, 48: 2},
        {49: 9},
    ]
    blocks = [block(c, dc=int(rng.integers(-50, 50))) for c in cases * 8]
    blocks += filler(rng, 60)
    ps = entropy_fast.plane_symbols(np.stack(blocks))
    assert np.count_nonzero(ps.ac_syms == ZRL) >= 8 * 10
    assert_batch_matches_sequential([plane(blocks, rng)])


def test_eob_at_every_coefficient_index():
    rng = np.random.default_rng(3)
    # The last nonzero at j puts the EOB at cursor j + 1 (j = 0: a
    # DC-only block), alone or as the second half of a pair.
    blocks = []
    for j in range(63):
        for extra in ({}, {max(1, j - 1): 2}, {max(1, j - 17): -3}):
            coeffs = dict(extra)
            if j:
                coeffs[j] = int(rng.integers(1, 40))
            blocks.append(block(coeffs, dc=int(rng.integers(-100, 100))))
    assert_batch_matches_sequential([plane(blocks, rng)])


def test_dc_only_blocks():
    rng = np.random.default_rng(4)
    dcs = rng.integers(-1000, 1000, 300)
    dcs[::7] = 0  # zero DC differences: a size-0 DC symbol
    steady = [block({}, dc=int(d)) for d in dcs]
    flat = [block({}, dc=5)] * 120  # every difference zero
    assert_batch_matches_sequential([plane(steady), plane(flat)])


# -- hand-written streams -----------------------------------------------------
#
# Fixed canonical codes, so a test knows every code length.  DC: 0
# '00', 1 '01', 11 '10', 2 '110'.  AC: EOB '00', (0, 1) '01', (0, 2)
# '100', ZRL '101', (1, 1) '1100', (0, 5) '1101', (0, 6) '11100' and
# (1, 0) '11101', which is corrupt in any AC position.  The all-ones
# prefix '1111' is invalid in both.  No code is longer than 5 bits, so
# the walk's peek is ``entropy_fast._PAIR_BITS`` = 11 bits wide.

DC_SPEC = TableSpec((0, 3, 1) + (0,) * 13, (0, 1, 11, 2))
AC_SPEC = TableSpec(
    (0, 2, 2, 2, 2) + (0,) * 11, (EOB, 0x01, 0x02, ZRL, 0x11, 0x05, 0x06, 0x10)
)
INVALID = ("raw", 0b1111, 4)
CORRUPT = ("ac", 0x10)


def tables():
    return HuffmanTable(DC_SPEC), HuffmanTable(AC_SPEC)


def stream(tokens):
    """Pack ``("dc", size)``, ``("ac", symbol)`` and ``("raw", value,
    width)`` tokens; every amplitude is the largest of its size."""
    dc_t, ac_t = tables()
    fields = []
    for token in tokens:
        if token[0] == "raw":
            fields.append(token[1:])
            continue
        rt = (dc_t if token[0] == "dc" else ac_t).runtime
        code, length = int(rt.enc_code[token[1]]), int(rt.enc_len[token[1]])
        size = token[1] if token[0] == "dc" else token[1] & 15
        fields += [(code, length), ((1 << size) - 1, size)]
    values, widths = (np.array(f, dtype=np.int64) for f in zip(*fields))
    return pack_bits(values, widths)


def ordinary(rng, n):
    """``n`` blocks of small DC and AC symbols, each ended by EOB."""
    tokens = []
    for _ in range(n):
        tokens.append(("dc", int(rng.choice([0, 1, 2, 11]))))
        for _ in range(int(rng.integers(0, 5))):
            tokens.append(("ac", int(rng.choice([0x01, 0x02, 0x11, 0x05]))))
        tokens.append(("ac", EOB))
    return tokens


def hand_task(tokens, n_blocks):
    dc_t, ac_t = tables()
    return stream(tokens), dc_t, ac_t, n_blocks


def row_advance(tokens, table):
    """Bits one walk row consumes when it starts at ``tokens`` with
    ``table`` (0: DC-pair, 1: AC-pair, 2: AC-single)."""
    luts, bits = entropy_fast._pair_luts(DC_SPEC, AC_SPEC)
    assert bits == entropy_fast._PAIR_BITS == 11
    data = stream(tokens) + b"\xff\xff"  # the 1-bit padding, as the walk sees it
    peek = int.from_bytes(data[:2], "big") >> (16 - bits)
    return int(luts[(table << bits) + peek]) & 63


def test_pair_exactly_filling_the_peek_and_one_bit_over():
    # DC size 0 (2 bits) + (0, 5) (4 + 5 bits) fill the 11-bit peek and
    # decode as one row; DC size 1 (3 bits) + (0, 5) is one bit over.
    assert row_advance([("dc", 0), ("ac", 0x05)], 0) == 11
    assert row_advance([("dc", 1), ("ac", 0x05)], 0) == 3
    # (0, 5) + EOB (2 bits) fill it; (0, 5) + (0, 1) (3 bits) overflow;
    # (0, 6) (11 bits) fills it alone.
    assert row_advance([("ac", 0x05), ("ac", EOB)], 1) == 11
    assert row_advance([("ac", 0x05), ("ac", 0x01)], 1) == 9
    assert row_advance([("ac", 0x06), ("ac", EOB)], 1) == 11
    # The AC-single table never pairs.
    assert row_advance([("ac", 0x01), ("ac", EOB)], 2) == 3
    rng = np.random.default_rng(5)
    cases = [
        [("dc", 0), ("ac", 0x05), ("ac", EOB)],
        [("dc", 1), ("ac", 0x05), ("ac", EOB)],
        [("dc", 2), ("ac", 0x05), ("ac", 0x01), ("ac", EOB)],
        [("dc", 0), ("ac", 0x06), ("ac", 0x05), ("ac", EOB)],
        [("dc", 11), ("ac", 0x05), ("ac", 0x05), ("ac", EOB)],
    ]
    tokens = []
    for i in rng.integers(0, len(cases), 150):
        tokens += cases[i]
    assert_batch_matches_sequential([hand_task(tokens, 150)])


def test_zrl_chains_past_the_block_end_as_decode_plane_accepts():
    # The encoder never writes these, but the sequential decoder reads
    # them: a ZRL that takes the cursor to 64 or past it ends the block
    # with no EOB, and EOB may follow a ZRL.
    rng = np.random.default_rng(6)
    ones = [("ac", 0x01)]
    cases = [
        [("dc", 0)] + [("ac", ZRL)] * 4,
        [("dc", 1), ("ac", ZRL), ("ac", EOB)],
        [("dc", 2)] + [("ac", ZRL)] * 3 + [("ac", 0x05), ("ac", EOB)],
        [("dc", 0)] + ones * 47 + [("ac", ZRL)],
        [("dc", 0)] + ones * 46 + [("ac", ZRL), ("ac", 0x01)],
        [("dc", 0)] + ones * 33 + [("ac", ZRL), ("ac", ZRL)],
        [("dc", 1)] + ones * 63,
    ]
    tokens = []
    for i in rng.integers(0, len(cases), 120):
        tokens += cases[i] + ordinary(rng, 1)
    assert_batch_matches_sequential([hand_task(tokens, 240)])


def test_nonzero_run_past_63_after_a_zrl_pair_fails():
    # From cursor 47, (ZRL, (1, 1)) puts a nonzero on index 64.
    rng = np.random.default_rng(7)
    bad = [("dc", 0)] + [("ac", 0x01)] * 46 + [("ac", ZRL), ("ac", 0x11)]
    tokens = ordinary(rng, 40) + bad + ordinary(rng, 40)
    assert_batch_matches_sequential([hand_task(tokens, 81)], fails=True)


# Where a bad symbol sits: read as a DC symbol, as the would-be second
# half of a DC pair, first in a row after a pair, second after a symbol
# that cannot pair with it, after a symbol that fills the peek alone,
# and past cursor 48, where rows are single.
BAD_SPOTS = {
    "dc": lambda bad: [bad],
    "after dc": lambda bad: [("dc", 0), bad],
    "after a pair": lambda bad: [("dc", 0), ("ac", 0x01), bad],
    "second of a pair": lambda bad: [("dc", 0), ("ac", 0x01), ("ac", 0x02), bad],
    "after a single": lambda bad: [("dc", 11), ("ac", 0x06), bad],
    "past cursor 48": lambda bad: [("dc", 0)] + [("ac", 0x01)] * 50 + [bad],
}


BAD_CASES = [("invalid prefix", spot) for spot in BAD_SPOTS] + [
    ("corrupt AC symbol", spot) for spot in BAD_SPOTS if spot != "dc"
]


@pytest.mark.parametrize("bad,spot", BAD_CASES)
def test_bad_symbol_on_either_side_of_a_pair_fails_like_decode_plane(bad, spot):
    token = INVALID if bad == "invalid prefix" else CORRUPT
    rng = np.random.default_rng(8)
    head, tail = ordinary(rng, 40), ordinary(rng, 40)
    bad_block = BAD_SPOTS[spot](token) + [("ac", EOB)]
    healthy = hand_task(ordinary(rng, 60), 60)
    assert_batch_matches_sequential(
        [healthy, hand_task(head + bad_block + tail, 81)], fails=True
    )
    # The same symbols after the last block are never read.
    assert_batch_matches_sequential(
        [healthy, hand_task(head + tail + bad_block, 80)]
    )
