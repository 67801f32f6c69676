"""Tests for the shared CRC-16 helper (:mod:`repro.runtime.checksum`).

Three byte formats lean on this one function -- the compressed trace
bitstream, the wire protocol, and the session store's WAL -- so the
check value and the equivalence of the stdlib CRC with the bitwise
reference are pinned here once.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.checksum import (
    CRC16_INIT,
    CRC16_POLY,
    crc16,
    crc16_bitwise,
)


def test_constants():
    assert CRC16_POLY == 0x1021
    assert CRC16_INIT == 0xFFFF


def test_ccitt_false_check_value():
    # the standard check input for CRC-16/CCITT-FALSE
    assert crc16(b"123456789") == 0x29B1
    assert crc16_bitwise(b"123456789") == 0x29B1


def test_empty_input_is_the_init_value():
    assert crc16(b"") == CRC16_INIT
    assert crc16_bitwise(b"") == CRC16_INIT


def test_single_bit_flip_changes_the_crc():
    data = bytes(range(64))
    baseline = crc16(data)
    flipped = bytearray(data)
    flipped[17] ^= 0x01
    assert crc16(bytes(flipped)) != baseline


@given(st.binary(max_size=512), st.integers(0, 0xFFFF))
def test_matches_bitwise_reference_from_any_initial_value(data, init):
    assert crc16(data, init) == crc16_bitwise(data, init)


def test_matches_bitwise_reference_up_to_64_kib():
    rng = random.Random(16)
    for size in (0, 1, 2, 300, 4095, 65536):
        data = bytes(rng.randrange(256) for _ in range(size))
        init = rng.randrange(0x10000)
        assert crc16(data, init) == crc16_bitwise(data, init)


@given(st.binary(max_size=256), st.binary(max_size=256))
def test_streaming_continuation(head, tail):
    # feeding in two parts through the ``crc`` parameter must equal
    # one pass over the concatenation
    assert crc16(tail, crc16(head)) == crc16(head + tail)


def test_consumers_share_this_implementation():
    # the three framed formats must all resolve to this module
    from repro.compress import framing
    from repro.server import protocol
    from repro.store import wal

    assert framing.crc16 is crc16
    assert protocol.crc16 is crc16
    assert wal.crc16 is crc16
