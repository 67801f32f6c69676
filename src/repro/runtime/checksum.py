"""Shared CRC-16 used by every framed byte format in the project.

Three on-disk/on-wire formats carry the same checksum: the compressed
trace bitstream (:mod:`repro.compress.framing`), the debug-service
wire protocol (:mod:`repro.server.protocol`), and the session store's
write-ahead log (:mod:`repro.store.wal`).  They historically each
reached into :func:`repro.compress.framing.crc16`; this module is the
single home so a transport package never has to import the codec.

The polynomial is CRC-16/CCITT-FALSE: ``poly=0x1021``, ``init=0xFFFF``,
no reflection, no final xor.  Check value: ``crc16(b"123456789") ==
0x29B1``.  That is the CRC the standard library's
:func:`binascii.crc_hqx` computes, so :func:`crc16` calls it; the
original bitwise loop is kept as :func:`crc16_bitwise`, the reference
definition the tests hold it to.
"""

from __future__ import annotations

import binascii

#: Generator polynomial (x^16 + x^12 + x^5 + 1), normal representation.
CRC16_POLY = 0x1021

#: Initial shift-register value.
CRC16_INIT = 0xFFFF


def crc16(data: bytes, crc: int = CRC16_INIT) -> int:
    """CRC-16/CCITT-FALSE over *data*, continuing from *crc*."""
    return binascii.crc_hqx(data, crc)


def crc16_bitwise(data: bytes, crc: int = CRC16_INIT) -> int:
    """Reference bit-at-a-time implementation (the original loop that
    lived in ``repro.compress.framing``); kept for equivalence tests."""
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ CRC16_POLY) if crc & 0x8000 else crc << 1
            crc &= 0xFFFF
    return crc


__all__ = ["CRC16_INIT", "CRC16_POLY", "crc16", "crc16_bitwise"]
