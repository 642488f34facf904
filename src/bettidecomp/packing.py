"""Signed integer matrices packed into Python ``int``s, one per column.

Entry k of a column becomes the W-bit field k of one ``int``, counted from
the least significant bit.  A multiply-add of packed columns then acts on
every row at once, in one big-int operation, and a field is unpacked only
when its value is needed.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import and_, rshift

# little-endian struct formats of signed slots of 1, 2, 4 and 8 bytes; a
# wider entry is written as unsigned 8-byte limbs, least significant first
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}
_MASK_64 = (1 << 64) - 1


class Packing:
    """A signed integer matrix of ``count`` rows, packed one ``int`` per column.

    Column ``key`` is ``flat[offsets[key]:offsets[key] + count]``; its
    entry c_k becomes the W-bit field k of ``columns[key]``, W = 8 * size,
    so that ``columns[key]`` is the sum over k of c_k * 2^(kW): signed
    fields, a negative one borrowing from the field above.  The bias holds
    2^(W-1) in every field.  On integer entries x, :meth:`read` forms
    bias + sum x * columns[key], which is sum over k of
    (2^(W-1) + v_k) * 2^(kW) with v_k row k's value on x: while every
    |v_k| < 2^(W-1), field k holds exactly 2^(W-1) + v_k, no field carrying
    into the next, and its top bit is set exactly when v_k >= 0.
    """

    __slots__ = ("width", "columns", "bias")

    def __init__(self, offsets: dict, flat: list[int], count: int, size: int):
        width = 8 * size
        # every entry in two's complement, written little-endian in one pass
        # into slots of 1, 2, 4 or 8 bytes (an entry wider than 8 bytes as
        # its interleaved limbs), then cut to size bytes each by one strided
        # copy per byte
        limbs = -(-size // 8)
        slot = 8 * limbs if limbs > 1 else 1 << (size - 1).bit_length()
        if limbs > 1:
            items = [0] * (len(flat) * limbs)
            for limb in range(limbs):
                items[limb::limbs] = map(and_, map(rshift, flat, repeat(64 * limb)), repeat(_MASK_64))
            data = struct.pack(f"<{len(items)}Q", *items)
        else:
            data = struct.pack(f"<{len(flat)}{_FORMATS[slot]}", *flat)
        if slot != size:
            slots, data = data, bytearray(len(flat) * size)
            for byte in range(size):
                data[byte::size] = slots[byte::slot]
        half = 1 << (width - 1)
        bias = int.from_bytes(half.to_bytes(size, "little") * count, "little")
        self.width = width
        self.bias = bias
        # a column's bytes read unsigned give u = sum (c_k mod 2^W) 2^(kW);
        # each field whose top bit is set holds c_k + 2^W, so subtracting
        # twice its top bit gives the signed sum
        columns = {}
        for key, at in offsets.items():
            u = int.from_bytes(data[at * size:(at + count) * size], "little")
            columns[key] = u - ((u & bias) << 1)
        self.columns = columns

    def read(self, entries) -> int:
        """Every row on integer entries ``(key, x)``, packed: one
        multiply-add per entry whose key has a column."""
        columns = self.columns
        acc = self.bias
        for key, x in entries:
            column = columns.get(key)
            if column is not None:
                acc += x * column
        return acc

    def first_negative(self, acc: int) -> int | None:
        """The first row negative in a packed reading, or None."""
        missing = (acc & self.bias) ^ self.bias  # top bits that are clear
        if not missing:
            return None
        return ((missing & -missing).bit_length() - 1) // self.width

    def field(self, acc: int, k: int) -> int:
        """Row k's value in a packed reading."""
        half = 1 << (self.width - 1)
        return ((acc >> (k * self.width)) & ((half << 1) - 1)) - half
