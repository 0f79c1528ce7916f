"""Block coding of a bit vector into an equivalence structure's character.

Block i occupies 2i+4 consecutive elements.  Its first 2i+3 elements are
always one class; the last element joins them exactly when bit i is set,
otherwise it stays a singleton.  Joined and split block sizes (2i+4 even,
2j+3 odd) never collide, so the bit vector is recoverable from the
size/count character alone.
"""

from __future__ import annotations

from typing import Sequence

from .eqrel import Character, Partition
from .errors import InputError


def _check_bits(bits: Sequence[int], n: int) -> tuple[int, ...]:
    out = tuple(bits)
    if len(out) < n:
        raise InputError(f"need at least {n} bits, got {len(out)}")
    if any(b not in (0, 1) for b in out):
        raise InputError("bits must be 0 or 1")
    return out


def block_offset(i: int) -> int:
    """Index of the first element of block i; block i has 2i+4 elements."""
    return i * i + 3 * i


def encode_blocks(bits: Sequence[int], n: int) -> Partition:
    """Equivalence structure over the first n blocks, built from its layout."""
    bits = _check_bits(bits, n)
    classes = []
    for i in range(n):
        start, stop = block_offset(i), block_offset(i + 1)
        classes.append(range(start, stop if bits[i] == 1 else stop - 1))
    return Partition.from_classes(block_offset(n), classes)


def block_character(bits: Sequence[int], n: int) -> Character:
    """Character computed directly from the coding formula."""
    bits = _check_bits(bits, n)
    entries: dict[int, int] = {}
    zeros = sum(1 for b in bits[:n] if b == 0)
    if zeros:
        entries[1] = zeros
    for i in range(n):
        entries[2 * i + 4 if bits[i] == 1 else 2 * i + 3] = 1
    return Character(entries)


def decode_character(ch: Character, n: int) -> list[int]:
    """Recover the bit vector from a block-structure character."""
    bits = []
    for i in range(n):
        joined = ch.count(2 * i + 4) == 1
        split = ch.count(2 * i + 3) == 1
        if joined == split:
            raise InputError(
                f"character is not a block coding: block {i} needs exactly one "
                f"of sizes {2 * i + 3} and {2 * i + 4}"
            )
        bits.append(1 if joined else 0)
    if ch != block_character(bits, n):
        raise InputError("character does not match any block coding on "
                         f"{n} blocks")
    return bits


def parse_bits(text: str) -> list[int]:
    """Parse a CLI bit string like '1011'."""
    if not text or any(c not in "01" for c in text):
        raise InputError(f"bit string must be nonempty over {{0,1}}, got {text!r}")
    return [int(c) for c in text]
