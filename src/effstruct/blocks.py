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


def _check_bits(bits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(bits)
    if out.count(0) + out.count(1) != len(out):
        raise InputError("bits must be 0 or 1")
    return out


def block_offset(i: int) -> int:
    """Index of the first element of block i; block i has 2i+4 elements."""
    return i * i + 3 * i


def block_runs(bits: Sequence[int]) -> list[int]:
    """Lengths of the blocks' classes, one block for each bit, which are
    consecutive intervals from 0, in window order.

    Block i is one class of 2i+4 elements when bit i is 1; when it is 0
    the block's last element is split off as a singleton after 2i+3.
    """
    runs = []
    for i, bit in enumerate(_check_bits(bits)):
        if bit == 1:
            runs.append(2 * i + 4)
        else:
            runs += (2 * i + 3, 1)
    return runs


def encode_blocks(bits: Sequence[int]) -> Partition:
    """Equivalence structure with one block for each bit, built from its runs."""
    return Partition.from_runs(block_runs(bits))


def block_character(bits: Sequence[int]) -> Character:
    """Character computed directly from the coding formula, in size order."""
    head = _check_bits(bits)
    zeros = head.count(0)
    return Character(([(1, zeros)] if zeros else [])
                     + [(2 * i + 3 + (bit == 1), 1) for i, bit in enumerate(head)])


def decode_character(ch: Character, n: int) -> list[int]:
    """Recover the bit vector from a block-structure character."""
    entries = ch.entries
    bits = []
    for i in range(n):
        joined = entries.get(2 * i + 4) == 1
        if joined == (entries.get(2 * i + 3) == 1):
            raise InputError(
                f"character is not a block coding: block {i} needs exactly one "
                f"of sizes {2 * i + 3} and {2 * i + 4}"
            )
        bits.append(1 if joined else 0)
    # each block's size has count 1, so ``entries`` is the coding's exactly
    # when the singletons count the zeros and it holds nothing else
    zeros = bits.count(0)
    if entries.get(1, 0) != zeros or len(entries) != n + (zeros > 0):
        raise InputError("character does not match any block coding on "
                         f"{n} blocks")
    return bits


def parse_bits(text: str) -> list[int]:
    """Parse a CLI bit string like '1011'."""
    if not text or any(c not in "01" for c in text):
        raise InputError(f"bit string must be nonempty over {{0,1}}, got {text!r}")
    return [int(c) for c in text]
