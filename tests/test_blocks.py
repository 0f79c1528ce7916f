"""Block coder: character formula, structure agreement, round trips."""

import random

import pytest

from effstruct.blocks import (
    block_character,
    block_offset,
    decode_character,
    encode_blocks,
    parse_bits,
)
from effstruct.eqrel import Character, character_of
from effstruct.errors import InputError


def test_encode_examples():
    assert [len(c) for c in encode_blocks([1]).classes()] == [4]
    assert sorted(len(c) for c in encode_blocks([0]).classes()) == [1, 3]
    assert sorted(len(c) for c in encode_blocks([1, 0]).classes()) == [1, 4, 5]
    with pytest.raises(InputError):
        encode_blocks([2])


def test_block_layout():
    assert block_offset(0) == 0
    assert block_offset(1) == 4  # block 0 holds 4 elements
    assert block_offset(2) == 10  # block 1 holds 6


def test_character_formula():
    assert block_character([1, 0]) == Character({4: 1, 5: 1, 1: 1})
    assert block_character([1, 1, 1]) == Character({4: 1, 6: 1, 8: 1})
    assert block_character([0, 0]) == Character({3: 1, 5: 1, 1: 2})


def test_decode_examples():
    assert decode_character(Character({4: 1, 5: 1, 1: 1}), 2) == [1, 0]
    assert decode_character(Character({4: 1, 6: 1, 8: 1}), 3) == [1, 1, 1]
    with pytest.raises(InputError):
        decode_character(Character({7: 1}), 1)  # neither size 3 nor 4 present
    with pytest.raises(InputError):
        decode_character(Character({3: 1, 4: 1}), 1)  # both present
    with pytest.raises(InputError):
        decode_character(Character({4: 1, 1: 5}), 1)  # singleton count off


def test_round_trip_64_bits():
    rng = random.Random(64)
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(64)]
        assert decode_character(block_character(bits), 64) == bits


def test_formula_agrees_with_structure():
    rng = random.Random(99)
    for n in range(33):
        bits = [rng.randint(0, 1) for _ in range(n)]
        assert character_of(encode_blocks(bits)) == block_character(bits)


def test_sizes_never_collide():
    sizes = set()
    for i in range(64):
        for size in (2 * i + 4, 2 * i + 3):
            assert size not in sizes
            sizes.add(size)


def test_parse_bits():
    assert parse_bits("1011") == [1, 0, 1, 1]
    with pytest.raises(InputError):
        parse_bits("")
    with pytest.raises(InputError):
        parse_bits("10a1")
