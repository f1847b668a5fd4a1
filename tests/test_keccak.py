"""Hash oracle tests against published keccak-256 vectors and the reference sponge."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_keccak

from sleepscan import keccak
from sleepscan.keccak import TRANSFER_TOPIC, event_topic, keccak256

# Published digests (independent oracles frozen into the suite).
EMPTY_DIGEST = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
ABC_DIGEST = "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
FOX_DIGEST = "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"

TRANSFER_HASH = 0xDDF252AD1BE2C89B69C2B068FC378DAA952BA7F163C4A11628F55A4DF523B3EF
APPROVAL_HASH = 0x8C5BE1E5EBEC7D5BD14F71427D1E84F3DD0314C0F7B2291E5B200AC8C7C3B925


def test_empty_input():
    assert keccak256(b"").hex() == EMPTY_DIGEST


def test_short_inputs():
    assert keccak256(b"abc").hex() == ABC_DIGEST
    assert keccak256(b"The quick brown fox jumps over the lazy dog").hex() == FOX_DIGEST


def test_digest_shape_and_determinism():
    for size in (0, 1, 135, 136, 137, 272, 1000):  # around the sponge rate
        payload = bytes(range(256))[: size % 256] * (size // 256 + 1)
        payload = payload[:size]
        digest = keccak256(payload)
        assert len(digest) == 32
        assert digest == keccak256(payload)
    assert keccak256(b"a" * 136) != keccak256(b"a" * 137)


def test_transfer_topic_constant():
    assert TRANSFER_TOPIC == TRANSFER_HASH


def test_event_topic_matches_published_hashes():
    assert event_topic("Transfer(address,address,uint256)") == TRANSFER_HASH
    assert event_topic("Approval(address,address,uint256)") == APPROVAL_HASH


# --------------------------------------------------------------------------
# differential: the kernel vs the loop-form reference sponge


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
@example(b"")
@example(b"abc")
@example(b"\xff" * 136)
# one short of, at and past 1 and 2 rate blocks
@example((bytes(range(256)) * 2)[:135])
@example((bytes(range(256)) * 2)[:136])
@example((bytes(range(256)) * 2)[:137])
@example((bytes(range(256)) * 2)[:271])
@example((bytes(range(256)) * 2)[:272])
def test_kernel_matches_reference(message):
    assert keccak256(message) == oracle_keccak.keccak256(message)


@pytest.mark.parametrize("seed", [1, 2, 3, 13])
def test_permutation_matches_the_reference_lane_by_lane(seed):
    rng = random.Random(seed)
    for _ in range(3):
        lanes = [rng.getrandbits(64) for _ in range(25)]
        state = list(lanes)
        keccak._permute(lanes)
        oracle_keccak._keccak_f(state)
        assert lanes == state
