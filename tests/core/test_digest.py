"""Property tests for the batched page fingerprint (repro.core.digest).

``page_digests`` is checked row by row against a scalar reference of the
fingerprint written here in plain Python integers: zero-pad the row to
whole 4096-byte blocks, digest each block as a position-weighted sum of
its native-endian 64-bit words salted with the block length, combine
the block digests with a second weighted sum salted with the row
length, and finish each sum with splitmix64.
"""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digest import page_digests, payload_digest

BLOCK = 4096
MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_mix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def ref_weights(n: int):
    return [ref_mix64(((i + 1) * GOLDEN) & MASK) | 1 for i in range(n)]


def ref_weighted(values, salt: int) -> int:
    acc = sum(w * v for w, v in zip(ref_weights(len(values)), values))
    return ref_mix64((acc + salt) & MASK)


def ref_payload_digest(row: bytes) -> int:
    """The fingerprint of one payload, one Python int at a time."""
    n = len(row)
    if n == 0:
        return ref_mix64(1)
    padded = row + bytes(-n % BLOCK)
    blocks = []
    for b in range(0, len(padded), BLOCK):
        block = padded[b : b + BLOCK]
        words = [int.from_bytes(block[i : i + 8], sys.byteorder)
                 for i in range(0, BLOCK, 8)]
        blocks.append(ref_weighted(words, BLOCK))
    return ref_weighted(blocks, n)


page_sizes = st.one_of(
    st.sampled_from([BLOCK, 2 * BLOCK, 3 * BLOCK]),
    st.integers(min_value=1, max_value=3 * BLOCK + 17),
)


@settings(deadline=None, max_examples=40)
@given(
    page_size=page_sizes,
    zero_rows=st.lists(st.booleans(), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_page_digests_match_scalar_reference(page_size, zero_rows, seed):
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 256, size=(len(zero_rows), page_size), dtype=np.uint8)
    stack[np.array(zero_rows)] = 0
    got = page_digests(stack, page_size)
    assert got.dtype == np.uint64 and got.shape == (len(zero_rows),)
    for row, digest in zip(stack, got.tolist()):
        assert digest == ref_payload_digest(row.tobytes())
        assert payload_digest(row) == page_digests(row[None], row.size)[0] == digest


def test_identical_rows_share_a_digest_and_length_salts_it():
    stack = np.zeros((3, 100), np.uint8)
    stack[1, 7] = 1
    d = page_digests(stack, 100).tolist()
    assert d[0] == d[2] != d[1]
    # Zero padding cannot alias a longer all-zero payload.
    assert payload_digest(np.zeros(100, np.uint8)) != payload_digest(np.zeros(BLOCK, np.uint8))


def test_empty_payloads():
    assert payload_digest(np.zeros(0, np.uint8)) == ref_mix64(1)
    assert page_digests(np.zeros((2, 0), np.uint8), 0).tolist() == [ref_mix64(1)] * 2
    assert page_digests(np.zeros((0, BLOCK), np.uint8), BLOCK).size == 0
