"""Reproducible random-number streams.

Every stochastic routine in the package takes an explicit generator or a
derived key, never global state.  Streams are derived from a single master
seed by hashing a purpose label plus a replicate index, so results are
bit-reproducible for a fixed master seed regardless of how replicates are
chunked.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_hash(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=4).digest(), "little")


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent PCG64 stream for (label, index) under the master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(_label_hash(label), index))
    return np.random.Generator(np.random.PCG64(seq))


def run_key(master_seed: int, label: str, index: int = 0) -> int:
    """64-bit root hash of the counter-based block streams of one fragmentation run.

    The seed is hashed as at least 16 little-endian bytes, more for seeds of
    2**128 and above.
    """
    h = hashlib.blake2b(digest_size=8)
    n_bytes = max(16, (master_seed.bit_length() + 7) // 8)
    h.update(master_seed.to_bytes(n_bytes, "little", signed=False))
    h.update(label.encode())
    h.update(index.to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest(), "little")
