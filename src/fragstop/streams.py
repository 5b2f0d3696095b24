"""Reproducible random-number streams.

Every stochastic routine in the package takes an explicit generator or a
derived key, never global state.  All streams come from one derivation: the
SeedSequence of the master seed spawned at (hash of a purpose label, index).
Routines draw from its PCG64 generator; the run keys of an ensemble are the
raw words of its (label, 0) stream, one per run, so they do not depend on
chunking and a smaller ensemble's keys are a prefix of a larger one's.
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


def run_key(master_seed: int, label: str, n: int) -> np.ndarray:
    """Root hashes of the counter-based block streams of runs 0..n-1, as uint64.

    They are the first n raw words of the (label, 0) substream.
    """
    return substream(master_seed, label).bit_generator.random_raw(n)
