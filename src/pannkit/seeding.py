"""Deterministic derivation of independent random streams from one global seed.

Every stochastic component (shuffling, mixup, noise injection, attacks, data
synthesis) draws from its own labeled stream so that enabling or disabling one
component never shifts the draws seen by another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator for the component named by ``label``, seeded
    with the first 64 bits of the hash of (seed, label)."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
