"""Deterministic random-number plumbing.

A run owns one root seed, and each consumer draws from its own named
stream: ``init`` for the parameters, ``trainer_shuffle:{e}`` for epoch e's
order, ``trainer_step:{s}`` for step s's picks and dropout.  A stream depends
only on (seed, name): no consumer perturbs another, and any step can be redrawn.
"""

import hashlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator for ``name`` derived from ``seed``."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    salt = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))
