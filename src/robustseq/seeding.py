"""Deterministic, purpose-tagged random streams.

Every stochastic component draws from default_rng seeded with the run
seed plus a stable tag word, so adding or reordering one consumer never
shifts the draws seen by another.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from .errors import ValidationError


def _word(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise ValidationError("seed words must be non-negative")
        return int(tag)
    return _text_word(str(tag))


@lru_cache(maxsize=256)
def _text_word(text: str) -> int:
    digest = hashlib.blake2s(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, *tags)."""
    return np.random.default_rng([_word(seed), *(_word(t) for t in tags)])
