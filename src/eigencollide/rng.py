"""Splittable random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator, keyed through `numpy.random.SeedSequence`.  A stream is
identified by the experiment seed plus an integer key path, e.g.
(domain, path_index, entry_index, part); SeedSequence hashes the path into
an independent key, so streams never depend on scheduling or worker count.

Domain tags keep unrelated consumers (field sampler, SDE integrator, ...)
out of each other's keyspace.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DOMAIN_FIELD", "DOMAIN_SDE", "substream"]

DOMAIN_FIELD = 0
DOMAIN_SDE = 1


def _seed_problems(seed: int) -> list[str]:
    """What is wrong with `seed` as an experiment seed; `substream` raises
    it and config validation reports it."""
    return [] if 0 <= seed < 2**64 else ["seed must be a 64-bit unsigned integer"]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for (seed, key path)."""
    problems = _seed_problems(seed)
    if problems:
        raise ValueError("; ".join(problems))
    if any(k < 0 for k in key):
        raise ValueError("stream key components must be non-negative")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
