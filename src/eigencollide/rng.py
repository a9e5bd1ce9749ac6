"""Splittable random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator, keyed through `numpy.random.SeedSequence`.  A stream is
identified by the experiment seed plus an integer key path, e.g.
(domain, path_index, entry_index, part); SeedSequence hashes the path into
an independent key, so streams never depend on scheduling or worker count.

`substream` hands SeedSequence the uint32 words numpy itself assembles
from `SeedSequence(entropy=seed, spawn_key=key)`: the seed's two words
(low first), zeros up to the pool size of 4, then one word per key
component.  SeedSequence hashes its first 4 words with absent ones read as
0 and mixes any further word in, so these words give the same state, and
the same stream, as numpy's assembly.  That holds while each component
fits one word, so components are integers in [0, 2**32) (`_KEY_LIMIT`);
numpy would spread a larger one over several words.  Building the words
directly skips numpy's per-component conversion, and the Philox counter
starts at its default zero from one read-only array.

Domain tags keep unrelated consumers (field sampler, SDE integrator, ...)
out of each other's keyspace.
"""

from __future__ import annotations

from operator import index

import numpy as np

__all__ = ["DOMAIN_FIELD", "DOMAIN_SDE", "substream"]

DOMAIN_FIELD = 0
DOMAIN_SDE = 1
_KEY_LIMIT = 1 << 32  # key components fit one uint32 word each
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's default counter
_ZERO_COUNTER.flags.writeable = False


def _seed_problems(seed: int) -> list[str]:
    """What is wrong with `seed` as an experiment seed; `substream` raises
    it and config validation reports it."""
    return [] if 0 <= seed < 2**64 else ["seed must be a 64-bit unsigned integer"]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for (seed, key path): draw for
    draw `Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))`.

    Key components are integers (numpy integers included) in
    [0, _KEY_LIMIT); anything else raises, a float as TypeError."""
    problems = _seed_problems(seed)
    if problems:
        raise ValueError("; ".join(problems))
    seed = index(seed)
    key = tuple(map(index, key))
    if key and not (min(key) >= 0 and max(key) < _KEY_LIMIT):
        raise ValueError("stream key components must be integers in [0, 2**32)")
    words = np.array((seed & 0xFFFFFFFF, seed >> 32, 0, 0) + key, dtype=np.uint32)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(words), counter=_ZERO_COUNTER)
    )
