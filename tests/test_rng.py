"""Stream construction: `substream` against numpy's own keyed streams."""

import random

import numpy as np
import pytest

from eigencollide import rng
from eigencollide.rng import DOMAIN_FIELD, DOMAIN_SDE, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, random.Random(28).randrange(2**64)]
KEYS = [
    (),
    (0,),
    (DOMAIN_FIELD, 7, 3, 1),  # domain, path, entry, part
    (DOMAIN_SDE, 999),
    (np.int64(DOMAIN_FIELD), np.uint32(5), np.uint64(2), np.int8(0)),
    (2**32 - 1,),
    (DOMAIN_FIELD, 2**32 - 1, 2**32 - 1, 1),
]


def numpy_stream(seed, key):
    """The stream numpy builds for (seed, key) from its own assembly."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_substream_is_numpys_stream_draw_for_draw(seed, key):
    got, want = substream(seed, *key), numpy_stream(int(seed), tuple(int(k) for k in key))
    for part in ("key", "counter"):
        assert np.array_equal(got.bit_generator.state["state"][part],
                              want.bit_generator.state["state"][part])
    assert np.array_equal(got.standard_normal(300), want.standard_normal(300))
    assert np.array_equal(got.integers(0, 2**63, 50), want.integers(0, 2**63, 50))
    assert np.array_equal(got.random(7), want.random(7))


def test_numpy_integer_seed_is_its_int():
    key = (DOMAIN_FIELD, 3, 1, 0)
    for seed in (np.uint64(2**64 - 1), np.int64(5)):
        assert np.array_equal(
            substream(seed, *key).standard_normal(20),
            numpy_stream(int(seed), key).standard_normal(20),
        )


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_refused(seed):
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        substream(seed, 0)


@pytest.mark.parametrize("component", [-1, 2**32, np.int64(-1), 2**64])
def test_key_component_outside_one_word_refused(component):
    with pytest.raises(ValueError, match=r"key components must be integers in \[0, 2\*\*32\)"):
        substream(0, DOMAIN_FIELD, component)


@pytest.mark.parametrize("component", [1.5, 1.0, np.float64(2.0)])
def test_float_key_component_refused(component):
    # a uint32 array would truncate 1.5 to 1 and draw another key's stream
    with pytest.raises(TypeError):
        substream(0, DOMAIN_FIELD, component)


def test_zero_counter_is_read_only_and_stays_zero():
    counter = rng._ZERO_COUNTER
    assert counter.dtype == np.uint64 and not counter.flags.writeable
    g = substream(3, DOMAIN_SDE, 1)
    g.standard_normal(10_000)
    assert g.bit_generator.state["state"]["counter"].any()  # the stream's own copy moved
    assert np.array_equal(counter, np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        counter[0] = 1
