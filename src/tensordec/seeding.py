"""Deterministic RNG derivation and blocked work.

Every randomized routine takes an integer seed and derives independent
per-trial generators with a counter, so results do not depend on how many
worker threads consumed the trial list. The first counter is a fixed
per-subsystem tag, so two subsystems handed the same user seed never
consume the same stream.
"""

import numpy as np

TAG_JENNRICH = 1
TAG_POWER = 2
TAG_SAMPLER = 3
TAG_LAB = 4
TAG_SYNTH = 5
TAG_NOISE = 7


def derive_rng(seed, *counters):
    """Generator keyed by (seed, *counters); stable across thread counts."""
    return np.random.default_rng([int(seed), *[int(c) for c in counters]])


def fill_blocks(out, block, fill, mapper=map):
    """Fill ``out`` in blocks of ``block`` rows: ``fill(index, rows)`` writes
    block ``index`` into ``rows``, its own view of ``out``. The blocks are
    fixed by ``len(out)`` and ``block`` and never overlap, so ``mapper`` may
    run them on a thread pool, in any order, without changing a byte."""
    views = [out[start : start + block] for start in range(0, len(out), block)]
    for _ in mapper(lambda spec: fill(*spec), list(enumerate(views))):
        pass
    return out
