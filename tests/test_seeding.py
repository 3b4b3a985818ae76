"""Replication seeding: point_process.replication_seed is numpy's
SeedSequence(master, spawn_key=(index,)) followed by PCG64's seeding, and
the one generator harness._run_chunk reuses per chunk replays the stream of
a freshly seeded generator for every replication."""

import numpy as np
import pytest

from poisson_chaos.cli import main
from poisson_chaos.harness import collect
from poisson_chaos.point_process import _SEED_BLOCK, _seed_block, replication_seed

from seeds import replication_rng

# masters of one to five uint32 words; indices on both sides of the edges of
# the blocks of _SEED_BLOCK = 64 that replication_seed computes together,
# and of the word count's steps
MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 11, 2**140 + 2**70 + 5)
INDICES = (0, 63, 64, 65, 2**32 - 1, 2**32, 2**32 + 63, 2**64 - 1)


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("index", INDICES)
def test_state_is_seed_sequence_pcg64_state(master, index):
    expected = np.random.PCG64(np.random.SeedSequence(master, spawn_key=(index,))).state
    assert replication_seed(master, index) == expected


def _draws(_cfg, rng):
    # an odd number of 32-bit draws leaves half a 64-bit output buffered in
    # the bit generator; the next replication must not see it
    return np.concatenate([rng.integers(0, 2**32, size=3, dtype=np.uint32),
                           rng.standard_normal(2), [rng.poisson(5.0)]])


@pytest.mark.parametrize("workers", [1, 2])
def test_reused_generator_replays_fresh_generators(workers):
    # collect cuts R = 200, not a multiple of _SEED_BLOCK = 64, into four
    # chunks per worker, 50 or 25 replications long: every chunk but the
    # first starts inside a block, and most cross a block edge.  With one
    # worker each of the four blocks is hashed once
    _seed_block.cache_clear()
    got = collect(_draws, None, 200, 2**40 + 9, workers=workers)
    expected = np.array([_draws(None, replication_rng(2**40 + 9, i)) for i in range(200)])
    assert np.array_equal(got, expected)
    if workers == 1:
        assert _seed_block.cache_info().misses == -(-200 // _SEED_BLOCK)


def test_negative_seed_is_a_usage_error(tmp_path):
    assert main(["block", "--n", "10", "--reps", "100", "--seed", "-1",
                 "--out", str(tmp_path)]) == 2
