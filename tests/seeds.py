"""Replication generators for tests, seeded by numpy's own SeedSequence: the
streams that poisson_chaos.harness gives replication ``index`` of a run with
master seed ``master``."""

import numpy as np


def replication_rng(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(index,)))
