"""Deterministic stream splitting.

All randomness in the package flows through named child streams derived
from a 64-bit master seed and an integer index path:

    child = SeedSequence((master & MASK64, *path))

``SeedSequence`` hashes the tuple, so streams for distinct paths are
independent and reproducible on any platform, under any execution order.
Every path in use, under the run's master seed:

    (seed, i)                 gen_signal_set: signal i
    (seed, 0, trial, signal)  optimizer: bootstrap stream (all B replicates);
                              optimize's summary reads the kept estimates
    (seed, 1, trial)          optimizer: TPE proposal / random init draws
    (seed, tag, i)            CLI per-signal bootstrap records, signal i: tag 0
                              estimate and compare's first class, tag 1
                              compare's second class
    (seed, 0), (seed, 1)      method_comparison: signal set, optimizer seed
    (seed, 0), (seed, 1, rep), (seed, 2, rep, j)
                              estimator_error: population, subsample of
                              repeat rep, bootstrap of its j-th signal

so results do not depend on execution order. A bootstrap draws all B
replicates' blocks from generator(child_seed(path)), with no per-replicate level.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def seed_sequence(master: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for the child stream at ``path`` under ``master``."""
    return np.random.SeedSequence((int(master) & _MASK64, *[int(p) for p in path]))


def generator(master: int, *path: int) -> np.random.Generator:
    """Fresh Generator for the child stream at ``path``."""
    return np.random.default_rng(seed_sequence(master, *path))


def child_seed(master: int, *path: int) -> int:
    """Collapse a child stream to a single 64-bit seed.

    Used where a config object carries one integer seed (e.g. a bootstrap
    config derived per trial and signal).
    """
    return int(seed_sequence(master, *path).generate_state(1, np.uint64)[0])
