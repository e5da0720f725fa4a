"""Deterministic stream splitting.

All randomness in the package flows through named child streams derived
from a 64-bit master seed and an integer index path:

    child = SeedSequence((master & MASK64, *path))

``SeedSequence`` hashes the tuple, so streams for distinct paths are
independent and reproducible on any platform, under any execution order.
Conventions used by the optimizer and harnesses:

    child_seed(seed, 0, trial, signal)   bootstrap stream (all B replicates)
    (seed, 1, trial)                     TPE proposal / random init draws
    (seed, 2, ...)                       harness-local streams

so results are identical whether per-signal work runs sequentially or in
parallel. The optimizer collapses (seed, 0, trial, signal) to one 64-bit
seed with child_seed, and bootstrap_sampen, the one bootstrap path, draws
every replicate's blocks from generator(that seed); there is no
per-replicate level.
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
