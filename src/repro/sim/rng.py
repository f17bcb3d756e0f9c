"""Deterministic randomness for simulations.

All stochastic behaviour (jitter on IO latencies, arrival processes in
workload generators) draws from a :class:`DeterministicRNG` created from
an explicit seed, so simulation runs are exactly reproducible.  Named
sub-streams keep independent components decoupled: adding draws to one
component does not perturb another.
"""

from __future__ import annotations

import hashlib

import numpy as np


class DeterministicRNG:
    """Seeded RNG with named, independent sub-streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """An independent generator derived from (seed, name)."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    # -- convenience draws on the root stream ------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def choice(self, seq):
        return seq[int(self._rng.integers(0, len(seq)))]

    def integers(self, low: int, high: int) -> int:
        return int(self._rng.integers(low, high))
