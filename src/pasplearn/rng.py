"""Deterministic, platform-independent random numbers (SplitMix64).

Dataset generation and multi-start learning must reproduce bit-identical
output for a fixed seed, across Python versions and platforms.  Rather
than relying on ``random.Random`` internals we use SplitMix64, whose
entire state is one 64-bit integer and whose output sequence is fixed by
the published constants.
"""

from __future__ import annotations

import operator

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 generator; ``split(tag)`` derives independent streams."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = operator.index(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self, tag: int) -> "SplitMix64":
        """Child generator for subtask ``tag``; detached from this stream."""
        child = SplitMix64(self.next_u64() ^ (tag * _GAMMA))
        return child

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive), via rejection sampling."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        # Rejection zone keeps the distribution exactly uniform.
        limit = _MASK + 1 - ((_MASK + 1) % span)
        while True:
            x = self.next_u64()
            if x < limit:
                return lo + x % span

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order randomized."""
        if k > len(seq):
            raise ValueError(f"cannot sample {k} from {len(seq)} items")
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]
