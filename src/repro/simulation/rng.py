"""Deterministic random number generation for simulations.

Every stochastic component (trace generation, dataset sampling, routing,
client think times and retries) draws from a :class:`SeededRNG` derived
from a single experiment seed, so repeated runs of an experiment are
bit-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np


class SeededRNG:
    """A named, seeded random generator.

    Child generators created with :meth:`child` derive their seed from the
    parent seed and the child's name, which keeps independent components'
    random streams stable even when the order in which they are constructed
    changes.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._generator = np.random.default_rng(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    def child(self, name: str) -> "SeededRNG":
        """Create an independent generator for a sub-component."""
        return SeededRNG(self.seed, f"{self.name}/{name}")

    # Convenience passthroughs used throughout the workloads package.
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._generator.uniform(low, high, size)

    def exponential(self, scale: float, size=None):
        return self._generator.exponential(scale, size)

    def lognormal(self, mean: float, sigma: float, size=None):
        return self._generator.lognormal(mean, sigma, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._generator.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._generator.integers(low, high, size)

    def choice(self, values, size=None, p=None):
        return self._generator.choice(values, size=size, p=p)

    def poisson(self, lam: float, size=None):
        return self._generator.poisson(lam, size)

    def geometric(self, p: float, size=None):
        return self._generator.geometric(p, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRNG(seed={self.seed}, name={self.name!r})"
