"""Ranked Zipf sampling.

A Zipf distribution with parameter ``θ`` over ``n`` items assigns item of
rank ``i`` (1-based) probability proportional to ``1 / i^θ``.  ``θ = 0``
degenerates to the uniform distribution; the paper's default ``θ = 0.9`` is
highly skewed.  Sampling uses the inverse-CDF method over the precomputed
cumulative weights, so drawing a value costs ``O(log n)``.

The weights are plain Python, so importing the package loads no
third-party module (numpy added ~14 MB to every process).  Its floats may
not equal numpy's to the last bit, nor did numpy's SIMD ``power`` equal
scalar ``pow``; its draws equal the numpy sampler's, which a digest in
``tests/workload/test_zipf.py`` pins.
"""

from __future__ import annotations

import bisect
import random
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError


class ZipfSampler:
    """Draws 0-based item indices from a ranked Zipf distribution."""

    def __init__(
        self,
        num_items: int,
        theta: float = 0.9,
        rng: Optional[random.Random] = None,
        shuffle_ranks: bool = False,
    ):
        if num_items <= 0:
            raise ConfigurationError("a Zipf sampler needs at least one item")
        if theta < 0:
            raise ConfigurationError("the Zipf parameter theta must be non-negative")
        self.num_items = num_items
        self.theta = theta
        # A fixed-seed fallback keeps the sampler deterministic even when no
        # RNG is threaded through (the workload generator always passes one).
        self._rng = rng or random.Random(0)
        weights = [float(rank) ** -theta for rank in range(1, num_items + 1)]
        total = sum(weights)
        self._probabilities: List[float] = [weight / total for weight in weights]
        self._cumulative: List[float] = list(accumulate(self._probabilities))
        # Guard against floating point drift on the last bucket.
        self._cumulative[-1] = 1.0
        if shuffle_ranks:
            self._rank_to_item = list(range(num_items))
            self._rng.shuffle(self._rank_to_item)
        else:
            self._rank_to_item = list(range(num_items))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> int:
        """Draw one item index."""
        u = self._rng.random()
        rank = bisect.bisect_left(self._cumulative, u)
        if rank >= self.num_items:
            rank = self.num_items - 1
        return self._rank_to_item[rank]

    def sample_many(self, count: int) -> List[int]:
        """Draw ``count`` item indices."""
        return [self.sample() for _ in range(count)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def probability_of_rank(self, rank: int) -> float:
        """Probability assigned to the item of 0-based ``rank``."""
        if not 0 <= rank < self.num_items:
            raise ConfigurationError(
                f"rank must be in [0, {self.num_items}); got {rank}"
            )
        return self._probabilities[rank]

    def probabilities(self) -> Sequence[float]:
        """Probabilities by rank (rank 0 is the most popular item)."""
        return list(self._probabilities)

    def expected_skew_ratio(self) -> float:
        """Ratio between the most and least popular item probabilities."""
        return self._probabilities[0] / self._probabilities[-1]
