"""Tests for the Zipf sampler."""

import hashlib
import random
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workload.zipf import ZipfSampler


class TestZipfSampler:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, theta=-0.1)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(10, theta=0.9)
        assert sum(sampler.probabilities()) == pytest.approx(1.0)

    def test_probabilities_decrease_with_rank(self):
        sampler = ZipfSampler(10, theta=0.9)
        probs = sampler.probabilities()
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_theta_zero_is_uniform(self):
        sampler = ZipfSampler(4, theta=0.0)
        assert sampler.probabilities() == pytest.approx([0.25] * 4)

    def test_samples_within_range(self):
        sampler = ZipfSampler(7, theta=0.9, rng=random.Random(1))
        assert all(0 <= s < 7 for s in sampler.sample_many(500))

    def test_skew_observed_in_samples(self):
        sampler = ZipfSampler(10, theta=0.9, rng=random.Random(2))
        counts = Counter(sampler.sample_many(5000))
        assert counts[0] > counts[9] * 2

    def test_higher_theta_more_skewed(self):
        low = ZipfSampler(10, theta=0.3)
        high = ZipfSampler(10, theta=0.9)
        assert high.expected_skew_ratio() > low.expected_skew_ratio()

    def test_determinism_with_seeded_rng(self):
        a = ZipfSampler(10, theta=0.9, rng=random.Random(3)).sample_many(50)
        b = ZipfSampler(10, theta=0.9, rng=random.Random(3)).sample_many(50)
        assert a == b

    def test_probability_of_rank_bounds(self):
        sampler = ZipfSampler(5)
        with pytest.raises(ConfigurationError):
            sampler.probability_of_rank(5)
        assert sampler.probability_of_rank(0) > sampler.probability_of_rank(4)

    def test_single_item(self):
        sampler = ZipfSampler(1, theta=0.9)
        assert sampler.sample() == 0


#: sha256 of ``repr`` of the draws below, taken with the numpy-backed sampler
#: this plain-Python one replaced.  Its floats may not equal numpy's to the
#: last bit; its draws must.
DRAWS_DIGEST = "60a12c55ef878c9c9d39d22eedb337d5395787e70ee2cff500cfd6735b6f8e2d"


def test_draws_match_the_pinned_digest():
    cells = [
        (n, theta, shuffle)
        for n in (1, 4, 6, 8, 200, 1000)
        for theta in (0.0, 0.3, 0.5, 0.6, 0.7, 0.9, 1.2)
        for shuffle in (False, True)
    ]
    draws = [
        ZipfSampler(
            n, theta, rng=random.Random(index), shuffle_ranks=shuffle
        ).sample_many(5000)
        for index, (n, theta, shuffle) in enumerate(cells)
    ]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == DRAWS_DIGEST
