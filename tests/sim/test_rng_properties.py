"""Property-based tests for the seeded randomness layer.

The simulator's determinism bottoms out here: Zipf weights (the
workload generator's user skew) must be a valid, monotone distribution
for any population size, bounded draws must respect their bounds, and
the same seed must reproduce the same draws.
"""

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim.rng import RandomStreams, bounded_lognormal, zipf_weights


class TestZipfWeights:
    @given(n=st.integers(1, 2000), s=st.floats(0.1, 3.0))
    @settings(deadline=None)
    def test_normalized_and_positive(self, n, s):
        w = zipf_weights(n, s=s)
        assert len(w) == n
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0)

    @given(n=st.integers(2, 2000), s=st.floats(0.1, 3.0))
    @settings(deadline=None)
    def test_monotone_decreasing(self, n, s):
        """Rank 1 is the heaviest user; weights never increase with rank."""
        w = zipf_weights(n, s=s)
        assert np.all(np.diff(w) <= 0)
        assert w[0] == max(w)

    @given(n=st.integers(2, 500))
    @settings(deadline=None)
    def test_higher_skew_concentrates_head(self, n):
        """A larger exponent always gives the top rank a bigger share."""
        flat = zipf_weights(n, s=0.5)
        skewed = zipf_weights(n, s=2.0)
        assert skewed[0] > flat[0]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestBoundedLognormal:
    @given(
        seed=st.integers(0, 2**32 - 1),
        mean=st.floats(0.001, 1e6),
        sigma=st.floats(0.0, 5.0),
        low=st.floats(0.0, 100.0),
        span=st.floats(0.0, 1e6),
    )
    @settings(deadline=None)
    def test_respects_bounds(self, seed, mean, sigma, low, span):
        gen = np.random.default_rng(seed)
        high = low + span
        val = bounded_lognormal(gen, mean, sigma, low, high)
        assert low <= val <= high

    def test_rejects_inverted_bounds(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bounded_lognormal(gen, 1.0, 1.0, low=10.0, high=1.0)


class TestSeedDeterminism:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_same_seed_same_stream(self, seed):
        a = RandomStreams(seed=seed).stream("arrivals").integers(0, 10**6, 16)
        b = RandomStreams(seed=seed).stream("arrivals").integers(0, 10**6, 16)
        assert (a == b).all()

    def test_streams_are_independent(self):
        """Draining one stream must not perturb a sibling."""
        rs1 = RandomStreams(seed=9)
        rs1.stream("noise").integers(0, 100, 1000)  # heavy use first
        after_noise = rs1.stream("arrivals").integers(0, 10**6, 8)
        fresh = RandomStreams(seed=9).stream("arrivals").integers(0, 10**6, 8)
        assert (after_noise == fresh).all()

    def test_forks_diverge_from_parent_and_siblings(self):
        rs = RandomStreams(seed=4)
        a = rs.fork("a").stream("s").integers(0, 10**6, 8)
        b = rs.fork("b").stream("s").integers(0, 10**6, 8)
        parent = rs.stream("s").integers(0, 10**6, 8)
        assert not (a == b).all()
        assert not (a == parent).all()
