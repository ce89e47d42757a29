"""Property-based tests for the analysis toolbox."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import (
    coefficient_of_variation,
    jain_fairness_index,
    max_mean_ratio,
)
from repro.analysis.timeseries import sparkline
from repro.analysis.warmup import mser_cutoff
from repro.dns.resolver import ResolutionChain

from ..conftest import StubDns

utilization_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    min_size=1,
    max_size=20,
)


class TestFairnessProperties:
    @given(utilization_vectors)
    def test_jain_bounds(self, values):
        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(utilization_vectors, st.floats(min_value=0.01, max_value=100.0,
                                          allow_nan=False))
    def test_jain_scale_invariance(self, values, scale):
        scaled = [v * scale for v in values]
        # A subnormal entry can underflow to 0 when scaled; the result is
        # then not a scaled copy of the input (see the pinned examples).
        assume([v == 0.0 for v in values] == [v == 0.0 for v in scaled])
        a = jain_fairness_index(values)
        b = jain_fairness_index(scaled)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    def test_jain_smallest_subnormal_is_not_idle(self):
        assert jain_fairness_index([0.0, 5e-324]) == 0.5

    def test_jain_all_idle_is_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    @given(utilization_vectors)
    def test_max_mean_ratio_at_least_one(self, values):
        assert max_mean_ratio(values) >= 1.0 - 1e-12

    @given(utilization_vectors)
    def test_cov_nonnegative(self, values):
        assert coefficient_of_variation(values) >= 0.0

    @given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
           st.integers(min_value=1, max_value=20))
    def test_constant_vector_perfectly_fair(self, value, count):
        values = [value] * count
        assert jain_fairness_index(values) == pytest.approx(1.0, abs=1e-12)
        assert coefficient_of_variation(values) == pytest.approx(
            0.0, abs=1e-6
        )


class TestWarmupProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), min_size=2, max_size=400))
    def test_cutoff_within_bounds(self, series):
        cutoff = mser_cutoff(series)
        assert 0 <= cutoff <= len(series) * 0.5 + 5


class TestSparklineProperties:
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), max_size=300),
           st.integers(min_value=1, max_value=100))
    def test_length_and_charset(self, values, width):
        line = sparkline(values, width=width)
        assert len(line) <= max(width, len(values)) if values else line == ""
        assert set(line) <= set("▁▂▃▄▅▆▇█")
        if values:
            assert len(line) == min(width, len(values))


class TestNameserverClampProperties:
    @given(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    def test_effective_ttl_at_least_threshold(self, recommended, threshold):
        chain = ResolutionChain(
            StubDns(ttl=recommended), 1, min_accepted_ttl=threshold
        )
        assert chain.effective_ttl(recommended) >= min(threshold, recommended)

    @given(st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
           st.lists(st.floats(min_value=0.0, max_value=1000.0,
                              allow_nan=False), min_size=2, max_size=20))
    def test_clamp_is_monotone(self, threshold, ttls):
        """A larger recommended TTL never caches for less time."""
        chain = ResolutionChain(StubDns(ttl=1.0), 1, min_accepted_ttl=threshold)
        ordered = sorted(ttls)
        effective = [chain.effective_ttl(ttl) for ttl in ordered]
        assert all(a <= b + 1e-12 for a, b in zip(effective, effective[1:]))
