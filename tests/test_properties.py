"""Property-based invariants of the binning, statistics, and bound layers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgwitness import (
    characteristic_solution,
    discrete_entropy,
    discrete_variance,
    entropic_bound_constant,
    histogram_entropy,
    histogram_variance,
    radial_first_kind,
)
from cgwitness.binning import BinGrid, CountHistogram, DiscreteDistribution, rebin
from cgwitness.bound import SERIES_TAIL_SWITCH
from conftest import radial_first_kind_specfun

FLAT = 1.0 / (2.0 * math.e * math.pi)


@st.composite
def discrete_distributions(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    width = draw(st.floats(min_value=1e-3, max_value=30.0))
    j_min = draw(st.integers(min_value=-40, max_value=10))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    masses = np.asarray(raw) + 1e-9
    masses /= masses.sum()
    return DiscreteDistribution(BinGrid(width, j_min, j_min + n - 1), masses)


@st.composite
def count_histograms(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    width = draw(st.floats(min_value=1e-3, max_value=30.0))
    j_min = draw(st.integers(min_value=-40, max_value=10))
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=n, max_size=n)
    )
    return CountHistogram(BinGrid(width, j_min, j_min + n - 1), np.asarray(counts))


class TestCorrectionIdentities:
    @given(discrete_distributions())
    @settings(max_examples=120, deadline=None)
    def test_variance_correction(self, d):
        w = d.grid.width
        lhs = histogram_variance(d)
        rhs = discrete_variance(d) + w * w / 12.0
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(discrete_distributions())
    @settings(max_examples=120, deadline=None)
    def test_entropy_correction(self, d):
        lhs = histogram_entropy(d)
        rhs = discrete_entropy(d) + math.log(d.grid.width)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(discrete_distributions())
    @settings(max_examples=60, deadline=None)
    def test_discrete_entropy_nonnegative_and_bounded(self, d):
        h = discrete_entropy(d)
        assert -1e-12 <= h <= math.log(d.grid.n_bins) + 1e-12


class TestRebinProperties:
    @given(count_histograms(), st.sampled_from([1, 3, 5, 7, 9]))
    @settings(max_examples=120, deadline=None)
    def test_counts_conserved(self, h, factor):
        r = rebin(h, factor)
        assert r.counts.sum() == h.counts.sum()
        assert r.grid.width == pytest.approx(factor * h.grid.width, rel=1e-12)

    @given(count_histograms(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=80, deadline=None)
    def test_every_fine_bin_lands_in_exactly_one_group(self, h, factor):
        r = rebin(h, factor)
        half = factor // 2
        for j in h.grid.indices:
            group = math.floor((j + half) / factor)
            assert r.grid.j_min <= group <= r.grid.j_max

    @given(count_histograms(), st.sampled_from([3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_rebin_never_increases_entropy_resolution(self, h, factor):
        # merging bins cannot raise the discrete entropy
        total = h.counts.sum()
        if total == 0:
            return
        d = h.normalize()
        r = rebin(h, factor).normalize()
        assert discrete_entropy(r) <= discrete_entropy(d) + 1e-10


class TestBoundProperties:
    @given(st.floats(min_value=0.0, max_value=400.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_positive(self, gamma):
        c = entropic_bound_constant(gamma)
        assert 0.0 < c <= FLAT * (1.0 + 1e-12)

    @given(
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonincreasing(self, gamma, step):
        a = entropic_bound_constant(gamma)
        b = entropic_bound_constant(gamma + step)
        assert b <= a * (1.0 + 1e-9)

    @given(
        st.floats(min_value=1e-3, max_value=300.0),
        st.floats(min_value=1.0001, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gamma_times_c_nondecreasing(self, gamma, factor):
        # gamma * C(gamma) is the concentration eigenvalue branch: increasing
        lo = gamma * entropic_bound_constant(gamma)
        hi = gamma * factor * entropic_bound_constant(gamma * factor)
        assert hi >= lo * (1.0 - 1e-9)

    @given(st.floats(min_value=0.0, max_value=SERIES_TAIL_SWITCH, exclude_min=True))
    @example(SERIES_TAIL_SWITCH)
    @settings(max_examples=100, deadline=None)
    def test_series_matches_specfun(self, c):
        # the Bessel series against Zhang & Jin's independent routines, on
        # the whole series domain (0, 14]
        series = radial_first_kind(characteristic_solution(c))
        assert abs(series - radial_first_kind_specfun(c)) < 1e-8
