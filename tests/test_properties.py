"""Property-based invariants of the binning, statistics, and bound layers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgwitness import (
    concentration_eigenvalue,
    discrete_entropy,
    discrete_variance,
    entropic_bound_constant,
    histogram_entropy,
    histogram_variance,
    witness_grid,
)
from cgwitness.binning import MAX_FACTOR, MAX_INDEX, BinGrid, CountHistogram, DiscreteDistribution, rebin
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
    @settings(max_examples=120)
    def test_variance_correction(self, d):
        w = d.grid.width
        lhs = histogram_variance(d)
        rhs = discrete_variance(d) + w * w / 12.0
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(discrete_distributions())
    @settings(max_examples=120)
    def test_entropy_correction(self, d):
        lhs = histogram_entropy(d)
        rhs = discrete_entropy(d) + math.log(d.grid.width)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(discrete_distributions())
    @settings(max_examples=60)
    def test_discrete_entropy_nonnegative_and_bounded(self, d):
        h = discrete_entropy(d)
        assert -1e-12 <= h <= math.log(d.grid.n_bins) + 1e-12


def _reference_inputs(d):
    """(variance, entropy, ln width) of d in plain numpy, two-pass variance."""
    q, x = d.masses, d.grid.centers
    mean = (q * x).sum() / q.sum()
    variance = (q * (x - mean) ** 2).sum() / q.sum()
    entropy = -(q[q > 0] * np.log(q[q > 0])).sum()
    return variance, entropy, math.log(d.grid.width)


def _reference_value(witness_id, r, s):
    """(value, scale) of one witness; scale is the size of the terms the value sums."""
    (var_r, h_r, lw_r), (var_s, h_s, lw_s) = _reference_inputs(r), _reference_inputs(s)
    if witness_id == "coarse_entropic":
        terms = (h_r, lw_r, h_s, lw_s, math.log(entropic_bound_constant(r.grid.width * s.grid.width)))
        return sum(terms), sum(abs(x) for x in terms)
    if witness_id == "coarse_variance":
        var_r += r.grid.width**2 / 12.0
        var_s += s.grid.width**2 / 12.0
    return var_r * var_s - 1.0, var_r * var_s + 1.0


class TestWitnessGridProperties:
    @given(
        st.lists(discrete_distributions(), min_size=1, max_size=3),
        st.lists(discrete_distributions(), min_size=1, max_size=3),
    )
    @settings(max_examples=40)
    def test_cells_match_reference_and_one_cell_grids(self, rs, ss):
        grid = witness_grid(rs, ss)
        for witness_id, values in grid.items():
            assert values.shape == (len(rs), len(ss))
            for i, r in enumerate(rs):
                for j, s in enumerate(ss):
                    want, scale = _reference_value(witness_id, r, s)
                    assert abs(values[i, j] - want) <= 1e-12 * scale, (witness_id, i, j)
                    one = witness_grid([r], [s], (witness_id,))[witness_id]
                    assert values[i, j] == one[0, 0], (witness_id, i, j)


class TestRebinProperties:
    @given(count_histograms(), st.sampled_from([1, 3, 5, 7, 9]))
    @settings(max_examples=120)
    def test_counts_conserved(self, h, factor):
        r = rebin(h, factor)
        assert r.counts.sum() == h.counts.sum()
        assert r.grid.width == pytest.approx(factor * h.grid.width, rel=1e-12)

    @given(
        count_histograms(),
        # odd factors below, at and above the 60-bin ceiling of count_histograms
        st.one_of(st.integers(min_value=0, max_value=70).map(lambda k: 2 * k + 1), st.just(MAX_FACTOR)),
    )
    @example(CountHistogram(BinGrid(1.0, -MAX_INDEX, 2 - MAX_INDEX), np.array([1, 2, 3])), MAX_FACTOR)
    @example(CountHistogram(BinGrid(1.0, MAX_INDEX - 2, MAX_INDEX), np.array([1, 2, 3])), MAX_FACTOR)
    @example(CountHistogram(BinGrid(1.0, 3, 9), np.arange(7)), 7)
    @settings(max_examples=150)
    def test_each_group_sums_its_member_bins(self, h, factor):
        half = (factor - 1) // 2
        want = {}
        for j, count in zip(h.grid.indices.tolist(), h.counts.tolist()):
            group = (j + half) // factor
            want[group] = want.get(group, 0) + count
        r = rebin(h, factor)
        assert r.grid.indices.tolist() == sorted(want)
        assert r.counts.tolist() == [want[group] for group in sorted(want)]

    @given(count_histograms(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=80)
    def test_every_fine_bin_lands_in_exactly_one_group(self, h, factor):
        r = rebin(h, factor)
        half = factor // 2
        for j in h.grid.indices:
            group = math.floor((j + half) / factor)
            assert r.grid.j_min <= group <= r.grid.j_max

    @given(count_histograms(), st.sampled_from([3, 5]))
    @settings(max_examples=80)
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
    @settings(max_examples=60)
    def test_bounded_and_positive(self, gamma):
        c = entropic_bound_constant(gamma)
        assert 0.0 < c <= FLAT * (1.0 + 1e-12)

    @given(
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_monotone_nonincreasing(self, gamma, step):
        a = entropic_bound_constant(gamma)
        b = entropic_bound_constant(gamma + step)
        assert b <= a * (1.0 + 1e-9)

    @given(
        st.floats(min_value=1e-3, max_value=300.0),
        st.floats(min_value=1.0001, max_value=4.0),
    )
    @settings(max_examples=60)
    def test_gamma_times_c_nondecreasing(self, gamma, factor):
        # gamma * C(gamma) is the concentration eigenvalue branch: increasing
        lo = gamma * entropic_bound_constant(gamma)
        hi = gamma * factor * entropic_bound_constant(gamma * factor)
        assert hi >= lo * (1.0 - 1e-9)

    @given(st.floats(min_value=0.0, max_value=14.0, exclude_min=True))
    @example(14.0)
    @settings(max_examples=100)
    def test_nystrom_matches_specfun(self, c):
        # the Nystrom eigensolve against (2c/pi) R_00(c, 1)^2 from Zhang &
        # Jin's independent routines, on its whole domain (0, 14]
        reference = 2.0 * c / math.pi * radial_first_kind_specfun(c) ** 2
        assert abs(concentration_eigenvalue(c) - reference) < 1e-8
