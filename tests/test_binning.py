import math

import numpy as np
import pytest

from cgwitness import MarginalSpec, bin_mass_oracle, coarse_grained_marginal
from cgwitness.binning import (
    MAX_BINS,
    MAX_FACTOR,
    MAX_INDEX,
    BinGrid,
    CountHistogram,
    DiscreteDistribution,
    coarse_grain,
    frozen_counts,
    rebin,
)
from cgwitness.errors import InvalidParameterError, TruncationError
from conftest import traced_peak


def _bin_edges(grid):
    """The [lo, hi] interval coarse_grain integrates over for each bin of grid."""
    seen = []

    def oracle(lo, hi):
        seen.append((np.asarray(lo), np.asarray(hi)))
        return np.full(np.shape(lo), 1.0 / grid.n_bins)

    coarse_grain(oracle, grid)
    return seen[0]


class TestBinGrid:
    def test_basic_layout(self):
        g = BinGrid(0.5, -2, 3)
        assert g.n_bins == 6
        assert list(g.indices) == [-2, -1, 0, 1, 2, 3]
        np.testing.assert_allclose(g.centers, np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]))
        lo, hi = _bin_edges(g)
        assert lo[2] == -0.25 and hi[2] == 0.25

    def test_edges_tile_the_line(self):
        # bin j is [(j - 1/2) w, (j + 1/2) w] around its center j w
        g = BinGrid(0.7, -4, 4)
        lo, hi = _bin_edges(g)
        np.testing.assert_allclose(hi[:-1], lo[1:], rtol=0, atol=1e-15)
        np.testing.assert_allclose((lo + hi) / 2, g.centers, rtol=0, atol=1e-15)
        np.testing.assert_allclose(hi - lo, 0.7, rtol=1e-14)

    def test_spanning_covers_interval(self):
        g = BinGrid.spanning(0.3, -1.0, 2.0)
        assert (g.j_min - 0.5) * g.width <= -1.0
        assert (g.j_max + 0.5) * g.width >= 2.0
        # and is the smallest such grid: dropping an end bin uncovers the span
        assert (g.j_min + 0.5) * g.width > -1.0
        assert (g.j_max - 0.5) * g.width < 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BinGrid(0.0, 0, 1)
        with pytest.raises(InvalidParameterError):
            BinGrid(-1.0, 0, 1)
        with pytest.raises(InvalidParameterError):
            BinGrid(1.0, 2, 1)

    def test_index_and_bin_count_limits(self):
        assert BinGrid(1.0, -MAX_INDEX, -MAX_INDEX).n_bins == 1
        assert BinGrid(1.0, MAX_INDEX - MAX_BINS + 1, MAX_INDEX).n_bins == MAX_BINS
        for j_min, j_max in [(-MAX_INDEX - 1, 0), (0, MAX_INDEX + 1), (0, MAX_BINS), (-(2**70), 2**70)]:
            with pytest.raises(InvalidParameterError, match="at most|too many bins"):
                BinGrid(1.0, j_min, j_max)

    @pytest.mark.parametrize(
        "width,lo,hi",
        [(1e-12, -9.0, 9.0), (1.0, -1e300, 1e300), (1.0, -math.inf, 0.0), (1e-300, 0.0, 1e10)],
    )
    def test_spanning_refuses_too_many_bins_up_front(self, width, lo, hi):
        with pytest.raises(InvalidParameterError, match="too many bins"):
            BinGrid.spanning(width, lo, hi)

    def test_spanning_far_from_the_origin_is_refused(self):
        with pytest.raises(InvalidParameterError, match="j_min must be at most"):
            BinGrid.spanning(1.0, 1e300, 1e300)


class TestCoarseGrain:
    def test_gaussian_masses_normalized(self):
        m = MarginalSpec(0.3, 1.2)
        grid = BinGrid.spanning(0.25, 0.3 - 11.0, 0.3 + 11.0)
        d = coarse_grain(bin_mass_oracle(m), grid)
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-14)
        assert bin_mass_oracle(m)(*_bin_edges(grid)).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(d.masses >= 0.0)

    def test_truncation_error_when_grid_too_narrow(self):
        m = MarginalSpec(0.0, 5.0)
        grid = BinGrid(1.0, -2, 2)  # +/- 0.5 sigma only
        with pytest.raises(TruncationError) as exc:
            coarse_grain(bin_mass_oracle(m), grid)
        assert 0.0 < exc.value.captured_fraction < 0.5

    def test_renormalizes_partial_capture(self):
        m = MarginalSpec(0.0, 1.0)
        grid = BinGrid(0.5, -8, 8)  # +/- 4.25 sigma: keeps > 0.999 but < 1
        d = coarse_grain(bin_mass_oracle(m), grid)
        raw = bin_mass_oracle(m)(*_bin_edges(grid))
        assert 0.999 < raw.sum() < 1.0
        np.testing.assert_array_equal(d.masses, raw / raw.sum())

    def test_wrong_shape_oracle_rejected(self):
        calls = []

        def oracle(lo, hi):
            calls.append(np.shape(lo))
            masses = np.full(np.shape(lo), 0.2)
            # a column for the edge arrays, though right for scalar edges
            return masses[:, None] if masses.ndim else masses

        with pytest.raises(InvalidParameterError, match="shape"):
            coarse_grain(oracle, BinGrid(1.0, -2, 2))
        assert calls == [(5,)]


class TestRebin:
    def test_count_conservation_and_width(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 50, size=21)
        h = CountHistogram(BinGrid(0.2, -10, 10), counts)
        r = rebin(h, 3)
        assert isinstance(r, CountHistogram)
        assert r.grid.width == pytest.approx(0.6)
        assert r.counts.sum() == counts.sum()

    def test_groups_are_centered_blocks(self):
        # factor 3 about the origin: bins {-1,0,1} -> new bin 0
        h = CountHistogram(BinGrid(1.0, -4, 4), np.arange(1, 10))
        r = rebin(h, 3)
        assert list(r.grid.indices) == [-1, 0, 1]
        np.testing.assert_array_equal(r.counts, [1 + 2 + 3, 4 + 5 + 6, 7 + 8 + 9])

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(5)
        h = CountHistogram(BinGrid(0.3, -6, 8), rng.integers(0, 50, size=15))
        r = rebin(h, 1)
        np.testing.assert_array_equal(r.counts, h.counts)
        assert r.grid == h.grid

    @pytest.mark.parametrize("factor", [0, -3, 2, 4])
    def test_rejects_non_odd_factors(self, factor):
        h = CountHistogram(BinGrid(1.0, -3, 3), np.ones(7, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            rebin(h, factor)

    def test_rejects_factor_beyond_int64(self):
        h = CountHistogram(BinGrid(1.0, -3, 3), np.ones(7, dtype=np.int64))
        assert rebin(h, MAX_FACTOR).counts.sum() == 7
        with pytest.raises(InvalidParameterError, match="at most"):
            rebin(h, 2**70 + 1)
        with pytest.raises(InvalidParameterError, match="at most"):
            rebin(h, MAX_FACTOR + 2)

    @pytest.mark.parametrize("j_min", [-MAX_INDEX, MAX_INDEX - 2])
    def test_largest_factor_at_the_index_limits(self, j_min):
        # (j + half) stays inside int64 for every index a grid may hold
        h = CountHistogram(BinGrid(1.0, j_min, j_min + 2), np.array([1, 2, 3]))
        assert rebin(h, MAX_FACTOR).total == 6

    def test_indices_near_int64_are_refused(self):
        # (j + half) // factor would leave int64 on these indices
        with pytest.raises(InvalidParameterError, match="j_min must be at most"):
            rebin(CountHistogram(BinGrid(1.0, 2**63 - 3, 2**63 - 1), np.ones(3, dtype=np.int64)), 3)

    @pytest.mark.parametrize("factor", [1, 3])
    def test_rejects_anything_but_a_count_histogram(self, factor):
        d = DiscreteDistribution(BinGrid(1.0, -1, 1), np.full(3, 1.0 / 3.0))
        with pytest.raises(InvalidParameterError, match="CountHistogram"):
            rebin(d, factor)


class TestHistogramDensity:
    def test_densities_divide_by_width(self):
        d = DiscreteDistribution(BinGrid(0.25, 0, 3), np.array([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(d.densities, d.masses / 0.25)

    def test_masses_cannot_be_made_writable(self):
        d = coarse_grained_marginal(MarginalSpec(0.0, 1.0), 0.5)
        masses = d.masses.copy()
        with pytest.raises(ValueError):
            d.masses.setflags(write=True)
        np.testing.assert_array_equal(d.masses, masses)

    def test_negative_masses_rejected(self):
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution(BinGrid(1.0, 0, 1), np.array([0.5, -0.1]))
        with pytest.raises(InvalidParameterError):
            CountHistogram(BinGrid(1.0, 0, 1), np.array([1, -2]))


class TestCountHistogram:
    def test_total_above_int64_rejected(self):
        big = 2**62
        assert CountHistogram(BinGrid(1.0, 0, 1), np.array([big - 1, big])).total == 2**63 - 1
        with pytest.raises(InvalidParameterError, match="total above"):
            CountHistogram(BinGrid(1.0, 0, 1), np.array([big, big]))

    def test_empty_counts_get_the_shape_error(self):
        with pytest.raises(InvalidParameterError, match=r"expected 1 counts, got shape \(0,\)"):
            CountHistogram(BinGrid(1.0, 0, 0), np.array([], dtype=np.int64))


class TestFrozenCounts:
    def test_checks_a_frozen_array_without_count_sized_temporaries(self):
        counts = np.random.default_rng(4).integers(0, 50, size=10**6)
        counts.setflags(write=False)
        frozen, peak = traced_peak(lambda: frozen_counts(counts))
        assert frozen is counts
        assert peak < 0.1 * counts.nbytes, peak

    @pytest.mark.parametrize("count", [2**63, 2**64 - 1])
    def test_an_unsigned_count_above_int64_is_a_total_above_it(self, count):
        # the int64 cast would wrap it negative: refused before the cast
        counts = np.array([count], dtype=np.uint64)
        for build in (frozen_counts, lambda c: CountHistogram(BinGrid(1.0, 0, 0), c)):
            with pytest.raises(InvalidParameterError, match="counts total above"):
                build(counts)

    def test_an_unsigned_count_at_int64_max_is_kept(self):
        counts = np.array([2**63 - 1], dtype=np.uint64)
        assert frozen_counts(counts).tolist() == [2**63 - 1]

    def test_histogram_counts_cannot_be_made_writable(self):
        h = CountHistogram(BinGrid(1.0, 0, 2), np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            h.counts.setflags(write=True)
        assert h.counts.tolist() == [1, 2, 3]
