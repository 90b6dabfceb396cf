import math

import numpy as np
import pytest

from cgwitness import (
    MarginalSpec,
    coarse_grained_marginal,
    discrete_entropy,
    discrete_variance,
    histogram_entropy,
    histogram_variance,
)
from cgwitness.binning import BinGrid, DiscreteDistribution
from cgwitness.errors import NormalizationError
from conftest import random_discrete

CONTINUOUS_GAUSSIAN_ENTROPY = 0.5 * math.log(2 * math.pi * math.e)


@pytest.fixture
def unit_gaussian_unit_bins():
    return coarse_grained_marginal(MarginalSpec(0.0, 1.0), 1.0)


class TestDiscreteStats:
    def test_variance_anchor_unit_width(self, unit_gaussian_unit_bins):
        # center-of-bin variance exceeds sigma^2 by ~ w^2/12 (quantization)
        v = discrete_variance(unit_gaussian_unit_bins)
        assert v == pytest.approx(1.0833333223611186, rel=1e-9)

    def test_entropy_anchor_unit_width(self, unit_gaussian_unit_bins):
        h = discrete_entropy(unit_gaussian_unit_bins)
        assert h == pytest.approx(1.4589588197937575, rel=1e-9)
        assert h > CONTINUOUS_GAUSSIAN_ENTROPY

    def test_large_bins_collapse_variance(self):
        # one dominant central bin: discrete variance far below sigma^2
        d = coarse_grained_marginal(MarginalSpec(0.0, 1.0), 6.0)
        assert discrete_variance(d) == pytest.approx(0.0971926583, rel=1e-8)

    def test_unnormalized_masses_rejected(self):
        with pytest.raises(NormalizationError):
            DiscreteDistribution(BinGrid(1.0, 0, 1), np.array([0.3, 0.3]))


class TestHistogramCorrections:
    def test_variance_shift_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            d = random_discrete(rng)
            w = d.grid.width
            assert histogram_variance(d) == pytest.approx(
                discrete_variance(d) + w * w / 12.0, abs=1e-12
            )

    def test_entropy_shift_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = random_discrete(rng)
            assert histogram_entropy(d) == pytest.approx(
                discrete_entropy(d) + math.log(d.grid.width), abs=1e-12
            )

    def test_anchor_unit_gaussian(self, unit_gaussian_unit_bins):
        d = unit_gaussian_unit_bins
        assert histogram_variance(d) == pytest.approx(1.1666666556944518, rel=1e-9)
        # ln(1) = 0: histogram and discrete entropies coincide at unit width
        assert histogram_entropy(d) == pytest.approx(1.4589588197937575, rel=1e-9)

    def test_single_bin_floors(self):
        # all mass in one bin: variance floor w^2/12, entropy floor ln w
        for w in (0.05, 1.0, 7.0):
            d = DiscreteDistribution(BinGrid(w, 0, 0), np.array([1.0]))
            assert histogram_variance(d) == pytest.approx(w * w / 12.0, rel=1e-14)
            assert histogram_entropy(d) == pytest.approx(math.log(w), rel=1e-14, abs=1e-14)

    def test_fine_bins_recover_continuous_gaussian(self):
        w = 0.01
        d = coarse_grained_marginal(MarginalSpec(0.0, 1.0), w)
        # quantization and the histogram correction each add w^2/12
        assert histogram_variance(d) == pytest.approx(1.0 + w * w / 6.0, rel=1e-9)
        assert histogram_entropy(d) == pytest.approx(CONTINUOUS_GAUSSIAN_ENTROPY, rel=1e-5)
