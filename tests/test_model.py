import itertools
import math

import numpy as np
import pytest
from scipy.special import erf

from cgwitness import (
    GaussianTwoPhotonState,
    MarginalSpec,
    OpticalGeometry,
    bin_mass_oracle,
    coarse_grained_marginal,
    detector_to_source_scale,
    exact_marginals,
    global_marginal,
    sample_joint_counts,
    sample_marginal_counts,
)
from cgwitness import model
from cgwitness.binning import BinGrid
from cgwitness.errors import InvalidParameterError
from cgwitness.model import MAX_EXPECTED_COUNTS
from conftest import traced_peak


class TestState:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GaussianTwoPhotonState(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            GaussianTwoPhotonState(1.0, -2.0)
        with pytest.raises(InvalidParameterError):
            GaussianTwoPhotonState(1.0, math.inf)

    def test_marginal_reciprocal_duality(self):
        st = GaussianTwoPhotonState(2.0, 0.5)
        gm = exact_marginals(st)
        assert gm["p+"].std == pytest.approx(2.0)
        assert gm["p-"].std == pytest.approx(0.5)
        assert gm["x+"].std == pytest.approx(0.5)  # 1/sigma_plus
        assert gm["x-"].std == pytest.approx(2.0)  # 1/sigma_minus
        for spec in (gm["x+"], gm["x-"], gm["p+"], gm["p-"]):
            assert spec.mean == 0.0

    def test_uncertainty_products_at_heisenberg_floor(self):
        # x+/p- and x-/p+ are the conjugate, entanglement-sensitive pairs
        st = GaussianTwoPhotonState(3.0, 0.7)
        gm = exact_marginals(st)
        assert gm["x+"].std * gm["p-"].std == pytest.approx(0.7 / 3.0)
        assert gm["x-"].std * gm["p+"].std == pytest.approx(3.0 / 0.7)


class TestBinMassOracle:
    def test_matches_erf_on_arbitrary_bins(self):
        m = MarginalSpec(0.4, 1.7)
        mass = bin_mass_oracle(m)

        def ref(lo, hi):
            a = (lo - 0.4) / (1.7 * math.sqrt(2))
            b = (hi - 0.4) / (1.7 * math.sqrt(2))
            return 0.5 * (erf(b) - erf(a))

        for lo, hi in [(-3.0, -1.0), (-0.5, 0.5), (0.4, 0.4), (2.0, 9.0), (-40, 40)]:
            assert mass(lo, hi) == pytest.approx(ref(lo, hi), abs=1e-15)

    def test_far_tail_avoids_cancellation(self):
        mass = bin_mass_oracle(MarginalSpec(0.0, 1.0))
        # naive 0.5*(erf(b) - erf(a)) would return exactly 0 out here
        tail = mass(12.0, 13.0)
        assert 0.0 < tail < 1e-30
        mirrored = mass(-13.0, -12.0)
        assert mirrored == pytest.approx(tail, rel=1e-13)

    def test_vectorized_edges(self):
        mass = bin_mass_oracle(MarginalSpec(0.0, 2.0))
        lo = np.array([-1.0, 0.0, 1.0])
        hi = lo + 1.0
        got = mass(lo, hi)
        want = [mass(float(a), float(b)) for a, b in zip(lo, hi)]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_inverted_interval_rejected(self):
        mass = bin_mass_oracle(MarginalSpec(0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            mass(1.0, -1.0)

    @pytest.mark.parametrize(
        "lo, hi",
        [(math.nan, 1.0), (0.0, math.nan), (np.array([-1.0, math.nan, 0.0]), np.array([0.0, 1.0, 2.0]))],
        ids=["lo", "hi", "array"],
    )
    def test_nan_ends_rejected(self, lo, hi):
        mass = bin_mass_oracle(MarginalSpec(0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="NaN"):
            mass(lo, hi)

    def test_infinite_ends_are_taken(self):
        mass = bin_mass_oracle(MarginalSpec(0.0, 1.0))
        assert mass(-math.inf, math.inf) == 1.0
        assert mass(0.0, math.inf) == pytest.approx(0.5, abs=1e-15)


class TestCoarseGrainedMarginal:
    def test_central_mass_anchors(self):
        m = MarginalSpec(0.0, 1.0)
        for width, want in [(1.0, 0.3829249225480261), (6.0, 0.9973002039367398)]:
            d = coarse_grained_marginal(m, width)
            assert d.masses[0 - d.grid.j_min] == pytest.approx(want, abs=1e-14)

    def test_off_center_mean_is_covered(self):
        d = coarse_grained_marginal(MarginalSpec(5.0, 0.3), 0.1)
        mu = (d.grid.centers * d.masses).sum()
        assert mu == pytest.approx(5.0, abs=0.05)
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("width", [0.0, -0.0, -1.0, 5e-324])
    def test_width_is_checked_before_the_span_divides_by_it(self, width):
        m = MarginalSpec(0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="bin width|too many bins"):
            coarse_grained_marginal(m, width)
        with pytest.raises(InvalidParameterError, match="bin width|too many bins"):
            sample_marginal_counts(m, width, 1e4, 0)

    def test_too_many_bins_refused_before_allocation(self):
        # width 1e-12 spans ~1.8e13 bins: refused before np.arange runs
        m = MarginalSpec(0.0, 1.0)

        def refuse_both():
            for call in (
                lambda: coarse_grained_marginal(m, 1e-12),
                lambda: sample_marginal_counts(m, 1e-12, 1e4, 0),
            ):
                with pytest.raises(InvalidParameterError, match="too many bins"):
                    call()

        _, peak = traced_peak(refuse_both)
        assert peak < 1_000_000


class TestSampling:
    def test_marginal_counts_deterministic_and_poisson(self):
        m = MarginalSpec(0.0, 1.0)
        h1 = sample_marginal_counts(m, 0.5, 50_000, seed=99)
        h2 = sample_marginal_counts(m, 0.5, 50_000, seed=99)
        np.testing.assert_array_equal(h1.counts, h2.counts)
        assert h1.total == pytest.approx(50_000, abs=5 * math.sqrt(50_000))

    def test_joint_counts_shape_and_origins(self, entangled_state, geometry):
        jc = sample_joint_counts(entangled_state, geometry, "position", 1e5, seed=1)
        rows, cols = jc.counts.shape
        assert rows == cols and rows % 2 == 1
        assert jc.i0 == -(rows // 2) and jc.j0 == -(cols // 2)
        assert jc.step == geometry.s_x_mm
        assert jc.variable_pair == "position"

    def test_joint_counts_peak_stays_near_two_count_matrices(self, entangled_state):
        # the 965 x 965 position scan of the large-scan benchmark: the Poisson
        # means take the place of the mass plan, and the counts are kept uncopied
        geometry = OpticalGeometry(s_x_mm=0.005, s_p_mm=0.002)
        jc, peak = traced_peak(lambda: sample_joint_counts(entangled_state, geometry, "position", 1e7, 9))
        assert jc.counts.shape == (965, 965)
        assert peak < 2.5 * jc.counts.nbytes, peak / jc.counts.nbytes

    def test_joint_counts_deterministic(self, entangled_state, geometry):
        a = sample_joint_counts(entangled_state, geometry, "momentum", 1e5, seed=7)
        b = sample_joint_counts(entangled_state, geometry, "momentum", 1e5, seed=7)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_diagonal_marginals_recover_stds(self, entangled_state, geometry):
        # Sheppard-corrected diagonal-sum variances reproduce the exact
        # global stds: x+ ~ 1/sigma_plus, x- ~ 1/sigma_minus
        jc = sample_joint_counts(entangled_state, geometry, "position", 2e6, seed=5)
        w = detector_to_source_scale(geometry, "position")
        for sign, want in (("+", 0.1), ("-", 0.4)):
            h = global_marginal(jc, sign)
            tot = h.counts.sum()
            mu = (h.grid.centers * h.counts).sum() / tot
            var = ((h.grid.centers - mu) ** 2 * h.counts).sum() / tot
            assert math.sqrt(var - w * w / 12.0) == pytest.approx(want, rel=0.01)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_samplers_refuse_bad_seeds(self, entangled_state, geometry, seed):
        with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer"):
            sample_joint_counts(entangled_state, geometry, "position", 1e4, seed=seed)
        with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer"):
            sample_marginal_counts(MarginalSpec(0.0, 1.0), 0.5, 1e4, seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, 2**70, np.int64(3), np.random.SeedSequence(7)])
    def test_samplers_accept_integer_sequence_or_no_seed(self, seed):
        h = sample_marginal_counts(MarginalSpec(0.0, 1.0), 0.5, 1e4, seed=seed)
        assert h.total > 0

    def test_wide_bins_warn(self, geometry):
        # sigma_plus large: std(x-) = 1/sigma_plus falls below the base width
        st = GaussianTwoPhotonState(100.0, 1.0)
        with pytest.warns(UserWarning):
            sample_joint_counts(st, geometry, "position", 1e4, seed=3)

    @pytest.mark.parametrize("total", [1e19, math.inf, math.nan])
    def test_total_beyond_poisson_limit_rejected(self, entangled_state, geometry, total):
        with pytest.raises(InvalidParameterError, match="total_expected_counts"):
            sample_joint_counts(entangled_state, geometry, "position", total, seed=0)
        with pytest.raises(InvalidParameterError, match="total_expected_counts"):
            sample_marginal_counts(MarginalSpec(0.0, 1.0), 0.5, total, seed=0)

    def test_total_at_poisson_limit_draws(self):
        h = sample_marginal_counts(MarginalSpec(0.0, 1.0), 3.0, MAX_EXPECTED_COUNTS, seed=0)
        assert h.total == pytest.approx(MAX_EXPECTED_COUNTS, rel=1e-8)

    def test_detector_square_limit(self, geometry, monkeypatch):
        # the default state's position scan is a 101 x 101 square
        st = GaussianTwoPhotonState(10.0, 2.5)
        monkeypatch.setattr(model, "MAX_DETECTOR_CELLS", 101 * 101)
        sample_joint_counts(st, geometry, "position", 1e4, seed=0)
        monkeypatch.setattr(model, "MAX_DETECTOR_CELLS", 101 * 101 - 1)
        with pytest.raises(InvalidParameterError, match="101 x 101 detector square"):
            sample_joint_counts(st, geometry, "position", 1e4, seed=0)

    # the default slits, the large_scan benchmark's and 100x coarser ones
    @pytest.mark.parametrize("slits", [(0.05, 0.02), (0.005, 0.002), (5.0, 2.0)])
    def test_detector_square_captures_the_joint_mass(self, slits):
        # the single attempt needs 0.999; the square is sized for ~0.99996
        geometry = OpticalGeometry(s_x_mm=slits[0], s_p_mm=slits[1])
        sigmas = (0.3, 1.0, 2.5, 10.0, 100.0, 1000.0)
        planned = 0
        for sp, sm in itertools.product(sigmas, sigmas):
            marg = exact_marginals(GaussianTwoPhotonState(sp, sm))
            for pair, stds in (
                ("position", (marg["x+"].std, marg["x-"].std)),
                ("momentum", (marg["p+"].std, marg["p-"].std)),
            ):
                width = detector_to_source_scale(geometry, pair)
                try:
                    _, _, captured = model._plan_square(*stds, width)
                except InvalidParameterError as exc:
                    assert "detector square" in str(exc)  # above MAX_DETECTOR_CELLS
                    continue
                assert captured >= 0.9999
                planned += 1
        assert planned > 0, planned

    # the default geometry's position and momentum scans, the large_scan
    # benchmark's position scan (965 x 965), an asymmetric and a 5 x 5 plan
    @pytest.mark.parametrize(
        "stds_width",
        [
            (0.1, 0.4, 0.025),
            (10.0, 2.5, 1.5466302294595288),
            (0.1, 0.4, 0.0025),
            (0.3, 7.0, 0.11),
            (0.01, 0.01, 1.0),
        ],
    )
    def test_plan_cells_match_the_index_formula(self, stds_width):
        sum_std, diff_std, width = stds_width
        n, cells, _ = model._plan_square(sum_std, diff_std, width)
        j = BinGrid(width, -3 * n, 3 * n).indices

        def masses(std):
            return bin_mass_oracle(MarginalSpec(0.0, std))((j - 0.5) * width, (j + 0.5) * width)

        ms, md = masses(sum_std), masses(diff_std)
        idx = np.arange(-n, n + 1)
        expected = ms[idx[:, None] + idx[None, :] + 3 * n] * md[idx[:, None] - idx[None, :] + 3 * n]
        assert cells.shape == (2 * n + 1, 2 * n + 1)
        assert np.array_equal(cells, expected)

    def test_invalid_arguments(self, entangled_state, geometry):
        with pytest.raises(InvalidParameterError):
            sample_joint_counts(entangled_state, geometry, "angle", 1e4, seed=0)
        with pytest.raises(InvalidParameterError):
            sample_joint_counts(entangled_state, geometry, "position", 0.0, seed=0)
