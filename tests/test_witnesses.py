import math

import pytest

from cgwitness import (
    CONTINUOUS_ENTROPIC_BOUND,
    DATA_WITNESS_IDS,
    PAIRINGS,
    WITNESS_IDS,
    GaussianTwoPhotonState,
    WitnessReport,
    coarse_entropic_witness,
    coarse_grained_marginal,
    coarse_variance_witness,
    discrete_entropy,
    discrete_variance,
    entropic_bound_constant,
    entropic_continuous,
    exact_marginals,
    mgvt_continuous,
    naive_discrete_witness,
)
from cgwitness.errors import InvalidPairingError, InvalidParameterError


def _pm_inputs(width_r, width_s, sigma_plus=2.0, sigma_minus=0.5):
    gm = exact_marginals(GaussianTwoPhotonState(sigma_plus, sigma_minus))
    r = coarse_grained_marginal(gm.x_plus, width_r)
    s = coarse_grained_marginal(gm.p_minus, width_s)
    return r, s


class TestWitnessReport:
    def test_detected_is_strict_negativity(self):
        rep = mgvt_continuous(0.5, 0.5)
        assert rep.value == pytest.approx(-0.75)
        assert rep.detected
        assert not mgvt_continuous(1.0, 1.0).detected

    def test_registry_contents(self):
        assert set(DATA_WITNESS_IDS) == {
            "coarse_variance",
            "coarse_entropic",
            "naive_discrete",
        }
        assert set(DATA_WITNESS_IDS) < set(WITNESS_IDS)
        assert PAIRINGS["pm"] == ("x+", "p-")
        assert PAIRINGS["mp"] == ("x-", "p+")

    def test_invalid_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            WitnessReport(
                witness_id="bogus", pairing="pm", value=0.0, inputs_summary={}
            )
        with pytest.raises(InvalidPairingError):
            WitnessReport(
                witness_id="mgvt_continuous",
                pairing="xx",
                value=0.0,
                inputs_summary={},
            )

    def test_naive_is_always_flagged_unsafe(self):
        r, s = _pm_inputs(0.1, 0.1)
        assert naive_discrete_witness(r, s).unsafe
        assert not coarse_variance_witness(r, s).unsafe
        assert not coarse_entropic_witness(r, s).unsafe


class TestContinuousWitnesses:
    def test_mgvt_anchor(self):
        gm = exact_marginals(GaussianTwoPhotonState(2.0, 0.5))
        rep = mgvt_continuous(gm.x_plus.std**2, gm.p_minus.std**2)
        assert rep.value == pytest.approx(-15.0 / 16.0, rel=1e-12)

    def test_entropic_anchor(self):
        gm = exact_marginals(GaussianTwoPhotonState(2.0, 0.5))
        h = lambda s: 0.5 * math.log(2 * math.pi * math.e * s * s)
        rep = entropic_continuous(h(gm.x_plus.std), h(gm.p_minus.std))
        assert rep.value == pytest.approx(-math.log(4.0), rel=1e-12)
        assert CONTINUOUS_ENTROPIC_BOUND == pytest.approx(math.log(2 * math.pi * math.e))

    def test_separable_states_stay_nonnegative(self):
        gm = exact_marginals(GaussianTwoPhotonState(1.3, 1.3))
        assert mgvt_continuous(gm.x_plus.std**2, gm.p_minus.std**2).value >= 0.0

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(InvalidParameterError):
            mgvt_continuous(0.0, 1.0)


class TestCoarseWitnesses:
    def test_fine_bins_approach_continuous_values(self):
        r, s = _pm_inputs(0.005, 0.005)
        assert coarse_variance_witness(r, s).value == pytest.approx(
            -15.0 / 16.0, rel=1e-3
        )
        assert coarse_entropic_witness(r, s).value == pytest.approx(
            -math.log(4.0), rel=1e-3
        )

    def test_variance_witness_formula(self):
        r, s = _pm_inputs(0.3, 0.2)
        wr, ws = r.grid.width, s.grid.width
        want = (discrete_variance(r) + wr * wr / 12.0) * (
            discrete_variance(s) + ws * ws / 12.0
        ) - 1.0
        rep = coarse_variance_witness(r, s)
        assert rep.value == pytest.approx(want, rel=1e-12)
        assert rep.bin_widths == (wr, ws)

    def test_entropic_witness_formula(self):
        r, s = _pm_inputs(0.3, 0.2)
        wr, ws = r.grid.width, s.grid.width
        want = (
            (discrete_entropy(r) + math.log(wr))
            + (discrete_entropy(s) + math.log(ws))
            + math.log(entropic_bound_constant(wr * ws))
        )
        assert coarse_entropic_witness(r, s).value == pytest.approx(want, rel=1e-12)

    def test_naive_witness_formula_and_identity(self):
        r, s = _pm_inputs(0.3, 0.2)
        naive = naive_discrete_witness(r, s)
        assert naive.value == pytest.approx(
            discrete_variance(r) * discrete_variance(s) - 1.0, rel=1e-12
        )
        wr, ws = r.grid.width, s.grid.width
        coarse = coarse_variance_witness(r, s)
        reconstructed = (
            (naive.value + 1.0)
            + discrete_variance(r) * ws * ws / 12.0
            + discrete_variance(s) * wr * wr / 12.0
            + wr * wr * ws * ws / 144.0
        ) - 1.0
        assert coarse.value == pytest.approx(reconstructed, rel=1e-12)

    @pytest.mark.parametrize(
        "witness", [coarse_variance_witness, coarse_entropic_witness, naive_discrete_witness]
    )
    def test_non_distribution_rejected(self, witness):
        r, s = _pm_inputs(0.3, 0.2)
        with pytest.raises(InvalidParameterError, match="DiscreteDistribution"):
            witness(r, s.masses)
        with pytest.raises(InvalidParameterError, match="DiscreteDistribution"):
            witness(None, s)

    def test_separable_coarse_witnesses_nonnegative_spotcheck(self):
        for width in (0.05, 0.5, 2.0, 5.0):
            r, s = _pm_inputs(width, width, sigma_plus=1.0, sigma_minus=1.0)
            assert coarse_variance_witness(r, s).value >= 0.0
            assert coarse_entropic_witness(r, s).value >= 0.0
