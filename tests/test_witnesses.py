import math

import pytest

from cgwitness import (
    DATA_WITNESS_IDS,
    PAIRINGS,
    GaussianTwoPhotonState,
    coarse_grained_marginal,
    discrete_entropy,
    discrete_variance,
    entropic_bound_constant,
    exact_marginals,
    witness_grid,
)
from cgwitness import witnesses
from cgwitness.cli import main
from cgwitness.errors import ConfigurationError, InvalidParameterError


def _pm_inputs(width_r, width_s, sigma_plus=2.0, sigma_minus=0.5):
    gm = exact_marginals(GaussianTwoPhotonState(sigma_plus, sigma_minus))
    r = coarse_grained_marginal(gm["x+"], width_r)
    s = coarse_grained_marginal(gm["p-"], width_s)
    return r, s


def _cell(r, s, witness_id):
    """The value of one witness on one pair of marginals: the 1x1 grid."""
    return float(witness_grid([r], [s], (witness_id,))[witness_id][0, 0])


class TestWitnessReport:
    """What the witness layer reports: its registry, refusals and unsafe flag."""

    def test_registry_contents(self):
        assert DATA_WITNESS_IDS == ("coarse_variance", "coarse_entropic", "naive_discrete")
        assert PAIRINGS["pm"] == ("x+", "p-")
        assert PAIRINGS["mp"] == ("x-", "p+")

    def test_invalid_ids_rejected(self):
        r, s = _pm_inputs(0.3, 0.2)
        for witness_id in ("bogus", "mgvt_continuous", "entropic_continuous"):
            with pytest.raises(ConfigurationError, match="cannot be evaluated"):
                witness_grid([r], [s], (witness_id,))

    def test_naive_is_always_flagged_unsafe(self, capsys):
        # at fine bins no row is detected, and only the naive row is unsafe
        assert main(["demo-false-positive", "--multiplier", "0.1", "--analytic"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
        assert {row[0]: (row[5], row[6]) for row in rows} == {
            "naive_discrete": ("false", "true"),
            "coarse_variance": ("false", "false"),
        }


class TestCoarseWitnesses:
    def test_fine_bins_approach_continuous_values(self):
        r, s = _pm_inputs(0.005, 0.005)
        assert _cell(r, s, "coarse_variance") == pytest.approx(-15.0 / 16.0, rel=1e-3)
        assert _cell(r, s, "coarse_entropic") == pytest.approx(-math.log(4.0), rel=1e-3)

    def test_variance_witness_formula(self):
        r, s = _pm_inputs(0.3, 0.2)
        wr, ws = r.grid.width, s.grid.width
        want = (discrete_variance(r) + wr * wr / 12.0) * (
            discrete_variance(s) + ws * ws / 12.0
        ) - 1.0
        assert _cell(r, s, "coarse_variance") == pytest.approx(want, rel=1e-12)

    def test_entropic_witness_formula(self):
        r, s = _pm_inputs(0.3, 0.2)
        wr, ws = r.grid.width, s.grid.width
        want = (
            (discrete_entropy(r) + math.log(wr))
            + (discrete_entropy(s) + math.log(ws))
            + math.log(entropic_bound_constant(wr * ws))
        )
        assert _cell(r, s, "coarse_entropic") == pytest.approx(want, rel=1e-12)

    def test_naive_witness_formula_and_identity(self):
        r, s = _pm_inputs(0.3, 0.2)
        naive = _cell(r, s, "naive_discrete")
        assert naive == pytest.approx(
            discrete_variance(r) * discrete_variance(s) - 1.0, rel=1e-12
        )
        wr, ws = r.grid.width, s.grid.width
        reconstructed = (
            (naive + 1.0)
            + discrete_variance(r) * ws * ws / 12.0
            + discrete_variance(s) * wr * wr / 12.0
            + wr * wr * ws * ws / 144.0
        ) - 1.0
        assert _cell(r, s, "coarse_variance") == pytest.approx(reconstructed, rel=1e-12)

    @pytest.mark.parametrize("witness_id", DATA_WITNESS_IDS)
    def test_non_distribution_rejected(self, witness_id):
        r, s = _pm_inputs(0.3, 0.2)
        with pytest.raises(InvalidParameterError, match="DiscreteDistribution"):
            witness_grid([r], [s.masses], (witness_id,))
        with pytest.raises(InvalidParameterError, match="DiscreteDistribution"):
            witness_grid([None], [s], (witness_id,))

    def test_empty_side_rejected(self):
        r, s = _pm_inputs(0.3, 0.2)
        for sides in (([], [s]), ([r], []), ([], [])):
            with pytest.raises(ConfigurationError, match="at least one marginal"):
                witness_grid(*sides)

    def test_overflowing_width_product_names_the_widths(self, monkeypatch):
        r, s = _pm_inputs(1e160, 1e160)

        def never(width_product):
            raise AssertionError("C(gamma) evaluated")

        monkeypatch.setattr(witnesses, "entropic_bound_constant", never)
        with pytest.raises(InvalidParameterError, match=r"bin widths 1e\+160 and 1e\+160"):
            witness_grid([r], [s], ("coarse_entropic",))
        # variance-only calls never tabulate C(gamma) and keep their own refusal
        with pytest.raises(InvalidParameterError, match="witness value must be finite, got inf"):
            witness_grid([r], [s], ("coarse_variance",))

    def test_separable_coarse_witnesses_nonnegative_spotcheck(self):
        for width in (0.05, 0.5, 2.0, 5.0):
            r, s = _pm_inputs(width, width, sigma_plus=1.0, sigma_minus=1.0)
            assert _cell(r, s, "coarse_variance") >= 0.0
            assert _cell(r, s, "coarse_entropic") >= 0.0
