import math

import numpy as np
import pytest

from cgwitness import (
    ErrorModel,
    GaussianTwoPhotonState,
    JointCounts,
    coarse_entropic_witness,
    coarse_variance_witness,
    entropic_bound_constant,
    naive_discrete_witness,
    sample_joint_counts,
)
from cgwitness.cli import DEFAULT_FACTORS
from cgwitness.errors import (
    ConfigurationError,
    InvalidParameterError,
    PropagationError,
)
from cgwitness import uncertainty
from cgwitness.uncertainty import MAX_REPLICATES, MIN_REPLICATES, sweep_grid
from conftest import rebinned_marginals


@pytest.fixture(scope="module")
def scans():
    import cgwitness as cg

    geo = cg.OpticalGeometry()
    st = GaussianTwoPhotonState(10.0, 2.5)
    pos = sample_joint_counts(st, geo, "position", 2e5, seed=31)
    mom = sample_joint_counts(st, geo, "momentum", 2e5, seed=32)
    return pos, mom


class TestErrorModel:
    def test_defaults(self):
        em = ErrorModel()
        assert em.center_jitter
        assert em.replicates == 1000

    def test_replicate_floor(self):
        assert ErrorModel(replicates=MIN_REPLICATES).replicates == MIN_REPLICATES
        for replicates in (MIN_REPLICATES - 1, 50, 1):
            with pytest.raises(InvalidParameterError, match="at least"):
                ErrorModel(replicates=replicates)

    def test_replicate_ceiling(self):
        assert ErrorModel(replicates=MAX_REPLICATES).replicates == MAX_REPLICATES
        with pytest.raises(InvalidParameterError, match="at most"):
            ErrorModel(replicates=MAX_REPLICATES + 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", np.random.SeedSequence(7)])
    def test_rejects_negative_or_non_integer_seed(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            ErrorModel(seed=seed)

    def test_accepts_integer_or_no_seed(self):
        assert ErrorModel(seed=None).seed is None
        assert ErrorModel(seed=np.int64(3)).seed == 3
        assert ErrorModel(seed=2**70).seed == 2**70

    def test_jitter_sigma_anchors(self, geometry):
        em = ErrorModel()
        assert em.center_sigma_position(1, geometry) == pytest.approx(
            0.01 * math.sqrt(2) * 50.0 / 200.0, rel=1e-12
        )
        assert em.center_sigma_momentum(1, geometry) == pytest.approx(
            0.5468163616194912, rel=1e-12
        )
        # grows linearly with the rebin factor
        assert em.center_sigma_position(7, geometry) == pytest.approx(
            7 * em.center_sigma_position(1, geometry), rel=1e-12
        )


def _one_cell(pos, mom, witness_id, n, m, error_model=None, pairing="pm"):
    """(value, uncertainty) of one cell, from a 1x1 sweep_grid."""
    values, unc = sweep_grid(
        pos, mom, [n], [m], error_model, pairings=(pairing,), witness_ids=(witness_id,)
    )[pairing, witness_id]
    return values[0, 0], None if unc is None else unc[0, 0]


class TestWitnessPipeline:
    """From two scans to a witness value: what sweep_grid refuses and which diagonals it takes."""

    def test_rejects_non_data_witness(self, scans):
        with pytest.raises(ConfigurationError):
            sweep_grid(*scans, [1], [1], witness_ids=("mgvt_continuous",))

    def test_rejects_even_or_nonpositive_factors(self, scans):
        with pytest.raises(InvalidParameterError):
            sweep_grid(*scans, [2], [1])
        with pytest.raises(InvalidParameterError):
            sweep_grid(*scans, [1], [0])

    def test_rejects_swapped_scan_files(self, scans):
        pos, mom = scans
        with pytest.raises(ConfigurationError):
            sweep_grid(mom, pos, [1], [1])

    def test_evaluate_matches_manual_rebin(self, scans):
        pos, mom = scans
        r, s = rebinned_marginals(pos, mom, "pm", 3, 1)
        manual = coarse_variance_witness(r.normalize(), s.normalize()).value
        value, _ = _one_cell(pos, mom, "coarse_variance", 3, 1)
        assert value == pytest.approx(manual, rel=1e-12)

    def test_mp_pairing_uses_other_diagonals(self, scans):
        grid = sweep_grid(*scans, [1], [1], witness_ids=("coarse_variance",))
        a, _ = grid["pm", "coarse_variance"]
        b, _ = grid["mp", "coarse_variance"]
        assert a[0, 0] != pytest.approx(b[0, 0], rel=1e-6)


class TestPropagate:
    """Monte Carlo standard errors of single cells (1x1 grids)."""

    def test_point_estimate_is_unperturbed(self, scans):
        pos, mom = scans
        em = ErrorModel(replicates=150, seed=5)
        value, unc = _one_cell(pos, mom, "coarse_variance", 3, 3, em)
        r, s = rebinned_marginals(pos, mom, "pm", 3, 3)
        want = coarse_variance_witness(r.normalize(), s.normalize()).value
        assert value == pytest.approx(want, rel=1e-12)
        assert unc > 0.0

    def test_deterministic_given_seed(self, scans):
        pos, mom = scans
        em = ErrorModel(replicates=150, seed=8)
        a = _one_cell(pos, mom, "coarse_entropic", 3, 3, em)
        b = _one_cell(pos, mom, "coarse_entropic", 3, 3, em)
        assert a[1] == b[1]

    def test_poisson_stderr_matches_independent_resampling(self, scans):
        # same statistic, independently coded Monte Carlo
        pos, mom = scans
        em = ErrorModel(center_jitter=False, replicates=1000, seed=13)
        _, got = _one_cell(pos, mom, "coarse_variance", 3, 3, em)

        r, s = rebinned_marginals(pos, mom, "pm", 3, 3)
        rng = np.random.default_rng(99)
        values = []
        for _ in range(4000):
            vs = []
            for h in (r, s):
                c = rng.poisson(h.counts).astype(float)
                tot = c.sum()
                mu = (h.grid.centers * c).sum() / tot
                var = ((h.grid.centers - mu) ** 2 * c).sum() / tot
                vs.append(var + h.grid.width**2 / 12.0)
            values.append(vs[0] * vs[1] - 1.0)
        want = float(np.std(values, ddof=1))
        assert got == pytest.approx(want, rel=0.15)

    def test_entropic_uncertainty_ignores_jitter(self, scans):
        # center jitter shifts bin positions; entropies use masses only
        pos, mom = scans
        _, a = _one_cell(pos, mom, "coarse_entropic", 5, 5, ErrorModel(replicates=300, seed=3))
        _, b = _one_cell(
            pos, mom, "coarse_entropic", 5, 5, ErrorModel(center_jitter=False, replicates=300, seed=3)
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_per_bin_jitter_inflates_variance_uncertainty(self, scans):
        pos, mom = scans
        _, with_jitter = _one_cell(
            pos, mom, "coarse_variance", 5, 5, ErrorModel(replicates=500, seed=6)
        )
        _, without = _one_cell(
            pos, mom, "coarse_variance", 5, 5, ErrorModel(center_jitter=False, replicates=500, seed=6)
        )
        assert with_jitter > without

    def test_starved_counts_raise_propagation_error(self, geometry):
        ones = np.zeros((3, 3), dtype=np.int64)
        ones[1, 1] = 1
        pos = JointCounts(
            variable_pair="position", step=0.05, counts=ones, geometry=geometry
        )
        mom = JointCounts(
            variable_pair="momentum", step=0.02, counts=ones, geometry=geometry
        )
        em = ErrorModel(replicates=200, seed=0)
        with pytest.raises(PropagationError):
            _one_cell(pos, mom, "coarse_variance", 1, 1, em)

    def test_geometry_mismatch_rejected(self, scans, geometry):
        pos, _ = scans
        import cgwitness as cg

        other = cg.OpticalGeometry(f2_mm=150.0)
        st = GaussianTwoPhotonState(10.0, 2.5)
        mom = sample_joint_counts(st, other, "momentum", 1e4, seed=9)
        with pytest.raises(ConfigurationError):
            _one_cell(pos, mom, "coarse_variance", 1, 1, ErrorModel(replicates=150))


def _independent_stderr(pos, mom, witness_id, pairing, n, m, geometry, replicates, rng):
    """Per-cell Poisson + per-bin center jitter resampling, coded from scratch."""
    r, s = rebinned_marginals(pos, mom, pairing, n, m)
    step = geometry.micrometer_step_mm
    sigmas = (
        step * math.sqrt(2) * n * geometry.f1_mm / geometry.f2_mm,
        step * math.sqrt(2) * 2 * m * math.pi / (geometry.f3_mm * geometry.lambda_mm),
    )
    stats = []
    for h, sigma in zip((r, s), sigmas):
        c = rng.poisson(h.counts, size=(replicates, h.counts.size)).astype(float)
        q = c / c.sum(axis=1, keepdims=True)
        w = h.grid.width
        if witness_id == "coarse_entropic":
            logs = np.log(np.where(q > 0, q, 1.0))
            stats.append(-(q * logs).sum(axis=1) + math.log(w))
        else:
            x = h.grid.centers + rng.normal(0.0, sigma, size=c.shape)
            mu = (q * x).sum(axis=1)
            var = (q * (x - mu[:, None]) ** 2).sum(axis=1)
            stats.append(var + w * w / 12.0 if witness_id == "coarse_variance" else var)
    if witness_id == "coarse_entropic":
        bound = entropic_bound_constant(r.grid.width * s.grid.width)
        values = stats[0] + stats[1] + math.log(bound)
    else:
        values = stats[0] * stats[1] - 1.0
    return float(np.std(values, ddof=1))


class TestSweepGrid:
    CELLS = ((1, 1, "pm"), (5, 3, "mp"), (9, 7, "pm"))

    @pytest.mark.parametrize(
        "option",
        [
            {"witness_ids": ("mgvt_continuous",)},
            {"witness_ids": ("coarse_variance", "coarse_varianc")},
            {"pairings": ("xx",)},
        ],
    )
    def test_unknown_witness_or_pairing_rejected(self, scans, option):
        with pytest.raises(ConfigurationError):
            sweep_grid(*scans, [1], [1], **option)

    @pytest.mark.parametrize("witness_id", ["coarse_variance", "coarse_entropic", "naive_discrete"])
    def test_stderr_matches_independent_per_cell_resampling(self, scans, witness_id):
        pos, mom = scans
        b, b_ref = 1000, 4000
        grid = sweep_grid(
            pos, mom, [1, 5, 9], [1, 3, 7], ErrorModel(replicates=b, seed=21),
            witness_ids=(witness_id,),
        )
        # relative sd of a ddof=1 standard deviation from B draws is ~1/sqrt(2B)
        tol = 4.0 * math.sqrt(1.0 / (2 * b) + 1.0 / (2 * b_ref))
        rng = np.random.default_rng(77)
        for n, m, pairing in self.CELLS:
            _, unc = grid[pairing, witness_id]
            got = unc[[1, 5, 9].index(n), [1, 3, 7].index(m)]
            want = _independent_stderr(pos, mom, witness_id, pairing, n, m, pos.geometry, b_ref, rng)
            assert want > 0
            assert got == pytest.approx(want, rel=tol), (n, m, pairing)

    def test_one_bound_call_per_distinct_width_product(self, scans, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return entropic_bound_constant(g)

        monkeypatch.setattr(uncertainty, "entropic_bound_constant", counted)
        pos, mom = scans
        factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
        sweep_grid(pos, mom, factors, factors, witness_ids=("coarse_entropic",))
        # 121 cells, 88 distinct float products of the two bin widths
        assert len(calls) == len(set(calls)) == 88

    def test_values_match_single_cell_witnesses(self, scans):
        # the single-cell witnesses are the B = 1 case of the batched
        # formulas, so every cell of the default grid agrees bit for bit
        witness = {
            "coarse_variance": coarse_variance_witness,
            "coarse_entropic": coarse_entropic_witness,
            "naive_discrete": naive_discrete_witness,
        }
        pos, mom = scans
        factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
        grid = sweep_grid(pos, mom, factors, factors)
        assert len(grid) == 2 * 3
        for (pairing, witness_id), (values, unc) in grid.items():
            assert unc is None
            for i, n in enumerate(factors):
                for j, m in enumerate(factors):
                    r, s = rebinned_marginals(pos, mom, pairing, n, m)
                    want = witness[witness_id](r.normalize(), s.normalize(), pairing=pairing).value
                    assert values[i, j] == want, (pairing, witness_id, n, m)

    def test_one_cell_grid_matches_larger_grid(self, scans):
        # each marginal draws from its own (axis, sign, factor) stream, so a
        # cell's uncertainty does not depend on which other cells are swept
        pos, mom = scans
        em = ErrorModel(replicates=200, seed=9)
        grid = sweep_grid(pos, mom, [1, 3, 5], [1, 3], em)
        for witness_id in ("coarse_variance", "coarse_entropic", "naive_discrete"):
            for pairing in ("pm", "mp"):
                value, one = _one_cell(pos, mom, witness_id, 5, 3, em, pairing)
                values, unc = grid[pairing, witness_id]
                assert values[2, 1] == value
                assert unc[2, 1] == pytest.approx(one, rel=1e-12)
