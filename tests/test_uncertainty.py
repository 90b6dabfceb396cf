import dataclasses
import itertools
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from cgwitness import (
    ErrorModel,
    GaussianTwoPhotonState,
    JointCounts,
    OpticalGeometry,
    entropic_bound_constant,
    global_marginal,
    sample_joint_counts,
    witness_grid,
)
from cgwitness.cli import DEFAULT_FACTORS
from cgwitness.errors import (
    ConfigurationError,
    InvalidParameterError,
    PropagationError,
)
from cgwitness import witnesses
from cgwitness.ingest import bin_center_error
from cgwitness.witnesses import MAX_REPLICATES, MIN_REPLICATES, PAIRINGS, sweep_grid
from conftest import rebinned_marginals, traced_peak


@pytest.fixture(scope="module")
def scans():
    import cgwitness as cg

    geo = cg.OpticalGeometry()
    st = GaussianTwoPhotonState(10.0, 2.5)
    pos = sample_joint_counts(st, geo, "position", 2e5, seed=31)
    mom = sample_joint_counts(st, geo, "momentum", 2e5, seed=32)
    return pos, mom


@pytest.fixture(scope="module")
def sparse_scans():
    # 5 and 4 counts: ~2.5% of replicate pairs draw a zero total, under the 10% rule
    st, geo = GaussianTwoPhotonState(10.0, 2.5), OpticalGeometry()
    pos = sample_joint_counts(st, geo, "position", 5, seed=30)
    mom = sample_joint_counts(st, geo, "momentum", 5, seed=130)
    assert (pos.counts.sum(), mom.counts.sum()) == (5, 4)
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
        pos, mom = (
            JointCounts(pair, 1.0, np.ones((1, 1), dtype=np.int64), geometry)
            for pair in ("position", "momentum")
        )
        assert bin_center_error(pos, 1) == pytest.approx(
            0.01 * math.sqrt(2) * 50.0 / 200.0, rel=1e-12
        )
        assert bin_center_error(mom, 1) == pytest.approx(
            0.5468163616194912, rel=1e-12
        )
        # grows linearly with the rebin factor
        assert bin_center_error(pos, 7) == pytest.approx(
            7 * bin_center_error(pos, 1), rel=1e-12
        )


def _one_cell(pos, mom, witness_id, n, m, error_model=None, pairing="pm"):
    """(value, uncertainty) of one cell, from a 1x1 sweep_grid."""
    values, unc = sweep_grid(
        pos, mom, [n], [m], error_model, pairings=(pairing,), witness_ids=(witness_id,)
    )[pairing, witness_id]
    return values[0, 0], None if unc is None else unc[0, 0]


def _cell_of_marginals(r, s, witness_id):
    """witness_grid's 1x1 value on two rebinned count marginals, normalised."""
    return witness_grid([r.normalize()], [s.normalize()], (witness_id,))[witness_id][0, 0]


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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            # position bins ~5e199 wide overflow every moment and corrected variance
            ("s_x_mm", 1e200, "witness value must be finite, got nan$"),
            # center jitter of ~1e300 overflows the replicate moments only
            ("micrometer_step_mm", 1e300, "got nan as a standard error"),
        ],
    )
    def test_non_finite_values_are_refused_without_warning(self, scans, field, value, message):
        geometry = dataclasses.replace(scans[0].geometry, **{field: value})
        pos, mom = (JointCounts(jc.variable_pair, jc.step, jc.counts, geometry) for jc in scans)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=message):
                sweep_grid(pos, mom, [1, 3], [1], ErrorModel(replicates=100))
            if field == "micrometer_step_mm":  # the point values stay finite
                sweep_grid(pos, mom, [1, 3], [1])

    def test_rejects_factor_beyond_int64(self, scans):
        with pytest.raises(InvalidParameterError, match="at most"):
            sweep_grid(*scans, [2**63 + 1], [1])

    @pytest.mark.parametrize(
        "n_list,m_list", [([], [1]), ([1], []), ([], [])], ids=["n", "m", "both"]
    )
    def test_rejects_empty_factor_lists(self, scans, n_list, m_list):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            sweep_grid(*scans, n_list, m_list)

    def test_rejects_swapped_scan_files(self, scans):
        pos, mom = scans
        with pytest.raises(ConfigurationError):
            sweep_grid(mom, pos, [1], [1])

    def test_evaluate_matches_manual_rebin(self, scans):
        pos, mom = scans
        r, s = rebinned_marginals(pos, mom, "pm", 3, 1)
        manual = _cell_of_marginals(r, s, "coarse_variance")
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
        want = _cell_of_marginals(r, s, "coarse_variance")
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


def _center_errors(geometry, n, m):
    """Bin-center errors of the position marginal at factor n and the momentum one at m."""
    step = geometry.micrometer_step_mm
    return (
        step * math.sqrt(2) * n * geometry.f1_mm / geometry.f2_mm,
        step * math.sqrt(2) * 2 * m * math.pi / (geometry.f3_mm * geometry.lambda_mm),
    )


def _independent_stderr(pos, mom, witness_id, pairing, n, m, geometry, replicates, rng):
    """Per-cell Poisson + per-bin center jitter resampling, coded from scratch."""
    r, s = rebinned_marginals(pos, mom, pairing, n, m)
    stats = []
    for h, sigma in zip((r, s), _center_errors(geometry, n, m)):
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


def _same_stream_errors(pos, mom, pairing, n, m, em):
    """({witness_id: stderr}, discarded) of one cell, recomputed from sweep_grid's streams.

    Each marginal redraws its counts and center jitter from the SeedSequence
    spawn keys of the witnesses module; replicate pairs in which either
    marginal drew a zero total are dropped, and discarded counts them.
    """
    signs = {"pm": (0, 1), "mp": (1, 0)}[pairing]
    marginals = rebinned_marginals(pos, mom, pairing, n, m)
    stats = []
    for axis, (h, sign, f, sigma) in enumerate(
        zip(marginals, signs, (n, m), _center_errors(pos.geometry, n, m))
    ):
        counts_rng, jitter_rng = (
            np.random.default_rng(np.random.SeedSequence(em.seed, spawn_key=(axis, sign, f, k)))
            for k in (0, 1)
        )
        occupied = h.counts > 0
        shape = (em.replicates, int(occupied.sum()))
        c = counts_rng.poisson(h.counts[occupied], size=shape).astype(float)
        x = h.grid.centers[occupied]
        if em.center_jitter:
            x = x + jitter_rng.normal(0.0, sigma, size=shape)
        total = c.sum(axis=1)
        q = c / np.where(total > 0, total, 1.0)[:, None]
        mu = (q * x).sum(axis=1)
        var = (q * (x - mu[:, None]) ** 2).sum(axis=1)
        ent = -(q * np.log(np.where(q > 0, q, 1.0))).sum(axis=1) + math.log(h.grid.width)
        stats.append((total > 0, var, var + h.grid.width**2 / 12.0, ent))
    (kept_r, var_r, cvar_r, ent_r), (kept_s, var_s, cvar_s, ent_s) = stats
    keep = kept_r & kept_s
    bound = entropic_bound_constant(marginals[0].grid.width * marginals[1].grid.width)
    values = {
        "coarse_variance": cvar_r * cvar_s - 1.0,
        "coarse_entropic": ent_r + ent_s + math.log(bound),
        "naive_discrete": var_r * var_s - 1.0,
    }
    errors = {w: float(np.std(v[keep], ddof=1)) for w, v in values.items()}
    return errors, em.replicates - int(keep.sum())


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

        monkeypatch.setattr(witnesses, "entropic_bound_constant", counted)
        pos, mom = scans
        factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
        sweep_grid(pos, mom, factors, factors, witness_ids=("coarse_entropic",))
        # 121 cells, 88 distinct float products of the two bin widths
        assert len(calls) == len(set(calls)) == 88

    def test_values_match_single_cell_witnesses(self, scans):
        # sweep_grid's point estimate is row 0 of the core witness_grid runs,
        # so with errors off and on every cell of the default grid equals the
        # 1x1 witness_grid on its rebinned, normalised marginals bit for bit
        pos, mom = scans
        factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
        for em in (None, ErrorModel(replicates=200)):
            grid = sweep_grid(pos, mom, factors, factors, em)
            assert len(grid) == 2 * 3
            for (pairing, witness_id), (values, unc) in grid.items():
                assert (unc is None) == (em is None)
                for i, n in enumerate(factors):
                    for j, m in enumerate(factors):
                        r, s = rebinned_marginals(pos, mom, pairing, n, m)
                        want = _cell_of_marginals(r, s, witness_id)
                        assert values[i, j] == want, (em, pairing, witness_id, n, m)

    @pytest.mark.parametrize("error_model", [None, ErrorModel(replicates=200)])
    def test_one_combine_per_pairing_and_witness(self, scans, monkeypatch, error_model):
        # the point and the replicates are rows of one pass
        calls = []

        def counted(witness_id, *args):
            calls.append(witness_id)
            return combine(witness_id, *args)

        combine = witnesses._combine
        monkeypatch.setattr(witnesses, "_combine", counted)
        sweep_grid(*scans, [1, 3], [1, 5, 7], error_model)
        assert sorted(calls) == sorted(2 * witnesses.DATA_WITNESS_IDS)

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

    @pytest.mark.parametrize("center_jitter", [True, False])
    @pytest.mark.parametrize("pair", ["scans", "sparse_scans"])
    def test_errors_do_not_depend_on_the_block_size(
        self, request, monkeypatch, pair, center_jitter
    ):
        # each block continues the same two streams and every row reduces
        # alone, so one-row blocks, the default blocks and one block of
        # every draw give the same bits, those of a from-scratch redraw
        pos, mom = scans = request.getfixturevalue(pair)
        em = ErrorModel(center_jitter=center_jitter, replicates=1000, seed=5)
        n_list, m_list = [1, 3, 9], [1, 5]
        bins = max(global_marginal(jc, sign).counts.size for jc in scans for sign in "+-")
        if pair == "scans":  # the widest marginal spans several default blocks
            assert em.replicates * bins > 4 * witnesses._BLOCK_ELEMENTS

        def grid():
            return sweep_grid(pos, mom, n_list, m_list, em)

        default = grid()
        for pairing in PAIRINGS:
            for (i, n), (j, m) in itertools.product(enumerate(n_list), enumerate(m_list)):
                want, discarded = _same_stream_errors(pos, mom, pairing, n, m, em)
                # the sparse pair drops some replicates in every cell, the dense pair none
                assert (0 < discarded <= 0.1 * em.replicates) == (pair == "sparse_scans")
                for witness_id, stderr in want.items():
                    got = default[pairing, witness_id][1][i, j]
                    assert got == pytest.approx(stderr, rel=1e-12), (pairing, witness_id, n, m)
        for block in (1, em.replicates * bins):
            monkeypatch.setattr(witnesses, "_BLOCK_ELEMENTS", block)
            for key, (values, unc) in grid().items():
                assert np.array_equal(values, default[key][0]), (block, key)
                assert np.array_equal(unc, default[key][1]), (block, key)

    def test_traced_peak_per_replicate_stays_small(self):
        # the default simulate pair and sweep: replicates are drawn and reduced
        # a block at a time and errors taken a row at a time, so no array
        # grows with cells * replicates (a whole-array sweep needs ~5.4 KB)
        peak = _traced_peak_per_replicate()
        # ~860 B per replicate at any worker count (the workers share one
        # block budget); point values kept as views of their (S, 1 + B) rows
        # would keep every row alive and read ~1 640 B
        assert peak < 1200, peak

    def test_traced_peak_per_replicate_does_not_grow_with_the_cpu_count(self, monkeypatch):
        # 22 workers reduce every marginal of a default pairing at once; with a
        # full block each they read ~2 340 B per replicate
        _with_workers(monkeypatch, 22)
        peak = _traced_peak_per_replicate()
        assert peak < 1200, peak


def _traced_peak_per_replicate() -> float:
    """tracemalloc peak, in bytes per replicate, of the default sweep of the default simulate pair."""
    state, geometry = GaussianTwoPhotonState(10.0, 2.5), OpticalGeometry()
    pos_seed, mom_seed = np.random.SeedSequence(0).spawn(2)
    pos = sample_joint_counts(state, geometry, "position", 1e6, pos_seed)
    mom = sample_joint_counts(state, geometry, "momentum", 1e6, mom_seed)
    factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
    em = ErrorModel(replicates=5000, seed=0)
    _, peak = traced_peak(lambda: sweep_grid(pos, mom, factors, factors, em))
    return peak / em.replicates


def _with_workers(monkeypatch, workers):
    """Make sweep_grid see `workers` CPUs, whatever this host has."""
    monkeypatch.setattr(witnesses, "_cpu_count", lambda: workers)


class TestWorkers:
    """The marginals of a pairing are reduced on one thread per CPU; nothing else changes."""

    @pytest.mark.parametrize("center_jitter", [True, False])
    @pytest.mark.parametrize("pair", ["scans", "sparse_scans"])
    def test_worker_count_never_changes_the_bytes(self, request, monkeypatch, pair, center_jitter):
        pos, mom = request.getfixturevalue(pair)
        em = ErrorModel(center_jitter=center_jitter, replicates=300, seed=4)
        grids = {}
        for workers in (1, 2, 3):
            _with_workers(monkeypatch, workers)
            grids[workers] = sweep_grid(pos, mom, [1, 3, 5, 9], [1, 3, 7], em)
        for workers in (2, 3):
            assert grids[workers].keys() == grids[1].keys()
            for key, (values, unc) in grids[workers].items():
                assert np.array_equal(values, grids[1][key][0]), (workers, key)
                assert np.array_equal(unc, grids[1][key][1]), (workers, key)

    def test_non_finite_refusal_raises_no_warning_in_a_thread(self, scans, monkeypatch):
        # numpy's error state is per thread: each job sets it for itself
        _with_workers(monkeypatch, 2)
        threads = threading.active_count()
        geometry = dataclasses.replace(scans[0].geometry, s_x_mm=1e200)
        pos, mom = (JointCounts(jc.variable_pair, jc.step, jc.counts, geometry) for jc in scans)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="witness value must be finite, got nan$"):
                sweep_grid(pos, mom, [1, 3], [1], ErrorModel(replicates=100))
        assert threading.active_count() == threads

    def test_starved_counts_refusal_is_unchanged(self, geometry, monkeypatch):
        ones = np.zeros((3, 3), dtype=np.int64)
        ones[1, 1] = 1
        pos = JointCounts(variable_pair="position", step=0.05, counts=ones, geometry=geometry)
        mom = JointCounts(variable_pair="momentum", step=0.02, counts=ones, geometry=geometry)
        messages = []
        for workers in (1, 2):
            _with_workers(monkeypatch, workers)
            threads = threading.active_count()
            with pytest.raises(PropagationError) as caught:
                sweep_grid(pos, mom, [1, 3], [1], ErrorModel(replicates=200, seed=0))
            assert threading.active_count() == threads
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_a_point_only_sweep_stays_on_the_calling_thread(self, scans, monkeypatch):
        # point-only jobs are too short to repay the hand-off to a pool thread
        threads = []
        reduce = witnesses._reduce

        def recording_reduce(*args):
            threads.append(threading.current_thread())
            return reduce(*args)

        monkeypatch.setattr(witnesses, "_reduce", recording_reduce)
        _with_workers(monkeypatch, 2)
        sweep_grid(*scans, [1, 3], [1, 3])
        assert len(threads) == 8 and set(threads) == {threading.current_thread()}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_first_failure_in_serial_order_is_raised(self, scans, monkeypatch, workers):
        # position factors 1 and 3 start together on two threads; factor 3
        # fails first, but the serial loop reaches factor 1 before it
        pos, mom = scans
        width = global_marginal(pos, "+").grid.width
        later_failed = threading.Event()
        reduce = witnesses._reduce

        def failing_reduce(w, *args):
            if w == width * 3:
                later_failed.set()
                raise ValueError("position n=3")
            if w == width:
                later_failed.wait(timeout=30)
                raise ValueError("position n=1")
            return reduce(w, *args)

        monkeypatch.setattr(witnesses, "_reduce", failing_reduce)
        _with_workers(monkeypatch, workers)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^position n=1$"):
            sweep_grid(pos, mom, [1, 3, 5], [1, 3], ErrorModel(replicates=200), pairings=("pm",))
        assert later_failed.is_set()
        assert threading.active_count() == threads

    def test_an_interrupt_starts_no_queued_job(self, scans, monkeypatch):
        # the first position marginal interrupts at once, the others take
        # ~0.1 s each; once the interrupt reaches the caller the pool cancels
        # every queued job, so only those already running finish
        pos, mom = scans
        n_list, m_list = [1, 3, 5, 7, 9], [1, 3, 5]
        pos_width = global_marginal(pos, "+").grid.width
        mom_width = global_marginal(mom, "-").grid.width
        widths = [pos_width * n for n in n_list] + [mom_width * m for m in m_list]
        assert len(set(widths)) == len(widths)  # each job is known by its width
        started = []
        reduce = witnesses._reduce

        def interrupting_reduce(w, *args):
            if w not in started:  # a job's first reduction is its point estimate
                started.append(w)
                if w == pos_width:
                    raise KeyboardInterrupt
                time.sleep(0.1)
            return reduce(w, *args)

        monkeypatch.setattr(witnesses, "_reduce", interrupting_reduce)
        _with_workers(monkeypatch, 2)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            sweep_grid(pos, mom, n_list, m_list, ErrorModel(replicates=100), pairings=("pm",))
        assert threading.active_count() == threads
        assert pos_width in started and len(started) < len(widths), started

    def test_many_threads_switching_often_give_the_bytes_of_one(self, scans, monkeypatch):
        # more threads than cores and a thread switch every microsecond: a
        # job run twice, lost or returned out of order shows here
        pos, mom = scans
        factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
        em = ErrorModel(replicates=100, seed=5)
        _with_workers(monkeypatch, 1)
        serial = sweep_grid(pos, mom, factors, factors, em)
        _with_workers(monkeypatch, 16)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sweep_grid(pos, mom, factors, factors, em)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert threaded.keys() == serial.keys()
        for key, (values, unc) in threaded.items():
            assert np.array_equal(values, serial[key][0]), key
            assert np.array_equal(unc, serial[key][1]), key
