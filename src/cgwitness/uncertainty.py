"""Monte Carlo error propagation for data-driven witness values.

Counts fluctuate Poisson-wise and the slit micrometers place each bin
center only to finite precision, so every witness value carries a standard
error. Closed-form propagation through -q ln q and the band-limiting bound
is awkward; instead each replicate resamples the marginal counts and
jitters the bin centers, re-runs the witness, and the reported uncertainty
is the sample standard deviation across replicates. Center jitter enters
the moment calculations only (the coordinates move, the widths do not), so
it leaves entropies untouched — jitter-only propagation of the entropic
witness yields uncertainty exactly 0.

The micrometer-step model for the center errors, at rebin factors (n, m):

    sigma_position(n) = step * sqrt(2) * n * (f1/f2)
    sigma_momentum(m) = step * sqrt(2) * (2*m*pi / (f3*lambda))

`sweep_grid` is the one route from two scans to witness values and their
errors; a single cell is the 1x1 grid. Every data witness combines one
statistic of a rebinned position marginal with one of a rebinned momentum
marginal, so `sweep_grid` resamples and reduces each marginal once per
(axis, sign, factor), to per-replicate variances and entropies of shape
(B,), and builds every (n, m, pairing, witness) cell through the core that
witnesses.witness_grid also uses. The point estimate is the B = 1 row of
the unperturbed masses. Replicates resample only the occupied bins, which
is exact: Poisson(0) always draws 0.

Random streams: the marginal of scan axis a (0 position, 1 momentum),
diagonal sign s (0 '+', 1 '-') and rebin factor f draws its Poisson counts
from SeedSequence(seed, spawn_key=(a, s, f, 0)) and its center jitter from
spawn key (a, s, f, 1), where seed is ErrorModel.seed. The counts
therefore do not depend on the jitter settings, jitter is drawn only when a
variance witness is requested, and a cell's uncertainty does not depend on
which other cells are swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .binning import CountHistogram, rebin
from .errors import ConfigurationError, InvalidParameterError, PropagationError
from .ingest import (
    JointCounts,
    OpticalGeometry,
    ensure_matching_geometry,
    global_marginal,
)
from .witnesses import (
    DATA_WITNESS_IDS,
    PAIRINGS,
    _combine,
    _log_bound_table,
    _MarginalStats,
    _needs,
    _reduce,
)

_AXIS_INDEX = {"position": 0, "momentum": 1}
_SIGN_INDEX = {"+": 0, "-": 1}
_COUNTS_STREAM, _JITTER_STREAM = 0, 1

#: Fewest replicates: shorter runs give noisy standard errors.
MIN_REPLICATES = 100

#: Largest replicate count: the default sweep needs ~8 KB per replicate
#: (121 MB peak at 10^4), so this stays near 1 GB.
MAX_REPLICATES = 100_000


@dataclass(frozen=True)
class ErrorModel:
    """What to fluctuate, and how hard, in each Monte Carlo replicate.

    Every replicate Poisson-resamples the marginal counts. With
    center_jitter it also moves each bin center by an independent Gaussian
    error of scale center_sigma_position/center_sigma_momentum; without it
    the model is Poisson-only. replicates must lie between MIN_REPLICATES
    (fewer give unreliable standard errors) and MAX_REPLICATES; other
    values are refused before anything is allocated. seed is a
    non-negative integer, or None for fresh entropy.
    """

    center_jitter: bool = True
    replicates: int = 1000
    seed: int | None = 0

    def __post_init__(self):
        if not isinstance(self.replicates, (int, np.integer)):
            raise InvalidParameterError(f"replicates must be an integer, got {self.replicates!r}")
        if not MIN_REPLICATES <= self.replicates <= MAX_REPLICATES:
            raise InvalidParameterError(
                f"replicates must be at most {MAX_REPLICATES} and at least "
                f"{MIN_REPLICATES}, got {self.replicates}"
            )
        if self.seed is not None and not (
            isinstance(self.seed, (int, np.integer)) and self.seed >= 0
        ):
            raise InvalidParameterError(
                f"seed must be a non-negative integer or None, got {self.seed!r}"
            )

    def center_sigma_position(self, n: int, geometry: OpticalGeometry) -> float:
        """Center-placement error of a width-n position bin (mm)."""
        return geometry.micrometer_step_mm * math.sqrt(2.0) * n * (geometry.f1_mm / geometry.f2_mm)

    def center_sigma_momentum(self, m: int, geometry: OpticalGeometry) -> float:
        """Center-placement error of a width-m momentum bin (1/mm)."""
        return (
            geometry.micrometer_step_mm
            * math.sqrt(2.0)
            * (2.0 * m * math.pi / (geometry.f3_mm * geometry.lambda_mm))
        )


def _stream(root: SeedSequence, key: tuple) -> Generator:
    return default_rng(SeedSequence(root.entropy, spawn_key=root.spawn_key + key))


def _replicate_stats(
    h: CountHistogram,
    key: tuple,
    sigma: float,
    em: ErrorModel,
    root: SeedSequence,
    need_variance: bool,
    need_entropy: bool,
) -> _MarginalStats:
    """Resample the occupied bins of h em.replicates times and reduce each replicate."""
    b = em.replicates
    occupied = h.counts > 0
    counts = h.counts[occupied]
    centers = h.grid.centers[occupied]
    draws = _stream(root, key + (_COUNTS_STREAM,)).poisson(counts, size=(b, counts.size))
    weights = draws.astype(np.float64)
    if need_variance and em.center_jitter:
        centers = centers + _stream(root, key + (_JITTER_STREAM,)).normal(
            0.0, sigma, size=draws.shape
        )
    return _reduce(h.grid.width, weights, centers, need_variance, need_entropy)


def _kept_std(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """ddof=1 standard deviation along the last axis over the kept entries."""
    k = keep.sum(axis=-1)
    mean = np.where(keep, values, 0.0).sum(axis=-1) / k
    dev = np.where(keep, values - mean[..., None], 0.0)
    return np.sqrt((dev * dev).sum(axis=-1) / (k - 1))


def sweep_grid(
    position: JointCounts,
    momentum: JointCounts,
    n_list,
    m_list,
    error_model: ErrorModel | None = None,
    *,
    pairings=tuple(PAIRINGS),
    witness_ids=DATA_WITNESS_IDS,
) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray | None]]:
    """Witness values, and optionally standard errors, over a grid of rebin factors.

    Returns {(pairing, witness_id): (values, uncertainties)}, each a
    (len(n_list), len(m_list)) array whose entry [i, j] is the witness on
    the position marginal rebinned by n_list[i] and the momentum marginal
    rebinned by m_list[j], both on the diagonals that pairing names in
    PAIRINGS; a single cell is the 1x1 grid. uncertainties is None without
    an error model; otherwise it is the ddof=1 standard deviation of the
    witness over the replicates in which both marginals drew a positive
    total. A cell that discards more than 10% of its replicates, or keeps
    fewer than 2, raises PropagationError. An empty n_list or m_list,
    swapped scans, scans of two geometries, a pairing outside PAIRINGS or a
    witness_id outside DATA_WITNESS_IDS raise ConfigurationError; an even
    or non-positive factor raises InvalidParameterError (from
    binning.rebin). Deterministic for a fixed ErrorModel.seed.
    """
    if position.variable_pair != "position":
        raise ConfigurationError("first scan must have variable_pair=position")
    if momentum.variable_pair != "momentum":
        raise ConfigurationError("second scan must have variable_pair=momentum")
    ensure_matching_geometry(position, momentum)
    if len(n_list) == 0 or len(m_list) == 0:
        raise ConfigurationError("n_list and m_list must not be empty")
    for pairing in pairings:
        if pairing not in PAIRINGS:
            raise ConfigurationError(f"pairing must be one of {tuple(PAIRINGS)}, got {pairing!r}")
    need_variance, need_entropy = _needs(witness_ids)
    em = error_model
    root = None
    if em is not None:
        root = SeedSequence(em.seed)

    def marginal_stats(jc: JointCounts, sign: str, factors):
        base = global_marginal(jc, sign)
        points, replicates = [], []
        for f in factors:
            h = rebin(base, f)
            d = h.normalize()
            points.append(
                _reduce(d.grid.width, d.masses[None, :], d.grid.centers, need_variance, need_entropy)
            )
            if em is not None:
                key = (_AXIS_INDEX[jc.variable_pair], _SIGN_INDEX[sign], int(f))
                if jc.variable_pair == "position":
                    sigma = em.center_sigma_position(f, jc.geometry)
                else:
                    sigma = em.center_sigma_momentum(f, jc.geometry)
                replicates.append(
                    _replicate_stats(h, key, sigma, em, root, need_variance, need_entropy)
                )
        return points, replicates

    log_bound = None
    out = {}
    for pairing in pairings:
        # the diagonal sign is the second character of each variable ("x+", "p-")
        sign_r, sign_s = (variable[1] for variable in PAIRINGS[pairing])
        r_point, r_reps = marginal_stats(position, sign_r, n_list)
        s_point, s_reps = marginal_stats(momentum, sign_s, m_list)
        if need_entropy and log_bound is None:
            # a marginal's width depends on its scan, not its diagonal sign,
            # so one table serves both pairings
            log_bound = _log_bound_table([st.width for st in r_point], [st.width for st in s_point])
        if em is not None:
            keep = np.stack([st.kept for st in r_reps])[:, None, :] & np.stack(
                [st.kept for st in s_reps]
            )[None, :, :]
            discarded = em.replicates - keep.sum(axis=-1)
            i, j = np.unravel_index(np.argmax(discarded), discarded.shape)
            if discarded[i, j] > 0.1 * em.replicates:
                raise PropagationError(
                    f"{discarded[i, j]} of {em.replicates} replicates drew zero total "
                    f"counts at n={n_list[i]}, m={m_list[j]}, pairing {pairing}; "
                    "data too sparse for Monte Carlo propagation"
                )
            if em.replicates - discarded[i, j] < 2:
                raise PropagationError("fewer than 2 usable replicates")
        for witness_id in witness_ids:
            values = _combine(witness_id, r_point, s_point, log_bound)[:, :, 0]
            uncertainties = None
            if em is not None:
                uncertainties = _kept_std(_combine(witness_id, r_reps, s_reps, log_bound), keep)
            out[pairing, witness_id] = (values, uncertainties)
    return out

