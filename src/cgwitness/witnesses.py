"""Entanglement witnesses on binned global-variable marginals, with their errors.

Every witness value is (left-hand side minus bound), so a negative value
certifies entanglement regardless of which criterion produced it. For a
position marginal r and a momentum marginal s with bin widths w_r, w_s,
discrete variances V (of the bin masses over the bin centers) and discrete
entropies H (in nats):

    coarse_variance = (V_r + w_r^2/12) * (V_s + w_s^2/12) - 1
    coarse_entropic = (H_r + ln w_r) + (H_s + ln w_s) + ln C(w_r * w_s)
    naive_discrete  = V_r * V_s - 1

with C the band-limiting bound constant (bound.entropic_bound_constant).
The two coarse-grained criteria take binned marginals at ANY bin widths and
stay nonnegative on separable states by construction. Their width
corrections are two exact identities: the piecewise-constant density built
from the bin masses has variance V + width^2/12 (the variance of one
rectangle) and differential entropy H + ln(width). `corrected_variance` and
`corrected_entropy` are the one definition of each; they broadcast over
replicates. The naive discrete criterion applies the continuous variance
bound to uncorrected discrete variances — it is deliberately included as
the cautionary counterexample and is unsafe: with bins a few standard
deviations wide it reports entanglement for product states.

`witness_grid` evaluates the data witnesses on every pair of two lists of
binned marginals, and `sweep_grid` on two scans at every requested pair of
rebin factors; a single cell is the 1x1 grid. Both go through one core:
each marginal is reduced once, every row by `_reduce`, to one
_MarginalStats whose row 0 is the point estimate and whose rows 1.. are
its replicates. The point row reduces the marginal's masses: in
`witness_grid` those of each DiscreteDistribution (`_point_stats`), in
`sweep_grid` counts / total of each rebinned histogram, the masses
normalize() would return, with the same float operations but no
distribution built. ln C is tabulated once per distinct width product
(`_log_bound_table`), and `_combine`, the one definition of each witness
formula, yields the (S, 1 + B) values of one position marginal against
every momentum marginal.
`_witness_values` takes column 0 of each such row as the value and the
spread of the others as its standard error, and refuses any that is not
finite, the one such check. Replicates are drawn and reduced in row blocks
of at most _BLOCK_ELEMENTS draws, and errors are taken one row at a time,
so no array holds R * S * B elements.

Threads. `sweep_grid` reduces the marginals of one pairing as independent
jobs on a concurrent.futures.ThreadPoolExecutor, which returns their
results in list order. With an ErrorModel the pool has up to one thread per
CPU the process may use; numpy's draws and reductions release the GIL, so
the jobs overlap. There is no setting: restricting the process's CPUs
(taskset -c 0) restricts the threads. The workers share one budget of
_BLOCK_ELEMENTS draws, so the memory does not grow with the number of CPUs.
Each job owns its random streams and its rows reduce alone, so the output
bytes do not depend on the number of threads, and the error raised is that
of the earliest failing job in list order, the one a serial loop would meet
first; once it is raised, no queued job starts. Without an ErrorModel the
jobs are point estimates alone, too short to repay handing each to a pool
thread, so they run in list order on the calling thread and no thread starts.

Errors. Counts fluctuate Poisson-wise and the slit micrometers place each
bin center only to finite precision, so `sweep_grid` with an ErrorModel
attaches a standard error to every value: the ddof=1 standard deviation of
the witness over replicates that each resample the occupied bins of both
marginals (exact: Poisson(0) always draws 0) and, with center_jitter, move
every bin center by an independent Gaussian error. Jitter enters the
moments only (the coordinates move, the widths do not), so entropic
uncertainties are Poisson-only. The center error of each rebinned bin is
the micrometer-step model of its scan axis, ingest.bin_center_error.

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from ._kernels import batch_entropy, batch_weighted_moments
from .binning import DiscreteDistribution, rebin
from .bound import entropic_bound_constant
from .errors import (
    ConfigurationError,
    InvalidParameterError,
    NormalizationError,
    PropagationError,
    check_int,
    check_seed,
)
from .ingest import JointCounts, bin_center_error, ensure_matching_geometry, global_marginal

#: Witnesses that can be evaluated from binned count data alone.
DATA_WITNESS_IDS = ("coarse_variance", "coarse_entropic", "naive_discrete")

#: pairing token -> (first variable, second variable)
PAIRINGS = {"pm": ("x+", "p-"), "mp": ("x-", "p+")}

_AXIS_INDEX = {"position": 0, "momentum": 1}
_SIGN_INDEX = {"+": 0, "-": 1}
_COUNTS_STREAM, _JITTER_STREAM = 0, 1

#: Fewest replicates: shorter runs give noisy standard errors.
MIN_REPLICATES = 100

#: Largest replicate count: the default sweep needs ~0.9 KB per replicate
#: at any thread count (124 MB peak RSS at 10^5, of which 38 MB is already
#: there at 10^3).
MAX_REPLICATES = 100_000

#: Most Poisson draws held at once (~128 KB per float64 array): replicates
#: are drawn and reduced in row blocks, and each of w worker threads holds
#: one block of at most _BLOCK_ELEMENTS / w draws (or one row, if longer).
_BLOCK_ELEMENTS = 2**14

#: Both evaluators run under this: overflow, inf - inf and a zero-total
#: replicate's 0/0 and ln 0 leave values that _witness_values refuses or
#: that no kept replicate carries, so numpy need not warn of them.
_NONFINITE_SILENT = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def corrected_variance(variance, width: float):
    """Histogram-density variance from the discrete variance of its masses."""
    # numpy's power gives the bits of width**2, but inf instead of OverflowError
    return variance + np.float64(width) ** 2 / 12.0


def corrected_entropy(entropy, width: float):
    """Histogram-density entropy from the discrete entropy of its masses."""
    return entropy + math.log(width)


def _needs(witness_ids) -> tuple[bool, bool]:
    """(need_variance, need_entropy) of witness_ids; refuses an id outside DATA_WITNESS_IDS."""
    for witness_id in witness_ids:
        if witness_id not in DATA_WITNESS_IDS:
            raise ConfigurationError(
                f"witness {witness_id!r} cannot be evaluated from count data; "
                f"choose from {','.join(DATA_WITNESS_IDS)}"
            )
    return any(w != "coarse_entropic" for w in witness_ids), "coarse_entropic" in witness_ids


@dataclass(frozen=True)
class _MarginalStats:
    """Statistics of one binned marginal: row 0 the point estimate, rows 1.. its replicates.

    kept marks the rows whose counts drew a positive total. variance
    (discrete, over the bin centers) and entropy (discrete, in nats) are NaN
    where kept is False, and None when no requested witness needs them.
    """

    width: float
    kept: np.ndarray
    variance: np.ndarray | None
    entropy: np.ndarray | None


def _reduce(
    width: float,
    weights: np.ndarray,
    centers: np.ndarray,
    need_variance: bool,
    need_entropy: bool,
) -> _MarginalStats:
    """Statistics of each row of weights (B, K) over centers, (K,) or (B, K)."""
    totals = weights.sum(axis=1)
    variance = entropy = None
    if need_variance:
        variance = batch_weighted_moments(weights, centers, totals=totals)[1]
    if need_entropy:
        entropy = batch_entropy(weights, totals=totals)
    return _MarginalStats(width, totals > 0, variance, entropy)


def _point_stats(d: DiscreteDistribution, need_variance: bool, need_entropy: bool):
    """The B = 1 statistics of the exact masses of d."""
    return _reduce(d.grid.width, d.masses[None, :], d.grid.centers, need_variance, need_entropy)


def _stacked_rows(parts) -> _MarginalStats:
    """The rows of parts, statistics of one marginal, concatenated in order."""

    def rows(name):
        arrays = [getattr(part, name) for part in parts]
        return None if arrays[0] is None else np.concatenate(arrays)

    return _MarginalStats(parts[0].width, rows("kept"), rows("variance"), rows("entropy"))


def discrete_variance(d: DiscreteDistribution) -> float:
    """Variance of the bin masses over the bin centers.

    Note that for data binned from a continuous variable this *grouped*
    variance includes the spread within bins, so on smooth distributions it
    sits near sigma^2 + width^2/12, not sigma^2.
    """
    return float(_point_stats(d, True, False).variance[0])


def discrete_entropy(d: DiscreteDistribution) -> float:
    """Shannon entropy -sum(q ln q) in nats, with 0 ln 0 = 0."""
    return float(_point_stats(d, False, True).entropy[0])


def histogram_variance(d: DiscreteDistribution) -> float:
    """Variance of the piecewise-constant density of d.

    Equals the discrete variance of the masses plus width^2/12; the floor
    width^2/12 is attained exactly when one bin carries all mass.
    """
    return corrected_variance(discrete_variance(d), d.grid.width)


def histogram_entropy(d: DiscreteDistribution) -> float:
    """Differential entropy of the piecewise-constant density of d (nats).

    Equals the discrete entropy of the masses plus ln(width); for a single
    occupied bin this is exactly ln(width), the entropy of one rectangle.
    """
    return corrected_entropy(discrete_entropy(d), d.grid.width)


def _log_bound_table(r_stats, s_stats) -> np.ndarray:
    """ln bound_constant(w_r * w_s) as an (R, S, 1) array, one call per distinct product."""
    products = np.array([[r.width * s.width for s in s_stats] for r in r_stats])
    if not np.isfinite(products).all():  # widths are positive: the largest pair overflows
        raise InvalidParameterError(
            f"bin widths {max(r.width for r in r_stats):.6g} and "
            f"{max(s.width for s in s_stats):.6g} are too wide for "
            "coarse_entropic: their product overflows a float"
        )
    distinct, inverse = np.unique(products.ravel(), return_inverse=True)
    logs = np.array([math.log(entropic_bound_constant(g)) for g in distinct])
    return logs[inverse].reshape(products.shape)[:, :, None]


def _combine(witness_id: str, r_stats, s_stats, log_bound):
    """Yield the values (S, 1 + B) of one witness for each of r_stats against every s_stats.

    The formulas are those of the module docstring, with log_bound the
    (R, S, 1) table of _log_bound_table.
    """

    def stacked(stats):
        if witness_id == "coarse_entropic":
            inputs = [corrected_entropy(st.entropy, st.width) for st in stats]
        elif witness_id == "coarse_variance":
            inputs = [corrected_variance(st.variance, st.width) for st in stats]
        else:
            inputs = [st.variance for st in stats]
        return np.stack(inputs)

    x_r, x_s = stacked(r_stats), stacked(s_stats)
    for i in range(len(r_stats)):
        if witness_id == "coarse_entropic":
            yield x_r[i] + x_s + log_bound[i]
        else:
            yield x_r[i] * x_s - 1.0


def _kept_pairs(r_stats, s_stats) -> np.ndarray:
    """(R, S) counts of the replicates kept by both marginals, with no (R, S, B) mask."""
    kept_r, kept_s = (
        np.stack([st.kept[1:] for st in stats]).astype(np.int64) for stats in (r_stats, s_stats)
    )
    return kept_r @ kept_s.T


def _witness_values(witness_ids, r_stats, s_stats, log_bound) -> dict[str, tuple]:
    """{witness_id: (values, errors)}, each (R, S), on every pair of r_stats and s_stats.

    values are the witness on row 0 of each marginal; errors are the ddof=1
    standard deviations over rows 1.., the replicates that both marginals
    kept, or None when the marginals hold row 0 alone. An entry that is not
    finite raises InvalidParameterError, every value checked before any error.
    """
    kept_s = np.stack([st.kept[1:] for st in s_stats])
    out = {}
    for witness_id in witness_ids:
        values, errors = [], []
        for r, rows in zip(r_stats, _combine(witness_id, r_stats, s_stats, log_bound)):
            # a copy, not a view: a view would keep every (S, 1 + B) row alive
            values.append(rows[:, 0].copy())
            if kept_s.shape[1]:
                errors.append(rows[:, 1:].std(axis=-1, ddof=1, where=r.kept[1:] & kept_s))
        out[witness_id] = (np.stack(values), np.stack(errors) if errors else None)
    checked = [(values, "") for values, _ in out.values()]
    checked += [(errors, " as a standard error") for _, errors in out.values() if errors is not None]
    for array, what in checked:
        bad = array[~np.isfinite(array)]
        if bad.size:
            raise InvalidParameterError(f"witness value must be finite, got {bad[0]}{what}")
    return out


@_NONFINITE_SILENT
def witness_grid(r, s, witness_ids=DATA_WITNESS_IDS) -> dict[str, np.ndarray]:
    """Data witness values on every pair of binned marginals.

    r and s are sequences of DiscreteDistribution (r from the position
    scan, s from the momentum scan). Returns {witness_id: values}, each a
    (len(r), len(s)) array whose entry [i, j] is the witness on r[i] and
    s[j]; a single cell is the 1x1 grid. An empty r or s, or a witness_id
    outside DATA_WITNESS_IDS, raises ConfigurationError; an entry that is
    not a DiscreteDistribution, bins so wide that coarse_entropic's width
    product overflows, or a value that is not finite (bins so wide that a
    corrected variance overflows), raises InvalidParameterError.
    """
    r, s = list(r), list(s)
    if not r or not s:
        raise ConfigurationError("witness_grid needs at least one marginal on each side")
    for d in (*r, *s):
        if not isinstance(d, DiscreteDistribution):
            raise InvalidParameterError(
                f"marginals must be DiscreteDistributions, got {type(d).__name__}"
            )
    need_variance, need_entropy = _needs(witness_ids)
    r_stats = [_point_stats(d, need_variance, need_entropy) for d in r]
    s_stats = [_point_stats(d, need_variance, need_entropy) for d in s]
    log_bound = _log_bound_table(r_stats, s_stats) if need_entropy else None
    grid = _witness_values(witness_ids, r_stats, s_stats, log_bound)
    return {witness_id: values for witness_id, (values, _) in grid.items()}


@dataclass(frozen=True)
class ErrorModel:
    """What to fluctuate, and how hard, in each Monte Carlo replicate.

    The replicates are those of the module docstring; center_jitter=False
    gives the Poisson-only model. replicates must lie between MIN_REPLICATES
    (fewer give unreliable standard errors) and MAX_REPLICATES; other
    values are refused before anything is allocated. seed is a
    non-negative integer, or None for fresh entropy.
    """

    center_jitter: bool = True
    replicates: int = 1000
    seed: int | None = 0

    def __post_init__(self):
        check_int("replicates", self.replicates, MIN_REPLICATES, MAX_REPLICATES)
        check_seed(self.seed)


def _stream(root: SeedSequence, key: tuple) -> Generator:
    return default_rng(SeedSequence(root.entropy, spawn_key=root.spawn_key + key))


def _cpu_count() -> int:
    """CPUs this process may run on (os.cpu_count() where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@_NONFINITE_SILENT
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
    total. A cell that discards more than 10% of its replicates raises
    PropagationError. An empty n_list or m_list, swapped scans, scans of
    two geometries, a pairing outside PAIRINGS or a witness_id outside
    DATA_WITNESS_IDS raise ConfigurationError; a factor that
    binning.check_factor refuses raises InvalidParameterError, as does a
    value or uncertainty that is not finite. Deterministic for a fixed
    ErrorModel.seed.
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
    root = None if em is None else SeedSequence(em.seed)
    # one pool thread per CPU, at most one per marginal of a pairing
    workers = min(_cpu_count(), len(n_list) + len(m_list))

    @_NONFINITE_SILENT  # the decorator sets numpy's error state in whichever thread runs it
    def marginal_stats(jc: JointCounts, base, sign: str, f: int) -> _MarginalStats:
        """Statistics of base, jc's sign-diagonal marginal, at factor f: the point, then the replicates."""
        h = rebin(base, f)
        total = h.total
        if total <= 0:  # the refusal of h.normalize()
            raise NormalizationError("cannot normalize a histogram with zero counts")
        centers = h.grid.centers
        point = _reduce(h.grid.width, (h.counts / total)[None, :], centers, need_variance, need_entropy)
        if em is None:
            return point
        parts = [point]
        # resample the occupied bins em.replicates times, a block of
        # rows at a time; each block continues the same two streams,
        # so the draws are those of one (replicates, K) call
        key = (_AXIS_INDEX[jc.variable_pair], _SIGN_INDEX[sign], int(f))
        occupied = h.counts > 0
        counts, centers = h.counts[occupied], centers[occupied]
        counts_rng = _stream(root, key + (_COUNTS_STREAM,))
        jitter_rng = None
        if need_variance and em.center_jitter:
            sigma = bin_center_error(jc, f)
            jitter_rng = _stream(root, key + (_JITTER_STREAM,))
        step = max(1, _BLOCK_ELEMENTS // (workers * counts.size))
        for lo in range(0, em.replicates, step):
            shape = (min(step, em.replicates - lo), counts.size)
            weights = counts_rng.poisson(counts, size=shape).astype(np.float64)
            x = centers
            if jitter_rng is not None:
                x = jitter_rng.normal(0.0, sigma, shape)
                x += centers
            parts.append(_reduce(h.grid.width, weights, x, need_variance, need_entropy))
        return _stacked_rows(parts)

    log_bound = None
    out = {}
    with ThreadPoolExecutor(workers) as pool:
        for pairing in pairings:
            # the diagonal sign is the second character of each variable ("x+", "p-")
            sign_r, sign_s = (variable[1] for variable in PAIRINGS[pairing])
            # a pairing at a time, since jobs of both would hold more rows at the peak
            jobs = []
            for jc, sign, factors in ((position, sign_r, n_list), (momentum, sign_s, m_list)):
                base = global_marginal(jc, sign)
                jobs += [(jc, base, sign, f) for f in factors]
            # map takes one iterable per argument and yields the results in list
            # order. Without an ErrorModel the jobs are too short to repay the
            # hand-offs (on a 2-CPU VM the default point-only sweep took 8.4
            # instead of 4.5 ms on one pool thread), so the builtin map runs them
            # on this thread, and the pool, which starts threads on demand, none
            stats = list((map if em is None else pool.map)(marginal_stats, *zip(*jobs)))
            r_stats, s_stats = stats[: len(n_list)], stats[len(n_list) :]
            if need_entropy and log_bound is None:
                # a marginal's width depends on its scan, not its diagonal sign,
                # so one table serves both pairings
                log_bound = _log_bound_table(r_stats, s_stats)
            if em is not None:
                discarded = em.replicates - _kept_pairs(r_stats, s_stats)
                i, j = np.unravel_index(np.argmax(discarded), discarded.shape)
                if discarded[i, j] > 0.1 * em.replicates:
                    raise PropagationError(
                        f"{discarded[i, j]} of {em.replicates} replicates drew zero total "
                        f"counts at n={n_list[i]}, m={m_list[j]}, pairing {pairing}; "
                        "data too sparse for Monte Carlo propagation"
                    )
            for witness_id, pair in _witness_values(witness_ids, r_stats, s_stats, log_bound).items():
                out[pairing, witness_id] = pair
    return out
