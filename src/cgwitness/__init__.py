"""Coarse-grained continuous-variable entanglement witnesses.

Detecting entanglement from binned coincidence counts needs witnesses that
stay valid at finite bin size. This package provides the corrected
variance-product and entropy-sum criteria on sum/difference marginals
(with the band-limiting bound constant behind the entropic one), the
Gaussian pair-state model used to synthesize and cross-check data, scan
ingest with detector-to-source unit conversion, and one witness evaluator
(cgwitness.witnesses) with two front ends: witness_grid, on every pair of
two lists of binned marginals, and sweep_grid, on two scans at every
requested bin size, with Monte Carlo standard errors — plus the
deliberately naive discrete criterion that shows why the corrections
matter.
"""

from .binning import (
    BinGrid,
    CountHistogram,
    DiscreteDistribution,
    coarse_grain,
    rebin,
)
from .bound import (
    CONTINUOUS_BOUND_CONSTANT,
    concentration_eigenvalue,
    entropic_bound_constant,
)
from .errors import (
    CGWitnessError,
    ConfigurationError,
    InvalidParameterError,
    NormalizationError,
    ParseError,
    PropagationError,
    TruncationError,
)
from .ingest import (
    JointCounts,
    OpticalGeometry,
    detector_to_source_scale,
    ensure_matching_geometry,
    global_marginal,
    load_joint_counts,
    save_joint_counts,
)
from .model import (
    GaussianTwoPhotonState,
    MarginalSpec,
    bin_mass_oracle,
    coarse_grained_marginal,
    exact_marginals,
    sample_joint_counts,
    sample_marginal_counts,
)
from .witnesses import (
    DATA_WITNESS_IDS,
    PAIRINGS,
    ErrorModel,
    discrete_entropy,
    discrete_variance,
    histogram_entropy,
    histogram_variance,
    sweep_grid,
    witness_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BinGrid",
    "CGWitnessError",
    "CONTINUOUS_BOUND_CONSTANT",
    "ConfigurationError",
    "CountHistogram",
    "DATA_WITNESS_IDS",
    "DiscreteDistribution",
    "ErrorModel",
    "GaussianTwoPhotonState",
    "InvalidParameterError",
    "JointCounts",
    "MarginalSpec",
    "NormalizationError",
    "OpticalGeometry",
    "PAIRINGS",
    "ParseError",
    "PropagationError",
    "TruncationError",
    "bin_mass_oracle",
    "coarse_grain",
    "coarse_grained_marginal",
    "concentration_eigenvalue",
    "detector_to_source_scale",
    "discrete_entropy",
    "discrete_variance",
    "ensure_matching_geometry",
    "entropic_bound_constant",
    "exact_marginals",
    "global_marginal",
    "histogram_entropy",
    "histogram_variance",
    "load_joint_counts",
    "rebin",
    "sample_joint_counts",
    "sample_marginal_counts",
    "save_joint_counts",
    "sweep_grid",
    "witness_grid",
    "__version__",
]
