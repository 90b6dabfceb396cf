"""Coarse-grained continuous-variable entanglement witnesses.

Detecting entanglement from binned coincidence counts needs witnesses that
stay valid at finite bin size. This package provides the corrected
variance-product and entropy-sum criteria on sum/difference marginals
(with the band-limiting bound constant behind the entropic one), the
Gaussian pair-state model used to synthesize and cross-check data, scan
ingest with detector-to-source unit conversion, and sweep_grid, which
evaluates the data witnesses on two scans at every requested bin size, with
Monte Carlo standard errors — plus the deliberately naive discrete
criterion that shows why the corrections matter.
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
    CharacteristicSolution,
    characteristic_solution,
    concentration_eigenvalue,
    entropic_bound_constant,
    radial_first_kind,
)
from .errors import (
    CGWitnessError,
    ConfigurationError,
    ConvergenceError,
    InvalidPairingError,
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
    GlobalMarginals,
    MarginalSpec,
    bin_mass_oracle,
    coarse_grained_marginal,
    exact_marginals,
    sample_joint_counts,
    sample_marginal_counts,
)
from .stats import (
    discrete_entropy,
    discrete_variance,
    histogram_entropy,
    histogram_variance,
)
from .uncertainty import ErrorModel, sweep_grid
from .witnesses import (
    CONTINUOUS_ENTROPIC_BOUND,
    DATA_WITNESS_IDS,
    PAIRINGS,
    WITNESS_IDS,
    WitnessReport,
    coarse_entropic_witness,
    coarse_variance_witness,
    entropic_continuous,
    mgvt_continuous,
    naive_discrete_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BinGrid",
    "CGWitnessError",
    "CONTINUOUS_BOUND_CONSTANT",
    "CharacteristicSolution",
    "ConfigurationError",
    "ConvergenceError",
    "CountHistogram",
    "CONTINUOUS_ENTROPIC_BOUND",
    "DATA_WITNESS_IDS",
    "DiscreteDistribution",
    "ErrorModel",
    "GaussianTwoPhotonState",
    "GlobalMarginals",
    "InvalidPairingError",
    "InvalidParameterError",
    "JointCounts",
    "MarginalSpec",
    "NormalizationError",
    "OpticalGeometry",
    "PAIRINGS",
    "ParseError",
    "PropagationError",
    "TruncationError",
    "WITNESS_IDS",
    "WitnessReport",
    "bin_mass_oracle",
    "characteristic_solution",
    "coarse_entropic_witness",
    "coarse_grain",
    "coarse_grained_marginal",
    "coarse_variance_witness",
    "concentration_eigenvalue",
    "detector_to_source_scale",
    "discrete_entropy",
    "discrete_variance",
    "ensure_matching_geometry",
    "entropic_bound_constant",
    "entropic_continuous",
    "exact_marginals",
    "global_marginal",
    "histogram_entropy",
    "histogram_variance",
    "load_joint_counts",
    "mgvt_continuous",
    "naive_discrete_witness",
    "radial_first_kind",
    "rebin",
    "sample_joint_counts",
    "sample_marginal_counts",
    "save_joint_counts",
    "sweep_grid",
    "__version__",
]
