import cgwitness
from cgwitness import BinGrid, GaussianTwoPhotonState

#: Names the package no longer exports; nothing in the package called them.
REMOVED = (
    "HistogramDensity",
    "histogram_density",
    "rect_indicator",
    "SummaryStat",
    "summarize_histogram",
    "discrete_mean",
    "classify_separable",
    "branch_switch_gamma",
)


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        for name in cgwitness.__all__:
            assert hasattr(cgwitness, name), name

    def test_no_duplicate_exports(self):
        assert len(cgwitness.__all__) == len(set(cgwitness.__all__))

    def test_removed_names_are_gone(self):
        for name in REMOVED:
            assert name not in cgwitness.__all__
            assert not hasattr(cgwitness, name), name
        for attr in ("index_of", "edges", "index_range"):
            assert not hasattr(BinGrid, attr), attr
        assert not hasattr(GaussianTwoPhotonState, "normalization_sq")
