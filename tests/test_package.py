import ast
import dataclasses
import inspect
from pathlib import Path

import cgwitness
from cgwitness import (
    BinGrid,
    ErrorModel,
    GaussianTwoPhotonState,
    GlobalMarginals,
    WitnessReport,
    coarse_entropic_witness,
    coarse_grained_marginal,
    coarse_variance_witness,
    entropic_continuous,
    mgvt_continuous,
    naive_discrete_witness,
    sample_marginal_counts,
)
from cgwitness.cli import build_parser

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
    "WitnessPipeline",
    "propagate",
)

#: Keywords the functions no longer take; no caller outside their own tests set them.
REMOVED_PARAMETERS = (
    (mgvt_continuous, ("uncertainty",)),
    (entropic_continuous, ("uncertainty",)),
    (coarse_variance_witness, ("variable_r", "variable_s", "uncertainty")),
    (coarse_entropic_witness, ("variable_r", "variable_s", "uncertainty")),
    (naive_discrete_witness, ("variable_r", "variable_s", "uncertainty")),
    (coarse_grained_marginal, ("span_sigmas", "min_captured")),
    (sample_marginal_counts, ("span_sigmas", "min_captured")),
)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references (re-exports in __all__ count)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


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
        assert not hasattr(GlobalMarginals, "by_name")

    def test_sweep_grid_is_exported(self):
        assert "sweep_grid" in cgwitness.__all__

    def test_removed_parameters_are_gone(self):
        fields = tuple(f.name for f in dataclasses.fields(ErrorModel))
        assert fields == ("center_jitter", "replicates", "seed")
        assert "uncertainty" not in {f.name for f in dataclasses.fields(WitnessReport)}
        demo = vars(build_parser().parse_args(["demo-false-positive"]))
        assert "sigma" in demo
        assert not {"sigma_plus", "sigma_minus"} & set(demo)
        for fn, names in REMOVED_PARAMETERS:
            params = inspect.signature(fn).parameters
            for name in names:
                assert name not in params, (fn.__name__, name)


class TestImports:
    def test_no_unused_imports(self):
        roots = (Path(cgwitness.__file__).parent, Path(__file__).parent)
        found = {
            str(path): names
            for root in roots
            for path in sorted(root.rglob("*.py"))
            if (names := _unused_imports(path))
        }
        assert found == {}
