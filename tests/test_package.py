import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import cgwitness
from cgwitness import (
    BinGrid,
    ErrorModel,
    GaussianTwoPhotonState,
    GlobalMarginals,
    coarse_grained_marginal,
    sample_marginal_counts,
)
from cgwitness.cli import build_parser, main

#: Names the package no longer exports; no caller in the package remains.
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
    "WitnessReport",
    "coarse_variance_witness",
    "coarse_entropic_witness",
    "naive_discrete_witness",
    "mgvt_continuous",
    "entropic_continuous",
    "WITNESS_IDS",
    "CONTINUOUS_ENTROPIC_BOUND",
    "InvalidPairingError",
    "CharacteristicSolution",
    "characteristic_solution",
    "radial_first_kind",
    "ConvergenceError",
)

#: Keywords the functions no longer take; no caller outside their own tests set them.
REMOVED_PARAMETERS = (
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


def _private_imports(path: Path) -> list[str]:
    """`_`-prefixed names a cgwitness module imports from another cgwitness module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        f"{'.' * node.level}{node.module or ''}:{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "cgwitness")
        for a in node.names
        if a.name.startswith("_")
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
        assert not hasattr(GlobalMarginals, "by_name")
        assert not hasattr(cgwitness.errors, "InvalidPairingError")
        assert not hasattr(cgwitness.errors, "ConvergenceError")
        assert cgwitness.errors.NUMERICAL_ERRORS == (cgwitness.errors.PropagationError,)

    def test_export_count(self):
        assert len(cgwitness.__all__) == 40

    def test_merged_modules_are_gone(self):
        for name in ("cgwitness.uncertainty", "cgwitness.stats"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(name)
        for attr in ("center_sigma_position", "center_sigma_momentum"):
            assert not hasattr(ErrorModel, attr), attr

    def test_sweep_grid_is_exported(self):
        assert "sweep_grid" in cgwitness.__all__
        assert "witness_grid" in cgwitness.__all__

    def test_removed_parameters_are_gone(self):
        fields = tuple(f.name for f in dataclasses.fields(ErrorModel))
        assert fields == ("center_jitter", "replicates", "seed")
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

    def test_no_private_cross_module_imports(self):
        root = Path(cgwitness.__file__).parent
        found = {
            str(path): names
            for path in sorted(root.rglob("*.py"))
            if (names := _private_imports(path))
        }
        assert found == {}


class TestReadme:
    def test_python_examples_run(self, tmp_path, monkeypatch):
        # the examples read scan_position.txt and scan_momentum.txt from the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--total-counts", "1e5"]) == 0
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
        assert len(blocks) >= 2
        namespace = {}
        for block in blocks:
            exec(compile(block, str(readme), "exec"), namespace)
