import ast
import dataclasses
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import cgwitness
from cgwitness import (
    PAIRINGS,
    BinGrid,
    CountHistogram,
    DiscreteDistribution,
    ErrorModel,
    GaussianTwoPhotonState,
    JointCounts,
    MarginalSpec,
    OpticalGeometry,
    coarse_grain,
    coarse_grained_marginal,
    concentration_eigenvalue,
    entropic_bound_constant,
    exact_marginals,
    rebin,
    sample_joint_counts,
    sample_marginal_counts,
)
from cgwitness.cli import build_parser, main
from cgwitness.errors import InvalidParameterError

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
    "GlobalMarginals",
)

#: Keywords the functions and classes no longer take; no caller outside their own tests set them.
REMOVED_PARAMETERS = (
    (coarse_grained_marginal, ("span_sigmas", "min_captured")),
    (sample_marginal_counts, ("span_sigmas", "min_captured")),
    (coarse_grain, ("min_captured",)),
    (MarginalSpec, ("variable",)),
    (DiscreteDistribution, ("captured_fraction",)),
)


_SPEC = MarginalSpec(0.0, 1.0)
_HIST = CountHistogram(BinGrid(1.0, -3, 3), np.ones(7, dtype=np.int64))
_ONES = np.ones((3, 3), dtype=np.int64)
_STATE = GaussianTwoPhotonState(10.0, 2.5)
_GEOMETRY = OpticalGeometry()
_GEOMETRY_FIELDS = tuple(f.name for f in dataclasses.fields(OpticalGeometry))

#: Every public scalar argument: (id, call with the argument set to v, a
#: valid value, the columns of BAD_SCALARS that are valid by contract).
SCALAR_ARGUMENTS = [
    ("BinGrid.width", lambda v: BinGrid(v, 0, 1), 1, ("half",)),
    ("BinGrid.j_min", lambda v: BinGrid(1.0, v, 1), 0, ()),
    ("BinGrid.j_max", lambda v: BinGrid(1.0, 0, v), 1, ()),
    ("GaussianTwoPhotonState.sigma_plus", lambda v: GaussianTwoPhotonState(v, 1), 1, ("half",)),
    ("GaussianTwoPhotonState.sigma_minus", lambda v: GaussianTwoPhotonState(1, v), 1, ("half",)),
    ("MarginalSpec.mean", lambda v: MarginalSpec(v, 1.0), 0, ("half",)),
    ("MarginalSpec.std", lambda v: MarginalSpec(0.0, v), 1, ("half",)),
    *[
        (f"OpticalGeometry.{key}", lambda v, key=key: OpticalGeometry(**{key: v}), 1, ("half",))
        for key in _GEOMETRY_FIELDS
    ],
    ("JointCounts.step", lambda v: JointCounts("position", v, _ONES, _GEOMETRY), 1, ("half",)),
    ("JointCounts.i0", lambda v: JointCounts("position", 1, _ONES, _GEOMETRY, i0=v), -1, ("none",)),
    ("JointCounts.j0", lambda v: JointCounts("position", 1, _ONES, _GEOMETRY, j0=v), -1, ("none",)),
    ("ErrorModel.replicates", lambda v: ErrorModel(replicates=v), 100, ()),
    ("ErrorModel.seed", lambda v: ErrorModel(seed=v), 3, ("none", "beyond_float")),
    ("rebin.factor", lambda v: rebin(_HIST, v), 3, ()),
    ("coarse_grained_marginal.width", lambda v: coarse_grained_marginal(_SPEC, v), 1, ("half",)),
    (
        "sample_marginal_counts.width",
        lambda v: sample_marginal_counts(_SPEC, v, 1e4, 0),
        1,
        ("half",),
    ),
    (
        "sample_marginal_counts.total",
        lambda v: sample_marginal_counts(_SPEC, 0.5, v, 0),
        10_000,
        ("half",),
    ),
    (
        "sample_marginal_counts.seed",
        lambda v: sample_marginal_counts(_SPEC, 0.5, 1e4, v),
        3,
        ("none", "beyond_float"),
    ),
    (
        "sample_joint_counts.total",
        lambda v: sample_joint_counts(_STATE, _GEOMETRY, "position", v, 0),
        10_000,
        ("half",),
    ),
    (
        "sample_joint_counts.seed",
        lambda v: sample_joint_counts(_STATE, _GEOMETRY, "position", 1e4, v),
        3,
        ("none", "beyond_float"),
    ),
    ("concentration_eigenvalue", concentration_eigenvalue, 2, ("half",)),
    ("entropic_bound_constant", entropic_bound_constant, 20, ("half",)),
]

#: Values no scalar argument takes, except where SCALAR_ARGUMENTS says the
#: contract allows them (None and any int >= 0 are seeds; 0.5 is a real).
BAD_SCALARS = {
    "bool": True,
    "text": "1",
    "none": None,
    "complex": 1j,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "beyond_float": 10**400,
    "half": 0.5,
}


def _scalar_cells():
    for arg, call, _, valid in SCALAR_ARGUMENTS:
        for column, value in BAD_SCALARS.items():
            if column not in valid:
                yield pytest.param(call, value, id=f"{arg}-{column}")


def _scalar_checks_outside_errors(path: Path) -> list[str]:
    """`except OverflowError` and `isinstance(..., bool)` in a module other than errors.py."""
    if path.name == "errors.py":
        return []
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            if "OverflowError" in names:
                found.append(f"line {node.lineno}: except OverflowError")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
        ):
            found.append(f"line {node.lineno}: isinstance(..., bool)")
    return found


def _functions_raising(path: Path, message: str) -> list[str]:
    """Names of the functions in path that raise an exception whose text holds message."""
    return _functions_with(
        path,
        lambda raise_: isinstance(raise_, ast.Raise)
        and any(
            isinstance(node, ast.Constant) and isinstance(node.value, str) and message in node.value
            for node in ast.walk(raise_)
        ),
    )


def _functions_with(path: Path, match) -> list[str]:
    """Names of the functions in path holding an AST node for which match(node) is true."""
    return [
        fn.name
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(match(node) for node in ast.walk(fn))
    ]


def _is_axis_refusal(node) -> bool:
    """`x in ("position", "momentum")` or its `not in`."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.In, ast.NotIn))
        and isinstance(node.comparators[0], ast.Tuple)
        and {getattr(e, "value", None) for e in node.comparators[0].elts} == {"position", "momentum"}
    )


def _is_position_branch(node) -> bool:
    """`<...>.variable_pair == "position"`."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "variable_pair"
        and isinstance(node.ops[0], ast.Eq)
        and getattr(node.comparators[0], "value", None) == "position"
    )


def _is_sign_test_of_value(node) -> bool:
    """`<expression in value> < 0`: the shape of the detection verdict."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], ast.Lt)
        and getattr(node.comparators[0], "value", None) == 0
        and any(isinstance(n, ast.Name) and n.id == "value" for n in ast.walk(node.left))
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
        assert not hasattr(cgwitness.model, "VARIABLE_NAMES")
        assert not hasattr(cgwitness.errors, "InvalidPairingError")
        assert not hasattr(cgwitness.errors, "ConvergenceError")
        assert cgwitness.errors.NUMERICAL_ERRORS == (cgwitness.errors.PropagationError,)

    def test_export_count(self):
        assert len(cgwitness.__all__) == 39

    def test_exact_marginals_use_the_pairing_names(self):
        # one name per global variable: the model's keys are the ones sweep pairs
        paired = {variable for pair in PAIRINGS.values() for variable in pair}
        assert set(exact_marginals(GaussianTwoPhotonState(2.0, 0.5))) == paired

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

    def test_scalar_checks_live_in_errors_only(self):
        # a new entry point calls errors.check_real/check_int/check_seed
        # instead of growing its own bool or overflow test
        root = Path(cgwitness.__file__).parent
        found = {
            str(path): names
            for path in sorted(root.rglob("*.py"))
            if (names := _scalar_checks_outside_errors(path))
        }
        assert found == {}

    def test_one_owner_per_refusal_rule(self):
        root = Path(cgwitness.__file__).parent
        # witness_grid and sweep_grid share one finite-value check
        assert _functions_raising(root / "witnesses.py", "witness value must be finite") == [
            "_witness_values"
        ]
        # binning owns every bin-count limit; the demo's check reads binning.MAX_BINS
        cli = ast.parse((root / "cli.py").read_text())
        assigned = {
            target.id
            for node in cli.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        assert not {name for name in assigned if "BIN" in name}, assigned
        # ingest owns the scan axes: one refusal of an unknown variable_pair,
        # and the per-axis center error lives beside the per-axis base width
        owners = [
            f"{path.stem}.{name}"
            for path in sorted(root.rglob("*.py"))
            for name in _functions_with(path, _is_axis_refusal)
        ]
        assert owners == ["ingest.check_variable_pair"], owners
        assert _functions_with(root / "witnesses.py", _is_position_branch) == []
        # binning.check_factor owns the rebin-factor rule; the CLI only parses the list
        assert not any(
            (isinstance(node, ast.Name) and node.id == "MAX_FACTOR")
            or (isinstance(node, ast.alias) and node.name == "MAX_FACTOR")
            or (isinstance(node, ast.Attribute) and node.attr == "MAX_FACTOR")
            or (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and getattr(node.right, "value", None) == 2
            )
            for node in ast.walk(cli)
        )
        # sweep and demo-false-positive share one detection verdict
        assert _functions_with(root / "cli.py", _is_sign_test_of_value) == ["_detected"]

    def test_one_concurrency_primitive(self):
        # sweep_grid's jobs run on the standard library's thread pool, which
        # orders results and failures; no hand-made threads or locks beside it
        tree = ast.parse((Path(cgwitness.__file__).parent / "witnesses.py").read_text())
        imported = {
            name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (
                [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            )
        }
        assert not imported & {"threading", "functools"}, imported
        named = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not named & {"Thread", "Lock", "RLock"}, named & {"Thread", "Lock", "RLock"}
        assert "ThreadPoolExecutor" in named

    def test_one_evaluation_pass_and_one_bound_route(self):
        root = Path(cgwitness.__file__).parent
        # each witness formula runs once per pairing, point (row 0) and replicates together
        calls_combine = lambda node: isinstance(node, ast.Call) and getattr(
            node.func, "id", None
        ) == "_combine"
        assert _functions_with(root / "witnesses.py", calls_combine) == ["_witness_values"]
        (fn,) = [
            node
            for node in ast.walk(ast.parse((root / "witnesses.py").read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "_witness_values"
        ]
        assert "spread" not in [a.arg for a in (*fn.args.args, *fn.args.kwonlyargs)]
        # lambda0 has one route, the clipped Nystrom solve, and no asymptotic tail
        assert "0.455" not in (root / "bound.py").read_text()

    def test_no_private_cross_module_imports(self):
        root = Path(cgwitness.__file__).parent
        found = {
            str(path): names
            for path in sorted(root.rglob("*.py"))
            if (names := _private_imports(path))
        }
        assert found == {}


class TestScalarArguments:
    def test_table_covers_every_numeric_field(self):
        # annotations are strings: every package module defers them
        numeric = {"float", "int", "float | None", "int | None"}
        rows = {arg for arg, *_ in SCALAR_ARGUMENTS}
        missing = [
            f"{name}.{field.name}"
            for name in cgwitness.__all__
            if isinstance(cls := getattr(cgwitness, name), type) and dataclasses.is_dataclass(cls)
            for field in dataclasses.fields(cls)
            if field.type in numeric and f"{name}.{field.name}" not in rows
        ]
        assert missing == []

    @pytest.mark.parametrize("call,value", _scalar_cells())
    def test_refusal_table(self, call, value):
        with pytest.raises(InvalidParameterError):
            call(value)

    @pytest.mark.parametrize(
        "call,good,valid", [pytest.param(c, g, v, id=a) for a, c, g, v in SCALAR_ARGUMENTS]
    )
    def test_python_and_numpy_numbers_pass(self, call, good, valid):
        values = [good, np.int64(good)]
        if "half" in valid:  # a real argument takes floats too
            values.append(np.float32(good))
        for value in values:
            call(value)


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
