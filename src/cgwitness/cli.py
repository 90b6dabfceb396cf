"""Command-line front end: simulate scans, sweep bin sizes, demo the
false positive, and dump the bound-constant table.

All output is machine-readable (CSV or JSON) and deterministic for a fixed
seed: repeated runs are byte-identical. Exit codes: 0 success, 2 usage or
parse/configuration errors, 3 numerical (convergence/propagation) failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .binning import MAX_BINS, check_factor
from .bound import entropic_bound_constant
from .errors import (
    NUMERICAL_ERRORS,
    USAGE_ERRORS,
    ConfigurationError,
    InvalidParameterError,
    check_real,
    check_seed,
)
from .ingest import (
    OpticalGeometry,
    load_joint_counts,
    save_joint_counts,
)
from .model import (
    SPAN_SIGMAS,
    GaussianTwoPhotonState,
    check_detector_squares,
    coarse_grained_marginal,
    exact_marginals,
    sample_joint_counts,
    sample_marginal_counts,
)
from .witnesses import DATA_WITNESS_IDS, PAIRINGS, ErrorModel, sweep_grid, witness_grid

DEFAULT_FACTORS = "1,3,5,7,9,11,13,15,17,19,21"

#: Largest bound-table: ~0.075 ms per value (one 32-node Nystrom eigensolve),
#: so at most ~7.5 s of work.
MAX_TABLE_POINTS = 100_000


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_factor_list(spec: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"{flag} must be a comma-separated integer list, got {spec!r}") from None
    if not values:
        raise ConfigurationError(f"{flag} must not be empty")
    for v in values:
        check_factor(f"{flag} entry", v)
    _refuse_duplicates(values, flag)
    return values


def _refuse_duplicates(values: list, flag: str) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigurationError(f"{flag} lists {v} twice")


def _seed(text: str) -> int:
    """argparse type of --seed: errors.check_seed, with the refusal naming --seed."""
    try:
        return check_seed(int(text))
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _geometry_from_args(args) -> OpticalGeometry:
    keys = [f.name for f in dataclasses.fields(OpticalGeometry)]
    return OpticalGeometry(**{key: getattr(args, key) for key in keys})


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    g = OpticalGeometry()
    p.add_argument("--f1-mm", type=float, default=g.f1_mm, help="first imaging focal length")
    p.add_argument("--f2-mm", type=float, default=g.f2_mm, help="second imaging focal length")
    p.add_argument("--f3-mm", type=float, default=g.f3_mm, help="Fourier-lens focal length")
    p.add_argument("--lambda-mm", type=float, default=g.lambda_mm, help="photon wavelength (mm)")
    p.add_argument("--s-x-mm", type=float, default=g.s_x_mm, help="position slit width")
    p.add_argument("--s-p-mm", type=float, default=g.s_p_mm, help="momentum slit width")
    p.add_argument(
        "--micrometer-step-mm",
        type=float,
        default=g.micrometer_step_mm,
        help="micrometer minimum step (bin-center error scale)",
    )


#: CSV text of a verdict column's False and True
_VERDICT_TEXT = ("false", "true")


def _csv_lines(rows) -> list[str]:
    """The CSV lines of a list of row tuples, each line one %-format of its row.

    Cells are taken column by column, each column typed by its first cell:
    a float column is written to 12 significant digits, a True/False column
    as true/false, a None column as empty cells, and any other as str() of
    its cells.
    """
    specs, columns = [], []
    for column in zip(*rows):
        first = column[0]
        if first is None:
            specs.append("")
            continue
        if first is True or first is False:
            column = [_VERDICT_TEXT[v] for v in column]
        specs.append("%.12g" if isinstance(first, float) else "%s")
        columns.append(column)
    line = ",".join(specs)
    return [line % cells for cells in zip(*columns)]


def _emit_rows(rows, columns, fmt, output) -> None:
    """Write a list of rows, or a {label: list} of labeled sections, as CSV or JSON.

    Each row is a tuple of cells in the order of columns. JSON writes it as
    an object keyed by columns, and an unlabeled list under "rows"; CSV
    writes it as one line of _csv_lines, so the cells of a column must
    share a type.
    """
    sections = rows if isinstance(rows, dict) else {None: rows}
    if fmt == "json":
        payload = {
            "rows" if name is None else name: [dict(zip(columns, row)) for row in section_rows]
            for name, section_rows in sections.items()
        }
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)
        return
    lines = []
    for name, section_rows in sections.items():
        if name is not None:
            lines.append(f"# {name}")
        lines.append(",".join(columns))
        lines += _csv_lines(section_rows)
    _write_output("\n".join(lines) + "\n", output)


def _detected(value: float, uncertainty: float | None = None, nsigma: float = 0.0) -> bool:
    """The detection verdict: value + nsigma * uncertainty < 0, a missing uncertainty read as 0."""
    return value + nsigma * (uncertainty or 0.0) < 0


def cmd_simulate(args) -> int:
    geometry = _geometry_from_args(args)
    state = GaussianTwoPhotonState(args.sigma_plus, args.sigma_minus)
    check_detector_squares(state, geometry)
    pos_seed, mom_seed = np.random.SeedSequence(args.seed).spawn(2)
    position = sample_joint_counts(state, geometry, "position", args.total_counts, pos_seed)
    momentum = sample_joint_counts(state, geometry, "momentum", args.total_counts, mom_seed)
    pos_path = f"{args.output_prefix}_position.txt"
    mom_path = f"{args.output_prefix}_momentum.txt"
    save_joint_counts(position, pos_path)
    save_joint_counts(momentum, mom_path)
    sys.stdout.write(pos_path + "\n" + mom_path + "\n")
    return 0


def cmd_sweep(args) -> int:
    # NaN would detect nothing, and a negative value would flag positive (inconclusive) values
    nsigma = check_real("--detect-nsigma", args.detect_nsigma, 0)
    position = load_joint_counts(args.position_file)
    momentum = load_joint_counts(args.momentum_file)
    n_list = _parse_factor_list(args.n_list, "--n-list")
    m_list = _parse_factor_list(args.m_list, "--m-list")
    pairings = list(PAIRINGS) if args.pairing == "both" else [args.pairing]
    witness_ids = [w.strip() for w in args.witnesses.split(",") if w.strip()]
    if not witness_ids:
        raise ConfigurationError("--witnesses must not be empty")
    _refuse_duplicates(witness_ids, "--witnesses")
    # built in both modes, so a bad --replicates is refused with errors off too
    error_model = ErrorModel(replicates=args.replicates, seed=args.seed)
    grid = sweep_grid(
        position,
        momentum,
        n_list,
        m_list,
        error_model if args.errors == "on" else None,
        pairings=pairings,
        witness_ids=witness_ids,
    )
    # rows in (witness_id, pairing, n, m) order: each grid is taken in sorted factor order
    i_order = sorted(range(len(n_list)), key=n_list.__getitem__)
    j_order = sorted(range(len(m_list)), key=m_list.__getitem__)
    sorted_n, sorted_m = [n_list[i] for i in i_order], [m_list[j] for j in j_order]
    in_order = np.ix_(i_order, j_order)
    rows = []
    for witness_id in sorted(witness_ids):
        for pairing in sorted(pairings):
            values, uncertainties = grid[pairing, witness_id]
            values = values[in_order].tolist()
            if uncertainties is None:
                uncertainties = [[None] * len(sorted_m)] * len(sorted_n)
            else:
                uncertainties = uncertainties[in_order].tolist()
            for n, value_row, uncertainty_row in zip(sorted_n, values, uncertainties):
                rows += [
                    (n, m, pairing, witness_id, value, uncertainty, _detected(value, uncertainty, nsigma))
                    for m, value, uncertainty in zip(sorted_m, value_row, uncertainty_row)
                ]
    diagonal = [row for row in rows if row[0] == row[1]]
    columns = ["n", "m", "pairing", "witness_id", "value", "uncertainty", "detected"]
    _emit_rows({"sweep": rows, "diagonal": diagonal}, columns, args.format, args.output)
    return 0


def cmd_demo_false_positive(args) -> int:
    check_real("--multiplier", args.multiplier, 0, closed=False)
    # each marginal grid spans +/- SPAN_SIGMAS standard deviations in bins of
    # width 2*multiplier standard deviations: at most SPAN_SIGMAS/multiplier + 2 bins
    if SPAN_SIGMAS / args.multiplier + 2 > MAX_BINS:
        raise ConfigurationError(
            f"--multiplier {args.multiplier} needs ~{SPAN_SIGMAS / args.multiplier:.3g} "
            f"bins per marginal (limit {MAX_BINS}); "
            f"use --multiplier >= {SPAN_SIGMAS / (MAX_BINS - 2):g}"
        )
    # equal widths make the state separable: the demonstration is about false positives
    state = GaussianTwoPhotonState(args.sigma, args.sigma)
    marg = exact_marginals(state)
    r_spec, s_spec = (marg[variable] for variable in PAIRINGS["pm"])
    # bins span +/- multiplier standard deviations, i.e. width 2*multiplier*std:
    # at multiplier ~3 essentially all mass falls into the central bin
    width_r = 2.0 * args.multiplier * r_spec.std
    width_s = 2.0 * args.multiplier * s_spec.std
    if args.analytic:
        r = coarse_grained_marginal(r_spec, width_r)
        s = coarse_grained_marginal(s_spec, width_s)
    else:
        seed_r, seed_s = np.random.SeedSequence(args.seed).spawn(2)
        r = sample_marginal_counts(r_spec, width_r, args.total_counts, seed_r).normalize()
        s = sample_marginal_counts(s_spec, width_s, args.total_counts, seed_s).normalize()
    witness_ids = ("naive_discrete", "coarse_variance")
    grid = witness_grid([r], [s], witness_ids)
    rows = []
    for witness_id in witness_ids:
        value = float(grid[witness_id][0, 0])
        unsafe = witness_id == "naive_discrete"
        rows.append((witness_id, "pm", r.grid.width, s.grid.width, value, _detected(value), unsafe))
    columns = ["witness_id", "pairing", "width_r", "width_s", "value", "detected", "unsafe"]
    _emit_rows(rows, columns, args.format, args.output)
    return 0


def cmd_bound_table(args) -> int:
    check_real("--gamma-min", args.gamma_min)
    check_real("--gamma-max", args.gamma_max)
    if not args.gamma_max > args.gamma_min:
        raise ConfigurationError("--gamma-max must exceed --gamma-min")
    if not 2 <= args.points <= MAX_TABLE_POINTS:
        raise ConfigurationError(f"--points must be between 2 and {MAX_TABLE_POINTS}, got {args.points}")
    if args.spacing == "log":
        if not args.gamma_min > 0:
            raise ConfigurationError("log spacing requires --gamma-min > 0")
        grid = np.geomspace(args.gamma_min, args.gamma_max, args.points)
    else:
        if args.gamma_min < 0:
            raise ConfigurationError("--gamma-min must be nonnegative")
        grid = np.linspace(args.gamma_min, args.gamma_max, args.points)
    rows = [(float(g), entropic_bound_constant(float(g))) for g in grid]
    _emit_rows(rows, ["gamma", "C"], "csv", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgwitness",
        description="Coarse-grained entanglement witnesses on sum/difference marginals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write synthetic position/momentum scan files")
    p_sim.add_argument("--sigma-plus", type=float, default=10.0, help="sum-momentum width")
    p_sim.add_argument("--sigma-minus", type=float, default=2.5, help="difference-momentum width")
    p_sim.add_argument("--total-counts", type=float, default=1e6, help="expected counts per scan")
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--output-prefix", default="scan", help="files PREFIX_position.txt / PREFIX_momentum.txt")
    _add_geometry_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="witness values over a grid of bin sizes")
    p_sweep.add_argument("position_file")
    p_sweep.add_argument("momentum_file")
    p_sweep.add_argument("--n-list", default=DEFAULT_FACTORS, help="odd position rebin factors")
    p_sweep.add_argument("--m-list", default=DEFAULT_FACTORS, help="odd momentum rebin factors")
    p_sweep.add_argument("--pairing", choices=[*PAIRINGS, "both"], default="both")
    p_sweep.add_argument(
        "--witnesses",
        default=",".join(DATA_WITNESS_IDS),
        help="comma list from: " + ",".join(DATA_WITNESS_IDS),
    )
    p_sweep.add_argument("--errors", choices=["on", "off"], default="on")
    p_sweep.add_argument("--replicates", type=int, default=1000)
    p_sweep.add_argument(
        "--detect-nsigma",
        type=float,
        default=1.0,
        help="detection threshold: value + nsigma*stderr < 0",
    )
    p_sweep.add_argument("--seed", type=_seed, default=0)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser(
        "demo-false-positive",
        help="show the naive discrete witness failing on a separable state",
    )
    p_demo.add_argument(
        "--sigma",
        type=float,
        default=1.0,
        help="common marginal width; it only rescales the width_r (by 1/sigma) and "
        "width_s (by sigma) columns, not the witness values",
    )
    p_demo.add_argument(
        "--multiplier",
        type=float,
        default=3.0,
        help="bin half-width in units of the marginal standard deviation",
    )
    p_demo.add_argument("--total-counts", type=float, default=1e6)
    p_demo.add_argument("--analytic", action="store_true", help="exact masses instead of sampled counts")
    p_demo.add_argument("--seed", type=_seed, default=0)
    p_demo.add_argument("--format", choices=["csv", "json"], default="csv")
    p_demo.add_argument("--output", default=None)
    p_demo.set_defaults(func=cmd_demo_false_positive)

    p_table = sub.add_parser("bound-table", help="CSV table of the entropic bound constant")
    p_table.add_argument("--gamma-min", type=float, default=0.0)
    p_table.add_argument("--gamma-max", type=float, default=50.0)
    p_table.add_argument("--points", type=int, default=101)
    p_table.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(func=cmd_bound_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a bad flag
        return exc.code
    try:
        return args.func(args)
    except OSError as exc:
        target = exc.filename or ""
        print(f"error: cannot access {target!r}: {exc.strerror}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
