"""Command-line front end: simulate scans, sweep bin sizes, demo the
false positive, and dump the bound-constant table.

All output is machine-readable (CSV or JSON) and deterministic for a fixed
seed: repeated runs are byte-identical. Exit codes: 0 success, 2 usage or
parse/configuration errors, 3 numerical (convergence/propagation) failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bound import entropic_bound_constant
from .errors import NUMERICAL_ERRORS, USAGE_ERRORS, ConfigurationError
from .ingest import (
    OpticalGeometry,
    load_joint_counts,
    save_joint_counts,
)
from .model import (
    SPAN_SIGMAS,
    GaussianTwoPhotonState,
    coarse_grained_marginal,
    exact_marginals,
    sample_joint_counts,
    sample_marginal_counts,
)
from .uncertainty import ErrorModel, sweep_grid
from .witnesses import (
    DATA_WITNESS_IDS,
    coarse_variance_witness,
    naive_discrete_witness,
)

DEFAULT_FACTORS = "1,3,5,7,9,11,13,15,17,19,21"

#: Largest marginal grid demo-false-positive builds: ~70 MB and ~0.7 s of work.
MAX_DEMO_BINS = 1_000_000

#: Largest rebin factor: bin indices are int64.
MAX_FACTOR = int(np.iinfo(np.int64).max)

#: Largest bound-table: up to ~1.3 ms per value (the series route near gamma = 112),
#: so at most ~2 minutes of work.
MAX_TABLE_POINTS = 100_000


def _fmt(x: float) -> str:
    return "%.12g" % x


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
        if v < 1 or v % 2 == 0:
            raise ConfigurationError(f"{flag} entries must be odd positive integers, got {v}")
        if v > MAX_FACTOR:
            raise ConfigurationError(f"{flag} entries must be at most {MAX_FACTOR}, got {v}")
    _refuse_duplicates(values, flag)
    return values


def _refuse_duplicates(values: list, flag: str) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigurationError(f"{flag} lists {v} twice")


def _seed(text: str) -> int:
    """argparse type of --seed: np.random.SeedSequence rejects negative seeds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _nsigma(text: str) -> float:
    """argparse type of --detect-nsigma: a finite value >= 0. With NaN nothing
    is detected; a negative value flags positive (inconclusive) values."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _geometry_from_args(args) -> OpticalGeometry:
    return OpticalGeometry(
        f1_mm=args.f1_mm,
        f2_mm=args.f2_mm,
        f3_mm=args.f3_mm,
        lambda_mm=args.lambda_mm,
        s_x_mm=args.s_x_mm,
        s_p_mm=args.s_p_mm,
        micrometer_step_mm=args.micrometer_step_mm,
    )


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


def _emit_rows(rows, columns, fmt, output, *, sections=None) -> None:
    """Write rows of dicts as CSV (with optional labeled sections) or JSON."""
    if fmt == "json":
        if sections is not None:
            payload = sections
        else:
            payload = {"rows": rows}
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)
        return
    lines = []
    def emit_section(name, section_rows):
        if name is not None:
            lines.append(f"# {name}")
        lines.append(",".join(columns))
        for row in section_rows:
            cells = []
            for col in columns:
                v = row[col]
                if v is None:
                    cells.append("")
                elif isinstance(v, bool):
                    cells.append("true" if v else "false")
                elif isinstance(v, float):
                    cells.append(_fmt(v))
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
    if sections is not None:
        for name, section_rows in sections.items():
            emit_section(name, section_rows)
    else:
        emit_section(None, rows)
    _write_output("\n".join(lines) + "\n", output)


def cmd_simulate(args) -> int:
    geometry = _geometry_from_args(args)
    state = GaussianTwoPhotonState(args.sigma_plus, args.sigma_minus)
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
    position = load_joint_counts(args.position_file)
    momentum = load_joint_counts(args.momentum_file)
    n_list = _parse_factor_list(args.n_list, "--n-list")
    m_list = _parse_factor_list(args.m_list, "--m-list")
    pairings = ["pm", "mp"] if args.pairing == "both" else [args.pairing]
    witness_ids = [w.strip() for w in args.witnesses.split(",") if w.strip()]
    if not witness_ids:
        raise ConfigurationError("--witnesses must not be empty")
    _refuse_duplicates(witness_ids, "--witnesses")
    error_model = None
    if args.errors == "on":
        error_model = ErrorModel(replicates=args.replicates, seed=args.seed)
    grid = sweep_grid(
        position,
        momentum,
        n_list,
        m_list,
        error_model,
        pairings=pairings,
        witness_ids=witness_ids,
    )
    rows = []
    for pairing in pairings:
        for witness_id in witness_ids:
            values, uncertainties = grid[pairing, witness_id]
            for i, n in enumerate(n_list):
                for j, m in enumerate(m_list):
                    value = float(values[i, j])
                    if uncertainties is None:
                        uncertainty, detected = None, value < 0
                    else:
                        uncertainty = float(uncertainties[i, j])
                        detected = value + args.detect_nsigma * uncertainty < 0
                    rows.append(
                        {
                            "n": n,
                            "m": m,
                            "pairing": pairing,
                            "witness_id": witness_id,
                            "value": value,
                            "uncertainty": uncertainty,
                            "detected": detected,
                        }
                    )
    rows.sort(key=lambda r: (r["witness_id"], r["pairing"], r["n"], r["m"]))
    diagonal = [r for r in rows if r["n"] == r["m"]]
    columns = ["n", "m", "pairing", "witness_id", "value", "uncertainty", "detected"]
    _emit_rows(
        rows,
        columns,
        args.format,
        args.output,
        sections={"sweep": rows, "diagonal": diagonal},
    )
    return 0


def cmd_demo_false_positive(args) -> int:
    if not args.multiplier > 0:
        raise ConfigurationError(f"--multiplier must be positive, got {args.multiplier}")
    # each marginal grid spans +/- SPAN_SIGMAS standard deviations in bins of
    # width 2*multiplier standard deviations: ~SPAN_SIGMAS/multiplier bins
    if SPAN_SIGMAS / args.multiplier > MAX_DEMO_BINS:
        raise ConfigurationError(
            f"--multiplier {args.multiplier} needs ~{SPAN_SIGMAS / args.multiplier:.3g} "
            f"bins per marginal (limit {MAX_DEMO_BINS}); "
            f"use --multiplier >= {SPAN_SIGMAS / MAX_DEMO_BINS:g}"
        )
    # equal widths make the state separable: the demonstration is about false positives
    state = GaussianTwoPhotonState(args.sigma, args.sigma)
    marg = exact_marginals(state)
    r_spec, s_spec = marg.x_plus, marg.p_minus
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
    naive = naive_discrete_witness(r, s, pairing="pm")
    corrected = coarse_variance_witness(r, s, pairing="pm")
    rows = [
        {
            "witness_id": rep.witness_id,
            "pairing": rep.pairing,
            "width_r": rep.bin_widths[0],
            "width_s": rep.bin_widths[1],
            "value": rep.value,
            "detected": rep.value < 0,
            "unsafe": rep.unsafe,
        }
        for rep in (naive, corrected)
    ]
    columns = ["witness_id", "pairing", "width_r", "width_s", "value", "detected", "unsafe"]
    _emit_rows(rows, columns, args.format, args.output)
    return 0


def cmd_bound_table(args) -> int:
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
    lines = ["gamma,C"]
    for g in grid:
        lines.append(f"{_fmt(float(g))},{_fmt(entropic_bound_constant(float(g)))}")
    _write_output("\n".join(lines) + "\n", args.output)
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
    p_sweep.add_argument("--pairing", choices=["pm", "mp", "both"], default="both")
    p_sweep.add_argument(
        "--witnesses",
        default=",".join(DATA_WITNESS_IDS),
        help="comma list from: " + ",".join(DATA_WITNESS_IDS),
    )
    p_sweep.add_argument("--errors", choices=["on", "off"], default="on")
    p_sweep.add_argument("--replicates", type=int, default=1000)
    p_sweep.add_argument(
        "--detect-nsigma",
        type=_nsigma,
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
    p_demo.add_argument("--sigma", type=float, default=1.0, help="common marginal width")
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


if __name__ == "__main__":
    raise SystemExit(main())
