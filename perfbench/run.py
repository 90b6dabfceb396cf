"""End-to-end and per-layer benchmark of `cgwitness simulate` -> `sweep`.

    python3 perfbench/run.py --workload sweep_mc --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout. Every command is a fresh
`cgwitness` CLI process started by this script, one at a time. Each run
simulates the workload's scan pair from --seed, then repeats the workload's
sweep until --seconds are spent, checks every output against the
independent reference in check.py and prints one summary line per metric
followed by a JSON result line. With --trace 1 the run alternates untraced
and traced sweeps and reports the per-layer metrics instead. A results
file with provenance goes to .perfbench_runs/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # this process leaves no bytecode behind
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

FACTORS = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21]
# large_scan keeps every other factor of the default list: one sweep on the
# 965^2 scan then takes ~5 s instead of ~13 s, so a run holds several.
LARGE_FACTORS = [1, 5, 9, 13, 17, 21]
NSIGMA = 1.0
REPLICATES = 1000

WORKLOADS = {
    "sweep_mc": {"simulate": [], "factors": FACTORS, "errors": True},
    "sweep_point": {"simulate": [], "factors": FACTORS, "errors": False},
    "large_scan": {
        "simulate": ["--s-x-mm", "0.005", "--s-p-mm", "0.002", "--total-counts", "1e7"],
        "factors": LARGE_FACTORS,
        "errors": False,
    },
}

SIMULATE_REPS = 9  # simulate is mostly import, the noisiest step; a traced run makes one
MIN_SWEEPS = 3  # untraced; a traced run makes at least one untraced + traced pair
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Runner:
    """Starts cgwitness child processes one at a time in a work directory."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        # children read and write bytecode only under the checkout; the
        # unmeasured warm-up process fills this cache for the timed ones
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench_runs" / "pycache")
        # one thread per library keeps runs steady; nproc is the upper limit
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.count = 0

    def run(self, cli_args, *, trace=False, python_flags=()) -> dict:
        """Run child.py with cli_args; return timings and any problems."""
        self.count += 1
        tag = self.work / f"c{self.count:03d}"
        stats_path, spans_path = Path(f"{tag}.stats.json"), Path(f"{tag}.spans.json")
        cmd = [sys.executable, *python_flags, str(HERE / "child.py"), str(stats_path)]
        cmd += [str(spans_path) if trace else "-", *cli_args]
        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err)
            # a blocking wait returns when the child exits; wait(timeout=...)
            # polls every 50 ms and would quantise the wall time
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        stderr = Path(f"{tag}.err").read_text(errors="replace")
        rec = {"cmd": cli_args, "wall_s": wall, "traced": trace, "stderr": stderr, "problems": []}
        if rc != 0:
            rec["problems"].append(f"exit code {rc}")
        if "Traceback" in stderr:
            rec["problems"].append("traceback on stderr")
        if stats_path.exists():
            rec["stats"] = json.loads(stats_path.read_text())
        else:
            rec["problems"].append("no timing record written")
        if trace and spans_path.exists():
            rec["trace"] = json.loads(spans_path.read_text())
        elif trace:
            rec["problems"].append("no span record written")
        return rec


def sweep_args(spec: dict, pos: Path, mom: Path, seed: int) -> list[str]:
    """The workload's sweep command; flags the check relies on are explicit."""
    factors = ",".join(map(str, spec["factors"]))
    args = ["sweep", str(pos), str(mom), "--seed", str(seed), "--n-list", factors, "--m-list", factors]
    args += ["--pairing", "both", "--witnesses", ",".join(check.WITNESSES), "--detect-nsigma", str(NSIGMA)]
    if spec["errors"]:
        return args + ["--errors", "on", "--replicates", str(REPLICATES)]
    return args + ["--errors", "off"]


def importtime(runner: Runner) -> dict:
    """Cumulative import seconds of cgwitness, cgwitness.bound, scipy.integrate."""
    rec = runner.run([], python_flags=("-X", "importtime"))
    out = {"cgwitness": 0.0, "cgwitness.bound": 0.0, "scipy.integrate": 0.0}
    for line in rec["stderr"].splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2] in out and parts[1].isdigit():
            out[parts[2]] = int(parts[1]) / 1e6
    return out


def measure(runner: Runner, spec: dict, seed: int, seconds: float, traced: bool) -> dict:
    """Simulate, then sweep until the window is spent; nothing is checked yet."""
    t_window = time.perf_counter()
    sim_args = ["simulate", "--seed", str(seed), "--output-prefix", "scan", *spec["simulate"]]
    simulates = [runner.run(sim_args, trace=traced) for _ in range(1 if traced else SIMULATE_REPS)]
    pos, mom = runner.work / "scan_position.txt", runner.work / "scan_momentum.txt"
    if not (pos.is_file() and mom.is_file()):
        simulates[-1]["problems"].append("scan files not written")
    got = {"simulates": simulates, "sweeps": [], "imports": [], "pos": pos, "mom": mom}
    if any(r["problems"] for r in simulates):
        return got
    if traced:
        got["imports"] = [importtime(runner) for _ in range(IMPORTTIME_REPS)]
    cmd = sweep_args(spec, pos, mom, seed)
    rounds = (False, True) if traced else (False,)
    sweeps = got["sweeps"]
    while True:
        elapsed = time.perf_counter() - t_window
        last = sum(r["wall_s"] for r in sweeps[-len(rounds):])
        if len(sweeps) >= (len(rounds) if traced else MIN_SWEEPS) and elapsed + last > seconds:
            break
        for trace_this in rounds:
            out = runner.work / f"sweep{len(sweeps):03d}.csv"
            rec = runner.run([*cmd, "--output", str(out)], trace=trace_this)
            rec["output"] = out
            sweeps.append(rec)
    got["window_s"] = time.perf_counter() - t_window
    got["sweep_cmd"] = cmd
    return got


def check_sweeps(sweeps: list[dict], ref: check.Reference, spec: dict, seed: int) -> None:
    """Add output problems to each sweep record: reference, determinism."""
    mc = check.mc_reference(ref, REPLICATES, seed) if spec["errors"] else {}
    first = None
    for rec in sweeps:
        if not rec["output"].is_file():
            rec["problems"].append("no output file")
            continue
        text = rec["output"].read_text()
        rec["problems"] += check.check_sweep(
            text, ref, errors=spec["errors"], nsigma=NSIGMA, replicates=REPLICATES, mc_reference=mc
        )
        rec["rows"] = len(check.parse_sweep_csv(text)[0])
        if first is None:
            first = text
        elif text != first:
            rec["problems"].append("output differs from the first sweep with the same seed")


def end_to_end_samples(got: dict) -> dict[str, list[float]]:
    """Per-process samples of each end-to-end metric, from untraced processes."""
    good = [r for r in got["simulates"] + got["sweeps"] if not r["problems"] and not r["traced"]]
    sweeps = [r for r in good if "rows" in r]
    return {
        "wall_s": [r["wall_s"] for r in sweeps],
        "setup_s": [r["stats"]["import_s"] for r in good],
        "cells_per_s": [r["rows"] / r["stats"]["main_s"] for r in sweeps],
        "peak_rss_mb": [r["stats"]["maxrss_kb"] / 1024.0 for r in sweeps],
        "simulate_s": [r["wall_s"] for r in good if "rows" not in r],
    }


def per_layer(got: dict, untraced_walls: list[float]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, self time by layer and absent symbols of a traced run."""
    traced = [r for r in got["sweeps"] if r["traced"] and not r["problems"]]
    if not traced:
        return {}, {}, ["(no traced sweep succeeded)"]
    per_sweep = [tracer.layer_metrics(r["trace"]["spans"]) for r in traced]
    layers = {k: statistics.median(m[k] for m in per_sweep) for k in per_sweep[0]}
    sim_spans = got["simulates"][0]["trace"]["spans"]
    layers["model.sample_joint_s"] = sum(s[2] - s[1] for s in sim_spans if s[0] == "model.sample_joint")
    for key, module in (
        ("import.cgwitness_s", "cgwitness"),
        ("import.cgwitness.bound_s", "cgwitness.bound"),
        ("import.scipy.integrate_s", "scipy.integrate"),
    ):
        layers[key] = statistics.median(t[module] for t in got["imports"])
    if untraced_walls:
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    by_layer = [tracer.self_by_layer(r["trace"]["spans"]) for r in traced]
    self_times = {k: statistics.median(d.get(k, 0.0) for d in by_layer) for k in by_layer[0]}
    return layers, self_times, traced[0]["trace"]["absent"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def provenance(root: Path, seed: int, runner: Runner) -> dict:
    import numpy
    import scipy

    import cgwitness

    backend = getattr(cgwitness, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cgwitness": getattr(cgwitness, "__version__", "unknown"),
        "backend_name": backend() if callable(backend) else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: runner.env.get(k) for k in THREAD_VARS},
        "pure_python_env": os.environ.get("CGWITNESS_PURE_PYTHON"),
        "git_commit": git_commit(root),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cgwitness" / "__init__.py").is_file():
        print("error: run from the root of a cgwitness checkout (src/cgwitness missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = root / ".perfbench_runs" / label
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    spec = WORKLOADS[args.workload]
    traced = bool(args.trace)
    try:
        # set-up outside the measured window: byte-compile and warm the file cache
        warm = runner.run([])
        got = measure(runner, spec, args.seed, args.seconds, traced) if not warm["problems"] else None
        if got is None or not got["sweeps"]:
            for r in [warm] + (got["simulates"] if got else []):
                if r["problems"]:
                    step = " ".join(r["cmd"][:1]) or "import"
                    print(r["stderr"], f"error: {step}: {r['problems']}", file=sys.stderr)
            return 1
        from cgwitness import entropic_bound_constant

        factors = spec["factors"]
        ref = check.Reference(got["pos"], got["mom"], factors, factors, entropic_bound_constant)
        check_sweeps(got["sweeps"], ref, spec, args.seed)
        sizes = ref.input_sizes({"position": got["pos"], "momentum": got["mom"]})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = got["simulates"] + got["sweeps"]
    failed = sum(1 for r in children if r["problems"])
    samples = end_to_end_samples(got)
    summary = {}
    for name, values in samples.items():
        if values:
            q1, med, q3 = quartiles(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": END_TO_END[name]}
    layers, self_times, absent = per_layer(got, samples["wall_s"]) if traced else ({}, {}, [])
    prov = provenance(root, args.seed, runner)
    rows = got["sweeps"][0].get("rows", 0)
    result_doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "window_s": got["window_s"],
        "provenance": prov,
        "inputs": sizes,
        "rows_per_sweep": rows,
        "commands": {"simulate": got["simulates"][0]["cmd"], "sweep": got["sweep_cmd"]},
        "end_to_end": summary,
        "samples": samples,
        "failed_frac": failed / len(children),
        "failures": [{"cmd": r["cmd"][:1], "problems": r["problems"][:5]} for r in children if r["problems"]],
        "per_layer": layers,
        "self_time_by_layer": self_times,
        "absent_symbols": absent,
    }
    results = root / ".perfbench_runs" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(json.dumps(result_doc, indent=1))

    pm, mm = sizes["position"], sizes["momentum"]
    print(
        f"# {args.workload} seed={args.seed} backend={prov['backend_name']} "
        f"inputs: position {pm['shape'][0]}x{pm['shape'][1]} ({pm['bytes']} B, {pm['total_counts']} counts), "
        f"momentum {mm['shape'][0]}x{mm['shape'][1]} ({mm['bytes']} B, {mm['total_counts']} counts), "
        f"{rows} rows per sweep"
    )
    for name, s in summary.items():
        quart = f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g}"
        print(f"{name:<13} {quart} {s['unit']} (n={s['n']})")
    print(f"failed_frac   {failed}/{len(children)} = {failed / len(children):.4g}")
    for r in children:
        if r["problems"]:
            print(f"FAILED {' '.join(r['cmd'][:1])}: {'; '.join(r['problems'][:3])}")
    for name in sorted(self_times, key=self_times.get, reverse=True):
        print(f"self {name:<26} {self_times[name]:.4f} s")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")

    if traced:
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        medians = {k: s["median"] for k, s in summary.items()}
        metrics = {k: {"value": medians.get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(children), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
