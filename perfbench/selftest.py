"""Self-test of the benchmark's output check on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Simulates a small scan pair and
sweeps it through the CLI, then checks three outputs: the sweep as written,
the same with one value corrupted, and the same with one row dropped. The
check must pass the first and fail the other two, so failed_frac must read
2/3. Exits 0 when it does.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import run

FACTORS = [1, 3]
REPLICATES = 200


def corrupt_value(text: str) -> str:
    """Shift the value of the first sweep row by 1e-3."""
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    lines[2] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_row(text: str) -> str:
    """Remove the first off-diagonal (n != m) row of the sweep section."""
    lines = text.splitlines()
    for i, line in enumerate(lines[2:], start=2):
        n, m = line.split(",")[:2]
        if n != m:
            return "\n".join(lines[:i] + lines[i + 1 :]) + "\n"
    raise ValueError("no off-diagonal row to drop")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "cgwitness" / "__init__.py").is_file():
        print("error: run from the root of a cgwitness source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_runs" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(root, work)
    factors = ",".join(map(str, FACTORS))
    try:
        sim = runner.run(["simulate", "--seed", "7", "--total-counts", "1e4", "--output-prefix", "tiny"])
        pos, mom = work / "tiny_position.txt", work / "tiny_momentum.txt"
        out = work / "tiny.csv"
        sweep = runner.run(
            ["sweep", str(pos), str(mom), "--seed", "7", "--n-list", factors, "--m-list", factors,
             "--replicates", str(REPLICATES), "--detect-nsigma", str(run.NSIGMA), "--output", str(out)]
        )
        if sim["problems"] or sweep["problems"]:
            print(f"error: CLI failed: {sim['problems'] + sweep['problems']}", file=sys.stderr)
            print(sim["stderr"] + sweep["stderr"], file=sys.stderr)
            return 1
        from cgwitness import entropic_bound_constant

        ref = run.check.Reference(pos, mom, FACTORS, FACTORS, entropic_bound_constant)
        mc = run.check.mc_reference(ref, REPLICATES, 7)
        text = out.read_text()
        cases = {
            "as written": text,
            "one value corrupted": corrupt_value(text),
            "one row dropped": drop_row(text),
        }
        results = {
            name: run.check.check_sweep(
                body, ref, errors=True, nsigma=run.NSIGMA, replicates=REPLICATES, mc_reference=mc
            )
            for name, body in cases.items()
        }
        for name, problems in results.items():
            print(f"{name:<20} {'FAILED: ' + problems[0] if problems else 'passed'}")
        failed = sum(1 for p in results.values() if p)
        print(f"failed_frac {failed}/{len(cases)}")
        ok = not results["as written"] and failed == len(cases) - 1
        print("self-test " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
