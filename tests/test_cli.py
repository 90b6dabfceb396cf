import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgwitness
from cgwitness import witnesses
from cgwitness.cli import MAX_TABLE_POINTS, main
from cgwitness.witnesses import MAX_REPLICATES, MIN_REPLICATES
from conftest import rebinned_marginals


# md5 of the default sweep of the seed-42, 1e5-count simulated pair, by --errors
SEED_42_SWEEP_CSV = {"on": "b451ce77531b220f600031814332b129", "off": "57f6723ec220a76e62f240087211ad82"}
SEED_42_SWEEP_JSON = {"on": "45204a441d06f7ce7eaa9f0ff92c3307", "off": "bbcd081365f1c555cc84e135c62350b7"}


def _simulate(tmp_path, prefix="scan", seed=17, total=200_000, extra=()):
    args = [
        "simulate",
        "--sigma-plus", "10",
        "--sigma-minus", "2.5",
        "--total-counts", str(total),
        "--seed", str(seed),
        "--output-prefix", str(tmp_path / prefix),
        *extra,
    ]
    assert main(args) == 0
    return tmp_path / f"{prefix}_position.txt", tmp_path / f"{prefix}_momentum.txt"


def _run_python(*argv, preexec_fn=None):
    """Run `python ARGV` in a fresh interpreter that imports this cgwitness."""
    src = str(Path(cgwitness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=preexec_fn,
    )


def _run_cli(*args, preexec_fn=None):
    """Run `python -m cgwitness ARGS` in a fresh interpreter, capturing stderr."""
    return _run_python("-m", "cgwitness", *args, preexec_fn=preexec_fn)


class TestSimulate:
    def test_writes_both_scans(self, tmp_path, capsys):
        pos, mom = _simulate(tmp_path)
        out = capsys.readouterr().out
        assert str(pos) in out and str(mom) in out
        assert pos.exists() and mom.exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a_pos, a_mom = _simulate(tmp_path, "a", seed=5)
        b_pos, b_mom = _simulate(tmp_path, "b", seed=5)
        assert a_pos.read_bytes() == b_pos.read_bytes()
        assert a_mom.read_bytes() == b_mom.read_bytes()

    def test_seed_42_pair_bytes_are_pinned(self, tmp_path):
        # any change to the sampler's draws or the writer's format moves these
        prefix = str(tmp_path / "scan")
        assert main(["simulate", "--seed", "42", "--total-counts", "1e5", "--output-prefix", prefix]) == 0
        digests = [
            hashlib.md5((tmp_path / f"scan_{pair}.txt").read_bytes()).hexdigest()
            for pair in ("position", "momentum")
        ]
        assert digests == ["d7edb5d95dee819f169ef603a1283b31", "8a1a68f8af8f61586f7e2fc293998bc2"]

    @staticmethod
    def _seed_42_sweep_digest(tmp_path, *flags):
        """md5 of the default sweep of the seed-42, 1e5-count simulated pair."""
        prefix = str(tmp_path / "scan")
        assert main(["simulate", "--seed", "42", "--total-counts", "1e5", "--output-prefix", prefix]) == 0
        out = tmp_path / "sweep.out"
        assert main([
            "sweep", f"{prefix}_position.txt", f"{prefix}_momentum.txt", *flags, "--output", str(out),
        ]) == 0
        return hashlib.md5(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("errors,digest", list(SEED_42_SWEEP_CSV.items()))
    def test_seed_42_sweep_bytes_are_pinned(self, tmp_path, errors, digest):
        # any change to the marginals, the draws or the rounding of the reductions moves these
        assert self._seed_42_sweep_digest(tmp_path, "--errors", errors) == digest

    @pytest.mark.parametrize("errors,digest", list(SEED_42_SWEEP_JSON.items()))
    def test_seed_42_sweep_json_bytes_are_pinned(self, tmp_path, errors, digest):
        # the CSV's %.12g cells hide last-bit moves; JSON writes every float's repr
        flags = ("--errors", errors, "--format", "json")
        assert self._seed_42_sweep_digest(tmp_path, *flags) == digest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_42_sweep_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, workers):
        # the replicates of each pairing's marginals are drawn on one thread per CPU
        monkeypatch.setattr(witnesses, "_cpu_count", lambda: workers)
        assert self._seed_42_sweep_digest(tmp_path, "--errors", "on") == SEED_42_SWEEP_CSV["on"]
        flags = ("--errors", "on", "--format", "json")
        assert self._seed_42_sweep_digest(tmp_path, *flags) == SEED_42_SWEEP_JSON["on"]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and at least two CPUs",
    )
    def test_one_cpu_writes_the_bytes_of_every_cpu(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for pin in (None, lambda: os.sched_setaffinity(0, {one_cpu})):
            out = tmp_path / f"sweep_{len(outputs)}.csv"
            proc = _run_cli("sweep", str(pos), str(mom), "--errors", "on", "--output", str(out), preexec_fn=pin)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_output(self, tmp_path):
        a_pos, _ = _simulate(tmp_path, "a", seed=5)
        c_pos, _ = _simulate(tmp_path, "c", seed=6)
        assert a_pos.read_bytes() != c_pos.read_bytes()


class TestSweep:
    def test_csv_structure_and_order(self, tmp_path, capsys):
        pos, mom = _simulate(tmp_path)
        out_file = tmp_path / "sweep.csv"
        assert main([
            "sweep", str(pos), str(mom),
            "--n-list", "1,3", "--m-list", "1,3",
            "--pairing", "pm", "--errors", "off",
            "--output", str(out_file),
        ]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "# sweep"
        header = "n,m,pairing,witness_id,value,uncertainty,detected"
        assert lines[1] == header
        assert "# diagonal" in lines
        body = [l for l in lines[2 : lines.index("# diagonal")]]
        assert len(body) == 4 * 3  # 2x2 grid, three witnesses
        keys = []
        for row in body:
            n, m, pairing, wid, value, unc, det = row.split(",")
            keys.append((wid, pairing, int(n), int(m)))
            assert unc == ""  # errors off
            float(value)
            assert det in ("true", "false")
        assert keys == sorted(keys)
        diag = lines[lines.index("# diagonal") + 2 :]
        assert all(r.split(",")[0] == r.split(",")[1] for r in diag)

    def test_json_format(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", str(pos), str(mom),
            "--n-list", "1", "--m-list", "1",
            "--errors", "off", "--format", "json",
            "--output", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"sweep", "diagonal"}
        # pairing 'both' is the default: 2 pairings x 3 witnesses
        assert len(payload["sweep"]) == 6
        row = payload["sweep"][0]
        assert set(row) == {"n", "m", "pairing", "witness_id", "value", "uncertainty", "detected"}

    def test_errors_on_fills_uncertainty_and_detects_with_margin(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", str(pos), str(mom),
            "--n-list", "3", "--m-list", "3",
            "--pairing", "pm", "--errors", "on",
            "--replicates", "150", "--seed", "2",
            "--witnesses", "coarse_variance",
            "--format", "json", "--output", str(out_file),
        ]) == 0
        row = json.loads(out_file.read_text())["sweep"][0]
        assert row["uncertainty"] > 0.0
        assert row["detected"] == (row["value"] + row["uncertainty"] < 0.0)

    def test_deterministic_with_errors(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out_file = tmp_path / name
            assert main([
                "sweep", str(pos), str(mom),
                "--n-list", "1,3", "--m-list", "1",
                "--errors", "on", "--replicates", "120", "--seed", "11",
                "--output", str(out_file),
            ]) == 0
            outs.append(out_file.read_bytes())
        assert outs[0] == outs[1]

    def test_witness_subset_filter(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        out_file = tmp_path / "sub.csv"
        assert main([
            "sweep", str(pos), str(mom),
            "--n-list", "1", "--m-list", "1", "--pairing", "pm",
            "--errors", "off", "--witnesses", "coarse_entropic",
            "--output", str(out_file),
        ]) == 0
        body = [
            l for l in out_file.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("n,")
        ]
        assert all("coarse_entropic" in l for l in body)

    def test_point_values_match_single_cell_witnesses(self, tmp_path):
        from cgwitness import load_joint_counts, witness_grid

        pos, mom = _simulate(tmp_path)
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", str(pos), str(mom), "--errors", "off",
            "--format", "json", "--output", str(out_file),
        ]) == 0
        rows = json.loads(out_file.read_text())["sweep"]
        assert len(rows) == 11 * 11 * 2 * 3
        position, momentum = load_joint_counts(pos), load_joint_counts(mom)
        for row in rows:
            marginals = rebinned_marginals(position, momentum, row["pairing"], row["n"], row["m"])
            r, s = (h.normalize() for h in marginals)
            want = witness_grid([r], [s], (row["witness_id"],))[row["witness_id"]][0, 0]
            assert "%.12g" % row["value"] == "%.12g" % want, row

    def test_entropic_uncertainty_independent_of_other_witnesses(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        uncertainties = []
        for witnesses in ("coarse_entropic", "coarse_variance,coarse_entropic,naive_discrete"):
            out_file = tmp_path / "sweep.json"
            assert main([
                "sweep", str(pos), str(mom),
                "--n-list", "1,3,7", "--m-list", "1,5",
                "--replicates", "150", "--seed", "4", "--witnesses", witnesses,
                "--format", "json", "--output", str(out_file),
            ]) == 0
            rows = json.loads(out_file.read_text())["sweep"]
            uncertainties.append({
                (r["n"], r["m"], r["pairing"]): r["uncertainty"]
                for r in rows if r["witness_id"] == "coarse_entropic"
            })
        assert len(uncertainties[0]) == 3 * 2 * 2
        assert uncertainties[0] == uncertainties[1]


class TestDemoFalsePositive:
    def test_analytic_anchor_values(self, capsys):
        assert main(["demo-false-positive", "--sigma", "1.0", "--multiplier", "3", "--analytic"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        naive = rows["naive_discrete"]
        coarse = rows["coarse_variance"]
        assert float(naive[4]) == pytest.approx(-0.9905535871, rel=1e-8)
        assert naive[5] == "true" and naive[6] == "true"  # detected, unsafe
        assert float(coarse[4]) == pytest.approx(8.592602362, rel=1e-8)
        assert coarse[5] == "false" and coarse[6] == "false"

    def test_fine_bins_show_no_false_positive(self, capsys):
        assert main(["demo-false-positive", "--multiplier", "0.1", "--analytic"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            assert line.split(",")[5] == "false"

    def test_sampled_mode_runs(self, capsys):
        assert main([
            "demo-false-positive", "--multiplier", "3",
            "--total-counts", "100000", "--seed", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert rows["naive_discrete"][5] == "true"
        assert rows["coarse_variance"][5] == "false"

    @pytest.mark.parametrize("multiplier", ["1e-3", "1e-5"])
    def test_very_fine_multiplier_still_runs(self, capsys, multiplier):
        assert main(["demo-false-positive", "--multiplier", multiplier, "--analytic"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize("flag", ["--sigma-plus", "--sigma-minus"])
    def test_only_common_sigma_is_accepted(self, capsys, flag):
        # the state is separable, so one width sets both marginals
        assert main(["demo-false-positive", flag, "1.0", "--analytic"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBoundTableCommand:
    def test_header_and_default_grid(self, capsys):
        assert main(["bound-table"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,C"
        assert len(lines) == 102  # 101 points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0 / (2 * math.e * math.pi), rel=1e-9)
        last = lines[-1].split(",")
        assert float(last[0]) == 50.0

    def test_log_spacing(self, capsys):
        assert main([
            "bound-table", "--gamma-min", "0.01", "--gamma-max", "100",
            "--points", "5", "--spacing", "log",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        gammas = [float(l.split(",")[0]) for l in lines[1:]]
        ratios = [b / a for a, b in zip(gammas, gammas[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_values_decrease_past_flat_region(self, capsys):
        assert main(["bound-table", "--gamma-max", "100", "--points", "21"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cs = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(cs, cs[1:]))

    def test_log_spacing_rejects_zero_min(self, capsys):
        assert main(["bound-table", "--gamma-min", "0", "--spacing", "log"]) == 2


class TestExitCodes:
    def test_unknown_flag_returns_2_without_raising(self, capsys):
        assert main(["sweep", "a", "b", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["sweep", "--help"]) == 0
        assert "--n-list" in capsys.readouterr().out

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", str(tmp_path / "nope.txt"), str(tmp_path / "nope2.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_swapped_scan_order_is_usage_error(self, tmp_path, capsys):
        pos, mom = _simulate(tmp_path)
        assert main(["sweep", str(mom), str(pos)]) == 2

    def test_even_rebin_factor_is_usage_error(self, tmp_path, capsys):
        pos, mom = _simulate(tmp_path)
        assert main(["sweep", str(pos), str(mom), "--n-list", "2"]) == 2

    def test_unknown_witness_is_usage_error(self, tmp_path, capsys):
        pos, mom = _simulate(tmp_path)
        assert main([
            "sweep", str(pos), str(mom), "--witnesses", "mgvt_continuous",
        ]) == 2

    def test_starved_replicates_is_numerical_error(self, tmp_path, capsys):
        import cgwitness as cg

        geo = cg.OpticalGeometry()
        ones = np.zeros((3, 3), dtype=np.int64)
        ones[1, 1] = 1
        for pair, step, name in (
            ("position", geo.s_x_mm, "pos.txt"),
            ("momentum", geo.s_p_mm, "mom.txt"),
        ):
            jc = cg.JointCounts(variable_pair=pair, step=step, counts=ones, geometry=geo)
            cg.save_joint_counts(jc, tmp_path / name)
        code = main([
            "sweep", str(tmp_path / "pos.txt"), str(tmp_path / "mom.txt"),
            "--n-list", "1", "--m-list", "1", "--errors", "on",
            "--replicates", "200", "--seed", "0",
        ])
        assert code == 3
        assert "numerical" in capsys.readouterr().err

    def test_starved_replicates_fail_the_full_default_grid(self, tmp_path, capsys):
        import cgwitness as cg

        geo = cg.OpticalGeometry()
        ones = np.zeros((3, 3), dtype=np.int64)
        ones[1, 1] = 1
        for pair, step, name in (
            ("position", geo.s_x_mm, "pos.txt"),
            ("momentum", geo.s_p_mm, "mom.txt"),
        ):
            jc = cg.JointCounts(variable_pair=pair, step=step, counts=ones, geometry=geo)
            cg.save_joint_counts(jc, tmp_path / name)
        out_file = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(tmp_path / "pos.txt"), str(tmp_path / "mom.txt"),
            "--output", str(out_file),
        ])
        assert code == 3
        assert "numerical" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "bad_token", [b"9223372036854775808", b"\xff"], ids=["above_int64", "non_utf8"]
    )
    def test_unreadable_count_exits_2_without_traceback(self, tmp_path, bad_token):
        pos, mom = _simulate(tmp_path)
        lines = pos.read_bytes().splitlines()
        lines[-1] = bad_token + lines[-1][lines[-1].index(b","):]
        pos.write_bytes(b"\n".join(lines) + b"\n")
        proc = _run_cli("sweep", str(pos), str(mom), "--errors", "off")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"line {len(lines)}" in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "sweep", "demo-false-positive"])
    def test_negative_seed_exits_2_without_traceback(self, tmp_path, command):
        if command == "sweep":
            pos, mom = _simulate(tmp_path)
            args = ["sweep", str(pos), str(mom), "--n-list", "1", "--m-list", "1"]
        elif command == "simulate":
            args = ["simulate", "--output-prefix", str(tmp_path / "scan")]
        else:
            args = ["demo-false-positive"]
        proc = _run_cli(*args, "--seed", "-1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--seed" in proc.stderr

    @pytest.mark.parametrize("nsigma", ["nan", "-1", "inf"])
    def test_bad_detect_nsigma_exits_2_without_traceback(self, tmp_path, nsigma):
        pos, mom = _simulate(tmp_path)
        proc = _run_cli(
            "sweep", str(pos), str(mom), "--n-list", "1", "--m-list", "1",
            "--detect-nsigma", nsigma,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--detect-nsigma" in proc.stderr

    def test_absurd_multiplier_exits_2_without_traceback(self):
        # 1e-9 would need a ~9e9-bin grid (67 GiB); it must be refused up front
        proc = _run_cli("demo-false-positive", "--multiplier", "1e-9")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--multiplier" in proc.stderr

    def test_multiplier_at_the_bin_limit_names_the_flag(self, capsys):
        # 9e-6 asks for a grid of 1_000_001 bins, one above binning.MAX_BINS
        assert main(["demo-false-positive", "--multiplier", "9e-6", "--analytic"]) == 2
        assert "--multiplier 9e-06 needs" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier", ["1e150", "1e200"])
    def test_overflowing_multiplier_exits_2_without_traceback(self, multiplier):
        # bins this wide overflow the corrected variances to inf
        proc = _run_cli("demo-false-positive", "--analytic", "--multiplier", multiplier)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: witness value must be finite, got inf\n"

    @pytest.fixture
    def overflowing_scans(self, tmp_path):
        """A scan pair whose position bins, ~5e199 wide, overflow every witness value."""
        paths = []
        for path in _simulate(tmp_path):
            text = path.read_text()
            assert "# s_x_mm=0.05\n" in text
            path.write_text(text.replace("# s_x_mm=0.05\n", "# s_x_mm=1e200\n"))
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("errors", ["on", "off"])
    def test_non_finite_sweep_value_exits_2_without_warning(
        self, overflowing_scans, capsys, errors, fmt
    ):
        # a nan value would print as nan (CSV) or NaN, which is not valid JSON
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", *overflowing_scans, "--errors", errors, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: witness value must be finite, got nan\n"

    def test_non_finite_sweep_value_exits_2_under_w_error(self, overflowing_scans):
        proc = _run_python("-W", "error", "-m", "cgwitness", "sweep", *overflowing_scans)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: witness value must be finite, got nan\n"

    @pytest.mark.parametrize("flag", ["--gamma-min", "--gamma-max"])
    def test_infinite_gamma_exits_2_without_warning(self, flag):
        proc = _run_cli("bound-table", flag, "inf")
        assert proc.returncode == 2
        assert proc.stderr == f"error: {flag} must be finite, got inf\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--n-list", "1,9223372036854775809"),
            ("--m-list", "1,9223372036854775809"),
            ("--n-list", "1,1"),
            ("--m-list", "3,1,3"),
            ("--witnesses", "coarse_variance,coarse_variance"),
        ],
        ids=["n_above_int64", "m_above_int64", "n_duplicate", "m_duplicate", "witness_duplicate"],
    )
    def test_bad_list_flag_exits_2_without_traceback(self, tmp_path, flags):
        pos, mom = _simulate(tmp_path)
        proc = _run_cli(
            "sweep", str(pos), str(mom), "--errors", "off", "--n-list", "1", "--m-list", "1", *flags
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert flags[0] in proc.stderr
        assert proc.stdout == ""

    def test_largest_factor_still_runs(self, tmp_path, capsys):
        pos, mom = _simulate(tmp_path)
        assert main([
            "sweep", str(pos), str(mom), "--errors", "off",
            "--n-list", "1,9223372036854775807", "--m-list", "1",
        ]) == 0
        assert "9223372036854775807,1," in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "demo-false-positive"])
    @pytest.mark.parametrize("total", ["1e19", "1e30", "inf"])
    def test_total_counts_beyond_poisson_limit_is_usage_error(
        self, tmp_path, capsys, command, total
    ):
        extra = ["--output-prefix", str(tmp_path / "scan")] if command == "simulate" else []
        assert main([command, "--total-counts", total, *extra]) == 2
        assert "total_expected_counts" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scan_total_above_int64_exits_2_without_traceback(self, tmp_path):
        # two counts of 5e18 each fit int64; the scan total does not
        pos, mom = _simulate(tmp_path)
        lines = pos.read_bytes().splitlines()
        for k in (-1, -2):
            lines[k] = b"5000000000000000000" + lines[k][lines[k].index(b","):]
        pos.write_bytes(b"\n".join(lines) + b"\n")
        proc = _run_cli("sweep", str(pos), str(mom), "--errors", "off")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "total above 9223372036854775807" in proc.stderr

    # each would need a detector square of 10^19 cells or more (>= 5 TiB
    # for its first array); it must be refused before any allocation
    @pytest.mark.parametrize(
        "flag,value", [("--sigma-plus", "1e-9"), ("--s-x-mm", "1e-12"), ("--s-p-mm", "1e-13")]
    )
    def test_oversized_detector_square_is_usage_error(self, tmp_path, capsys, flag, value):
        assert main(["simulate", flag, value, "--output-prefix", str(tmp_path / "scan")]) == 2
        assert "detector square" in capsys.readouterr().err

    # a side near 1e300 must not print as a 300-digit int, and one beyond the
    # float range (the last two) must not end in an OverflowError traceback
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--s-x-mm", "1e-300"),
            ("--sigma-plus", "1e300"),
            ("--lambda-mm", "1e300"),
            ("--sigma-plus", "1e308"),
            ("--s-x-mm", "1e-308"),
        ],
    )
    def test_astronomical_detector_square_is_one_short_line(self, tmp_path, capsys, flag, value):
        # both squares are checked before either scan is sampled, so the
        # position scan of --sigma-plus 1e308 never warns of its parity
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", flag, value, "--output-prefix", str(tmp_path / "scan")]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "Warning" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, errors
        assert len(errors[0]) < 200, errors[0]
        assert "detector square" in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_vanishing_marginal_width_raises_no_runtime_warning(self, tmp_path):
        # the position marginal is ~1e-308 wide, so its bin ends divide to +/-inf
        proc = _run_python(
            "-W", "error::RuntimeWarning", "-m", "cgwitness", "simulate",
            "--sigma-plus", "1e308", "--output-prefix", str(tmp_path / "scan"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "detector square" in proc.stderr

    def test_too_many_replicates_exits_2_without_traceback(self, tmp_path):
        # 10^8 replicates would first allocate ~30 GiB of Poisson draws
        pos, mom = _simulate(tmp_path)
        proc = _run_cli("sweep", str(pos), str(mom), "--replicates", "100000000")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"replicates must be at most {MAX_REPLICATES}" in proc.stderr

    def test_too_few_replicates_names_the_accepted_range(self, tmp_path):
        pos, mom = _simulate(tmp_path)
        proc = _run_cli("sweep", str(pos), str(mom), "--replicates", "50")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"at most {MAX_REPLICATES} and at least {MIN_REPLICATES}" in proc.stderr
        assert "fast_mode" not in proc.stderr

    def test_too_many_table_points_exits_2_without_traceback(self):
        # 10^11 points would first allocate ~745 GiB of grid
        proc = _run_cli("bound-table", "--points", "100000000000")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"--points must be between 2 and {MAX_TABLE_POINTS}" in proc.stderr


_GOOD_FACTORS = ["1", "3", "1,3", "3,1", "1,9223372036854775807"]
_BAD_FACTORS = ["1,1", "2", "0", "-1", "a", "", "1,9223372036854775809"]

#: sweep flag -> (valid values, invalid values); each invalid one must exit 2
_SWEEP_FLAGS = {
    "--n-list": (_GOOD_FACTORS, _BAD_FACTORS),
    "--m-list": (_GOOD_FACTORS, _BAD_FACTORS),
    "--pairing": (["pm", "mp", "both"], ["xy"]),
    "--witnesses": (
        ["coarse_entropic", "coarse_variance,naive_discrete"],
        ["bogus", "", "mgvt_continuous", "coarse_entropic,coarse_entropic"],
    ),
    "--errors": (["on", "off"], ["maybe"]),
    "--replicates": (["100", "120"], ["50", "0", "-5", "100001", "x"]),
    "--detect-nsigma": (["1", "0", "2.5"], ["-1", "nan", "inf", "x"]),
    "--seed": (["0", "3", str(2**70)], ["-1", "x"]),
    "--format": (["csv", "json"], ["xml"]),
    "--output": (["out.csv"], [".", "no/such/dir/out.csv"]),
}


class TestFlagMixes:
    @pytest.fixture(scope="class")
    def scans(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("flagmix")
        pos, mom = _simulate(tmp, total=20_000)
        bad = tmp / "bad.txt"
        bad.write_bytes(pos.read_bytes() + b"1,x\n")
        return {"pos": pos, "mom": mom, "bad": bad, "missing": tmp / "missing.txt", "dir": tmp}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sweep_exits_0_2_or_3(self, scans, data):
        files = ("pos", "mom")
        if data.draw(st.integers(0, 5)) == 0:
            files = data.draw(st.sampled_from([("mom", "pos"), ("pos", "missing"), ("bad", "mom")]))
        argv = ["sweep", *(str(scans[f]) for f in files), "--replicates", "100"]
        argv += ["--n-list", "1,3", "--m-list", "1"]
        for flag in data.draw(st.lists(st.sampled_from(sorted(_SWEEP_FLAGS)), max_size=5)):
            good, bad = _SWEEP_FLAGS[flag]
            value = data.draw(st.sampled_from(bad if data.draw(st.integers(0, 5)) == 0 else good))
            if flag == "--output":
                value = str(scans["dir"] / value)
            argv += [flag, value]
        if data.draw(st.integers(0, 9)) == 0:
            argv.append(data.draw(st.sampled_from(["--bogus", "--seed", "--n-list"])))
        assert main(argv) in (0, 2, 3), argv


class TestImportPath:
    def test_cli_import_loads_no_scipy(self):
        # scipy is only the test suite's reference; the runtime needs numpy alone
        proc = _run_python(
            "-c",
            "import sys, cgwitness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
