import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgwitness import (
    bound,
    concentration_eigenvalue,
    entropic_bound_constant,
    load_joint_counts,
    sweep_grid,
)
from cgwitness.bound import (
    CONTINUOUS_BOUND_CONSTANT,
    FLAT_BRANCH_END,
    _scaled_eigenvalue,
)
from cgwitness.cli import DEFAULT_FACTORS, main
from cgwitness.errors import InvalidParameterError
from conftest import branch_switch_gamma, radial_first_kind_specfun

FLAT = 1.0 / (2.0 * math.e * math.pi)


def _tail(c: float) -> float:
    """The asymptotic tail of lambda0, an independent reference for c >= 14."""
    return 1.0 - 4.0 * math.sqrt(math.pi * c) * math.exp(-2.0 * c) * (1.0 - 0.455 / c)


class TestRadialFunction:
    """lambda0 against the prolate radial function: lambda0(c) = (2c/pi) R_00(c, 1)^2."""

    def test_anchor_at_one(self):
        assert radial_first_kind_specfun(1.0) == pytest.approx(0.9483719511962, rel=1e-9)
        want = 2.0 / math.pi * 0.9483719511962**2
        assert concentration_eigenvalue(1.0) == pytest.approx(want, rel=1e-9)

    def test_small_parameter_limit_is_one(self):
        # R_00(c, 1) -> 1 as c -> 0, and the scale-free solve keeps it there
        c = 1e-6
        assert math.pi / (2.0 * c) * concentration_eigenvalue(c) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c", [0.01, 1.0, 5.0])
    def test_dual_route_agreement(self, c):
        # the Nystrom eigensolve against scipy's independent specfun routines
        reference = 2.0 * c / math.pi * radial_first_kind_specfun(c) ** 2
        assert abs(concentration_eigenvalue(c) - reference) < 1e-8


class TestNystrom:
    def test_node_convergence(self):
        # 32 nodes against 96 (numpy's leggauss), in ln C, on the curved
        # segment up to c = 14, where lambda0 is still below 1 - 1e-11
        x, w = np.polynomial.legendre.leggauss(96)
        separation, root_weights = (x[:, None] - x[None, :]) / math.pi, np.sqrt(np.outer(w, w))
        for g in np.linspace(FLAT_BRANCH_END, 112.0, 61):
            want = np.linalg.eigvalsh(root_weights * np.sinc(g / 8.0 * separation))[-1]
            assert abs(math.log(_scaled_eigenvalue(g / 8.0)) - math.log(want)) < 1e-13, g

    def test_clip_to_one_is_exact_beyond_one_node_rayleigh_quotient(self):
        # the Nystrom matrix's largest diagonal entry is max(w), so its top
        # eigenvalue gives lambda0 >= c max(w) / pi >= 1 from c = pi / max(w)
        c = math.pi / bound._WEIGHTS.max()
        assert c < 33
        assert c / math.pi * _scaled_eigenvalue(c) >= 1.0
        assert concentration_eigenvalue(c) == 1.0

    def test_one_route_tracks_a_128_node_solve_from_14_to_40(self):
        # the 32-node solve, clipped to 1, within 1e-14 of 128 nodes and never
        # below it by more than 1e-15, and within 1e-13 of the tail reference;
        # lambda0's eigenfunction is even, so the 128-node reference solves the
        # 64 x 64 even block K(x_i, x_j) + K(x_i, -x_j) of the symmetric nodes
        x, w = np.polynomial.legendre.leggauss(128)
        x, root_weights = x[:64], np.sqrt(np.outer(w[:64], w[:64]))
        minus, plus = ((x[:, None] + sign * x[None, :]) / math.pi for sign in (-1.0, 1.0))
        for c in np.arange(1400, 4001) / 100.0:
            even = root_weights * (np.sinc(c * minus) + np.sinc(c * plus))
            top = np.linalg.eigvalsh(even)[-1]
            got = concentration_eigenvalue(c)
            assert -1e-15 <= got - min(1.0, c / math.pi * top) <= 1e-14, c
            assert abs(got - min(1.0, _tail(c))) < 1e-13, c

    def test_nodes_match_numpy_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(32)
        assert np.max(np.abs(bound._NODES - x)) < 1e-15
        assert np.max(np.abs(bound._WEIGHTS - w)) < 2e-15
        assert bound._WEIGHTS.sum() == pytest.approx(2.0, abs=4e-15)

    def test_tiny_parameter_is_exact(self):
        # the scale-free kernel: lambda0(g/8)/g -> 1/(4 pi) with no small-c branch
        for g in (1e-300, 5e-324):
            got = _scaled_eigenvalue(g / 8.0) / (8.0 * math.pi)
            assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=4e-16)

    def test_import_does_not_load_numpy_polynomial(self):
        # importing numpy.polynomial would add milliseconds to every CLI start
        code = "import sys, cgwitness.cli; print('numpy.polynomial' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(bound.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "False"

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.0.0",
        reason="numpy 1.x imports numpy.random with numpy itself",
    )
    def test_only_commands_that_draw_load_numpy_random(self, tmp_path):
        # numpy.random brings numpy's bit generators and, through secrets,
        # hashlib and OpenSSL: ~6 MB of memory that a command without draws
        # should not pay. An errors-on sweep loads it, so the check can fail.
        prefix = str(tmp_path / "scan")
        assert main(["simulate", "--total-counts", "1e4", "--output-prefix", prefix]) == 0
        code = "\n".join(
            [
                "import sys",
                "from cgwitness.cli import main",
                "pos, mom, out = sys.argv[1:]",
                "for argv in (",
                "    ['sweep', pos, mom, '--errors', 'off', '--output', out],",
                "    ['bound-table', '--points', '3', '--output', out],",
                "    ['demo-false-positive', '--analytic', '--output', out],",
                "):",
                "    assert main(argv) == 0, argv",
                "print('numpy.random' in sys.modules)",
                "assert main(['sweep', pos, mom, '--replicates', '100', '--output', out]) == 0",
                "print('numpy.random' in sys.modules)",
            ]
        )
        env = {**os.environ, "PYTHONPATH": str(Path(bound.__file__).parents[1])}
        argv = [prefix + "_position.txt", prefix + "_momentum.txt", str(tmp_path / "out")]
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.split() == ["False", "True"]


class TestValidation:
    @pytest.mark.parametrize("fn", [concentration_eigenvalue, entropic_bound_constant])
    @pytest.mark.parametrize("bad", [10**400, "1", True, None, 1j])
    def test_refuses_non_real_and_overflowing_input(self, fn, bad):
        with pytest.raises(InvalidParameterError):
            fn(bad)

    @pytest.mark.parametrize("fn", [concentration_eigenvalue, entropic_bound_constant])
    @pytest.mark.parametrize("good", [np.int64(20), 20, np.float64(20.0), np.float32(20.0)])
    def test_accepts_python_and_numpy_numbers(self, fn, good):
        assert fn(good) == fn(20.0)


class TestConcentrationEigenvalue:
    @pytest.mark.parametrize(
        "c,want",
        [
            (0.5, 0.30968956570927),
            (1.0, 0.57258178063790),
            (5.0, 0.99935240522665),
        ],
    )
    def test_anchors(self, c, want):
        assert concentration_eigenvalue(c) == pytest.approx(want, rel=1e-9)

    def test_limits_and_monotonicity(self):
        values = [concentration_eigenvalue(c) for c in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nystrom_to_tail_handoff_is_smooth(self):
        # one route on both sides of c = 14, where the tail reference meets it
        lo = concentration_eigenvalue(13.999)
        hi = concentration_eigenvalue(14.001)
        assert abs(hi - lo) < 1e-13

    def test_nystrom_meets_tail_at_switch(self):
        c = 14.0
        assert abs(concentration_eigenvalue(c) - _tail(c)) < 1e-13

    def test_small_c_quadratic(self):
        # Lambda ~ 2c/pi * R^2 -> (2/pi) c for c -> 0
        c = 1e-4
        assert concentration_eigenvalue(c) == pytest.approx(2.0 * c / math.pi, rel=1e-4)


class TestEntropicBoundConstant:
    def test_flat_value_and_zero(self):
        assert CONTINUOUS_BOUND_CONSTANT == pytest.approx(FLAT, rel=1e-15)
        assert entropic_bound_constant(0.0) == pytest.approx(0.0585498315243, rel=1e-10)

    @pytest.mark.parametrize(
        "gamma,want",
        [
            (15.0, 0.05713205384829593),
            (16.0, 0.05503499514483182),
            (20.0, 0.047230564454200305),
            (30.0, 0.033117698826992975),
            (50.0, 0.01999878034662264),
            (100.0, 0.009999999996704813),
            (256.0, 0.00390625),
        ],
    )
    def test_curved_branch_anchors(self, gamma, want):
        assert entropic_bound_constant(gamma) == pytest.approx(want, rel=1e-9)

    def test_flat_segment_extends_to_branch_switch(self):
        g_star = branch_switch_gamma()
        assert g_star == pytest.approx(14.333216216178839, rel=1e-9)
        assert entropic_bound_constant(0.98 * g_star) == pytest.approx(FLAT, rel=1e-14)
        assert entropic_bound_constant(1.02 * g_star) < FLAT

    def test_large_gamma_behaves_like_reciprocal(self):
        for gamma in (300.0, 1000.0):
            assert entropic_bound_constant(gamma) == pytest.approx(1.0 / gamma, rel=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            entropic_bound_constant(-0.5)

    def test_kink_is_exact(self):
        # the min with the flat branch makes the bound exactly flat up to the kink
        g_star = branch_switch_gamma()
        assert entropic_bound_constant(g_star * 0.999) == pytest.approx(FLAT, rel=1e-14)
        assert entropic_bound_constant(g_star * 1.001) < FLAT


def _curved_branch(g: float) -> float:
    """The curved branch lambda0(g/8)/g through the Nystrom eigensolve, before the clip."""
    return _scaled_eigenvalue(g / 8.0) / (8.0 * math.pi)


def _full_route(g: float) -> float:
    """min(flat, curved, 1/g) with the curved branch evaluated at every g > 0.

    1/g exceeds the flat value on the flat segment, and overflows near 0,
    so it joins the min only off that segment.
    """
    if g == 0.0:
        return CONTINUOUS_BOUND_CONSTANT
    route = min(CONTINUOUS_BOUND_CONSTANT, _curved_branch(g))
    return route if g < FLAT_BRANCH_END else min(route, 1.0 / g)


class TestFlatSegment:
    """entropic_bound_constant returns the flat value below FLAT_BRANCH_END unsolved."""

    def test_flat_branch_end_lies_below_branch_switch(self):
        assert FLAT_BRANCH_END < branch_switch_gamma()

    def test_curved_branch_exceeds_flat_value_below_the_end(self):
        # the skipped evaluations: every one would lose the min to the flat value
        gammas = np.concatenate(
            (np.geomspace(1e-300, FLAT_BRANCH_END, 20_000), np.linspace(14.0, FLAT_BRANCH_END, 1001))
        )
        curved = np.array([_curved_branch(g) for g in gammas])
        margin = curved - CONTINUOUS_BOUND_CONSTANT
        assert margin.min() > 5e-6
        # and the margin shrinks monotonically towards the end
        assert np.all(np.diff(curved[20_000:]) < 0)

    def test_same_bits_as_the_full_route(self):
        g_star = branch_switch_gamma()
        gammas = np.concatenate(
            (
                [0.0, 5e-324, 1e-300, FLAT_BRANCH_END, g_star, 112.0],
                np.nextafter(FLAT_BRANCH_END, [0.0, np.inf]),
                g_star * (1.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6])),
                np.geomspace(1e-12, 1e3, 151),
                np.linspace(14.0, 14.7, 141),
                np.linspace(0.0, 150.0, 301),
            )
        )
        for g in gammas:
            assert entropic_bound_constant(g) == _full_route(g), g

    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf])
    def test_validation_runs_before_the_flat_return(self, bad):
        with pytest.raises(InvalidParameterError):
            entropic_bound_constant(bad)


class TestSweepReachesTheSolverOnlyOffTheFlatSegment:
    @staticmethod
    def _solved_parameters(monkeypatch, tmp_path, simulate_flags, factors):
        """The c = g/8 at which a sweep of one simulated pair solves the eigenproblem."""
        prefix = str(tmp_path / "scan")
        assert main(["simulate", "--seed", "42", "--output-prefix", prefix, *simulate_flags]) == 0
        pos = load_joint_counts(prefix + "_position.txt")
        mom = load_joint_counts(prefix + "_momentum.txt")
        solved, products = [], set()
        solve, constant = bound._scaled_eigenvalue, bound.entropic_bound_constant

        def counting_solve(c):
            solved.append(c)
            return solve(c)

        def recording_constant(g):
            products.add(g)
            return constant(g)

        monkeypatch.setattr(bound, "_scaled_eigenvalue", counting_solve)
        monkeypatch.setattr("cgwitness.witnesses.entropic_bound_constant", recording_constant)
        sweep_grid(pos, mom, factors, factors)
        return solved, products

    def test_default_pair(self, monkeypatch, tmp_path):
        factors = [int(f) for f in DEFAULT_FACTORS.split(",")]
        solved, products = self._solved_parameters(monkeypatch, tmp_path, [], factors)
        assert len(products) == 88
        curved = sorted(g for g in products if g >= FLAT_BRANCH_END)
        assert len(curved) == 3
        assert solved == [g / 8.0 for g in curved]

    def test_large_scan_pair(self, monkeypatch, tmp_path):
        flags = ["--s-x-mm", "0.005", "--s-p-mm", "0.002", "--total-counts", "1e7"]
        solved, products = self._solved_parameters(monkeypatch, tmp_path, flags, [1, 5, 9, 13, 17, 21])
        assert len(products) == 29
        assert solved == []
