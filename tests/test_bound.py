import math

import numpy as np
import pytest
from scipy.special import pro_cv, spherical_jn

from cgwitness import (
    bound,
    characteristic_solution,
    concentration_eigenvalue,
    entropic_bound_constant,
    load_joint_counts,
    radial_first_kind,
    sweep_grid,
)
from cgwitness.bound import (
    CONTINUOUS_BOUND_CONSTANT,
    FLAT_BRANCH_END,
    SERIES_TAIL_SWITCH,
    _even_spherical_jn,
    _solve_truncated,
)
from cgwitness.cli import DEFAULT_FACTORS, main
from cgwitness.errors import InvalidParameterError
from conftest import branch_switch_gamma, radial_first_kind_specfun

FLAT = 1.0 / (2.0 * math.e * math.pi)


class TestCharacteristicSolution:
    def test_zero_parameter(self):
        sol = characteristic_solution(0.0)
        assert sol.chi == 0.0
        assert radial_first_kind(sol) == pytest.approx(1.0)

    def test_anchor_chi_at_one(self):
        sol = characteristic_solution(1.0)
        assert sol.chi == pytest.approx(0.319000055146, rel=1e-9)

    def test_small_parameter_expansion(self):
        # chi ~ c^2/3 - 2 c^4/135 for small c
        c = 1e-3
        sol = characteristic_solution(c)
        want = c * c / 3.0 - 2.0 * c**4 / 135.0
        assert sol.chi == pytest.approx(want, rel=1e-8)

    def test_coefficients_decay(self):
        sol = characteristic_solution(5.0)
        d = np.abs(np.asarray(sol.coefficients))
        assert d[-1] < 1e-13 * d.max()

    def test_truncation_has_a_twofold_margin(self):
        # half the truncation order used is already converged, on the whole
        # domain where the series route uses the solution
        for c in np.linspace(0.01, SERIES_TAIL_SWITCH, 29):
            order = characteristic_solution(c).coefficients.size
            _, d = _solve_truncated(c, order // 2)
            assert np.max(np.abs(d[-3:])) <= 1e-14 * np.max(np.abs(d))

    def test_rejects_bad_parameters(self):
        for bad in (-1.0, math.nan, math.inf, SERIES_TAIL_SWITCH * 1.01):
            with pytest.raises(InvalidParameterError):
                characteristic_solution(bad)


class TestRadialFunction:
    def test_anchor_at_one(self):
        sol = characteristic_solution(1.0)
        assert radial_first_kind(sol) == pytest.approx(0.9483719511962, rel=1e-9)

    def test_small_parameter_limit_is_one(self):
        sol = characteristic_solution(1e-6)
        assert radial_first_kind(sol) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c", [0.01, 1.0, 5.0])
    def test_dual_route_agreement(self, c):
        # the Bessel series against scipy's independent specfun routines
        series = radial_first_kind(characteristic_solution(c))
        assert abs(series - radial_first_kind_specfun(c)) < 1e-8

    def test_characteristic_matches_specfun(self):
        sol = characteristic_solution(1.0)
        assert sol.chi == pytest.approx(pro_cv(0, 0, 1.0), rel=1e-10)

    @pytest.mark.parametrize("c", [SERIES_TAIL_SWITCH * 1.0001, 50.0])
    def test_rejects_parameter_beyond_series_domain(self, c):
        # at c = 50 the series would return -0.009375 instead of ~0.177
        with pytest.raises(InvalidParameterError):
            radial_first_kind(characteristic_solution(c))


class TestBesselRecurrence:
    @pytest.mark.parametrize(
        "x", [1e-300, 1e-5, 9.99e-4, 1e-3, 0.5, math.pi, 2.0 * math.pi, 9.0, SERIES_TAIL_SWITCH]
    )
    def test_matches_scipy(self, x):
        # both sides of the ascending-series switch and the zeros of j_0
        got = _even_spherical_jn(96, x)
        want = spherical_jn(2 * np.arange(96), x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_subnormal_argument(self):
        got = _even_spherical_jn(32, 5e-324)
        assert got[0] == 1.0 and np.all(got[1:] == 0.0)


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

    def test_series_to_tail_handoff_is_smooth(self):
        # the asymptotic tail takes over above c = 14
        lo = concentration_eigenvalue(13.999)
        hi = concentration_eigenvalue(14.001)
        assert abs(hi - lo) < 1e-9

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


def _series_branch(g: float) -> float:
    """The curved branch lambda0(g/8)/g through the series route, g/8 <= 14."""
    return radial_first_kind(characteristic_solution(g / 8.0)) ** 2 / (4.0 * math.pi)


def _full_route(g: float) -> float:
    """min(flat, curved) with the curved branch evaluated at every g > 0."""
    if g == 0.0:
        return CONTINUOUS_BOUND_CONSTANT
    c = g / 8.0
    curved = _series_branch(g) if c <= SERIES_TAIL_SWITCH else concentration_eigenvalue(c) / g
    return min(CONTINUOUS_BOUND_CONSTANT, curved)


class TestFlatSegment:
    """entropic_bound_constant returns the flat value below FLAT_BRANCH_END unsolved."""

    def test_flat_branch_end_lies_below_branch_switch(self):
        assert FLAT_BRANCH_END < branch_switch_gamma()

    def test_curved_branch_exceeds_flat_value_below_the_end(self):
        # the skipped evaluations: every one would lose the min to the flat value
        gammas = np.concatenate(
            (np.geomspace(1e-300, FLAT_BRANCH_END, 20_000), np.linspace(14.0, FLAT_BRANCH_END, 1001))
        )
        curved = np.array([_series_branch(g) for g in gammas])
        margin = curved - CONTINUOUS_BOUND_CONSTANT
        assert margin.min() > 5e-6
        # and the margin shrinks monotonically towards the end
        assert np.all(np.diff(curved[20_000:]) < 0)

    def test_same_bits_as_the_full_route(self):
        g_star = branch_switch_gamma()
        gammas = np.concatenate(
            (
                [0.0, 5e-324, 1e-300, FLAT_BRANCH_END, g_star, 8.0 * SERIES_TAIL_SWITCH],
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
        solve, constant = bound.characteristic_solution, bound.entropic_bound_constant

        def counting_solve(c):
            solved.append(c)
            return solve(c)

        def recording_constant(g):
            products.add(g)
            return constant(g)

        monkeypatch.setattr(bound, "characteristic_solution", counting_solve)
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
