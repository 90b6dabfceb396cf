"""Acceptance gate: the nine headline checks, one printed PASS/FAIL line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

import cgwitness as cg
from conftest import radial_first_kind_specfun, random_discrete

FLAT = 1.0 / (2.0 * math.e * math.pi)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_unit_conversion_anchors():
    geo = cg.OpticalGeometry(
        f1_mm=50.0,
        f2_mm=200.0,
        f3_mm=250.0,
        lambda_mm=650e-6,
        s_x_mm=0.050,
        s_p_mm=0.020,
    )
    base_x = cg.detector_to_source_scale(geo, "position")
    base_p = cg.detector_to_source_scale(geo, "momentum")
    # agreement within one unit in the 4th significant digit of the
    # published values 0.0250 mm and 1.546 / mm
    ok = abs(base_x - 0.0250) < 1e-5 and abs(base_p - 1.546) < 1e-3
    assert _report(
        1, ok, f"base bins {base_x:.6g} mm and {base_p:.6g} /mm match 0.0250 / 1.546"
    )


def test_criterion_2_correction_identities():
    rng = np.random.default_rng(20260814)
    glq_x, glq_w = np.polynomial.legendre.leggauss(4)
    worst_ident = 0.0
    worst_quad = 0.0
    for _ in range(200):
        d = random_discrete(rng)
        w = d.grid.width

        hv, he = cg.histogram_variance(d), cg.histogram_entropy(d)
        worst_ident = max(
            worst_ident,
            abs(hv - (cg.discrete_variance(d) + w * w / 12.0)),
            abs(he - (cg.discrete_entropy(d) + math.log(w))),
        )

        # direct Gauss-Legendre quadrature of the piecewise-constant density
        lo = (d.grid.indices - 0.5) * w
        nodes = lo[:, None] + (glq_x[None, :] + 1.0) * (w / 2.0)
        rho = d.densities[:, None]
        quad = lambda f: float(np.sum(glq_w[None, :] * f * rho) * w / 2.0)
        mean = quad(nodes)
        var_q = quad((nodes - mean) ** 2)
        pieces = d.densities > 0.0
        ent_q = float(
            -(d.densities[pieces] * np.log(d.densities[pieces]) * w).sum()
        )
        worst_quad = max(worst_quad, abs(hv - var_q), abs(he - ent_q))
    ok = worst_ident < 1e-10 and worst_quad < 1e-8
    assert _report(
        2,
        ok,
        f"200 random distributions: identity residual {worst_ident:.2e}, "
        f"quadrature residual {worst_quad:.2e}",
    )


def test_criterion_3_continuous_limit():
    gm = cg.exact_marginals(cg.GaussianTwoPhotonState(2.0, 0.5))
    r = cg.coarse_grained_marginal(gm.x_plus, 1e-2 * gm.x_plus.std)
    s = cg.coarse_grained_marginal(gm.p_minus, 1e-2 * gm.p_minus.std)
    v = cg.coarse_variance_witness(r, s).value
    e = cg.coarse_entropic_witness(r, s).value
    ok = abs(v / (-15.0 / 16.0) - 1.0) < 1e-3 and abs(e / (-math.log(4.0)) - 1.0) < 1e-3
    assert _report(
        3, ok, f"widths at 1e-2 std give {v:.6f} vs -15/16 and {e:.6f} vs -ln 4"
    )


def test_criterion_4_no_false_positives_on_separable_states():
    factors = np.logspace(-2.0, 1.0, 12)
    worst = math.inf
    cells = 0
    for sigma in (0.5, 1.0, 2.0):
        gm = cg.exact_marginals(cg.GaussianTwoPhotonState(sigma, sigma))
        r_side = [
            cg.coarse_grained_marginal(gm.x_plus, t * gm.x_plus.std) for t in factors
        ]
        s_side = [
            cg.coarse_grained_marginal(gm.p_minus, t * gm.p_minus.std) for t in factors
        ]
        for r in r_side:
            for s in s_side:
                v = cg.coarse_variance_witness(r, s).value
                e = cg.coarse_entropic_witness(r, s).value
                worst = min(worst, v, e)
                cells += 2
    ok = worst >= 0.0 and cells == 3 * 12 * 12 * 2
    assert _report(
        4, ok, f"{cells} separable cells evaluated; smallest margin {worst:+.3e}"
    )


def test_criterion_5_false_positive_demonstration():
    # bins spanning "about 3 sigma" on each side of the origin (total width
    # 6 sigma): the uncorrected discrete product dips far below the bound
    gm = cg.exact_marginals(cg.GaussianTwoPhotonState(1.0, 1.0))
    r = cg.coarse_grained_marginal(gm.x_plus, 2 * 3.0 * gm.x_plus.std)
    s = cg.coarse_grained_marginal(gm.p_minus, 2 * 3.0 * gm.p_minus.std)
    naive = cg.naive_discrete_witness(r, s)
    coarse = cg.coarse_variance_witness(r, s)
    ok = naive.value < 0.0 and coarse.value >= 0.0 and naive.unsafe
    assert _report(
        5,
        ok,
        f"separable state: naive {naive.value:+.4f} (false positive), "
        f"corrected {coarse.value:+.4f}",
    )


@pytest.mark.filterwarnings("ignore:base bin width exceeds a marginal width")
def test_criterion_6_entropic_beats_variance_under_coarse_graining():
    # the strongest squeezing ratio intentionally pushes the base momentum
    # bin past the anti-correlated marginal width, so the sampler's
    # coarse-sampling warning is expected there
    geo = cg.OpticalGeometry()
    factors = list(range(1, 22, 2))
    max_detect = {}
    for idx, ratio in enumerate((2.0, 4.0, 8.0)):
        st = cg.GaussianTwoPhotonState(10.0, 10.0 / ratio)
        pos = cg.sample_joint_counts(st, geo, "position", 1e6, seed=1000 + idx)
        mom = cg.sample_joint_counts(st, geo, "momentum", 1e6, seed=2000 + idx)
        wids = ("coarse_variance", "coarse_entropic")
        grid = cg.sweep_grid(pos, mom, factors, factors, pairings=("pm",), witness_ids=wids)
        for wid in wids:
            values, _ = grid["pm", wid]
            detected = [n for i, n in enumerate(factors) if values[i, i] < 0]
            max_detect[(ratio, wid)] = max(detected) if detected else 0
    at_four = (
        max_detect[(4.0, "coarse_entropic")] >= max_detect[(4.0, "coarse_variance")]
    )
    strict = any(
        max_detect[(r, "coarse_entropic")] > max_detect[(r, "coarse_variance")]
        for r in (2.0, 4.0, 8.0)
    )
    summary = ", ".join(
        f"ratio {r:g}: entropic n<={max_detect[(r, 'coarse_entropic')]} vs "
        f"variance n<={max_detect[(r, 'coarse_variance')]}"
        for r in (2.0, 4.0, 8.0)
    )
    ok = at_four and strict
    assert _report(6, ok, summary)


def test_criterion_7_bound_self_certification():
    gammas = np.logspace(-3.0, 2.0, 200)
    worst_dr = 0.0
    values = []
    for g in gammas:
        c = g / 8.0
        sol = cg.characteristic_solution(c)
        series = cg.radial_first_kind(sol)
        reference = radial_first_kind_specfun(c)
        worst_dr = max(worst_dr, abs(series - reference))
        values.append(cg.entropic_bound_constant(g))
    values = np.asarray(values)

    positive = bool(np.all(values > 0.0))
    bounded = bool(np.all(values <= FLAT * (1.0 + 1e-12)))
    on_flat = values >= FLAT * (1.0 - 1e-9)
    initial_flat = bool(on_flat[0])
    switches = int(np.count_nonzero(on_flat[:-1] != on_flat[1:]))
    rel_steps = np.abs(np.diff(values)) / values[:-1]
    continuous = bool(np.max(rel_steps) < 0.07)
    c0 = cg.entropic_bound_constant(0.0)
    zero_ok = abs(c0 - 0.0585498) < 5e-8

    ok = (
        worst_dr < 1e-8
        and positive
        and bounded
        and initial_flat
        and switches == 1
        and continuous
        and zero_ok
    )
    assert _report(
        7,
        ok,
        f"series vs specfun max |dR| {worst_dr:.2e}; one branch switch; "
        f"C(0) = {c0:.7f}",
    )


def test_criterion_8_statistical_scaling():
    geo = cg.OpticalGeometry()
    st = cg.GaussianTwoPhotonState(10.0, 2.5)
    em = cg.ErrorModel(center_jitter=False, replicates=1000, seed=7)
    stderr = {}
    for scale, seeds in ((1e4, (21, 22)), (1e6, (23, 24))):
        pos = cg.sample_joint_counts(st, geo, "position", scale, seed=seeds[0])
        mom = cg.sample_joint_counts(st, geo, "momentum", scale, seed=seeds[1])
        grid = cg.sweep_grid(
            pos, mom, [5], [5], em, pairings=("pm",), witness_ids=("coarse_variance",)
        )
        stderr[scale] = grid["pm", "coarse_variance"][1][0, 0]
    ratio = stderr[1e4] / stderr[1e6]
    ok = 8.0 <= ratio <= 12.0
    assert _report(
        8, ok, f"uncertainty shrank by {ratio:.2f}x for 100x counts (expect ~10x)"
    )


def test_criterion_9_determinism(tmp_path):
    from cgwitness.cli import main

    artifacts = []
    for run in ("one", "two"):
        prefix = tmp_path / f"{run}_scan"
        assert (
            main(
                [
                    "simulate",
                    "--sigma-plus", "10",
                    "--sigma-minus", "2.5",
                    "--total-counts", "500000",
                    "--seed", "123",
                    "--output-prefix", str(prefix),
                ]
            )
            == 0
        )
        sweep_out = tmp_path / f"{run}_sweep.csv"
        assert (
            main(
                [
                    "sweep",
                    str(prefix) + "_position.txt",
                    str(prefix) + "_momentum.txt",
                    "--n-list", "1,3,5",
                    "--m-list", "1,3,5",
                    "--errors", "on",
                    "--replicates", "150",
                    "--seed", "77",
                    "--output", str(sweep_out),
                ]
            )
            == 0
        )
        artifacts.append(
            (
                (tmp_path / f"{run}_scan_position.txt").read_bytes(),
                (tmp_path / f"{run}_scan_momentum.txt").read_bytes(),
                sweep_out.read_bytes(),
            )
        )
    ok = artifacts[0] == artifacts[1]
    assert _report(
        9, ok, "simulate + sweep outputs byte-identical across two seeded runs"
    )
