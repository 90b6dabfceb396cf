import numpy as np
import pytest

from cgwitness._kernels import batch_entropy, batch_weighted_moments


def _random_batch(seed, rows=64, cols=257):
    rng = np.random.default_rng(seed)
    w = rng.gamma(0.5, size=(rows, cols))
    w[rng.random(size=w.shape) < 0.1] = 0.0  # exercise the 0 ln 0 branch
    w[:, 0] += 1e-9  # keep every row total positive
    x = np.linspace(-3.0, 8.0, cols)
    xb = x + rng.normal(0.0, 0.01, size=(rows, cols))
    return w, x, xb


class TestBatchReductions:
    def test_moments_match_plain_numpy(self):
        w, x, _ = _random_batch(1)
        means, variances = batch_weighted_moments(w, x, totals=w.sum(axis=1))
        for b in range(w.shape[0]):
            mu = np.average(x, weights=w[b])
            var = np.average((x - mu) ** 2, weights=w[b])
            assert means[b] == pytest.approx(mu, rel=1e-12)
            assert variances[b] == pytest.approx(var, rel=1e-12)

    def test_per_row_centers_match_plain_numpy(self):
        w, _, xb = _random_batch(4)
        means, variances = batch_weighted_moments(w, xb, totals=w.sum(axis=1))
        for b in range(w.shape[0]):
            mu = np.average(xb[b], weights=w[b])
            var = np.average((xb[b] - mu) ** 2, weights=w[b])
            assert means[b] == pytest.approx(mu, rel=1e-12)
            assert variances[b] == pytest.approx(var, rel=1e-12)

    def test_entropy_matches_direct_formula(self):
        w, _, _ = _random_batch(2)
        ent = batch_entropy(w, totals=w.sum(axis=1))
        for b in range(w.shape[0]):
            q = w[b] / w[b].sum()
            q = q[q > 0]
            assert ent[b] == pytest.approx(-(q * np.log(q)).sum(), rel=1e-12)

    def test_zero_total_row_gives_nan_and_leaves_the_others(self):
        w, x, xb = _random_batch(5, rows=9)
        w[3] = 0.0
        others = np.arange(w.shape[0]) != 3
        for centers, centers_alone in ((x, x), (xb, xb[others])):
            with np.errstate(invalid="ignore", divide="ignore"):
                stats = (
                    *batch_weighted_moments(w, centers, totals=w.sum(axis=1)),
                    batch_entropy(w, totals=w.sum(axis=1)),
                )
            alone = (
                *batch_weighted_moments(w[others], centers_alone, totals=w[others].sum(axis=1)),
                batch_entropy(w[others], totals=w[others].sum(axis=1)),
            )
            for got, want in zip(stats, alone):
                assert np.isnan(got[3])
                assert np.array_equal(got[others], want)

    def test_shape_mismatch_rejected(self):
        w, x, _ = _random_batch(6)
        with pytest.raises(ValueError):
            batch_weighted_moments(w, x[:-1], totals=w.sum(axis=1))


class TestOutputShapes:
    def test_package_level_functions_work(self):
        w, x, _ = _random_batch(7, rows=3, cols=11)
        means, variances = batch_weighted_moments(w, x, totals=w.sum(axis=1))
        assert means.shape == (3,) and variances.shape == (3,)
        assert batch_entropy(w, totals=w.sum(axis=1)).shape == (3,)
