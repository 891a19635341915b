import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecs import model


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestSparseSignal:
    def test_sparsity(self):
        x = model.gen_sparse_signal(model.substream(1), 32, 4)
        assert x.shape == (32,)
        assert np.count_nonzero(x) == 4

    def test_dense_when_k_equals_n(self):
        x = model.gen_sparse_signal(rng_for(9), 5, 5)
        assert np.count_nonzero(x) == 5

    def test_deterministic(self):
        a = model.gen_sparse_signal(model.substream(7, 3), 16, 3)
        b = model.gen_sparse_signal(model.substream(7, 3), 16, 3)
        assert np.array_equal(a, b)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            model.gen_sparse_signal(rng_for(), 4, 5)


class TestCompressibleSignal:
    def test_magnitude_profile(self):
        x = model.gen_compressible_signal(32, 4.5, rng_for(2))
        mags = np.sort(np.abs(x))[::-1]
        expected = np.arange(1, 33, dtype=float) ** -4.5
        assert np.allclose(mags, expected)

    def test_second_magnitude(self):
        x = model.gen_compressible_signal(32, 4.5, rng_for(3))
        mags = np.sort(np.abs(x))[::-1]
        assert abs(mags[1] - 0.044194) <= 1e-6

    def test_single_entry(self):
        x = model.gen_compressible_signal(1, 2.0, rng_for(4))
        assert x.shape == (1,)
        assert abs(abs(x[0]) - 1.0) <= 1e-15

    def test_strictly_decreasing(self):
        x = model.gen_compressible_signal(20, 0.7, rng_for(5))
        mags = np.sort(np.abs(x))[::-1]
        assert np.all(np.diff(mags) < 0)


class TestBestKSupport:
    def test_basic(self):
        assert model.best_k_support(np.array([3.0, -5.0, 1.0]), 2).tolist() == [0, 1]

    def test_full(self):
        assert model.best_k_support(np.array([1.0, 2.0]), 2).tolist() == [0, 1]

    def test_tie_lowest_index(self):
        x = np.array([0.0, 2.0, -2.0, 1.0])
        assert model.best_k_support(x, 1).tolist() == [1]


class TestSupportEstimate:
    def test_overlap_counts(self):
        rng = rng_for(11)
        t0 = np.array([1, 5, 9, 13])
        est = model.gen_support_estimate(rng, t0, 32, 4, 1.0, 0.75, 0.5)
        assert len(est.indices) == 4
        assert len(set(est.indices) & set(t0.tolist())) == 3

    def test_alpha_one_reproduces_t0(self):
        t0 = np.array([0, 2, 4, 6])
        est = model.gen_support_estimate(rng_for(1), t0, 16, 4, 1.0, 1.0, 0.5)
        assert sorted(est.indices) == t0.tolist()

    def test_alpha_zero_disjoint(self):
        t0 = np.array([0, 2, 4, 6])
        est = model.gen_support_estimate(rng_for(1), t0, 16, 4, 1.0, 0.0, 0.5)
        assert not set(est.indices) & set(t0.tolist())

    def test_realized_alpha(self):
        rng = rng_for(21)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            t0 = model.best_k_support(model.gen_sparse_signal(rng, 32, 4), 4)
            est = model.gen_support_estimate(rng, t0, 32, 4, 1.0, alpha, 0.3)
            realized = len(set(est.indices) & set(t0.tolist())) / len(est.indices)
            target = math.floor(alpha * 4 + 0.5) / 4
            assert abs(realized - target) <= 1e-12

    def test_infeasible_raises(self):
        t0 = np.array([0, 1, 2, 3])
        with pytest.raises(ValueError):
            model.gen_support_estimate(rng_for(0), t0, 5, 4, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("n, k, rho, alpha, sizes", [
        (32, 4, 1.0, 0.75, (3, 1)), (16, 4, 1.5, 0.5, (3, 3)), (8, 3, 1.0, 0.5, (2, 1)),
    ])
    def test_sizes_round_half_up(self, n, k, rho, alpha, sizes):
        assert model.support_estimate_sizes(n, k, rho, alpha) == sizes

    @pytest.mark.parametrize("n, k, rho, alpha", [(5, 4, 1.0, 0.0), (8, 4, 2.0, 1.0)])
    def test_infeasible_sizes_raise(self, n, k, rho, alpha):
        with pytest.raises(ValueError, match="infeasible"):
            model.support_estimate_sizes(n, k, rho, alpha)

    @pytest.mark.parametrize("rho, alpha, name", [
        (math.nan, 0.5, "rho"), (-1.0, 0.5, "rho"), (math.inf, 0.5, "rho"),
        (1.0, math.nan, "alpha"), (1.0, -0.5, "alpha"), (1.0, 1.1, "alpha"),
    ])
    def test_bad_rho_or_alpha_raise(self, rho, alpha, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            model.support_estimate_sizes(16, 2, rho, alpha)

    @pytest.mark.parametrize("sigma, omega, name", [
        (-0.3, 0.5, "sigma"), (math.nan, 0.5, "sigma"), (math.inf, 0.5, "sigma"),
        (0.0, -0.5, "omega"), (0.0, math.nan, "omega"), (0.0, math.inf, "omega"),
    ])
    def test_bad_sigma_or_omega_raise(self, sigma, omega, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
            model.draw_trial(rng_for(5), "sparse", 16, 2, 20, 1.0, 0.5, omega, sigma)

    def test_weights_pattern(self):
        est = model.SupportEstimate(indices=(1, 3), omega=0.4, rho=1.0, alpha=1.0)
        assert np.allclose(est.weights(5), [1.0, 0.4, 1.0, 0.4, 1.0])


class TestDrawTrial:
    def test_sparse_ignores_theta(self):
        plain, est = model.draw_trial(rng_for(5), "sparse", 16, 3, 20, 1.0, 0.5, 0.3, 0.0)
        tilted, est_theta = model.draw_trial(rng_for(5), "sparse", 16, 3, 20, 1.0, 0.5, 0.3,
                                             0.0, theta=4.5)
        assert np.count_nonzero(plain.x) == 3
        assert np.array_equal(plain.x, tilted.x) and np.array_equal(plain.A, tilted.A)
        assert est == est_theta

    def test_noise_is_drawn_last(self):
        # trials that differ only in sigma share signal, estimate and matrix
        draw = lambda sigma: model.draw_trial(rng_for(6), "compressible", 16, 4, 24, 1.0,
                                              0.75, 0.5, sigma, theta=4.5)
        (clean, est_clean), (noisy, est_noisy) = draw(0.0), draw(0.1)
        assert np.array_equal(clean.x, noisy.x) and np.array_equal(clean.A, noisy.A)
        assert est_clean == est_noisy
        assert clean.epsilon == 0.0 < noisy.epsilon

    def test_estimate_against_best_k_support(self):
        inst, est = model.draw_trial(rng_for(7), "compressible", 16, 4, 24, 1.0, 1.0, 0.5,
                                     0.0, theta=2.0)
        assert list(est.indices) == model.best_k_support(inst.x, 4).tolist()
        assert inst.A.shape == (24, 16) and est.omega == 0.5

    @pytest.mark.parametrize("signal", ["dense", "compressible"])
    def test_bad_signal_rejected(self, signal):
        # a compressible trial needs theta
        with pytest.raises(ValueError):
            model.draw_trial(rng_for(0), signal, 8, 2, 10, 1.0, 0.5, 0.5, 0.0)


class TestGaussianMatrix:
    def test_column_energy(self):
        a = model.gen_gaussian_matrix(rng_for(33), 40, 32)
        assert a.shape == (40, 32)
        mean_sq = np.mean(np.sum(a * a, axis=0))
        assert 0.5 <= mean_sq <= 1.5

    def test_reproducible(self):
        a = model.gen_gaussian_matrix(rng_for(8), 5, 4)
        b = model.gen_gaussian_matrix(rng_for(8), 5, 4)
        assert np.array_equal(a, b)

    def test_scalar(self):
        assert model.gen_gaussian_matrix(rng_for(0), 1, 1).shape == (1, 1)


class TestMakeInstance:
    def test_noise_free(self):
        a = model.gen_gaussian_matrix(rng_for(3), 6, 4)
        x = np.array([1.0, 0.0, -2.0, 0.0])
        inst = model.make_instance(a, x, 0.0, rng_for(0))
        assert np.array_equal(inst.b, (a @ x) ** 2)
        assert inst.epsilon == 0.0

    def test_noise_norm_band(self):
        # chi-square quantile oracle for ||e||: sigma * sqrt(chi2(m))
        from scipy import stats

        lo, hi = 0.1 * np.sqrt(stats.chi2.ppf([1e-12, 1 - 1e-12], df=40))
        inst = model.make_instance(
            model.gen_gaussian_matrix(rng_for(4), 40, 16),
            model.gen_sparse_signal(rng_for(5), 16, 2),
            0.1,
            rng_for(6),
        )
        assert lo <= inst.epsilon <= hi

    def test_zero_signal(self):
        a = model.gen_gaussian_matrix(rng_for(7), 5, 3)
        inst = model.make_instance(a, np.zeros(3), 0.5, rng_for(8))
        assert np.array_equal(inst.b, inst.e)

    def test_signal_part_nonnegative(self):
        a = model.gen_gaussian_matrix(rng_for(9), 8, 4)
        x = model.gen_sparse_signal(rng_for(10), 4, 2)
        inst = model.make_instance(a, x, 0.3, rng_for(11))
        assert np.all(inst.b - inst.e >= 0)


class TestSnr:
    def test_exact_recovery_inf(self):
        x = np.array([1.0, 2.0])
        assert model.snr_db(x, x) == math.inf
        assert model.snr_db(x, -x) == math.inf

    def test_zero_estimate(self):
        x = np.array([3.0, 4.0])
        assert abs(model.snr_db(x, np.zeros(2))) <= 1e-12

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            model.snr_db(np.zeros(2), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    def test_sign_invariance(self, values):
        xhat = np.asarray(values)
        x = np.ones_like(xhat)
        assert model.snr_db(x, xhat) == model.snr_db(x, -xhat)


class TestNorms:
    def test_weighted_l1(self):
        assert model.weighted_l1(np.array([1.0, -2.0]), np.array([1.0, 1.0])) == 3.0
        assert model.weighted_l1(np.array([5.0, -2.0]), np.array([0.0, 1.0])) == 2.0
        assert model.weighted_l1(np.array([2.0, 1.0]), np.array([0.5, 1.0])) == 2.0

    def test_tail_norms_sparse(self):
        x = np.array([1.0, 0.0, 2.0, 0.0])
        assert model.tail_norms(x, [0, 2], [0, 2]) == (0.0, 0.0)

    def test_tail_norms_mixed(self):
        x = np.ones(3)
        tails = model.tail_norms(x, [0], [1])
        assert tails == (2.0, 1.0)

    def test_tail_norms_compressible(self):
        mags = np.arange(1, 9, dtype=float) ** -4.5
        expected = float(mags[4:].sum())
        tails = model.tail_norms(mags, range(4), range(4))
        assert np.allclose(tails, (expected, expected))


def _canonical_sign_loop(z):
    # the first significant entry found by a scan, as a reference
    scale = np.abs(z).max() if z.size else 0.0
    for zi in z:
        if abs(zi) > 1e-12 * scale:
            return -z if zi < 0 else z
    return z


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 1.0, -1.0, 2.5, -3e-7, math.nan, math.inf]),
                max_size=6))
def test_canonical_sign_matches_a_scan(values):
    z = np.array(values, dtype=float)
    assert model.canonical_sign(z).tobytes() == _canonical_sign_loop(z).tobytes()


def test_substream_independence():
    a = model.substream(10, 1).standard_normal(4)
    b = model.substream(10, 2).standard_normal(4)
    assert not np.allclose(a, b)
    assert model.derived_seed(10, 1, 2) == model.derived_seed(10, 1, 2)
    assert model.derived_seed(10, 1, 2) != model.derived_seed(10, 2, 1)
