import math
import warnings

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    HyperParams,
    apply_estimator,
    fit_asus,
    fit_group_threshold,
    loss,
    partition,
    soft_estimate,
    sure,
    universal_threshold,
)


def make_batch(rng, n, k_sigma=True):
    y = rng.normal(0, 2, n)
    sigma = rng.uniform(0.5, 2.0, n) if k_sigma else np.ones(n)
    s = rng.normal(0, 1, n)
    return DataBatch(y=y, sigma=sigma, s=s)


class TestUniversalThreshold:
    def test_n_one_is_zero(self):
        assert universal_threshold(1) == 0.0

    def test_high_precision_value(self):
        assert universal_threshold(10000) == pytest.approx(
            4.291932052578694, rel=1e-12
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            universal_threshold(0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, True, 2.5, 5000.0])
    def test_n_that_is_not_a_count_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer of at least 1, not {n!r}$"):
            universal_threshold(n)

    def test_bounds_reported_fits_at_n5000(self):
        # fitted thresholds near 4.11 must stay below the search cap
        t_n = universal_threshold(5000)
        assert t_n == pytest.approx(4.12727348049926, rel=1e-12)
        assert t_n > 4.114


class TestSoftEstimate:
    def test_zeroes_inside_threshold(self):
        assert soft_estimate(0.5, 1.0, 1.0) == 0.0

    def test_shrinks_by_t_with_sign_symmetry(self):
        assert soft_estimate(3.0, 1.0, 1.0) == 2.0
        assert soft_estimate(-3.0, 1.0, 1.0) == -2.0

    def test_sigma_scales_the_shrink(self):
        assert soft_estimate(3.0, 2.0, 1.0) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            soft_estimate(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            soft_estimate(1.0, 1.0, -0.5)

    def test_zeroed_rows_do_not_overflow(self):
        """sigma * t overflows at sigma = 1e10, t = 1e300, but the row is zeroed."""
        b = DataBatch(y=[1.0, -2.0], sigma=[1e10, 1e10], s=[0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert soft_estimate(1.0, 1e10, 1e300) == 0.0
            hp = HyperParams(tau=np.empty(0), t=np.array([1e300]))
            np.testing.assert_array_equal(apply_estimator(b, hp), [0.0, 0.0])

    def test_rejects_what_a_batch_rejects(self):
        """|y|/sigma overflows at y = 1e300, sigma = 1e-10, with no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\(\|y\|/sigma\)\^2 is not finite: inf$"):
                soft_estimate(1e300, 1e-10, 1.0)
            with pytest.raises(ValueError, match=r"^\(\|y\|/sigma\)\^2 is not finite at "
                                                 r"index 1: inf$"):
                soft_estimate([1.0, 1e300], 1e-10, 1.0)

    def test_shrinkage_and_sign_properties(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 3, 500)
        sigma = rng.uniform(0.2, 2.5, 500)
        t = rng.uniform(0, 3)
        out = soft_estimate(y, sigma, t)
        assert np.all(np.abs(out) <= np.abs(y) + 1e-15)
        nz = out != 0
        assert np.all(np.sign(out[nz]) == np.sign(y[nz]))


class TestPartition:
    def test_single_group(self):
        g = partition([1.0, 2.0, 3.0], [])
        assert list(g.assignment) == [0, 0, 0]
        assert list(g.sizes) == [3]

    def test_boundary_goes_to_lower_group(self):
        g = partition([1.0, 2.0, 3.0], [2.0])
        assert list(g.assignment) == [0, 0, 1]
        assert list(g.sizes) == [2, 1]

    def test_sizes_by_enumeration(self):
        g = partition([5.0, 0.0, 5.0, 0.0], [1.0])
        assert list(g.sizes) == [2, 2]

    def test_rejects_unsorted_tau(self):
        with pytest.raises(ValueError):
            partition([1.0, 2.0], [3.0, 1.0])

    def test_completeness_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 200)
            s = rng.normal(0, 2, n)
            k = int(rng.integers(1, 5))
            tau = np.sort(rng.normal(0, 2, k - 1)) if k > 1 else np.empty(0)
            if len(np.unique(tau)) != len(tau):
                continue
            g = partition(s, tau)
            assert g.sizes.sum() == n
            assert np.all((g.assignment >= 0) & (g.assignment < k))
            for j in range(k):
                assert g.sizes[j] == np.sum(g.assignment == j)


class TestSure:
    def test_zero_threshold_equals_noise_variance(self):
        b = DataBatch(y=[2.0], sigma=[1.0], s=[0.0])
        hp = HyperParams(tau=[], t=[0.0])
        assert sure(b, hp) == pytest.approx(1.0)

    def test_full_shrink_single_point(self):
        b = DataBatch(y=[2.0], sigma=[1.0], s=[0.0])
        for t in (2.0, 3.0):
            assert sure(b, HyperParams(tau=[], t=[t])) == pytest.approx(3.0)

    def test_group_additivity(self):
        rng = np.random.default_rng(23)
        b = make_batch(rng, 300)
        hp = HyperParams(tau=[-0.5, 0.7], t=[0.3, 1.1, 2.0])
        total = sure(b, hp)
        # rebuild from group-restricted terms
        z = np.abs(b.y) / b.sigma
        s2 = b.sigma**2
        g = partition(b.s, hp.tau)
        acc = s2.sum()
        for k in range(3):
            m = g.assignment == k
            acc += np.sum(
                s2[m] * np.minimum(z[m], hp.t[k]) ** 2 - 2 * s2[m] * (z[m] <= hp.t[k])
            )
        assert total == pytest.approx(acc / b.n, rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(29)
        b = make_batch(rng, 120)
        hp = HyperParams(tau=[0.0], t=[0.4, 1.7])
        c = 3.7
        scaled = DataBatch(y=c * b.y, sigma=c * b.sigma, s=b.s)
        assert sure(scaled, hp) == pytest.approx(c * c * sure(b, hp), rel=1e-12)
        est = apply_estimator(b, hp)
        est_scaled = apply_estimator(scaled, hp)
        np.testing.assert_allclose(est_scaled, c * est, rtol=1e-12, atol=1e-14)

    def test_overflow_is_named(self):
        """sigma = 1e160 squares to inf, and so does z of y = 1e160 (sigma 1),
        which a threshold above it would leave in the sum: the batch is
        rejected, naming the square and the row, before SURE is taken."""
        y, sigma = np.ones(4), np.ones(4)
        y[2] = sigma[2] = 1e160
        huge = dict(y=y, sigma=sigma, s=np.arange(4.0))
        wide = dict(y=[1e160, 1.0], sigma=[1.0, 1.0], s=[0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch, t, what in ((huge, 1.0, r"sigma\^2 is not finite at index 2"),
                                   (wide, 1e200, r"\(\|y\|/sigma\)\^2 is not finite at index 0")):
                with pytest.raises(ValueError, match=f"^{what}: inf$"):
                    sure(DataBatch(**batch), HyperParams(tau=[], t=[t]))


class TestLoss:
    def test_identical_is_zero(self):
        assert loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offsets(self):
        assert loss([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        assert loss([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(14.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss([1.0], [1.0, 2.0])

    def test_overflow_is_named(self):
        # each entry is finite, the square of 1e160 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the loss overflows"):
                loss([0.0, 0.0], [1e160, 1.0])
            with pytest.raises(ValueError, match="^the loss overflows"):
                loss([-1e308, 0.0], [1e308, 0.0])  # the difference overflows too

    def test_fit_whose_loss_overflows_is_named(self):
        # the fit would keep y = 1e160 (far above t_n), and its realized loss
        # would overflow; the batch names the row first
        b = make_batch(np.random.default_rng(41), 200)
        y = b.y.copy()
        y[3] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\(\|y\|/sigma\)\^2 is not finite at "
                                                 r"index 3: "):
                fit_asus(DataBatch(y=y, sigma=b.sigma, s=b.s, theta=np.zeros(200)))


class TestApplyEstimator:
    def test_identity_at_zero_threshold(self):
        rng = np.random.default_rng(31)
        b = make_batch(rng, 50)
        hp = HyperParams(tau=[], t=[0.0])
        np.testing.assert_array_equal(apply_estimator(b, hp), b.y)

    def test_universal_threshold_kills_small_data(self):
        rng = np.random.default_rng(37)
        n = 100
        y = rng.normal(0, 0.5, n)
        b = DataBatch(y=y, sigma=np.ones(n), s=rng.normal(0, 1, n))
        t_n = universal_threshold(n)
        assert np.abs(y).max() < t_n
        hp = HyperParams(tau=[], t=[t_n])
        np.testing.assert_array_equal(apply_estimator(b, hp), np.zeros(n))

    def test_two_group_composition(self):
        y = np.array([1.0, 1.0, 4.0, 4.0])
        s = np.array([0.0, 0.0, 10.0, 10.0])
        b = DataBatch(y=y, sigma=np.ones(4), s=s)
        t_n = universal_threshold(4)
        hp = HyperParams(tau=[5.0], t=[t_n, 0.0])
        out = apply_estimator(b, hp)
        np.testing.assert_allclose(out, [0.0, 0.0, 4.0, 4.0])
        for i in range(4):
            expected = soft_estimate(y[i], 1.0, hp.t[0] if s[i] <= 5 else hp.t[1])
            assert out[i] == expected

    def test_shrinkage_everywhere(self):
        rng = np.random.default_rng(41)
        b = make_batch(rng, 200)
        hp = HyperParams(tau=[-0.3], t=[0.9, 2.2])
        out = apply_estimator(b, hp)
        assert np.all(np.abs(out) <= np.abs(b.y) + 1e-15)


class TestValidation:
    def test_batch_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            DataBatch(y=[1.0], sigma=[0.0], s=[1.0])

    def test_batch_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DataBatch(y=[1.0, 2.0], sigma=[1.0], s=[1.0, 2.0])
        with pytest.raises(ValueError):
            DataBatch(y=[1.0], sigma=[1.0], s=[1.0], theta=[1.0, 2.0])

    @pytest.mark.parametrize("field", ["y", "sigma", "s", "theta", "xi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_rejects_non_finite_value_naming_field_and_index(self, field, bad):
        fields = {name: np.ones(5) for name in ("y", "sigma", "s", "theta", "xi")}
        fields[field][3] = bad
        with pytest.raises(ValueError, match=rf"^{field} is not finite at index 3: "):
            DataBatch(**fields)

    @pytest.mark.parametrize("sigma, message", [
        ([1.0, 0.0, -2.0], "sigma is not positive at index 1: 0.0"),
        ([-0.5, 1.0, 1.0], "sigma is not positive at index 0: -0.5"),
    ])
    def test_batch_names_the_first_nonpositive_sigma(self, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DataBatch(y=np.ones(3), sigma=sigma, s=np.arange(3.0))

    @pytest.mark.parametrize("sigma, message", [
        (0.0, "sigma is not positive: 0.0"),
        ([1.0, 2.0, -1.0], "sigma is not positive at index 2: -1.0"),
        ([[1.0, 0.0]], r"sigma is not positive at index \(0, 1\): 0.0"),
    ])
    def test_soft_estimate_names_the_first_nonpositive_sigma(self, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            soft_estimate(1.0, sigma, 0.5)

    def test_group_threshold_names_the_first_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="^sigma is not positive at index 1: 0.0$"):
            fit_group_threshold([0.5, 1.0, 2.0], [1.0, 0.0, 0.0], 100)

    def test_batch_reports_first_non_finite_index(self):
        with pytest.raises(ValueError, match="index 1:"):
            DataBatch(y=[0.0, np.nan, np.inf], sigma=np.ones(3), s=np.ones(3))

    @pytest.mark.parametrize("tau, t, message", [
        ([np.nan], [1.0, 1.0], "tau is not finite at index 0: nan"),
        ([1.0], [1.0, np.nan], "t is not finite at index 1: nan"),
        ([0.0, np.inf], [1.0, 1.0, 1.0], "tau is not finite at index 1: inf"),
    ])
    def test_hyperparams_reject_non_finite_values(self, tau, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HyperParams(tau=tau, t=t)

    def test_partition_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="^tau is not finite at index 0: nan$"):
            partition([0.0, 1.0], [np.nan])
        with pytest.raises(ValueError, match="^s is not finite at index 1: nan$"):
            partition([0.0, np.nan], [0.5])

    def test_hyperparams_reject_bad_shapes(self):
        with pytest.raises(ValueError):
            HyperParams(tau=[1.0], t=[0.5])  # tau must be K-1 long
        with pytest.raises(ValueError):
            HyperParams(tau=[2.0, 1.0], t=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            HyperParams(tau=[], t=[-0.1])


def test_sure_is_unbiased_for_fixed_groups():
    """Monte Carlo check: mean SURE matches mean loss when the auxiliary
    sequence is independent of the noise (small, fast version; the
    acceptance suite runs the full battery)."""
    rng = np.random.default_rng(2024)
    n, reps = 40, 20000
    theta = np.where(rng.random(n) < 0.3, rng.normal(2, 1, n), 0.0)
    sigma = rng.uniform(0.6, 1.6, n)
    hp = HyperParams(tau=[0.5], t=[1.0, 2.4])
    eps = rng.standard_normal((reps, n))
    y = theta + sigma * eps
    s = rng.normal(theta, 1.0, (reps, n))  # independent of eps
    z = np.abs(y) / sigma
    assign = (s > hp.tau[0]).astype(int)
    t_per = hp.t[assign]
    s2 = sigma**2
    sure_r = (s2.sum() + (s2 * np.minimum(z, t_per) ** 2 - 2 * s2 * (z <= t_per)).sum(axis=1)) / n
    est = np.where(z <= t_per, 0.0, y - sigma * t_per * np.sign(y))
    loss_r = ((est - theta) ** 2).mean(axis=1)
    d = sure_r - loss_r
    se = d.std(ddof=1) / math.sqrt(reps)
    assert abs(d.mean()) <= 4 * se
