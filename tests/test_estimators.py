import dataclasses
import re
import warnings

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    fit_auxscr,
    fit_ejs,
    fit_oracle_loss,
    fit_oracle_side,
    fit_sureshrink,
    generate,
    universal_threshold,
)
from auxshrink.estimators import xi_split_candidates
from auxshrink.sim import ESTIMATORS, _SideOracleAccumulator
from test_tuner import sigma_overflow_batch


def signal_batch(rng, n=500, n_sig=100, amp=5.0, inverted_aux=False):
    """Sparse batch whose aux magnitude tracks (or anti-tracks) the signals."""
    theta = np.zeros(n)
    theta[:n_sig] = amp + rng.normal(0, 0.1, n_sig)
    sigma = np.ones(n)
    y = theta + rng.standard_normal(n)
    if inverted_aux:
        s = np.where(theta != 0, np.abs(rng.normal(0.2, 0.2, n)), 5.0 + rng.normal(0, 0.3, n))
    else:
        s = np.abs(theta + rng.normal(0, 0.3, n))
    return DataBatch(y=y, sigma=sigma, s=s, theta=theta, xi=theta.copy())


class TestAuxScr:
    def test_screened_group_is_exactly_zero(self):
        rng = np.random.default_rng(61)
        b = signal_batch(rng)
        r = fit_auxscr(b)
        screened = np.abs(b.s) <= r.hp.tau[0]
        assert r.group_sizes[0] == screened.sum()
        np.testing.assert_array_equal(r.theta_hat[screened], 0.0)

    def test_inverted_aux_reduces_to_sureshrink(self):
        # when small |S| marks the signals, screening anything hurts, so the
        # fit keeps group 1 empty and equals the plain pooled fit
        rng = np.random.default_rng(67)
        b = signal_batch(rng, inverted_aux=True)
        r = fit_auxscr(b)
        ss = fit_sureshrink(b)  # hybrid does not fire: 20% strong signals
        assert r.group_sizes[0] == 0
        assert r.hp.t[1] == ss.hp.t[0]
        np.testing.assert_array_equal(r.theta_hat, ss.theta_hat)

    def test_perfect_aux_matches_asus(self):
        rng = np.random.default_rng(71)
        b = signal_batch(rng, n=800, n_sig=120)
        r_scr = fit_auxscr(b)
        r_asus = fit_asus(b, SearchConfig(k=2))
        assert r_scr.loss_value <= 1.2 * r_asus.loss_value

    def test_screen_everything_candidate_is_legal(self):
        # all-noise batch: zeroing everything must be on the search path
        rng = np.random.default_rng(73)
        n = 300
        b = DataBatch(
            y=0.1 * rng.standard_normal(n),
            sigma=np.ones(n),
            s=np.abs(rng.normal(0, 1, n)),
            theta=np.zeros(n),
        )
        r = fit_auxscr(b)
        assert r.group_sizes.sum() == n
        np.testing.assert_array_equal(r.theta_hat, 0.0)

    def test_sure_value_matches_definition(self):
        rng = np.random.default_rng(79)
        b = signal_batch(rng)
        r = fit_auxscr(b)
        z = np.abs(b.y) / b.sigma
        s2 = b.sigma**2
        t_per = np.where(np.abs(b.s) <= r.hp.tau[0], r.hp.t[0], r.hp.t[1])
        val = (s2.sum() + (s2 * np.minimum(z, t_per) ** 2 - 2 * s2 * (z <= t_per)).sum()) / b.n
        assert r.sure_value == pytest.approx(val, rel=1e-12)


class TestOracleLoss:
    def test_noiseless_data_reaches_zero_loss(self):
        rng = np.random.default_rng(83)
        theta = rng.normal(0, 2, 60)
        b = DataBatch(
            y=theta.copy(), sigma=np.ones(60), s=rng.normal(0, 1, 60), theta=theta
        )
        r = fit_oracle_loss(b, SearchConfig(k=2, mn_factor=3))
        assert r.loss_value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(r.hp.t, 0.0)

    def test_dominates_sure_fits_on_same_grid(self):
        rng = np.random.default_rng(89)
        for _ in range(8):
            n = int(rng.integers(60, 200))
            theta = np.where(rng.random(n) < 0.3, rng.normal(0, 3, n), 0.0)
            sigma = rng.uniform(0.5, 1.5, n)
            b = DataBatch(
                y=theta + sigma * rng.standard_normal(n),
                sigma=sigma,
                s=np.abs(theta) + rng.normal(0, 0.5, n),
                theta=theta,
            )
            cfg = SearchConfig(k=2, mn_factor=6)
            ol = fit_oracle_loss(b, cfg)
            asus = fit_asus(b, cfg)
            ss = fit_sureshrink(b)
            assert ol.loss_value <= asus.loss_value + 1e-12
            assert ol.loss_value <= ss.loss_value + 1e-12

    def test_requires_theta(self):
        b = DataBatch(y=[1.0, 2.0], sigma=[1.0, 1.0], s=[0.0, 1.0])
        with pytest.raises(ValueError):
            fit_oracle_loss(b)


class TestOracleSide:
    def test_binary_latent_splits_at_midpoint(self):
        rng = np.random.default_rng(97)
        n = 400
        xi = np.where(rng.random(n) < 0.3, 4.0, 0.0)
        theta = xi.copy()
        b = DataBatch(
            y=theta + rng.standard_normal(n),
            sigma=np.ones(n),
            s=np.abs(xi + rng.normal(0, 1, n)),
            theta=theta,
            xi=xi,
        )
        r = fit_oracle_side(b)
        assert r.hp.tau[0] == pytest.approx(2.0)
        assert r.group_sizes[0] == (xi == 0).sum()

    def test_noiseless_aux_beats_asus_on_average(self):
        rng = np.random.default_rng(101)
        gaps = []
        for _ in range(6):
            b = signal_batch(rng, n=600, n_sig=90)
            oracle = fit_oracle_side(b)
            asus = fit_asus(b, SearchConfig(k=2, mn_factor=10))
            gaps.append(asus.loss_value - oracle.loss_value)
        assert np.mean(gaps) > -0.01

    def test_requires_latents(self):
        b = DataBatch(y=[1.0], sigma=[1.0], s=[1.0])
        with pytest.raises(ValueError):
            fit_oracle_side(b)

    def test_constant_latent_sequence_rejected(self):
        # a constant xi has no split point; it used to give a 2-group fit
        # with an empty upper group
        rng = np.random.default_rng(103)
        n = 200
        b = DataBatch(y=rng.standard_normal(n), sigma=np.ones(n), s=rng.random(n),
                      theta=np.zeros(n), xi=np.zeros(n))
        with pytest.raises(ValueError, match="xi is degenerate"):
            fit_oracle_side(b)
        with pytest.raises(ValueError, match="xi is degenerate"):
            _SideOracleAccumulator(b)

    def test_split_that_rounds_onto_a_value_is_rejected(self):
        # two adjacent floats whose midpoint rounds up to the larger: every
        # split leaves the upper group empty, so no 2-group fit exists
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert 0.5 * (lo + hi) == hi
        n = 20
        xi = np.where(np.arange(n) % 2 == 0, lo, hi)
        b = DataBatch(y=np.random.default_rng(107).standard_normal(n), sigma=np.ones(n),
                      s=xi, theta=np.zeros(n), xi=xi)
        with pytest.raises(ValueError, match="nonempty groups"):
            fit_oracle_side(b)
        with pytest.raises(ValueError, match="nonempty groups"):
            _SideOracleAccumulator(b)

    def test_split_near_the_float_limit_is_kept(self):
        # 1e308 + 1.5e308 overflows; the midpoint is taken as halves
        rng = np.random.default_rng(109)
        n = 300
        xi = rng.normal(0, 1, n)
        xi[[3, 7]] = 1e308, 1.5e308
        b = DataBatch(y=rng.standard_normal(n), sigma=np.ones(n), s=rng.random(n),
                      theta=np.zeros(n), xi=xi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert xi_split_candidates(xi)[-1] == 1.25e308
            r = fit_oracle_side(b)
        assert r.group_sizes.sum() == n


class TestEjs:
    def test_identical_observations_untouched(self):
        b = DataBatch(y=np.full(10, 3.0), sigma=np.ones(10), s=np.zeros(10))
        r = fit_ejs(b)
        np.testing.assert_array_equal(r.theta_hat, b.y)

    def test_huge_dispersion_barely_shrinks(self):
        rng = np.random.default_rng(103)
        n = 50
        y = rng.normal(0, 50, n)
        b = DataBatch(y=y, sigma=np.ones(n), s=np.zeros(n))
        r = fit_ejs(b)
        np.testing.assert_allclose(r.theta_hat, y, atol=0.2)

    def test_translation_equivariance_equal_sigma(self):
        rng = np.random.default_rng(107)
        n = 80
        y = rng.normal(1, 2, n)
        s = np.zeros(n)
        base = fit_ejs(DataBatch(y=y, sigma=np.ones(n), s=s))
        shifted = fit_ejs(DataBatch(y=y + 10.0, sigma=np.ones(n), s=s))
        np.testing.assert_allclose(shifted.theta_hat, base.theta_hat + 10.0, rtol=1e-10)

    def test_small_n_rejected(self):
        b = DataBatch(y=[1.0, 2.0, 3.0], sigma=np.ones(3), s=np.zeros(3))
        with pytest.raises(ValueError):
            fit_ejs(b)


def test_two_sample_auxscr_sits_between_asus_and_sureshrink():
    """On the heteroscedastic two-sample scenario screening beats the pooled
    fit but not the fully adaptive two-group fit (single seeded replication,
    ordering only; risks are pinned in the acceptance suite)."""
    spec = ScenarioSpec(family="two-sample-s2", n=5000, seed=113)
    b = generate(spec)
    scr = fit_auxscr(b)
    asus = fit_asus(b, SearchConfig(k=2))
    ss = fit_sureshrink(b)
    assert asus.loss_value < ss.loss_value
    assert scr.loss_value < ss.loss_value
    assert scr.group_sizes[0] + scr.group_sizes[1] == b.n
    assert scr.hp.t[0] > universal_threshold(b.n)  # max |z| of a big group


def overflow_batch(theta: bool = True) -> DataBatch:
    """A finite batch whose row 7 has y = 1e160 (sigma = 1): its z^2, and so
    sigma^2 z^2 and (y - theta)^2, overflow to inf, and building it raises."""
    b = signal_batch(np.random.default_rng(62), n=300, n_sig=60)
    y = b.y.copy()
    y[7] = 1e160
    return dataclasses.replace(b, y=y) if theta else DataBatch(y=y, sigma=b.sigma, s=b.s)


class TestOverflowingRow:
    """Masked out of a group by 0, an inf square would turn the group's sums
    into NaN. ``DataBatch`` rejects its row by index, so no fit sees it, and
    no RuntimeWarning is emitted. ``what`` names the term of the fit that the
    row would overflow."""

    @pytest.mark.parametrize("fit, what", [
        (fit_auxscr, "the screening SURE term"),
        (fit_oracle_loss, "the realized loss"),
        (lambda b: fit_oracle_loss(b, SearchConfig(k=3)), "the realized loss"),
        (fit_oracle_side, "the realized loss"),
    ])
    def test_screening_and_loss_fits_name_the_row(self, fit, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\(\|y\|/sigma\)\^2 is not finite at "
                                                 r"index 7: inf$"):
                fit(overflow_batch())

    @pytest.mark.parametrize("fit, what", [
        (fit_auxscr, "the SURE term"),
        (fit_oracle_loss, "the realized loss"),
        (fit_oracle_side, "the realized loss"),
    ])
    def test_sigma_whose_square_overflows_is_named(self, fit, what):
        """sigma = y = 1e160 at row 5: its sigma^2 is named."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sigma\^2 is not finite at index 5: inf$"):
                b = sigma_overflow_batch(theta=True)
                fit(dataclasses.replace(b, xi=b.s))

    def test_overflowing_theta_is_named(self):
        """theta = 1e160 at row 7. With y = 1e160 there y - theta is finite,
        and z^2 is named, the first square of the row that is not; with y as
        drawn theta^2 is."""
        b = signal_batch(np.random.default_rng(62), n=300, n_sig=60)
        theta = b.theta.copy()
        theta[7] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y7, what in ((1e160, r"\(\|y\|/sigma\)\^2"), (b.y[7], r"theta\^2")):
                y = b.y.copy()
                y[7] = y7
                with pytest.raises(ValueError, match=f"^{what} is not finite at index 7: inf$"):
                    fit_oracle_loss(DataBatch(y=y, sigma=b.sigma, s=b.s, theta=theta))

    @pytest.mark.parametrize("k", (2, 3))
    def test_loss_whose_sum_overflows_is_named(self, k):
        """300 of 400 rows at y = 1e153: each square is finite, their sum is
        not, and neither would be a group's sums or the bound's scale."""
        rng = np.random.default_rng(63)
        y = rng.standard_normal(400)
        y[:300] = 1e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the squares of y, sigma and theta overflow "
                                                 "summed over rows$"):
                b = DataBatch(y=y, sigma=np.ones(400), s=rng.standard_normal(400),
                              theta=np.zeros(400))
                fit_oracle_loss(b, SearchConfig(k=k))

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_sure_fits_name_the_row(self, k):
        """A SURE term reads s2 z^2 only up to t_n, but one envelope holds for
        every fit: the SURE fits reject the row as the others do."""
        fit = fit_sureshrink if k == 1 else (lambda b: fit_asus(b, SearchConfig(k=k)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\(\|y\|/sigma\)\^2 is not finite at "
                                                 r"index 7: inf$"):
                fit(overflow_batch(theta=False))


@pytest.mark.parametrize("name", list(ESTIMATORS))
@pytest.mark.parametrize("y5, sigma5, what", [
    (1.0, 1e-160, "1/sigma^2"),  # the loss bound's ((y - theta)/sigma)^2 would be inf
    (0.0, 1e-200, "1/sigma^2"),  # sigma^2 is 0, and ejs would divide by it
    (1e300, 1e-10, "(|y|/sigma)^2"),  # |y|/sigma is inf
    (1e160, 1e160, "sigma^2"),  # sigma^2 is inf
])
def test_row_outside_the_envelope_is_named(name, y5, sigma5, what):
    """300 finite rows, one extreme at row 5: every registered fit raises
    naming the square and the row, with no RuntimeWarning."""
    y, s = np.random.default_rng(66).normal(0, 1, (2, 300))
    sigma = np.ones(300)
    y[5], sigma[5] = y5, sigma5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(what)} is not finite at index 5: inf$"):
            b = DataBatch(y=y, sigma=sigma, s=s, theta=np.zeros(300))
            ESTIMATORS[name].fit(b, SearchConfig())
