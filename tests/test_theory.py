import math

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    RegimeParams,
    efficiency_diagnostics,
    misclass_rates,
    opt_threshold_f,
    risk_factor_h,
    risk_gap_first_order,
)


class TestOptimalThreshold:
    def test_value_at_three(self):
        # sqrt(9 - 6 ln 3 - ln 2pi), checked against a high-precision eval
        assert opt_threshold_f(3.0) == pytest.approx(0.7552808759541025, rel=1e-12)

    def test_h_at_three(self):
        assert risk_factor_h(3.0) == pytest.approx(5.570449201581996, rel=1e-12)

    def test_asymptotic_ratio_tends_to_one(self):
        assert opt_threshold_f(50.0) / 50.0 == pytest.approx(1.0, abs=1e-2)
        assert opt_threshold_f(500.0) / 500.0 == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_argument_rejected(self, t):
        for fn in (opt_threshold_f, risk_factor_h):
            with pytest.raises(ValueError, match="^t must be finite and positive"):
                fn(t)

    def test_small_argument_rejected(self):
        with pytest.raises(ValueError):
            opt_threshold_f(1.0)
        with pytest.raises(ValueError):
            opt_threshold_f(-2.0)


class TestRiskGap:
    def test_direct_substitution(self):
        rp = RegimeParams(alpha=0.6, beta=0.9, pi1=0.95, sigma_bar_sq=1.0, n=5000)
        # independent evaluation of pi1 n^-a s2 ln(1/pi1) (2 - 3/(a ln n))
        expected = (
            0.95 * 5000**-0.6 * math.log(1 / 0.95) * (2 - 3 / (0.6 * math.log(5000)))
        )
        assert risk_gap_first_order(rp) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.00041546041318403254, rel=1e-10)

    def test_linear_in_noise_level(self):
        a = risk_gap_first_order(
            RegimeParams(alpha=0.5, beta=0.8, pi1=0.7, sigma_bar_sq=1.0, n=2000)
        )
        b = risk_gap_first_order(
            RegimeParams(alpha=0.5, beta=0.8, pi1=0.7, sigma_bar_sq=2.0, n=2000)
        )
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_vanishes_as_pi1_tends_to_one(self):
        gaps = [
            risk_gap_first_order(
                RegimeParams(alpha=0.5, beta=0.8, pi1=p, sigma_bar_sq=1.0, n=5000)
            )
            for p in (0.9, 0.99, 0.999)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_monotone_in_log_inverse_pi1(self):
        # pi1 ln(1/pi1) increases with ln(1/pi1) while pi1 stays above 1/e,
        # the regime where group 1 holds most coordinates
        pis = np.linspace(0.40, 0.99, 20)
        gaps = [
            risk_gap_first_order(
                RegimeParams(alpha=0.5, beta=0.8, pi1=float(p), sigma_bar_sq=1.0, n=5000)
            )
            for p in pis
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_degenerate_pi1_rejected(self):
        with pytest.raises(ValueError):
            RegimeParams(alpha=0.5, beta=0.8, pi1=1.0, sigma_bar_sq=1.0, n=5000)

    def test_small_alpha_log_n_rejected(self):
        rp = RegimeParams(alpha=0.2, beta=0.8, pi1=0.5, sigma_bar_sq=1.0, n=20)
        with pytest.raises(ValueError):
            risk_gap_first_order(rp)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan),
        ("beta", math.nan),
        ("pi1", math.nan),
        ("sigma_bar_sq", math.nan),
        ("sigma_bar_sq", math.inf),
        ("n", 1000.9),
        ("n", math.inf),
        ("n", math.nan),
    ])
    def test_non_finite_or_fractional_input_named(self, field, value):
        kw = dict(alpha=0.5, beta=0.8, pi1=0.5, sigma_bar_sq=1.0, n=1000)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            RegimeParams(**kw)

    def test_integral_float_n_is_its_int(self):
        rp = RegimeParams(alpha=0.6, beta=0.9, pi1=0.95, sigma_bar_sq=1.0, n=5000.0)
        assert rp.n == 5000 and isinstance(rp.n, int)

    def test_exponent_ordering_enforced(self):
        with pytest.raises(ValueError):
            RegimeParams(alpha=0.9, beta=0.5, pi1=0.5, sigma_bar_sq=1.0, n=100)


class TestEfficiencyDiagnostics:
    def test_oracle_attained(self):
        d = efficiency_diagnostics(0.191, 0.095, 0.095)
        assert d.ri == 1.0 and d.e == math.inf and not d.degenerate

    def test_no_improvement(self):
        d = efficiency_diagnostics(0.5, 0.5, 0.2)
        assert d.ri == pytest.approx(0.0) and d.e == pytest.approx(1.0)

    def test_identity_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r_os = rng.uniform(0.05, 0.5)
            r_as = r_os + rng.uniform(0, 0.5)
            r_ns = r_as + rng.uniform(0, 0.5)
            d = efficiency_diagnostics(r_ns, r_as, r_os)
            assert d.ri == 1.0 - 1.0 / d.e
            assert d.ri == pytest.approx((r_ns - r_as) / (r_ns - r_os), rel=1e-12)

    def test_degenerate_flag(self):
        d = efficiency_diagnostics(0.2, 0.2, 0.2)
        assert d.degenerate and math.isnan(d.ri)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(3))
    def test_non_finite_risk_named(self, index, value):
        risks = [0.3, 0.2, 0.1]
        risks[index] = value
        with pytest.raises(ValueError, match=f"^{('r_ns', 'r_as', 'r_os')[index]} must be finite"):
            efficiency_diagnostics(*risks)

    def test_clamps_tiny_mc_violations_only(self):
        d = efficiency_diagnostics(0.3, 0.1 - 1e-12, 0.1)
        assert d.e == math.inf
        with pytest.raises(ValueError):
            efficiency_diagnostics(0.3, 0.05, 0.1)


class TestMisclassRates:
    def batch_with(self, s, xi, sigma=None):
        n = len(s)
        return DataBatch(
            y=np.zeros(n),
            sigma=np.ones(n) if sigma is None else sigma,
            s=np.asarray(s, dtype=float),
            xi=np.asarray(xi, dtype=float),
        )

    def test_perfect_classification(self):
        xi = np.array([0.0, 0.0, 3.0, 3.0])
        b = self.batch_with(xi, xi)
        r = misclass_rates(b, tau=1.0, tau_star=1.0)
        assert r.q21 == 0.0 and r.q12 == 0.0

    def test_everything_flagged_high(self):
        xi = np.array([0.0, 0.0, 3.0])
        b = self.batch_with(np.array([1.0, 2.0, 4.0]), xi)
        r = misclass_rates(b, tau=-1e18, tau_star=1.0)
        assert r.q21 == 1.0 and r.q12 == 0.0

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(13)
        n = 500
        xi = np.where(rng.random(n) < 0.4, 3.0, 0.0)
        s = np.abs(xi + rng.normal(0, 1, n))
        b = self.batch_with(s, xi, sigma=rng.uniform(0.5, 2, n))
        taus = np.linspace(-1, 6, 30)
        rates = [misclass_rates(b, tau=float(t), tau_star=1.5) for t in taus]
        q21 = [r.q21 for r in rates]
        q12 = [r.q12 for r in rates]
        assert all(a >= b - 1e-15 for a, b in zip(q21, q21[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(q12, q12[1:]))
        assert all(0 <= r.q21 <= 1 and 0 <= r.q12 <= 1 for r in rates)

    def test_gaussian_rate_matches_normal_tail(self):
        rng = np.random.default_rng(17)
        n = 200000
        sep = 3.0
        xi = np.where(rng.random(n) < 0.5, sep, 0.0)
        s = xi + rng.normal(0, 1, n)
        b = self.batch_with(s, xi)
        r = misclass_rates(b, tau=sep / 2, tau_star=1.0)
        tail = 0.5 * math.erfc(sep / 2 / math.sqrt(2))  # P(N(0,1) > sep/2)
        assert r.q21 == pytest.approx(tail, rel=0.1)
        assert r.q12 == pytest.approx(tail, rel=0.1)

    def test_empty_group_flagged(self):
        xi = np.array([0.0, 0.0])
        b = self.batch_with(np.array([1.0, 2.0]), xi)
        r = misclass_rates(b, tau=1.5, tau_star=1.0)
        assert r.group2_empty and r.q12 == 0.0

    def test_requires_xi(self):
        b = DataBatch(y=[0.0], sigma=[1.0], s=[1.0])
        with pytest.raises(ValueError):
            misclass_rates(b, 0.0, 0.0)

    def test_sigma_weighting(self):
        # one heavy-variance misclassified coordinate dominates the rate
        xi = np.array([0.0, 0.0, 5.0])
        s = np.array([0.5, 9.0, 9.0])  # second coordinate lands in group 2
        sigma = np.array([1.0, 3.0, 1.0])
        b = self.batch_with(s, xi, sigma=sigma)
        r = misclass_rates(b, tau=1.0, tau_star=1.0)
        assert r.q21 == pytest.approx(9.0 / 10.0)
