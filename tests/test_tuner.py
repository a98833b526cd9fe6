import tracemalloc

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    HyperParams,
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    fit_group_threshold,
    fit_sureshrink,
    gen_toy,
    generate,
    select_k,
    sure,
    sweep_tau,
    tau_grid,
    threshold_candidates,
    universal_threshold,
)
from auxshrink import tuner
from auxshrink.tuner import _fit_grid
from brute_force import _objective_values
from test_search_equivalence import hybrid_bound_batch


def random_batch(rng, n, with_theta=False):
    theta = np.where(rng.random(n) < 0.25, rng.normal(0, 3, n), 0.0)
    sigma = rng.uniform(0.5, 1.8, n)
    y = theta + sigma * rng.standard_normal(n)
    s = np.abs(theta) + rng.normal(0, 1, n)
    return DataBatch(y=y, sigma=sigma, s=s, theta=theta if with_theta else None)


class TestTauGrid:
    def test_single_midpoint(self):
        # n=2 and factor 1.0 give m = ceil(ln 2) = 1 point
        np.testing.assert_allclose(tau_grid([0.0, 1.0], 1.0), [0.5])

    def test_equi_spaced_interior_points(self):
        # n=2, factor 5 gives m = ceil(5 ln 2) = 4 points on (0, 10)
        np.testing.assert_allclose(tau_grid([0.0, 10.0], 5.0), [2.0, 4.0, 6.0, 8.0])

    def test_grid_size_at_default_density(self):
        rng = np.random.default_rng(3)
        grid = tau_grid(rng.normal(0, 1, 5000), 50.0)
        assert grid.size == 426  # ceil(50 ln 5000)

    def test_interior_and_sorted(self):
        rng = np.random.default_rng(4)
        s = rng.normal(0, 2, 100)
        grid = tau_grid(s, 10.0)
        assert grid.min() > s.min() and grid.max() < s.max()
        assert np.all(np.diff(grid) > 0)

    def test_non_finite_sequence_rejected(self):
        with pytest.raises(ValueError, match="^s is not finite at index 1: inf$"):
            tau_grid([0.0, np.inf, 1.0])

    @pytest.mark.parametrize("mn_factor", [np.inf, np.nan, 0.0, -1.0])
    def test_mn_factor_must_be_finite_and_positive(self, mn_factor):
        with pytest.raises(ValueError, match="^mn_factor must be finite and positive"):
            tau_grid([0.0, 1.0, 2.0], mn_factor)
        with pytest.raises(ValueError, match="^mn_factor must be finite and positive"):
            SearchConfig(mn_factor=mn_factor)

    def test_grid_over_the_limit_is_rejected(self):
        # n=2: m = ceil(mn_factor ln 2), one point over the 2^20 limit
        with pytest.raises(ValueError, match=r"^mn_factor .* = 1\.049e\+06 grid points; "
                                             r"at most 1048576 are allowed$"):
            tau_grid([0.0, 1.0], (2**20 + 1) / np.log(2))

    def test_degenerate_sequence_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            tau_grid(np.ones(10), 50.0)


class TestThresholdCandidates:
    def test_empty_group(self):
        np.testing.assert_allclose(threshold_candidates([], 2.0), [0.0, 2.0])

    def test_values_above_cap_excluded(self):
        np.testing.assert_allclose(
            threshold_candidates([0.5, 3.0], 2.0), [0.0, 0.5, 2.0]
        )

    @pytest.mark.parametrize("z, match", [
        ([np.nan, 1.0, 0.5], "^z is not finite at index 0: nan$"),
        ([0.5, np.inf], "^z is not finite at index 1: inf$"),
        ([0.5, -1.0], r"^z must hold magnitudes \|y\|/sigma >= 0$"),
    ])
    def test_bad_magnitudes_rejected(self, z, match):
        with pytest.raises(ValueError, match=match):
            threshold_candidates(z, 2.0)

    def test_candidate_minimum_matches_dense_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = np.abs(rng.normal(0, 2, 50))
            s2 = rng.uniform(0.5, 2.0, 50) ** 2
            order = np.argsort(z)
            zs, s2s = z[order], s2[order]
            t_n = universal_threshold(50)
            cands = threshold_candidates(zs, t_n)
            cand_min = _objective_values(zs, s2s, cands).min()
            grid = np.linspace(0, t_n, 100000)
            grid_min = _objective_values(zs, s2s, grid).min()
            assert cand_min <= grid_min + 1e-9


class TestFitGroupThreshold:
    def test_all_zero_data_triggers_universal(self):
        n = 50
        t = fit_group_threshold(np.zeros(n), np.ones(n), n)
        assert t == universal_threshold(n)

    def test_hybrid_off_strong_signals_pick_zero(self):
        n = 200
        z = np.full(20, 5.0)
        assert universal_threshold(n) < 5.0
        t = fit_group_threshold(z, np.ones(20), n, hybrid=False)
        assert t == 0.0

    def test_non_finite_magnitude_rejected(self):
        with pytest.raises(ValueError, match="^z is not finite at index 0: nan$"):
            fit_group_threshold([np.nan, 1.0, 2.0], np.ones(3), 100)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            fit_group_threshold([0.5, 1.0, 2.0], [1.0, sigma, 1.0], 100)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            fit_group_threshold([], [], 100)

    def test_toy_thresholds_match_reported_values(self):
        # seeded regeneration of the illustrative two-sample example
        batch = gen_toy(ScenarioSpec(family="toy", n=10000, seed=7))
        z = np.abs(batch.y) / batch.sigma
        pooled = fit_group_threshold(z, batch.sigma, batch.n)
        assert abs(pooled - 0.6) <= 0.1
        null = batch.xi == 0
        t0 = fit_group_threshold(z[null], batch.sigma[null], batch.n)
        t1 = fit_group_threshold(z[~null], batch.sigma[~null], batch.n)
        assert abs(t0 - 4.2) <= 0.1
        assert abs(t1 - 0.15) <= 0.1


def test_fit_group_threshold_rejects_negative_magnitudes():
    with pytest.raises(ValueError, match="magnitudes"):
        fit_group_threshold([0.5, -1.0, 2.0], np.ones(3), 100)


class TestFitAsus:
    def test_k1_reduces_to_sureshrink_bit_identically(self):
        rng = np.random.default_rng(13)
        b = random_batch(rng, 150, with_theta=True)
        a = fit_asus(b, SearchConfig(k=1))
        s = fit_sureshrink(b)
        np.testing.assert_array_equal(a.theta_hat, s.theta_hat)
        np.testing.assert_array_equal(a.hp.t, s.hp.t)
        assert a.sure_value == s.sure_value
        assert a.loss_value == s.loss_value

    def test_nesting_without_hybrid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            b = random_batch(rng, 120)
            a2 = fit_asus(b, SearchConfig(k=2, mn_factor=10, hybrid=False))
            a1 = fit_sureshrink(b, hybrid=False)
            assert a2.sure_value <= a1.sure_value + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        b = random_batch(rng, 200)
        cfg = SearchConfig(k=2, mn_factor=15)
        r1 = fit_asus(b, cfg)
        r2 = fit_asus(b, cfg)
        np.testing.assert_array_equal(r1.hp.tau, r2.hp.tau)
        np.testing.assert_array_equal(r1.hp.t, r2.hp.t)
        assert r1.sure_value == r2.sure_value

    def test_group_sizes_sum_to_n(self):
        rng = np.random.default_rng(23)
        b = random_batch(rng, 180)
        r = fit_asus(b, SearchConfig(k=3, mn_factor=3))
        assert r.group_sizes.sum() == b.n
        assert np.all(r.group_sizes > 0)

    @pytest.mark.parametrize("k", [True, False, 2.5, 3.0, "2", None])
    def test_k_that_is_not_an_integer_rejected(self, k):
        with pytest.raises(ValueError, match="^k must be an integer of at least 1, not "):
            SearchConfig(k=k)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="^k must be an integer of at least 1, not 0$"):
            SearchConfig(k=0)

    def test_numpy_integer_k_fits_as_the_int(self):
        rng = np.random.default_rng(44)
        b = random_batch(rng, 120)
        for k in (1, 3):
            want = fit_asus(b, SearchConfig(k=k, mn_factor=3))
            got = fit_asus(b, SearchConfig(k=np.int64(k), mn_factor=3))
            np.testing.assert_array_equal(got.hp.tau, want.hp.tau)
            np.testing.assert_array_equal(got.hp.t, want.hp.t)
            assert got.sure_value == want.sure_value

    def test_infeasible_k_raises(self):
        # two distinct auxiliary values cannot support four nonempty groups
        y = np.zeros(40)
        s = np.repeat([0.0, 1.0], 20)
        b = DataBatch(y=y, sigma=np.ones(40), s=s)
        with pytest.raises(ValueError, match="feasible"):
            fit_asus(b, SearchConfig(k=4, mn_factor=2))

    def test_k_beyond_the_grid_is_rejected_before_any_search(self):
        # 30 split points fit at most 31 groups, so K = 5000 fails before
        # the search holds anything per K
        b = generate(ScenarioSpec(family="two-sample-s2", n=300, seed=4))
        cfg = SearchConfig(k=5000, mn_factor=8)
        assert _fit_grid(b.s, cfg.k, cfg.mn_factor).size == 30
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"no feasible breakpoint candidate for "
                                                 r"K=5000; the auxiliary sequence cannot "
                                                 r"support that many nonempty groups$"):
                fit_asus(b, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_thresholds_respect_search_range(self):
        rng = np.random.default_rng(29)
        b = random_batch(rng, 250)
        r = fit_asus(b, SearchConfig(k=2, mn_factor=10))
        t_n = universal_threshold(b.n)
        assert np.all(r.hp.t >= 0) and np.all(r.hp.t <= t_n + 1e-15)

    def test_all_zero_data_gets_universal_everywhere(self):
        n = 500
        rng = np.random.default_rng(30)
        b = DataBatch(y=np.zeros(n), sigma=np.ones(n), s=rng.normal(0, 1, n))
        r = fit_asus(b, SearchConfig(k=2, mn_factor=5))
        t_n = universal_threshold(n)
        np.testing.assert_allclose(r.hp.t, [t_n, t_n])
        np.testing.assert_allclose(r.theta_hat, np.zeros(n))

    def test_pure_noise_mostly_fires_hybrid(self):
        # ultra-sparse regime: the hybrid should hand out the universal
        # threshold nearly everywhere (directional check: the SURE argmin
        # may still find one group where noise defeats the rule)
        rng = np.random.default_rng(31)
        n = 2000
        b = DataBatch(
            y=rng.standard_normal(n),
            sigma=np.ones(n),
            s=rng.normal(0, 1, n),
        )
        t_n = universal_threshold(n)
        assert fit_sureshrink(b).hp.t[0] == t_n
        curve = sweep_tau(b, SearchConfig(k=2, mn_factor=5))
        both_fired = (curve.t1_values == t_n) & (curve.t2_values == t_n)
        assert both_fired.mean() > 0.8

    @pytest.mark.parametrize("seed", [0, 4])
    def test_group_at_the_hybrid_bound_decides_as_on_its_own(self, seed):
        # Group 1's capped mean sits on the bound, with its z-ordered and its
        # pairwise capped sums on either side of it (hybrid_bound_batch).
        # The grouped fit must decide as fit_group_threshold on the group.
        b, z = hybrid_bound_batch(seed)
        n, g = b.n, z.size
        t_n = universal_threshold(n)
        bound = n**-0.5 * np.log(n) ** 1.5
        capped = np.minimum(z**2, t_n**2)
        fires = np.cumsum(capped)[-1] / g - 1.0 <= bound
        assert fires != (np.sum(capped) / g - 1.0 <= bound)
        fit = fit_asus(b)
        assert fit.group_sizes.tolist() == [g, g]
        own = fit_group_threshold(z, np.ones(g), n)
        assert fit.hp.t[0] == own
        assert (own == t_n) == fires
        assert fit_group_threshold(z, np.ones(g), n, hybrid=False) < t_n


class TestSweepTau:
    def test_minimum_matches_fit_asus(self):
        rng = np.random.default_rng(37)
        b = random_batch(rng, 160)
        cfg = SearchConfig(k=2, mn_factor=8)
        curve = sweep_tau(b, cfg)
        fit = fit_asus(b, cfg)
        assert curve.sure_values.min() == fit.sure_value
        i = int(np.argmin(curve.sure_values))
        assert curve.tau_values[i] == fit.hp.tau[0]

    def test_degenerate_aux_rejected(self):
        b = DataBatch(y=[1.0, 2.0], sigma=[1.0, 1.0], s=[3.0, 3.0])
        with pytest.raises(ValueError):
            sweep_tau(b)

    def test_requires_k2(self):
        rng = np.random.default_rng(41)
        b = random_batch(rng, 50)
        with pytest.raises(ValueError):
            sweep_tau(b, SearchConfig(k=3))

    def test_curve_rows_are_internally_consistent(self):
        rng = np.random.default_rng(43)
        b = random_batch(rng, 100)
        curve = sweep_tau(b, SearchConfig(k=2, mn_factor=5))
        for tau, sv, t1, t2 in zip(
            curve.tau_values, curve.sure_values, curve.t1_values, curve.t2_values
        ):
            assert sure(b, HyperParams(tau=[tau], t=[t1, t2])) == sv


class TestSelectK:
    def test_kmax_one_is_sureshrink(self):
        rng = np.random.default_rng(47)
        b = random_batch(rng, 90)
        sel = select_k(b, 1)
        assert sel.k_selected == 1 and sel.k_elbow == 1
        assert sel.sure_values[0] == fit_sureshrink(b).sure_value

    def test_toy_elbow_at_two(self):
        batch = gen_toy(ScenarioSpec(family="toy", n=10000, seed=7))
        sel = select_k(batch, 3, mn_factor=1.5)
        assert sel.k_elbow == 2
        # the big win happens moving from one group to two
        gain12 = sel.sure_values[0] - sel.sure_values[1]
        gain23 = abs(sel.sure_values[1] - sel.sure_values[2])
        assert gain12 > 5 * gain23

    @pytest.mark.parametrize("k_max", [True, 3.0, 2.5, 0, -1])
    def test_k_max_that_is_not_a_positive_integer_rejected(self, k_max):
        b = random_batch(np.random.default_rng(48), 90)
        with pytest.raises(ValueError, match="^k_max must be an integer of at least 1, not "):
            select_k(b, k_max)

    def test_numpy_integer_k_max_selects_as_the_int(self):
        b = random_batch(np.random.default_rng(49), 120)
        want = select_k(b, 3, mn_factor=3)
        got = select_k(b, np.int32(3), mn_factor=3)
        np.testing.assert_array_equal(got.sure_values, want.sure_values)
        assert (got.k_selected, got.k_elbow) == (want.k_selected, want.k_elbow)

    def test_first_infeasible_k_is_named(self):
        # K = 32 is the first K that 30 split points cannot fit
        b = generate(ScenarioSpec(family="two-sample-s2", n=300, seed=4))
        with pytest.raises(ValueError, match="K=32;"):
            select_k(b, 20000, mn_factor=8)

    def test_kmax_beyond_the_grid_is_rejected_before_any_search(self, monkeypatch):
        # 30 split points fit every K up to 31, so K = 32 is named before
        # K = 1..31 are searched
        b = generate(ScenarioSpec(family="two-sample-s2", n=300, seed=4))
        assert _fit_grid(b.s, 2, 8).size == 30

        def no_search(*args):
            raise AssertionError("select_k searched an infeasible k_max")

        monkeypatch.setattr(tuner, "_search", no_search)
        with pytest.raises(ValueError, match=r"no feasible breakpoint candidate for "
                                             r"K=32; the auxiliary sequence cannot "
                                             r"support that many nonempty groups$"):
            select_k(b, 10**8, mn_factor=8)

    def test_noninformative_aux_is_flat(self):
        rng = np.random.default_rng(53)
        n = 400
        theta = np.where(rng.random(n) < 0.2, rng.normal(0, 3, n), 0.0)
        b = DataBatch(
            y=theta + rng.standard_normal(n),
            sigma=np.ones(n),
            s=rng.normal(0, 1, n),  # pure noise side information
        )
        sel = select_k(b, 2, mn_factor=10)
        assert abs(sel.sure_values[0] - sel.sure_values[1]) < 0.1


def test_one_sample_fit_shape_matches_reported_table_row():
    """Single-replication sanity check against the strongly-separated aux
    scenario: two groups split all signals from the nulls; the sparse group
    threshold sits near the universal threshold, the dense group near 0."""
    spec = ScenarioSpec(family="one-sample-s1", n=5000, m=200, aux_variant=2, seed=11)
    b = generate(spec)
    r = fit_asus(b, SearchConfig(k=2))
    assert abs(r.group_sizes[1] - 250) < 40
    assert 3.8 <= r.hp.t[0] <= universal_threshold(5000)
    assert 0.0 <= r.hp.t[1] <= 0.4
    assert r.loss_value < fit_sureshrink(b).loss_value
