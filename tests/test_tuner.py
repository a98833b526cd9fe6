import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    HyperParams,
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    fit_auxscr,
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
import brute_force
from auxshrink import tuner
from auxshrink.tuner import (
    _SortedBatch,
    _fit_grid,
    _loss_cut,
    _screen_cut,
    _search,
    _split_points,
    _sure_cut,
)
from brute_force import _objective_values
from test_search_equivalence import BATCHES, designed_tie_batch, hybrid_bound_batch, make_batch


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

    @pytest.mark.parametrize("mn_factor", [True, False, "50", None, 1j])
    def test_mn_factor_that_is_not_a_real_number_rejected(self, mn_factor):
        b = random_batch(np.random.default_rng(50), 60)
        match = "^mn_factor must be a real number, not "
        with pytest.raises(ValueError, match=match):
            tau_grid([0.0, 1.0, 2.0], mn_factor)
        with pytest.raises(ValueError, match=match):
            SearchConfig(mn_factor=mn_factor)
        with pytest.raises(ValueError, match=match):
            select_k(b, 2, mn_factor=mn_factor)

    def test_numpy_and_integer_mn_factor_fit_as_the_float(self):
        b = random_batch(np.random.default_rng(51), 120)
        want = fit_asus(b, SearchConfig(mn_factor=3.0))
        for mn_factor in (3, np.float32(3.0), np.int64(3)):
            got = fit_asus(b, SearchConfig(mn_factor=mn_factor))
            np.testing.assert_array_equal(got.hp.tau, want.hp.tau)
            np.testing.assert_array_equal(got.hp.t, want.hp.t)

    def test_grid_over_the_limit_is_rejected(self):
        # n=2: m = ceil(mn_factor ln 2), one point over the 2^20 limit
        with pytest.raises(ValueError, match=r"^mn_factor .* = 1\.049e\+06 grid points; "
                                             r"at most 1048576 are allowed$"):
            tau_grid([0.0, 1.0], (2**20 + 1) / np.log(2))

    def test_degenerate_sequence_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            tau_grid(np.ones(10), 50.0)

    @pytest.mark.parametrize("fit", [lambda b: tau_grid(b.s), fit_asus, fit_auxscr])
    def test_sequence_whose_grid_overflows_is_rejected(self, fit):
        """s = +-1.7e308 in two of 300 rows: the width of s (of |S| for the
        screening fit) times m = 286 overflows, so grid points would be inf.
        Every fit names s, with no RuntimeWarning."""
        y, s = np.random.default_rng(52).standard_normal((2, 300))
        s[[3, 7]] = 1.7e308, -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^s spans \[.*\]: 286 times its width "
                                                 r"overflows$"):
                fit(DataBatch(y=y, sigma=np.ones(300), s=s))


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

    @pytest.mark.parametrize("t_n", [np.nan, -1.0, np.inf, -np.inf])
    def test_t_n_that_is_not_finite_and_nonnegative_rejected(self, t_n):
        with pytest.raises(ValueError, match=f"^t_n must be finite and nonnegative, not {t_n}$"):
            threshold_candidates([0.5, 3.0], t_n)

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


@pytest.mark.parametrize("n_global", [True, False, 2.5, 100.0, "100", None, 0])
def test_fit_group_threshold_rejects_an_n_global_that_is_not_a_count(n_global):
    with pytest.raises(ValueError, match="^n_global must be an integer of at least 1, not "):
        fit_group_threshold([0.5, 1.0, 2.0], np.ones(3), n_global)


def test_fit_group_threshold_takes_a_numpy_integer_n_global():
    z = np.abs(np.random.default_rng(52).normal(0, 2, 40))
    assert fit_group_threshold(z, np.ones(40), np.int32(100)) == fit_group_threshold(
        z, np.ones(40), 100)


@pytest.mark.parametrize("hybrid", ["no", 1, 0, None, 1.0])
def test_hybrid_that_is_not_a_bool_rejected(hybrid):
    b = random_batch(np.random.default_rng(53), 60)
    match = "^hybrid must be a bool, not "
    with pytest.raises(ValueError, match=match):
        SearchConfig(hybrid=hybrid)
    with pytest.raises(ValueError, match=match):
        select_k(b, 2, hybrid=hybrid)
    with pytest.raises(ValueError, match=match):
        fit_sureshrink(b, hybrid=hybrid)
    with pytest.raises(ValueError, match=match):
        fit_group_threshold([0.5, 1.0, 2.0], np.ones(3), 100, hybrid=hybrid)


def test_numpy_bool_hybrid_fits_as_the_bool():
    b = generate(ScenarioSpec(family="two-sample-s2", n=300, seed=1))
    for hybrid in (True, False):
        want = fit_asus(b, SearchConfig(hybrid=hybrid))
        got = fit_asus(b, SearchConfig(hybrid=np.bool_(hybrid)))
        np.testing.assert_array_equal(got.hp.t, want.hp.t)
    # the two settings differ on this batch, so a truthy non-bool would show
    assert not np.array_equal(fit_asus(b, SearchConfig(hybrid=True)).hp.t,
                              fit_asus(b, SearchConfig(hybrid=False)).hp.t)


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

    def test_no_split_point_gives_the_message_of_fit_asus(self):
        # the grid's one point rounds onto max S, so no split leaves both
        # groups nonempty
        b = DataBatch(y=[1.0, 2.0], sigma=[1.0, 1.0], s=[1 + 2**-52, 1 + 2**-51])
        cfg = SearchConfig(k=2, mn_factor=1)
        message = (r"^no feasible breakpoint candidate for K=2; the auxiliary sequence "
                   r"cannot support that many nonempty groups$")
        with pytest.raises(ValueError, match=message):
            fit_asus(b, cfg)
        with pytest.raises(ValueError, match=message):
            sweep_tau(b, cfg)

    def test_curve_rows_are_internally_consistent(self):
        rng = np.random.default_rng(43)
        b = random_batch(rng, 100)
        curve = sweep_tau(b, SearchConfig(k=2, mn_factor=5))
        for tau, sv, t1, t2 in zip(
            curve.tau_values, curve.sure_values, curve.t1_values, curve.t2_values
        ):
            assert sure(b, HyperParams(tau=[tau], t=[t1, t2])) == sv


def few_ulp_batch() -> DataBatch:
    """300 coordinates whose S takes three adjacent floats from 0.1. At
    mn_factor 4 the grid holds 23 points, 6 of which round onto max S."""
    rng = np.random.default_rng(1)
    n = 300
    values = np.nextafter.accumulate([0.1, 1.0, 1.0])
    theta = np.where(rng.random(n) < 0.2, rng.normal(0, 3, n), 0.0)
    return DataBatch(y=theta + rng.standard_normal(n), sigma=np.ones(n),
                     s=rng.choice(values, n), theta=theta)


class TestFewUlpSide:
    def test_split_points_lie_below_the_largest_side_value(self):
        b = few_ulp_batch()
        grid = tau_grid(b.s, 4.0)
        assert grid.size == 23 and np.count_nonzero(grid == b.s.max()) == 6
        split = _split_points(grid, b.s)
        assert split.size == 2 and np.all(split < b.s.max())

    def test_selection_equals_enumerating_the_full_grid(self):
        # brute force visits every breakpoint vector of the full grid and
        # skips those that leave a group empty
        b = few_ulp_batch()
        ctx = _SortedBatch(b, b.s)
        term = functools.partial(brute_force.sure_group, hybrid=True)
        sel = select_k(b, 3, mn_factor=4.0)
        for k in (1, 2, 3):
            _, tau, t, _ = brute_force.search(ctx, brute_force.grid_of(b.s, k, 4.0), k,
                                              term, ctx.s2_total)
            assert sel.sure_values[k - 1] == sure(b, HyperParams(tau=tau, t=t))
        np.testing.assert_array_equal(select_k(b, 2, mn_factor=4.0).sure_values,
                                      sel.sure_values[:2])

    def test_four_groups_are_infeasible(self):
        b = few_ulp_batch()
        with pytest.raises(ValueError, match="^no feasible breakpoint candidate for K=4;"):
            select_k(b, 4, mn_factor=4.0)


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


def sigma_overflow_rows(value: float = 1e160) -> tuple:
    """(y, sigma, s) of 300 rows whose row 5 has sigma = y = ``value``: z is 1
    there, and at 1e160 sigma^2 overflows to inf."""
    rng = np.random.default_rng(64)
    y, s = rng.normal(0, 1, (2, 300))
    sigma = np.ones(300)
    y[5] = sigma[5] = value
    return y, sigma, s


def sigma_overflow_batch(value: float = 1e160, theta: bool = False) -> DataBatch:
    """The batch of ``sigma_overflow_rows(value)``, which cannot be built
    where sigma^2 overflows."""
    y, sigma, s = sigma_overflow_rows(value)
    return DataBatch(y=y, sigma=sigma, s=s, theta=np.zeros(300) if theta else None)


class TestSigmaOverflow:
    """A batch whose sigma^2 overflows is rejected when it is built, naming
    the row, so no SURE fit sees it; no RuntimeWarning is emitted on the way."""

    @pytest.mark.parametrize("fit", [
        fit_sureshrink,
        fit_asus,
        lambda b: fit_asus(b, SearchConfig(k=3)),
        lambda b: fit_asus(b, SearchConfig(k=4, mn_factor=2)),
        lambda b: select_k(b, 3),
        sweep_tau,
        lambda b: fit_group_threshold(np.abs(b.y) / b.sigma, b.sigma, b.n),
    ])
    def test_sure_fits_name_the_row(self, fit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sigma\^2 is not finite at index 5: inf$"):
                fit(sigma_overflow_batch())

    def test_group_threshold_names_the_row(self):
        """The raw z and sigma of ``fit_group_threshold`` meet the same rule."""
        z, sigma = np.ones(300), np.ones(300)
        sigma[5] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sigma\^2 is not finite at index 5: inf$"):
                fit_group_threshold(z, sigma, 300)

    @pytest.mark.parametrize("fit", [fit_sureshrink, fit_asus, lambda b: select_k(b, 3)])
    def test_sum_that_overflows_the_scale_is_named(self, fit):
        """sigma^2 = 2.5e307 is finite, and so is the sum of sigma^2; times
        t_n^2 + 3 = 2 ln 300 + 3 it is not, and a SURE total may reach that."""
        assert np.isfinite((sigma_overflow_rows(5e153)[1] ** 2).sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the squares of y, sigma and theta overflow "
                                                 "summed over rows$"):
                fit(sigma_overflow_batch(5e153))


def search_batch(name: str) -> tuple:
    """(batch with theta, mn_factor): the batches the search is checked on."""
    if name in BATCHES:
        return make_batch(name)
    batch, mn_factor = {
        "designed-tie": designed_tie_batch,
        "hybrid-bound": lambda: (hybrid_bound_batch(0)[0], 1.0),
        "few-ulp": lambda: (few_ulp_batch(), 4.0),
    }[name]()
    if batch.theta is None:
        batch = dataclasses.replace(batch, theta=np.where(np.abs(batch.y) > 3, batch.y, 0.0))
    return batch, mn_factor


@pytest.mark.parametrize("name", [*sorted(BATCHES), "designed-tie", "hybrid-bound", "few-ulp"])
def test_search_fits_every_k_up_to_m_plus_one(name):
    """Every cell of a search grid holds a coordinate and every term is
    finite, so ``_search`` returns each K <= m + 1 with a finite value and K
    nonempty groups: SURE cuts with the hybrid rule on and off (pruned when
    m + 1 is 3), the realized loss's (pruned up to 3) and the screening
    cut at K = 2."""
    batch, mn_factor = search_batch(name)
    grid = _split_points(tau_grid(batch.s, mn_factor), batch.s)
    ks = range(1, grid.size + 2)
    for cut in (_sure_cut(batch, grid, True, grid.size + 1),
                _sure_cut(batch, grid, False, grid.size + 1),
                _loss_cut(batch, batch.s, grid)):
        fits = _search(cut, ks)
        assert list(fits) == list(ks)
        for k, (value, tau, t, sizes) in fits.items():
            assert np.isfinite(value) and (tau.size, t.size) == (k - 1, k)
            assert sizes.min() > 0 and sizes.sum() == batch.n
    value, tau, t, sizes = _search(_screen_cut(batch, mn_factor), [2])[2]
    assert np.isfinite(value) and sizes.sum() == batch.n
