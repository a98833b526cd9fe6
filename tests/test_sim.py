import math
import re
import tracemalloc

import numpy as np
import pytest

from auxshrink import (
    apply_estimator,
    ScenarioSpec,
    gen_asymptotic,
    gen_one_sample,
    gen_toy,
    gen_two_sample,
    generate,
    run_risk_experiment,
    select_k,
    sim,
)


class TestScenarioSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="^unknown scenario family 'nope'$"):
            ScenarioSpec(family="nope", n=100)

    def test_one_sample_needs_m_and_variant(self):
        spec = ScenarioSpec(family="one-sample-s1", n=1000, seed=1)
        with pytest.raises(ValueError, match="^one-sample scenarios need m >= 10$"):
            gen_one_sample(spec)
        spec = ScenarioSpec(family="one-sample-s1", n=1000, m=50, aux_variant=7, seed=1)
        with pytest.raises(ValueError, match=r"^aux_variant must be 1\.\.4$"):
            gen_one_sample(spec)

    def test_one_sample_needs_room_for_blocks(self):
        spec = ScenarioSpec(family="one-sample-s1", n=100, m=50, aux_variant=1, seed=1)
        with pytest.raises(ValueError, match="^n must exceed 250 for one-sample-s1$"):
            gen_one_sample(spec)

    @pytest.mark.parametrize("n", [300.5, 300.0, True, "300", None, 0])
    def test_n_that_is_not_a_count_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an integer of at least 1, not "):
            ScenarioSpec(family="two-sample-s2", n=n)

    @pytest.mark.parametrize("field", ["m", "aux_variant"])
    @pytest.mark.parametrize("value", [10.0, True, "2"])
    def test_m_or_variant_that_is_not_an_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not "):
            ScenarioSpec(family="one-sample-s1", n=1000, **{field: value})

    @pytest.mark.parametrize("seed", [True, 1.5, 3.0, "3", None, -1])
    def test_seed_that_is_not_a_count_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer of at least 0, not "):
            ScenarioSpec(family="two-sample-s2", n=50, seed=seed)

    def test_numpy_and_child_seeds_generate(self):
        want = generate(ScenarioSpec("two-sample-s2", n=50, seed=7))
        got = generate(ScenarioSpec("two-sample-s2", n=50, seed=np.uint64(7)))
        np.testing.assert_array_equal(got.y, want.y)
        # run_risk_experiment's child seeds span the whole uint64 range
        child = np.random.SeedSequence(0).generate_state(4, np.uint64)
        assert child.max() >= 2**63
        for seed in child:
            generate(ScenarioSpec("two-sample-s2", n=50, seed=int(seed)))
            generate(ScenarioSpec("two-sample-s2", n=50, seed=seed))

    def test_numpy_integers_generate_as_the_ints(self):
        want = generate(ScenarioSpec("one-sample-s1", n=400, m=12, aux_variant=2, seed=3))
        got = generate(ScenarioSpec("one-sample-s1", n=np.int64(400), m=np.int32(12),
                                    aux_variant=np.int64(2), seed=3))
        for name in ("y", "sigma", "s", "theta", "xi"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _one(family="one-sample-s1", n=1001, m=10, aux_variant=1):
    return ScenarioSpec(family, n=n, m=m, aux_variant=aux_variant, seed=1)


def _asym(family="asymptotic-s1", n=200, m=None, aux_variant=1):
    return ScenarioSpec(family, n=n, m=m, aux_variant=aux_variant, seed=1)


# every rule a generator checks: its last rejected spec, the message, and the
# first spec it accepts
GENERATOR_RULES = {
    "one-sample-s1 n": (_one(n=250), "n must exceed 250 for one-sample-s1", _one(n=251)),
    "one-sample-s2 n": (_one("one-sample-s2", n=1000), "n must exceed 1000 for one-sample-s2",
                        _one("one-sample-s2", n=1001)),
    "one-sample m": (_one(m=9), "one-sample scenarios need m >= 10", _one(m=10)),
    "one-sample m None": (_one(m=None), "one-sample scenarios need m >= 10", _one(m=10)),
    "one-sample variant 0": (_one(aux_variant=0), "aux_variant must be 1..4", _one(aux_variant=1)),
    "one-sample variant 5": (_one(aux_variant=5), "aux_variant must be 1..4", _one(aux_variant=4)),
    "two-sample-s1 n": (ScenarioSpec("two-sample-s1", n=1), "two-sample scenarios need n >= 2",
                        ScenarioSpec("two-sample-s1", n=2)),
    "two-sample-s2 n": (ScenarioSpec("two-sample-s2", n=1), "two-sample scenarios need n >= 2",
                        ScenarioSpec("two-sample-s2", n=2)),
    "asymptotic-s1 n": (_asym(n=50), "n=50 too small for asymptotic-s1 block sizes", _asym(n=51)),
    "asymptotic-s2 n": (_asym("asymptotic-s2", n=12), "n=12 too small for asymptotic-s2 block sizes",
                        _asym("asymptotic-s2", n=13)),
    "asymptotic m": (_asym(m=0), "m must be positive", _asym(m=1)),
    "asymptotic variant 0": (_asym(aux_variant=0),
                             "aux_variant must be 1 or 2 for asymptotic scenarios",
                             _asym(aux_variant=1)),
    "asymptotic variant 3": (_asym(aux_variant=3),
                             "aux_variant must be 1 or 2 for asymptotic scenarios",
                             _asym(aux_variant=2)),
    "toy n": (ScenarioSpec("toy", n=2), "toy scenario needs n >= 3", ScenarioSpec("toy", n=3)),
}


class TestGeneratorRules:
    @pytest.mark.parametrize("rule", GENERATOR_RULES)
    def test_last_rejected_and_first_accepted(self, rule):
        rejected, message, accepted = GENERATOR_RULES[rule]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(rejected)
        b = generate(accepted)
        assert b.n == accepted.n

    @pytest.mark.parametrize("gen, family, message", [
        (gen_one_sample, "toy", "not a one-sample family: toy"),
        (gen_two_sample, "one-sample-s1", "not a two-sample family: one-sample-s1"),
        (gen_asymptotic, "two-sample-s2", "not an asymptotic family: two-sample-s2"),
        (gen_toy, "asymptotic-s1", "not the toy family: asymptotic-s1"),
    ])
    def test_generator_rejects_another_family(self, gen, family, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen(ScenarioSpec(family, n=2000, m=10, aux_variant=1))


class TestOneSample:
    def test_s1_block_structure(self):
        spec = ScenarioSpec(family="one-sample-s1", n=5000, m=20, aux_variant=1, seed=5)
        b = gen_one_sample(spec)
        assert np.all((b.xi[:50] > 6) & (b.xi[:50] < 7))
        assert np.all((b.xi[50:250] > 2) & (b.xi[50:250] < 3))
        assert np.all(b.xi[250:] == 0)
        assert np.all(b.sigma == 1.0)

    def test_s2_block_structure(self):
        spec = ScenarioSpec(family="one-sample-s2", n=5000, m=20, aux_variant=2, seed=5)
        b = gen_one_sample(spec)
        assert np.all((b.xi[:200] > 4) & (b.xi[:200] < 8))
        assert np.all((b.xi[200:1000] > 1) & (b.xi[200:1000] < 3))
        assert np.all(b.xi[1000:] == 0)

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec(family="one-sample-s1", n=2000, m=15, aux_variant=3, seed=99)
        a = gen_one_sample(spec)
        b = gen_one_sample(spec)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.s, b.s)

    def test_rare_perturbations_hit_null_block(self):
        spec = ScenarioSpec(family="one-sample-s1", n=5000, m=15, aux_variant=1, seed=17)
        b = gen_one_sample(spec)
        extras = np.sum(b.theta[250:] != 0)
        expect = 4750 * 5000 ** (-0.5)
        # binomial(4750, 0.0141): five sigma is about 41
        assert abs(extras - expect) < 45
        nz = b.theta[250:][b.theta[250:] != 0]
        assert np.all(np.abs(nz - 2.0) < 0.6)

    def test_laplace_aux_noise_magnitude_matches_mc_oracle(self):
        m = 40
        spec = ScenarioSpec(family="one-sample-s1", n=20000, m=m, aux_variant=1, seed=23)
        b = gen_one_sample(spec)
        nulls = (b.xi == 0) & (b.theta == 0)
        observed = b.s[nulls].mean()
        rng = np.random.default_rng(1234567)
        oracle_draws = np.abs(rng.laplace(0, 4, (200000, m)).mean(axis=1))
        oracle = oracle_draws.mean()
        se = math.sqrt(
            oracle_draws.var() / oracle_draws.size + b.s[nulls].var() / nulls.sum()
        )
        assert abs(observed - oracle) <= 5 * se

    def test_chisq_aux_centering(self):
        m = 60
        spec = ScenarioSpec(family="one-sample-s1", n=20000, m=m, aux_variant=2, seed=29)
        b = gen_one_sample(spec)
        nulls = (b.xi == 0) & (b.theta == 0)
        # mean of chi^2_10 averages is 10, sd per coordinate sqrt(20/m)
        se = math.sqrt(20.0 / m / nulls.sum())
        assert abs(b.s[nulls].mean() - 10.0) <= 5 * se

    def test_variant4_sign_flips_present(self):
        spec = ScenarioSpec(family="one-sample-s1", n=5000, m=20, aux_variant=4, seed=31)
        b = gen_one_sample(spec)
        assert np.all(b.s >= 0)


class TestTwoSample:
    def test_s1_has_unit_variances(self):
        spec = ScenarioSpec(family="two-sample-s1", n=3000, seed=37)
        b = gen_two_sample(spec)
        np.testing.assert_allclose(b.sigma, math.sqrt(2.0))

    def test_s2_variances_in_range(self):
        spec = ScenarioSpec(family="two-sample-s2", n=3000, seed=37)
        b = gen_two_sample(spec)
        assert np.all(b.sigma**2 > 0.2 - 1e-12)
        assert np.all(b.sigma**2 < 2.0 + 1e-12)

    def test_expected_signal_count(self):
        n = 5000
        spec = ScenarioSpec(family="two-sample-s1", n=n, seed=41)
        b = gen_two_sample(spec)
        p1, p2 = n**-0.6, n**-0.3
        expect = n * (p1 + p2 - p1 * p2)
        signals = np.sum(b.xi > 0)
        assert abs(signals - expect) < 5 * math.sqrt(expect)

    def test_noise_uncorrelated_with_aux_under_equal_variances(self):
        # the aux combination is chosen so the primary noise carries no
        # information about S when the two arms share a variance
        spec = ScenarioSpec(family="two-sample-s1", n=40000, seed=43)
        b = gen_two_sample(spec)
        nulls = b.xi == 0
        noise = (b.y - b.theta)[nulls]
        s = b.s[nulls]
        corr = np.corrcoef(noise, s)[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(nulls.sum())

    def test_latents_nonnegative_and_separating(self):
        spec = ScenarioSpec(family="two-sample-s2", n=5000, seed=47)
        b = gen_two_sample(spec)
        assert np.all(b.xi >= 0)
        # nulls sit exactly at zero, every signal strictly above
        assert np.all(b.xi[np.abs(b.theta) > 1.0] > 0)


class TestAsymptotic:
    def test_s1_percent_blocks(self):
        spec = ScenarioSpec(family="asymptotic-s1", n=5000, aux_variant=1, seed=53)
        b = gen_asymptotic(spec)
        assert np.sum((b.xi > 6) & (b.xi < 7)) == 50
        assert np.sum((b.xi > 2) & (b.xi < 3)) == 200
        assert np.sum(b.xi == 0) == 4750
        assert np.all(b.sigma == 1.0)

    def test_s2_percent_blocks_and_heteroscedastic(self):
        spec = ScenarioSpec(family="asymptotic-s2", n=5000, aux_variant=2, seed=53)
        b = gen_asymptotic(spec)
        assert np.sum(b.xi == 0) == 5000 - 200 - 800
        assert np.std(b.sigma) > 0.05

    def test_inverted_aux_direction(self):
        # nulls carry the larger auxiliary mean in this family
        spec = ScenarioSpec(family="asymptotic-s1", n=5000, aux_variant=2, seed=59)
        b = gen_asymptotic(spec)
        assert b.s[b.xi == 0].mean() > b.s[b.xi != 0].mean() + 0.5

    def test_variant_validation(self):
        spec = ScenarioSpec(family="asymptotic-s1", n=5000, aux_variant=5, seed=1)
        with pytest.raises(ValueError, match="^aux_variant must be 1 or 2 for asymptotic scenarios$"):
            gen_asymptotic(spec)


class TestToy:
    def test_shapes_and_moments(self):
        spec = ScenarioSpec(family="toy", n=10000, seed=61)
        b = gen_toy(spec)
        np.testing.assert_allclose(b.sigma, math.sqrt(0.5))
        assert np.sum(b.xi == 1.0) == 4000
        assert np.sum(b.xi == 0.0) == 6000
        noise = b.y - b.theta
        assert abs(noise.var() - 0.5) < 0.05
        assert np.all(b.s >= 0)

    def test_nonzero_block_magnitudes(self):
        spec = ScenarioSpec(family="toy", n=10000, seed=61)
        b = gen_toy(spec)
        first = b.theta[:2000]
        assert np.all((first >= 2.0) & (first <= 5.0))
        assert np.all(b.theta[4000:] == 0.0)


class TestRunRiskExperiment:
    def test_single_replication_has_no_se(self):
        spec = ScenarioSpec(family="toy", n=500, seed=67)
        rep = run_risk_experiment(spec, ["sureshrink"], n_reps=1)
        r = rep.results["sureshrink"]
        assert r.sd_loss is None and r.se_loss is None
        assert r.losses.size == 1 and r.mean_loss == r.losses[0]

    def test_deterministic_reports(self):
        spec = ScenarioSpec(family="toy", n=800, seed=71)
        a = run_risk_experiment(spec, ["sureshrink", "oracle"], n_reps=4)
        b = run_risk_experiment(spec, ["sureshrink", "oracle"], n_reps=4)
        for nm in a.results:
            np.testing.assert_array_equal(a.results[nm].losses, b.results[nm].losses)

    @pytest.mark.parametrize("n_reps", [True, 2.0, "2", 0])
    def test_n_reps_that_is_not_a_count_rejected(self, n_reps):
        spec = ScenarioSpec(family="two-sample-s1", n=200, seed=3)
        with pytest.raises(ValueError, match="^n_reps must be an integer of at least 1, not "):
            run_risk_experiment(spec, ["sureshrink"], n_reps=n_reps)

    def test_numpy_integer_n_reps_runs_as_the_int(self):
        spec = ScenarioSpec(family="two-sample-s1", n=200, seed=3)
        want = run_risk_experiment(spec, ["sureshrink"], n_reps=2)
        got = run_risk_experiment(spec, ["sureshrink"], n_reps=np.int64(2))
        assert got.to_dict() == want.to_dict()

    def test_unknown_estimator_rejected(self):
        spec = ScenarioSpec(family="toy", n=500, seed=73)
        with pytest.raises(ValueError):
            run_risk_experiment(spec, ["nope"], n_reps=2)

    @pytest.mark.parametrize("names, message", [
        ([], "no estimator requested"),
        (["sureshrink", "sureshrink"], "'sureshrink' is requested twice"),
        (["auxscr", "aux-scr"], "'aux-scr' is requested twice"),
        (["oracle", "asus", "oracle"], "'oracle' is requested twice"),
    ])
    def test_empty_or_repeated_estimators_rejected(self, names, message):
        spec = ScenarioSpec(family="toy", n=400, seed=3)
        with pytest.raises(ValueError, match=message):
            run_risk_experiment(spec, names, n_reps=3)

    def test_alias_reports_under_the_registry_name(self):
        spec = ScenarioSpec(family="toy", n=400, seed=3)
        a = run_risk_experiment(spec, ["auxscr"], n_reps=2)
        b = run_risk_experiment(spec, ["aux-scr"], n_reps=2)
        assert list(a.results) == ["aux-scr"]
        np.testing.assert_array_equal(a.results["aux-scr"].losses, b.results["aux-scr"].losses)

    def test_generator_failure_reports_replication(self):
        spec = ScenarioSpec(family="one-sample-s1", n=100, m=20, aux_variant=1, seed=1)
        with pytest.raises(RuntimeError, match="replication 0"):
            run_risk_experiment(spec, ["sureshrink"], n_reps=2)

    def test_oracle_scoring_failure_reports_replication(self, monkeypatch):
        calls = []

        def failing(batch, hp):
            calls.append(hp)
            if len(calls) == 2:
                raise FloatingPointError("injected")
            return apply_estimator(batch, hp)

        monkeypatch.setattr(sim, "apply_estimator", failing)
        spec = ScenarioSpec(family="toy", n=500, seed=67)
        with pytest.raises(RuntimeError, match="replication 1 failed: injected"):
            run_risk_experiment(spec, ["oracle"], n_reps=3)
        assert len(calls) == 2

    def test_risk_ordering_small_scenario(self):
        spec = ScenarioSpec(family="one-sample-s1", n=600, m=30, aux_variant=2, seed=79)
        rep = run_risk_experiment(spec, ["oracle", "asus", "sureshrink"], n_reps=6,
                                  mn_factor=10)
        r_or = rep.results["oracle"].mean_loss
        r_as = rep.results["asus"].mean_loss
        r_ss = rep.results["sureshrink"].mean_loss
        slack = 3 * (rep.results["asus"].se_loss + rep.results["sureshrink"].se_loss)
        assert r_or <= r_as + slack
        assert r_as <= r_ss + slack

    def test_report_dict_shape(self):
        spec = ScenarioSpec(family="toy", n=500, seed=83)
        rep = run_risk_experiment(spec, ["sureshrink", "ejs"], n_reps=3)
        d = rep.to_dict()
        assert d["scenario"] == "toy"
        assert d["reps"] == 3
        assert set(d["estimators"]) == {"sureshrink", "ejs"}
        assert d["estimators"]["sureshrink"]["risk"] > 0
        assert d["estimators"]["ejs"]["mean_t"] is None

    def test_oracle_loss_row_dominates_refit_estimators(self):
        spec = ScenarioSpec(family="two-sample-s1", n=800, seed=89)
        rep = run_risk_experiment(
            spec, ["oracle-loss", "asus", "sureshrink"], n_reps=4, mn_factor=8
        )
        ol = rep.results["oracle-loss"].losses
        assert np.all(ol <= rep.results["asus"].losses + 1e-12)
        assert np.all(ol <= rep.results["sureshrink"].losses + 1e-12)


@pytest.mark.parametrize("spec", [
    ScenarioSpec(family="one-sample-s1", n=5000, m=200, aux_variant=2),
    ScenarioSpec(family="asymptotic-s1", n=5000, m=200, aux_variant=1),
])
def test_averaged_aux_noise_is_not_held_as_a_matrix(spec):
    # the (m, n) float64 draw alone would take 8 MB
    generate(spec)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("spec", [
    ScenarioSpec(family="one-sample-s1", n=5000, m=200, aux_variant=2),
    ScenarioSpec(family="two-sample-s2", n=5000),
])
def test_side_oracle_add_stays_small(spec):
    # one histogram per loss column at a time, summed in place
    batch = generate(spec)
    acc = sim._SideOracleAccumulator(batch)
    acc.add(batch)
    tracemalloc.start()
    try:
        acc.add(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_loss_fit_stays_small():
    # the bound a block of segments at a time, then the unpruned splits' masked rows
    batch = generate(ScenarioSpec(family="two-sample-s2", n=5000))
    sim.fit_oracle_loss(batch)
    tracemalloc.start()
    try:
        sim.fit_oracle_loss(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_k3_selection_stays_small():
    # the bound table (129 x m floats) built and its row bounds reduced a
    # block of segments at a time, then the kept groups' masked rows: about
    # 1.0 MB; reducing the whole table at once took 1.2 MB
    batch = generate(ScenarioSpec(family="two-sample-s2", n=5000))
    select_k(batch, 3)
    tracemalloc.start()
    try:
        select_k(batch, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_100_000


def test_k4_selection_stays_small():
    # an unpruned search holds each middle row's terms once, about 0.25 MB
    # for m = 166, and scores them in chunks: 0.53-0.65 MB on two-sample-s2
    # (seeds 0-5) and one-sample-s1 (seeds 1-5); holding an m x m table of
    # terms and thresholds would add 0.4 MB
    batch = generate(ScenarioSpec(family="two-sample-s2", n=1000))
    select_k(batch, 4)
    tracemalloc.start()
    try:
        select_k(batch, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 750_000


def test_generate_dispatch_covers_all_families():
    specs = [
        ScenarioSpec(family="one-sample-s1", n=600, m=10, aux_variant=1, seed=1),
        ScenarioSpec(family="one-sample-s2", n=1500, m=10, aux_variant=4, seed=1),
        ScenarioSpec(family="two-sample-s1", n=300, seed=1),
        ScenarioSpec(family="two-sample-s2", n=300, seed=1),
        ScenarioSpec(family="asymptotic-s1", n=1000, aux_variant=1, seed=1),
        ScenarioSpec(family="asymptotic-s2", n=1000, aux_variant=2, seed=1),
        ScenarioSpec(family="toy", n=200, seed=1),
    ]
    for spec in specs:
        b = generate(spec)
        assert b.n == spec.n
        assert b.theta is not None and b.xi is not None
