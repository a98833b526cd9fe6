"""The pruned K = 2 search of the screening baseline.

`fit_auxscr` scores exactly only the cutoffs whose lower bound
(`tuner._screen_bound`) can still reach the least SURE. The screened first
group's bound is its exact term, the cumulative sum of s2 (z^2 - 2) over the
cells; the kept group takes the SURE segment bound. Four things make that
safe and worth it:

* the bound never exceeds the exact `_Cut.terms` total of any split by more
  than its rounding margin. A split whose kept group's bound is tight equals
  its exact total in exact arithmetic, so rounding alone may put the two
  either side; the prune adds the margin to every bound;
* the pruned fit returns what the full `_search` returns on the same cut:
  the same value bit for bit, cutoff, thresholds, group sizes and SURE, with
  S unsigned and signed;
* on a two-sample-s2 batch at n=5000 it scores under 10% of the splits, so
  a prune that silently scored every split would fail here;
* splits that tie to within rounding are all kept, so the fit that picks
  among them by the search's tie rule does not move.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from auxshrink import DataBatch, ScenarioSpec, fit_auxscr, generate
from auxshrink import estimators, tuner
from auxshrink.estimators import _screen_cut
from auxshrink.tuner import _best
from test_loss_bound import (
    DESIGNED,
    FAMILIES,
    SIZES,
    family_batch,
    unbounded,
    zero_y_batch,
)
from test_search_equivalence import assert_same


def signed(batch: DataBatch, seed: int = 0) -> DataBatch:
    """The batch with S given random signs: the screen is then -tau <= S <= tau."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], batch.n)
    return dataclasses.replace(batch, s=batch.s * signs)


def screened_signal_batch():
    """Strong signals (z far above t_n) among the small |S|, so the screened
    group of many splits holds terms s2 (z^2 - 2) that t_n does not limit."""
    rng = np.random.default_rng(10)
    n = 300
    s = rng.uniform(0.0, 10.0, n)
    theta = np.where((s < 4.0) & (rng.random(n) < 0.4), rng.choice([-30.0, 30.0], n), 0.0)
    sigma = rng.uniform(0.5, 1.5, n)
    return DataBatch(y=theta + sigma * rng.standard_normal(n), sigma=sigma, s=s,
                     theta=theta), 2.5


# the designed batches of the loss prune (empty cells in "clustered"), y = 0
# throughout (every split ties in exact arithmetic) and screened signals
SCREEN_DESIGNED = {**DESIGNED, "zero-y": zero_y_batch, "screened-signals": screened_signal_batch}


def assert_bound_holds(cut) -> None:
    bound = cut.bound(cut)
    lower = np.add(*bound.ends())  # the bound of each split
    full = unbounded(cut)
    exact = full.head[1][:cut.m] + full.tail[1]
    assert np.all(lower <= exact + bound.margin)
    # no split empties a group's term to +inf on a screening cut, and the
    # bound is finite at every split
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(exact))


def assert_fit_is_the_full_search(batch: DataBatch, mn_factor: float, monkeypatch) -> None:
    cut = _screen_cut(batch, mn_factor)
    assert_same(_best(cut, 2), _best(unbounded(cut), 2))
    got = fit_auxscr(batch, mn_factor)
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_screen_cut", lambda b, f: unbounded(_screen_cut(b, f)))
        want = fit_auxscr(batch, mn_factor)
    np.testing.assert_array_equal(got.hp.tau, want.hp.tau)
    np.testing.assert_array_equal(got.hp.t, want.hp.t)
    np.testing.assert_array_equal(got.group_sizes, want.group_sizes)
    np.testing.assert_array_equal(got.theta_hat, want.theta_hat)
    assert got.sure_value == want.sure_value  # bit for bit


@pytest.mark.parametrize("sign", ("unsigned", "signed"))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_bound_never_exceeds_the_exact_total(family, n, sign):
    batch = family_batch(family, n)
    assert_bound_holds(_screen_cut(signed(batch) if sign == "signed" else batch))


@pytest.mark.parametrize("name", SCREEN_DESIGNED)
def test_bound_never_exceeds_the_exact_total_on_designed_batches(name):
    batch, mn_factor = SCREEN_DESIGNED[name]()
    assert_bound_holds(_screen_cut(batch, mn_factor))


def test_designed_batches_cover_empty_cells_and_screened_signals():
    clustered = _screen_cut(*SCREEN_DESIGNED["clustered"]())
    assert np.any(np.diff(clustered.count)[:-1] == 0)
    cut = _screen_cut(*screened_signal_batch())
    # a screened group of some splits holds a z above t_n
    assert cut.ctx.zs[-1] > cut.ctx.t_n
    assert cut.ctx.side[-1] < 4.0


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("sign", ("unsigned", "signed"))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_pruned_fit_equals_the_full_search(family, n, sign, seed, monkeypatch):
    batch = family_batch(family, n, seed)
    assert_fit_is_the_full_search(signed(batch, seed) if sign == "signed" else batch, 50.0,
                                  monkeypatch)


@pytest.mark.parametrize("sign", ("unsigned", "signed"))
@pytest.mark.parametrize("name", SCREEN_DESIGNED)
def test_pruned_fit_equals_the_full_search_on_designed_batches(name, sign, monkeypatch):
    batch, mn_factor = SCREEN_DESIGNED[name]()
    assert_fit_is_the_full_search(signed(batch) if sign == "signed" else batch, mn_factor,
                                  monkeypatch)


def test_most_splits_are_pruned(monkeypatch):
    batch = generate(ScenarioSpec(family="two-sample-s2", n=5000, seed=29))
    cut = _screen_cut(batch)
    scored = set()
    terms = tuner._Cut.terms

    def counting(self, term, lo, hi, within=None):
        scored.update(hi[lo == 0].tolist())  # first groups: cells 0..b
        return terms(self, term, lo, hi, within)

    monkeypatch.setattr(tuner._Cut, "terms", counting)
    got = _best(cut, 2)
    monkeypatch.undo()
    assert 0 < len(scored) < 0.1 * cut.m
    assert_same(got, _best(unbounded(cut), 2))


def test_splits_tied_within_rounding_are_kept(monkeypatch):
    # the totals of grid points 88-91 agree to 1 ulp; the search's tie rule
    # among them picks point 89
    batch = generate(ScenarioSpec(family="one-sample-s1", n=600, m=50, aux_variant=2, seed=5))
    fit = fit_auxscr(batch)
    assert round(float(fit.hp.tau[0]), 4) == 11.0839
    assert_fit_is_the_full_search(batch, 50.0, monkeypatch)
