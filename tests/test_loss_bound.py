"""The pruned K = 2 search of the realized-loss fits.

`fit_oracle_loss` (K = 2) and `fit_oracle_side` score exactly only the
splits whose lower bound (`tuner._loss_bound`) can still reach the least
total. Three things make that safe and worth it:

* the bound never exceeds the exact `_Cut.terms` loss of any split;
* the pruned search returns what the full `_search` returns on the same cut:
  the same value bit for bit, breakpoints, thresholds and group sizes;
* on a two-sample-s2 batch at n=5000 it scores fewer than half the splits,
  so a prune that silently scored every split would fail here.
"""

from __future__ import annotations

import numpy as np
import pytest

from auxshrink import DataBatch, ScenarioSpec, generate
from auxshrink import tuner
from auxshrink.estimators import xi_split_candidates
from auxshrink.tuner import _fit_grid, _loss_bound, _loss_cut, _search
from test_search_equivalence import BATCHES, assert_same, make_batch

pytestmark = pytest.mark.bit_identity

SIZES = (503, 2000, 5000)
# generator arguments beyond n and seed; m is kept small, as generation
# draws m rows of auxiliary noise
FAMILIES = {
    "one-sample-s1": dict(m=20, aux_variant=2),
    "one-sample-s2": dict(m=20, aux_variant=3),
    "two-sample-s1": {},
    "two-sample-s2": {},
    "asymptotic-s1": dict(aux_variant=1),
    "asymptotic-s2": dict(aux_variant=2),
    "toy": {},
}


def family_batch(family: str, n: int, seed: int = 41) -> DataBatch:
    # one-sample-s2 places 1000 signals, so its smallest batch has 1003 rows
    if family == "one-sample-s2":
        n = max(n, 1003)
    return generate(ScenarioSpec(family=family, n=n, seed=seed, **FAMILIES[family]))


def loss_cuts(batch: DataBatch, mn_factor: float = 50.0):
    """The cuts of fit_oracle_loss (K = 2, split on S) and fit_oracle_side
    (split on xi, when the batch has it)."""
    yield _loss_cut(batch, batch.s, _fit_grid(batch.s, 2, mn_factor))
    if batch.xi is not None:
        yield _loss_cut(batch, batch.xi, xi_split_candidates(batch.xi))


def unbounded(cut):
    """The same cut without its bound: every split scored."""
    return tuner._Cut(cut.ctx, cut.grid, cut.first, cut.rest, cut.base, hybrid=cut.hybrid)


def zero_middle_batch():
    """A batch whose middle cells lose nothing at any threshold
    (y = theta = 0), so that the splits between them tie exactly."""
    rng = np.random.default_rng(8)
    n = 300
    s = rng.uniform(0.0, 10.0, n)
    theta = np.where(rng.random(n) < 0.3, rng.normal(0, 3, n), 0.0)
    y = theta + rng.standard_normal(n)
    middle = (s > 3.0) & (s < 7.0)
    theta[middle] = y[middle] = 0.0
    return DataBatch(y=y, sigma=np.ones(n), s=s, theta=theta), 2.5


def zero_y_batch():
    """A batch with y = 0 throughout: every coordinate loses theta^2 at any
    threshold, so every split ties in exact arithmetic, and rounding alone
    orders the totals and bounds. Only the margin keeps the splits that the
    search's tie rule can pick."""
    rng = np.random.default_rng(9)
    n = 300
    return DataBatch(y=np.zeros(n), sigma=rng.uniform(0.5, 1.5, n), s=rng.uniform(0, 10, n),
                     theta=rng.normal(0, 2, n), xi=rng.uniform(0, 10, n)), 2.5


# the four batches of test_search_equivalence.py and the tied one above
DESIGNED = {name: (lambda name=name: make_batch(name)) for name in sorted(BATCHES)}
DESIGNED["zero-middle"] = zero_middle_batch


def assert_bound_holds(cut):
    lower = np.add(*_loss_bound(cut).ends())  # the bound of each split
    exact = cut.head[1][:cut.m] + cut.tail[1]
    assert np.all(lower <= exact)
    # the bound is not vacuous: where both groups are nonempty it is finite
    np.testing.assert_array_equal(np.isfinite(lower), np.isfinite(exact))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_bound_never_exceeds_the_exact_loss(family, n):
    for cut in loss_cuts(family_batch(family, n)):
        assert_bound_holds(cut)


@pytest.mark.parametrize("name", DESIGNED)
def test_bound_never_exceeds_the_exact_loss_on_designed_batches(name):
    batch, mn_factor = DESIGNED[name]()
    for cut in loss_cuts(batch, mn_factor):
        assert_bound_holds(cut)


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_pruned_search_equals_the_full_search(family, n, seed):
    for cut in loss_cuts(family_batch(family, n, seed)):
        assert_same(_search(cut, [2]).get(2), _search(unbounded(cut), [2]).get(2))


def test_bound_is_within_its_margin_where_every_split_ties():
    for cut in loss_cuts(*zero_y_batch()):
        bound = _loss_bound(cut)
        lower, margin = np.add(*bound.ends()), bound.margin
        exact = cut.head[1][:cut.m] + cut.tail[1]
        assert np.all(lower <= exact + margin)


@pytest.mark.parametrize("name", [*DESIGNED, "zero-y"])
def test_pruned_search_equals_the_full_search_on_designed_batches(name):
    batch, mn_factor = zero_y_batch() if name == "zero-y" else DESIGNED[name]()
    for cut in loss_cuts(batch, mn_factor):
        assert_same(_search(cut, [2]).get(2), _search(unbounded(cut), [2]).get(2))


def test_most_splits_are_pruned(monkeypatch):
    batch = generate(ScenarioSpec(family="two-sample-s2", n=5000, seed=29))
    cut = next(loss_cuts(batch))
    scored = set()
    terms = tuner._Cut.terms

    def counting(self, term, lo, hi):
        scored.update(hi[lo == 0].tolist())  # first groups: cells 0..b
        return terms(self, term, lo, hi)

    monkeypatch.setattr(tuner._Cut, "terms", counting)
    got = _search(cut, [2]).get(2)
    monkeypatch.undo()
    assert 0 < len(scored) < cut.m / 2
    assert_same(got, _search(unbounded(cut), [2]).get(2))
