"""The interval lower bound and the pruned K = 3 search.

`tuner._IntervalBound` bounds from below the least term of the group on
cells a..b of a cut, for any a <= b. `_search`, when its largest K is 2 or 3
and the cut carries the bound, scores exactly only the head, middle and tail
groups of the splits and pairs it cannot rule out (`_pruned`). Three things
make that safe and worth it:

* the bound is at most the exact `_Cut.terms` value of every interval, for
  SURE with and without the hybrid rule and for the realized loss. A group
  whose bound is tight (the hybrid rule's exact term at t_n, or a loss group
  lying wholly at or below a segment) equals its term in exact arithmetic,
  so rounding alone may put the two either side; the check allows the
  bound's rounding margin, which is what the prunes add to every bound;
* the pruned searches return what the full `_search` returns: the same
  value bit for bit, breakpoints, thresholds and group sizes, for
  `select_k(k_max=3)`, `fit_asus` and `fit_oracle_loss` at K = 3, and K = 2
  on a SURE cut that carries the bound;
* on a two-sample-s2 batch of 1000 rows `select_k(k_max=3)` scores under 2%
  of the middle groups and under a quarter of the head and tail groups, so a
  prune that silently scored every group would fail here.
"""

from __future__ import annotations

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    HyperParams,
    SearchConfig,
    ScenarioSpec,
    fit_asus,
    fit_oracle_loss,
    generate,
    select_k,
    sure,
    universal_threshold,
)
from auxshrink import tuner
from auxshrink.tuner import (
    _fit_grid,
    _hybrid_fires,
    _loss_cut,
    _search,
    _sure_cut,
    tau_grid,
)
from test_loss_bound import FAMILIES, family_batch, unbounded, zero_middle_batch, zero_y_batch
from test_search_equivalence import (
    BATCHES,
    assert_same,
    designed_tie_batch,
    hybrid_bound_batch,
    make_batch,
)

pytestmark = pytest.mark.bit_identity

OBJECTIVES = ("sure-hybrid", "sure-plain", "loss")


def cut_of(batch: DataBatch, objective: str, grid: np.ndarray):
    """A cut of ``objective`` on ``grid`` over S that carries its bound."""
    if objective == "loss":
        return _loss_cut(batch, batch.s, grid)
    return _sure_cut(batch, grid, objective == "sure-hybrid", k_max=3)


def intervals(m: int) -> tuple:
    """(a, b) of every interval 0 <= a <= b <= m."""
    return np.triu_indices(m + 1)


def assert_bound_holds(cut) -> None:
    bound = cut.bound(cut)
    lo, hi = intervals(cut.m)
    exact = cut.terms(cut.rest, lo, hi)[1]
    lower = bound(lo, hi)
    assert np.all(lower <= exact + bound.margin)
    # the bound is not vacuous: it is finite wherever the group is
    # nonempty, and the margin is far below the terms' scale
    np.testing.assert_array_equal(np.isfinite(lower), np.isfinite(exact))
    assert bound.margin < 1e-6
    # the prune's heads, tails and rows are these bounds, bit for bit,
    # whether read from the table or taken one block at a time
    for got, want in zip(bound.ends(), bound.ends(table=True)):
        np.testing.assert_array_equal(got, want)
    b = np.arange(cut.m)
    np.testing.assert_array_equal(bound.ends()[0], bound(np.zeros(cut.m, dtype=int), b))
    np.testing.assert_array_equal(bound.ends()[1], bound(b + 1, np.full(cut.m, cut.m)))
    for a in range(1, cut.m):
        np.testing.assert_array_equal(bound.row(a), bound(np.full(cut.m - a, a), b[a:]))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("family", FAMILIES)
def test_bound_never_exceeds_the_exact_term(family, objective):
    # the full grid at a low density: 25-28 cells, some of them empty
    batch = family_batch(family, 503)
    assert_bound_holds(cut_of(batch, objective, tau_grid(batch.s, 4.0)))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_bound_never_exceeds_the_exact_term_on_designed_batches(name, objective):
    batch, mn_factor = make_batch(name)
    assert_bound_holds(cut_of(batch, objective, tau_grid(batch.s, mn_factor)))


def test_batches_cover_empty_groups_and_the_hybrid_rule():
    """The family batches hold empty intervals, and groups whose hybrid rule
    surely fires, whose bound is their exact term at t_n."""
    empty = fired = 0
    for family in FAMILIES:
        batch = family_batch(family, 503)
        cut = cut_of(batch, "sure-hybrid", tau_grid(batch.s, 4.0))
        lo, hi = intervals(cut.m)
        size = cut.count[hi + 1] - cut.count[lo]
        capped = cut.capped[hi + 1] - cut.capped[lo] + cut.slack
        empty += np.count_nonzero(size == 0)
        fired += np.count_nonzero(_hybrid_fires(capped[size > 0], size[size > 0], batch.n))
    assert empty > 0 and fired > 0


def slack_batch(seed: int) -> tuple:
    """Two groups of 200: the first over two cells (S = 0 and S = 2), the
    second at S = 10. The first group's largest z is the least at which its
    capped sum, taken in z order as the search takes it, no longer fires the
    hybrid rule, so the sum of its two cells' sums may still fire it."""
    n, g = 400, 200
    t_n = universal_threshold(n)
    bound = n**-0.5 * np.log(n) ** 1.5
    rng = np.random.default_rng(seed)
    base = np.sort(rng.uniform(0.0, 1.0, g - 1))
    base *= np.sqrt((g * (1.0 + bound) - 9.0) / np.sum(base**2))
    side = rng.choice([0.0, 2.0], g)

    def fires(largest):
        return np.cumsum(np.minimum(np.append(base, largest) ** 2, t_n**2))[-1] / g - 1.0 <= bound

    lo, hi = 2.6, 3.4
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fires(mid) else (lo, mid)
    z = np.append(base, hi)
    y = np.concatenate([z * rng.choice([-1.0, 1.0], g), rng.normal(0, 1, g)])
    s = np.concatenate([side, np.full(g, 10.0)])
    return DataBatch(y=y, sigma=np.ones(n), s=s), z


@pytest.mark.parametrize("seed", (1, 4))
def test_group_inside_the_slack_keeps_the_segment_bound(seed):
    batch, _ = slack_batch(seed)
    cut = cut_of(batch, "sure-hybrid", tau_grid(batch.s, 1.0))
    bound = cut.bound(cut)
    first = np.array([0]), np.array([1])  # cells 0 and 1: the first group
    assert cut.count[2] == 200 and cut.count[1] > 0
    t, exact = cut.terms(cut.rest, *first)
    assert t[0] < cut.ctx.t_n  # the search's sum does not fire the rule
    capped = cut.capped[2] - cut.capped[0]
    # the cells' sum fires it, but not with the slack added: a bound taking
    # the term at t_n there would exceed the exact term
    assert _hybrid_fires(capped, 200, batch.n)
    assert not _hybrid_fires(capped + cut.slack, 200, batch.n)
    assert bound.at_t_n[2] - bound.at_t_n[0] > exact[0] + bound.margin
    assert bound(*first)[0] <= exact[0]
    assert_bound_holds(cut)


@pytest.mark.parametrize("seed", (0, 4))
def test_bound_holds_on_a_group_at_the_hybrid_bound(seed):
    batch, _ = hybrid_bound_batch(seed)
    assert_bound_holds(cut_of(batch, "sure-hybrid", tau_grid(batch.s, 1.0)))


def knot_batch() -> tuple:
    """(batch, mn_factor): z values exactly on the bound's knots t_j and at 0,
    the bin edges that searchsorted(..., "right") decides, beside signals and
    noise; sigma = 1, so z = |y| exactly, and theta is given for the loss."""
    n = 400
    knots = np.linspace(0.0, universal_threshold(n), tuner._BOUND_SEGMENTS + 1)
    rng = np.random.default_rng(17)
    z = np.concatenate([knots, np.zeros(40), rng.choice(knots, 100),
                        np.abs(rng.normal(0.0, 3.0, n - knots.size - 140))])
    y = z * rng.choice([-1.0, 1.0], n)
    theta = np.where(rng.random(n) < 0.3, y, 0.0)
    s = np.abs(theta) + rng.normal(0.0, 0.5, n)
    return DataBatch(y=y, sigma=np.ones(n), s=s, theta=theta), 2.5


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_bound_never_exceeds_the_exact_term_with_z_on_the_knots(objective):
    batch, mn_factor = knot_batch()
    assert_bound_holds(cut_of(batch, objective, tau_grid(batch.s, mn_factor)))


def assert_pruned_searches_match(batch: DataBatch, mn_factor: float) -> None:
    grid = _fit_grid(batch.s, 3, mn_factor)
    for hybrid in (True, False):
        cut = _sure_cut(batch, grid, hybrid, k_max=3)
        # select_k(k_max=3): every K from one pruned search
        got = _search(cut, range(1, 4))
        want = _search(unbounded(cut), range(1, 4))
        assert got.keys() == want.keys()
        for k in want:
            assert_same(got[k], want[k])
        assert_same(_search(cut, [3]).get(3), _search(unbounded(cut), [3]).get(3))
        assert_same(_search(cut, [2]).get(2), _search(unbounded(cut), [2]).get(2))
        fit = fit_asus(batch, SearchConfig(k=3, mn_factor=mn_factor, hybrid=hybrid))
        want = _search(unbounded(cut), [3]).get(3)
        np.testing.assert_array_equal(fit.hp.tau, want[1])
        np.testing.assert_array_equal(fit.hp.t, want[2])
    if batch.theta is not None:
        cut = _loss_cut(batch, batch.s, grid)
        assert_same(_search(cut, [3]).get(3), _search(unbounded(cut), [3]).get(3))
        fit = fit_oracle_loss(batch, SearchConfig(k=3, mn_factor=mn_factor))
        np.testing.assert_array_equal(fit.hp.tau, _search(unbounded(cut), [3]).get(3)[1])


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("family", FAMILIES)
def test_pruned_k3_searches_equal_the_full_search(family, seed):
    assert_pruned_searches_match(family_batch(family, 503, seed), 12.0)


DESIGNED = {
    **{name: (lambda name=name: make_batch(name)) for name in sorted(BATCHES)},
    "zero-middle": zero_middle_batch,
    "zero-y": zero_y_batch,
    "designed-tie": designed_tie_batch,
    "slack": lambda: (slack_batch(1)[0], 1.0),
    "knots": knot_batch,
}


@pytest.mark.parametrize("name", DESIGNED)
def test_pruned_k3_searches_equal_the_full_search_on_designed_batches(name):
    assert_pruned_searches_match(*DESIGNED[name]())


@pytest.mark.parametrize("name", ["knots", "zero-y", "continuous"])
def test_sure_table_sums_each_coordinates_segment_minimum(name):
    """The closed form over bins equals, up to rounding, each segment's sum of
    every coordinate's own minimum: s2 (z^2 - 2) at z <= t_j, s2 t_j^2 at
    z > t_{j+1} and the smaller of the two between, the bins decided by
    comparing z with the knots directly."""
    batch, mn_factor = DESIGNED[name]()
    cut = cut_of(batch, "sure-plain", tau_grid(batch.s, mn_factor))
    bound, ctx = cut.bound(cut), cut.ctx
    knots = np.linspace(0.0, ctx.t_n, tuner._BOUND_SEGMENTS + 1)
    below = ctx.s2s * (ctx.zs**2 - 2.0)
    for j, got in enumerate(bound.table):
        above = ctx.s2s * knots[j] ** 2
        least = np.where(ctx.zs <= knots[j], below,
                         np.where(ctx.zs > knots[j + 1], above, np.minimum(below, above)))
        want = np.concatenate([[0.0], np.cumsum(np.bincount(cut.cells, least, cut.m + 1))])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=bound.margin)


def test_select_k_is_pruned(monkeypatch):
    batch = generate(ScenarioSpec(family="two-sample-s2", n=1000, seed=29))
    m = _fit_grid(batch.s, 3, 50.0).size
    scored, ends = [], []
    terms = tuner._Cut.terms

    def counting(self, term, lo, hi, within=None):
        scored.append(np.count_nonzero((lo > 0) & (hi < self.m)))  # middle groups
        ends.append(np.count_nonzero((lo == 0) | (hi == self.m)))  # heads and tails
        return terms(self, term, lo, hi, within)

    bounded = []
    row = tuner._IntervalBound.row

    def counting_rows(self, a):
        bounded.append(int(a))
        return row(self, a)

    monkeypatch.setattr(tuner._Cut, "terms", counting)
    monkeypatch.setattr(tuner._IntervalBound, "row", counting_rows)
    got = select_k(batch, 3)
    monkeypatch.undo()
    assert 0 < sum(scored) < 0.02 * m * (m - 1) / 2
    # each row of the K = 3 search is bounded at most once
    assert 0 < len(bounded) == len(set(bounded))
    # of the m + 1 heads and m tails
    assert 0 < sum(ends) < (2 * m + 1) / 4
    # the reference scores every group, whatever bound the cut carries
    cut = unbounded(_sure_cut(batch, _fit_grid(batch.s, 3, 50.0), True, k_max=3))
    fits = _search(cut, range(1, 4))
    want = [sure(batch, HyperParams(*fits[k][1:3])) for k in (1, 2, 3)]
    np.testing.assert_array_equal(got.sure_values, want)
