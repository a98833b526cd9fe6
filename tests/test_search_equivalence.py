"""The interval-cost search against brute-force enumeration.

`tuner._search` combines the terms of contiguous-cell groups into the
minimizer for each K; `brute_force.search` visits every sorted (K-1)-subset
of the breakpoint grid. On small grids the two must agree exactly: the same
breakpoints, thresholds and group sizes, and the same objective value bit for
bit, with ties resolved to the lexicographically smallest breakpoints. The
batches include empty grid cells (clustered side values), tied |y|/sigma
values, y == 0 entries and a group whose hybrid statistic sits on the bound.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import brute_force
from auxshrink import (
    DataBatch,
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    fit_oracle_loss,
    generate,
    select_k,
    universal_threshold,
)
from auxshrink.tuner import (
    _Cut,
    _fit_grid,
    _min_loss_threshold,
    _search,
    _sure_cut,
    _SortedBatch,
)

pytestmark = pytest.mark.bit_identity

K_VALUES = (1, 2, 3, 4, 5)
OBJECTIVES = ("sure-hybrid", "sure-plain", "oracle-loss")


def _continuous(rng, n):
    theta = np.where(rng.random(n) < 0.25, rng.normal(0, 3, n), 0.0)
    sigma = rng.uniform(0.5, 1.8, n)
    y = theta + sigma * rng.standard_normal(n)
    return y, sigma, np.abs(theta) + rng.normal(0, 1, n), theta


def _clustered(rng, n):
    # three tight clusters of side values leave most grid cells empty
    y, sigma, _, theta = _continuous(rng, n)
    centre = rng.choice([0.0, 4.0, 9.0], n)
    return y, sigma, centre + rng.normal(0, 0.15, n), theta


def _tied(rng, n):
    # |y|/sigma takes a few values only, zero among them; sigma is 1
    theta = np.where(rng.random(n) < 0.2, rng.choice([3.0, -4.0], n), 0.0)
    y = np.round(theta + rng.standard_normal(n))
    s = np.round(np.abs(theta) + rng.normal(0, 1.5, n), 1)
    return y, np.ones(n), s, theta


def _zeros(rng, n):
    # a third of the observations are exactly zero
    y, sigma, s, theta = _continuous(rng, n)
    return np.where(rng.random(n) < 0.35, 0.0, y), sigma, s, theta


BATCHES = {
    "continuous": (_continuous, 200, 2.5),
    "clustered": (_clustered, 240, 2.5),
    "tied": (_tied, 180, 2.5),
    "zeros": (_zeros, 300, 2.0),
}


SEEDS = (5, 6)


def make_batch(name: str, seed: int = SEEDS[0]) -> tuple:
    make, n, mn_factor = BATCHES[name]
    y, sigma, s, theta = make(np.random.default_rng(seed), n)
    return DataBatch(y=y, sigma=sigma, s=s, theta=theta), mn_factor


def searched(batch: DataBatch, objective: str, k: int, mn_factor: float):
    """(value, tau, t, sizes) from the package's search."""
    grid = _fit_grid(batch.s, k, mn_factor)
    if objective == "oracle-loss":
        cut = _Cut(_SortedBatch(batch, batch.s, loss=True), grid, _min_loss_threshold,
                   _min_loss_threshold, 0.0)
    else:
        cut = _sure_cut(batch, grid, hybrid=objective == "sure-hybrid")
    return _search(cut, [k]).get(k)


def enumerated(batch: DataBatch, objective: str, k: int, mn_factor: float, **kw):
    """(value, tau, t, sizes) from brute-force enumeration."""
    ctx = _SortedBatch(batch, batch.s, loss=objective == "oracle-loss")
    grid = brute_force.grid_of(batch.s, k, mn_factor)
    if objective == "oracle-loss":
        return brute_force.search(ctx, grid, k, brute_force.loss_group, **kw)
    term = functools.partial(brute_force.sure_group, hybrid=objective == "sure-hybrid")
    return brute_force.search(ctx, grid, k, term, ctx.s2_total, **kw)


def assert_same(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    value, tau, t, sizes = got
    assert value == want[0]  # bit for bit
    np.testing.assert_array_equal(tau, want[1])
    np.testing.assert_array_equal(t, want[2])
    np.testing.assert_array_equal(sizes, want[3])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_search_matches_enumeration(name, objective, seed):
    batch, mn_factor = make_batch(name, seed)
    for k in K_VALUES:
        assert_same(searched(batch, objective, k, mn_factor),
                    enumerated(batch, objective, k, mn_factor))


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_public_fits_use_the_search(name):
    batch, mn_factor = make_batch(name)
    for k in (2, 3, 4):
        want = enumerated(batch, "sure-hybrid", k, mn_factor)
        fit = fit_asus(batch, SearchConfig(k=k, mn_factor=mn_factor))
        np.testing.assert_array_equal(fit.hp.tau, want[1])
        np.testing.assert_array_equal(fit.hp.t, want[2])
        want = enumerated(batch, "oracle-loss", k, mn_factor)
        fit = fit_oracle_loss(batch, SearchConfig(k=k, mn_factor=mn_factor))
        np.testing.assert_array_equal(fit.hp.tau, want[1])
        np.testing.assert_array_equal(fit.hp.t, want[2])


def test_grids_have_empty_cells_and_ties():
    """The batches exercise what the search must get right."""
    clustered, mn = make_batch("clustered")
    grid = brute_force.grid_of(clustered.s, 3, mn)
    cells = np.bincount(np.searchsorted(grid, clustered.s, side="left"), minlength=grid.size + 1)
    assert np.count_nonzero(cells == 0) >= grid.size // 2
    for name in ("tied", "zeros"):
        batch, _ = make_batch(name)
        z = np.abs(batch.y) / batch.sigma
        assert np.count_nonzero(z == 0) >= 20
    tied, _ = make_batch("tied")
    assert np.unique(np.abs(tied.y)).size <= 12


def designed_tie_batch() -> tuple:
    """A batch whose minimizers for K = 3 (SURE, no hybrid rule) include
    the breakpoints (1, 5) and (3, 4), and none that is lexicographically
    smaller than (1, 5) or has a last breakpoint below 4.

    Side values sit on the grid points 1..5 of a six-cell grid, sigma is 1
    and |y| is 0, 1 or 5. A group's SURE term is then the integer
    -2 #(y = 0) - max(0, #(|y| = 1) - #(|y| = 5)), so sums are exact and
    distinct partitions tie exactly. The lexicographically first minimizer
    (1, 5) has a larger last breakpoint than (3, 4).
    """
    n = 200
    ones, fives = [0, 0, 0, 1, 0, 1], [2, 2, 1, 0, 2, 0]  # per cell
    y, s = [], []
    for cell, (a, b) in enumerate(zip(ones, fives)):
        y += [1.0] * a + [5.0] * b
        s += [cell + 1.0] * (a + b)
    zeros = n - len(y)
    y += [0.0] * zeros
    s += list(np.arange(zeros) % 6 + 1.0)
    s[-1] = 0.0  # the grid spans [0, 6]: its points are 1, ..., 5
    mn_factor = 4.5 / np.log(n)  # m = ceil(mn_factor ln n) = 5
    return DataBatch(y=np.array(y), sigma=np.ones(n), s=np.array(s)), mn_factor


def test_tie_rule_is_lexicographic():
    """A search that kept the smallest last breakpoint on ties (the rule of
    back-pointers keeping the smallest left end) would fail the comparisons
    above: on this batch that rule and the lexicographic rule disagree."""
    batch, mn = designed_tie_batch()
    assert brute_force.grid_of(batch.s, 3, mn).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    lexicographic = enumerated(batch, "sure-plain", 3, mn)
    smallest_last = enumerated(batch, "sure-plain", 3, mn, min_last=True)
    assert lexicographic[0] == smallest_last[0]
    assert lexicographic[1].tolist() == [1.0, 5.0]
    assert smallest_last[1].tolist() == [3.0, 4.0]
    assert_same(searched(batch, "sure-plain", 3, mn), lexicographic)


def hybrid_bound_batch(seed: int) -> tuple:
    """Two groups of 200 (S = 0 and S = 10) and the first group's z. The
    first group's capped mean sits on the hybrid bound: its largest z is
    chosen so that the z-ordered and the pairwise capped sums fall on either
    side of it (seed 0: the z-ordered sum fires; seed 4: the pairwise one)."""
    n, g = 400, 200
    t_n = universal_threshold(n)
    bound = n**-0.5 * np.log(n) ** 1.5
    rng = np.random.default_rng(seed)
    base = np.sort(rng.uniform(0.0, 1.0, g - 1))
    base *= np.sqrt((g * (1.0 + bound) - 9.0) / np.sum(base**2))

    def fires(y, total):
        capped = np.minimum(np.append(base, y) ** 2, t_n**2)
        return total(capped) / g - 1.0 <= bound

    def flip(total):
        """Smallest largest-z at which the rule stops firing."""
        lo, hi = 2.6, 3.4
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if fires(mid, total) else (lo, mid)
        return hi

    z = np.append(base, min(flip(lambda capped: np.cumsum(capped)[-1]), flip(np.sum)))
    y = np.concatenate([z * rng.choice([-1.0, 1.0], g), rng.normal(0, 1, g)])
    return DataBatch(y=y, sigma=np.ones(n), s=np.repeat([0.0, 10.0], g)), z


@pytest.mark.parametrize("seed", (0, 4))
def test_group_at_the_hybrid_bound_matches_enumeration(seed):
    """The search and the reference take the hybrid statistic in z order,
    so they decide alike on a group within rounding of the bound."""
    batch, _ = hybrid_bound_batch(seed)
    for k in (1, 2, 3):
        assert_same(searched(batch, "sure-hybrid", k, 1.0), enumerated(batch, "sure-hybrid", k, 1.0))


def test_full_search_scores_each_middle_group_once(monkeypatch):
    """An unpruned search (``select_k(k_max=4)``) scores each middle group
    a..b, 0 < a <= b < m, once, and its three passes read the held rows."""
    batch = generate(ScenarioSpec(family="two-sample-s2", n=1000, seed=1))
    m = _fit_grid(batch.s, 4, 50.0).size
    scored = []
    terms = _Cut.terms

    def counting(self, term, lo, hi, within=None):
        middle = (lo > 0) & (hi < self.m)
        scored.extend(zip(lo[middle].tolist(), hi[middle].tolist()))
        return terms(self, term, lo, hi, within)

    monkeypatch.setattr(_Cut, "terms", counting)
    select_k(batch, 4)
    assert len(scored) == len(set(scored)) == m * (m - 1) // 2 == 16110
