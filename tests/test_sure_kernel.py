"""The SURE group kernel against each group fitted on its own coordinates.

``tuner._sure_group`` scores many groups at once, one masked row per group.
A hybrid SURE cut filters the hybrid rule of each group from its per-cell
cumulative capped sums (``_Cut.hybrid_rule``), and the kernel takes the
capped sum in z order only for the rows the filter leaves open. These tests
compare the kernel, bit for bit, with ``brute_force.sure_group``, which
compacts each group's coordinates and fits it alone; check that every answer
the filter settles is the z-order sum's; and check that on the benchmark's
scenarios no row of a K = 2 search needs the z-order sum.
"""

from __future__ import annotations

import numpy as np
import pytest

import brute_force
from auxshrink import (
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    generate,
    sweep_tau,
    universal_threshold,
)
from auxshrink import tuner
from auxshrink.tuner import _SortedBatch, _fit_grid, _hybrid_fires, _sure_cut, _sure_group, tau_grid
from test_interval_bound import DESIGNED, slack_batch
from test_loss_bound import FAMILIES, family_batch
from test_search_equivalence import hybrid_bound_batch

pytestmark = pytest.mark.bit_identity


def magnitudes(rng, size: int, t_n: float, ties: bool) -> np.ndarray:
    """|y|/sigma values: continuous and distinct, or else with tied values,
    zeros, values equal to t_n and values above it."""
    z = np.abs(rng.normal(0.0, 1.5, size))
    if ties:
        z = np.round(z, 1)
        z[rng.choice(size, 12, replace=False)] = t_n
        z[rng.choice(size, 6, replace=False)] = 0.0
    return z


def masks(rng, rows: int, size: int) -> np.ndarray:
    """Random groups of every density, with an empty row, a full row and a
    row of one coordinate."""
    mask = rng.random((rows, size)) < rng.uniform(0.0, 1.0, (rows, 1))
    mask[0] = False
    mask[1] = True
    mask[2] = np.arange(size) == rng.integers(size)
    return mask


@pytest.mark.parametrize("hybrid", [True, False])
@pytest.mark.parametrize("ties", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_each_group_on_its_own(seed, ties, hybrid):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 2000))
    z = magnitudes(rng, 150, universal_threshold(n), ties)
    ctx = _SortedBatch.of_group(z, rng.uniform(0.5, 2.0, z.size), n)
    # the distinct batches read the prefix sums by slice, the others gather them
    assert (ctx.candidates[2] is None) != ties
    mask = masks(rng, 40, z.size)
    # arbitrary groups, as fit_group_threshold's: no cut filters their rule,
    # so every row is left open and takes its capped sum in z order
    rows = mask.shape[0]
    rule = (np.zeros(rows, dtype=bool), np.arange(rows), mask.sum(axis=1)) if hybrid else None
    t, v = _sure_group(ctx, mask, rule)
    for i in range(rows):  # row 0 is empty
        want = brute_force.sure_group(ctx, mask[i], hybrid)
        assert (t[i], v[i]) == want, i


SMALL_CUTS = {
    **{family: lambda family=family: (family_batch(family, 503), 4.0) for family in FAMILIES},
    **DESIGNED,
    **{f"hybrid-bound-{seed}": lambda seed=seed: (hybrid_bound_batch(seed)[0], 1.0)
       for seed in (0, 4)},
    "slack-4": lambda: (slack_batch(4)[0], 1.0),
}


@pytest.mark.parametrize("name", SMALL_CUTS)
def test_settled_answers_agree_with_the_z_order_sum(name):
    """On every contiguous group of a small SURE cut (the full grid, empty
    cells included), a group on which the filter says the rule surely fires,
    or surely does not, is one on which the capped sum in z order fires it,
    or does not."""
    batch, mn_factor = SMALL_CUTS[name]()
    cut = _sure_cut(batch, tau_grid(batch.s, mn_factor), True)
    lo, hi = np.triu_indices(cut.m + 1)
    fires, open_, size = cut.hybrid_rule(lo, hi)
    settled = np.ones(lo.size, dtype=bool)
    settled[open_] = False
    for a, b, surely, g, ok in zip(lo, hi, fires, size, settled):
        group = (cut.cells >= a) & (cut.cells <= b)
        assert g == np.count_nonzero(group)
        if ok and g:
            assert surely == _hybrid_fires(np.cumsum(cut.ctx.capped[group])[-1], g, batch.n)
        elif ok:  # an empty group does not fire
            assert not surely
    assert np.any(settled & (size > 0))


@pytest.fixture
def z_order_rows(monkeypatch):
    """Rows of the kernel (``scored``) and rows that took the capped sum in
    z order (``z_order``) while the fixture is active."""
    counts = {"scored": 0, "z_order": 0}
    kernel, z_order_sums = tuner._sure_group, tuner._z_order_sums

    def counting_kernel(ctx, mask, rule=None):
        counts["scored"] += mask.shape[0]
        return kernel(ctx, mask, rule)

    def counting_sums(mask, column):
        counts["z_order"] += mask.shape[0]
        return z_order_sums(mask, column)

    monkeypatch.setattr(tuner, "_sure_group", counting_kernel)
    monkeypatch.setattr(tuner, "_z_order_sums", counting_sums)
    return counts


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family, extra", [
    ("two-sample-s2", {}),
    ("one-sample-s1", {"m": 200, "aux_variant": 2}),
])
def test_no_row_of_a_k2_search_needs_the_z_order_sum(z_order_rows, family, extra, seed):
    """The cut's filter settles the hybrid rule for every row a K = 2
    search scores. fit_asus scores every head and tail group while its search is
    not pruned; sweep_tau reads every head and tail, pruned or not."""
    batch = generate(ScenarioSpec(family, n=1000, seed=seed, **extra))
    fit_asus(batch)
    m = _fit_grid(batch.s, 2, 50.0).size
    assert z_order_rows == {"scored": 2 * m + 1, "z_order": 0}
    z_order_rows.update(scored=0)
    sweep_tau(batch)
    assert z_order_rows == {"scored": 2 * m + 1, "z_order": 0}


@pytest.mark.parametrize("seed", [0, 4])
def test_group_at_the_hybrid_bound_takes_the_z_order_sum(z_order_rows, seed):
    """The group that ``hybrid_bound_batch`` puts on the bound is decided by
    its z-order sum, the path that
    ``test_group_at_the_hybrid_bound_matches_enumeration`` checks."""
    batch, z = hybrid_bound_batch(seed)
    assert fit_asus(batch).group_sizes.tolist() == [z.size, z.size]
    assert z_order_rows["z_order"] > 0


@pytest.mark.parametrize("seed", [1, 4])
def test_group_inside_the_slack_is_the_one_row_left_open(z_order_rows, seed):
    """``slack_batch`` puts its first group (cells 0 and 1) within the
    slack of the hybrid bound: of every contiguous group of the cut, the
    filter leaves that one open, and it is the one row that takes the
    z-order sum, in the terms and in a K = 2 fit."""
    batch, _ = slack_batch(seed)
    cut = _sure_cut(batch, _fit_grid(batch.s, 2, 1.0), True)
    lo, hi = np.triu_indices(cut.m + 1)
    _, open_, _ = cut.hybrid_rule(lo, hi)
    assert cut.m == 2 and cut.count[2] == 200
    assert lo[open_].tolist() == [0] and hi[open_].tolist() == [1]
    cut.terms(cut.rest, lo, hi)
    assert z_order_rows == {"scored": lo.size, "z_order": 1}
    z_order_rows.update(scored=0, z_order=0)
    fit_asus(batch, SearchConfig(k=2, mn_factor=1.0))
    assert z_order_rows == {"scored": 2 * cut.m + 1, "z_order": 1}
