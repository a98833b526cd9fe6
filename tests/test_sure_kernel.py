"""The SURE group kernel against each group fitted on its own coordinates.

``tuner._sure_group`` scores many groups at once, one masked row per group,
and decides the hybrid rule from a dot product, taking the capped sum in z
order only for the rows whose decision the dot product's slack cannot settle.
These tests compare it, bit for bit, with ``brute_force.sure_group``, which
compacts each group's coordinates and fits it alone; and they check that on
the benchmark's scenarios no row of a K = 2 search needs the z-order sum.
"""

from __future__ import annotations

import numpy as np
import pytest

import brute_force
from auxshrink import ScenarioSpec, fit_asus, generate, universal_threshold
from auxshrink import tuner
from auxshrink.tuner import _SortedBatch, _fit_grid, _sure_group
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
    t, v = _sure_group(ctx, mask, hybrid)
    for i in range(mask.shape[0]):  # row 0 is empty
        want = brute_force.sure_group(ctx, mask[i], hybrid)
        assert (t[i], v[i]) == want, i


def test_pure_noise_groups_fire_through_the_dot_product():
    """Groups of pure noise fire the hybrid rule; every decision below is
    settled by the dot product, and each row equals its group alone."""
    rng = np.random.default_rng(11)
    n = 3000
    ctx = _SortedBatch.of_group(np.abs(rng.standard_normal(n)), np.ones(n), n)
    mask = rng.random((30, n)) < 0.5
    t, v = _sure_group(ctx, mask, True)
    assert np.count_nonzero(t == ctx.t_n) > 15
    for i in range(mask.shape[0]):
        assert (t[i], v[i]) == brute_force.sure_group(ctx, mask[i], True)


@pytest.fixture
def z_order_rows(monkeypatch):
    """Rows of the kernel (``scored``) and rows that took the capped sum in
    z order (``z_order``) while the fixture is active."""
    counts = {"scored": 0, "z_order": 0}
    kernel, z_order_sums = tuner._sure_group, tuner._z_order_sums

    def counting_kernel(ctx, mask, hybrid):
        counts["scored"] += mask.shape[0]
        return kernel(ctx, mask, hybrid)

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
    """fit_asus at K = 2 scores every head and tail group, and the dot
    product's slack settles the hybrid rule for each."""
    batch = generate(ScenarioSpec(family, n=1000, seed=seed, **extra))
    fit_asus(batch)
    m = _fit_grid(batch.s, 2, 50.0).size
    assert z_order_rows == {"scored": 2 * m + 1, "z_order": 0}


@pytest.mark.parametrize("seed", [0, 4])
def test_group_at_the_hybrid_bound_takes_the_z_order_sum(z_order_rows, seed):
    """The group that ``hybrid_bound_batch`` puts on the bound is decided by
    its z-order sum, the path that
    ``test_group_at_the_hybrid_bound_matches_enumeration`` checks."""
    batch, z = hybrid_bound_batch(seed)
    assert fit_asus(batch).group_sizes.tolist() == [z.size, z.size]
    assert z_order_rows["z_order"] > 0
