"""The realized-loss term against the one-group reference, row by row.

`tuner._min_loss_threshold` scores every group of a chunk on the candidates
and segment vertices of the whole batch, in one ascending row per group.
`brute_force.loss_group` compacts each group to its own coordinates and
takes the first least value over its own candidates and the vertices inside
its own segments. The two must agree bit for bit, in t and in the loss.

The batches hold tied |y|/sigma values and zeros. The placements put
coordinates outside a group on the group's chosen vertex and a few ulps
either side: each is a batch candidate the group does not hold, and it
evaluates the group's own quadratic next to its least value.
"""

from __future__ import annotations

import numpy as np
import pytest

import brute_force
from auxshrink import DataBatch
from auxshrink.tuner import _min_loss_threshold, _SortedBatch

pytestmark = pytest.mark.bit_identity

ROWS = 60


def _bits(t, v) -> tuple:
    return tuple(np.array([t, v], dtype=float).view(np.int64).tolist())


def _assert_rows_match(ctx: _SortedBatch, mask: np.ndarray) -> None:
    t, v = _min_loss_threshold(ctx, mask)
    for r in range(mask.shape[0]):
        assert _bits(t[r], v[r]) == _bits(*brute_force.loss_group(ctx, mask[r])), r


def _batch(rng, n: int, kind: str) -> DataBatch:
    theta = np.where(rng.random(n) < 0.3, rng.normal(0, 3, n), 0.0)
    sigma = np.ones(n) if kind == "tied" else rng.uniform(0.5, 2.0, n)
    y = theta + sigma * rng.standard_normal(n)
    if kind == "tied":  # |y|/sigma takes a few values, zero among them
        y = np.round(y)
    elif kind == "zeros":
        y = np.where(rng.random(n) < 0.3, 0.0, y)
    return DataBatch(y=y, sigma=sigma, s=rng.random(n), theta=theta)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["continuous", "tied", "zeros"])
def test_each_row_is_the_reference(kind, seed):
    rng = np.random.default_rng(seed)
    batch = _batch(rng, int(rng.integers(20, 80)), kind)
    mask = rng.random((ROWS, batch.n)) < rng.uniform(0.05, 1.0, (ROWS, 1))
    mask[0], mask[1] = False, True  # the empty group and the whole batch
    _assert_rows_match(_SortedBatch(batch, batch.s, loss=True), mask)


def _sorted(y, sigma, theta, size: int) -> tuple:
    """The batch's loss columns in z order, and the mask of its first
    ``size`` rows in that order."""
    n = y.size
    batch = DataBatch(y=y, sigma=sigma, s=np.zeros(n), theta=theta)
    order = np.argsort(np.abs(y) / sigma, kind="stable")
    return _SortedBatch(batch, batch.s, loss=True), (np.arange(n) < size)[None, order]


@pytest.mark.parametrize("seed", range(3))
def test_coordinates_outside_the_group_on_its_vertex(seed):
    # The group holds the first `size` rows, and the last seven rows lie
    # outside it. These first sit above t_n, then on the group's chosen
    # vertex v and up to three ulps either side (sigma 1 and y the point, so
    # z is the point exactly). n, t_n and the group's own sums stay the same.
    offsets = np.arange(-3, 4)
    rng = np.random.default_rng(seed)
    placed = 0
    while placed < 300:
        size = int(rng.integers(3, 30))
        group = _batch(rng, size, "continuous")
        y = np.concatenate([group.y, np.full(offsets.size, 1e3)])
        sigma = np.concatenate([group.sigma, np.ones(offsets.size)])
        theta = np.concatenate([group.theta, np.zeros(offsets.size)])
        ctx, mask = _sorted(y, sigma, theta, size)
        v = brute_force.loss_group(ctx, mask[0])[0]
        if v in np.abs(group.y) / group.sigma or v in (0.0, ctx.t_n):
            continue  # the group chose a candidate, not a vertex
        y[size:] = v + offsets * np.spacing(v)
        _assert_rows_match(*_sorted(y, sigma, theta, size))
        placed += 1
