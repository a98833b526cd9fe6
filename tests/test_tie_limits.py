"""The tie limits of the search's backward pass, against their definitions.

`tuner._largest_addend(c, limit)` is the largest x with fl(x + c) <= limit
and `tuner._largest_total(total, n)` the largest sum whose mean over n
rounds to at most fl(total / n). Both are closed forms that `_largest`
corrects by at most one float and checks. Here they meet their defining
property, ok(x) and not ok(next float above x), on seeded adversarial
inputs within `core._envelope`'s range, and on a batch whose limits are
far from the naive guess limit - c the K = 2 fits still equal
`brute_force.search`.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import brute_force
from auxshrink import ScenarioSpec, SearchConfig, fit_asus, fit_oracle_loss, generate
from auxshrink import tuner
from auxshrink.tuner import _largest, _largest_addend, _largest_total, _SortedBatch

pytestmark = pytest.mark.bit_identity

N = 20_000
BIG = np.finfo(float).max / 5
TINY = np.finfo(float).smallest_subnormal


def _up(x):
    return np.nextafter(x, np.inf)


def _addend_ok(x, c, limit):
    with np.errstate(invalid="ignore"):
        return (x == -np.inf) | (x + c <= limit)


def _scaled(rng):
    return rng.standard_normal(N) * 10.0 ** rng.uniform(-12, 12, N)


def _pairs(rng):
    """(class, c, limit) arrays: every class the search can meet and more."""
    limit = _scaled(rng)
    yield "independent", _scaled(rng), limit
    yield "c near limit", limit * (1 + rng.standard_normal(N) * 1e-13), limit
    yield "c near -limit", -limit * (1 + rng.standard_normal(N) * 1e-13), limit
    steps, near = rng.integers(1, 4, N), limit
    for k in range(3):
        near = np.where(steps > k, _up(near), near)
    yield "float neighbours", near, limit
    yield "c far below limit", limit * 10.0 ** rng.uniform(-30, -14, N), limit
    yield "limit far below c", limit, limit * 10.0 ** rng.uniform(-30, -14, N)
    zeros = [0.0, -0.0, TINY, -TINY, 1.0, -1.0]
    yield "signed zeros", rng.choice(zeros, N), rng.choice(zeros, N)
    yield "subnormals", rng.integers(-4096, 4096, N) * TINY, rng.integers(-4096, 4096, N) * TINY
    yield "subnormal c", rng.integers(-4096, 4096, N) * TINY, limit
    big = rng.uniform(-1, 1, N) * BIG
    yield "large", rng.uniform(-1, 1, N) * BIG, big
    yield "large cancelling", big * (1 + rng.standard_normal(N) * 1e-14), big
    yield "halves", rng.integers(-64, 64, N) * 2.0 ** rng.integers(-60, 60, N), limit
    yield ("infinite", np.where(rng.random(N) < 0.3, np.inf, _scaled(rng)),
           np.where(rng.random(N) < 0.3, -np.inf, limit))


@pytest.mark.parametrize("seed", (0, 1))
def test_largest_addend_is_the_largest(seed):
    for name, c, limit in _pairs(np.random.default_rng(seed)):
        x = _largest_addend(c, limit)
        assert _addend_ok(x, c, limit).all(), name
        assert not _addend_ok(_up(x), c, limit).any(), name


def test_largest_addend_is_minus_inf_where_no_sum_fits():
    c = np.array([np.inf, 1.0, np.inf, -3.0])
    limit = np.array([5.0, -np.inf, -np.inf, -np.inf])
    np.testing.assert_array_equal(_largest_addend(c, limit), np.full(4, -np.inf))


@pytest.mark.parametrize("seed", (0, 1))
def test_largest_total_is_the_largest(seed):
    rng = np.random.default_rng(seed)
    totals = np.concatenate([_scaled(rng)[:2000], rng.integers(-10**6, 10**6, 500).astype(float),
                             [0.0, -0.0, TINY, -TINY]])
    sizes = rng.choice([1, 2, 3, 7, 1000, 5000, 65536, 999_983], totals.size)
    for total, n in zip(totals, sizes):
        n = int(n)
        x, q = _largest_total(total, n), total / n
        assert x / n <= q and not _up(x) / n <= q, (total, n)


def test_a_guess_two_floats_off_raises():
    c, limit = np.array([0.25]), np.array([1.0])
    exact = _largest_addend(c, limit)
    ok = functools.partial(_addend_ok, c=c, limit=limit)
    for guess in (_up(_up(exact)), np.nextafter(np.nextafter(exact, -np.inf), -np.inf)):
        with pytest.raises(RuntimeError, match="more than one float off"):
            _largest(ok, guess)
    np.testing.assert_array_equal(_largest(ok, _up(exact)), exact)


def _limits_off_the_naive_guess(monkeypatch, fit):
    """How many of the limits ``fit`` takes lie more than a float from
    limit - c, the guess a one-step correction alone would need."""
    calls = []

    def recording(c, limit):
        x = _largest_addend(c, limit)
        calls.append((np.broadcast_to(c, x.shape), np.broadcast_to(limit, x.shape), x))
        return x

    monkeypatch.setattr(tuner, "_largest_addend", recording)
    fit()
    monkeypatch.undo()
    off = 0
    for c, limit, x in calls:
        with np.errstate(invalid="ignore"):
            naive = limit - c
        near = (x == naive) | (x == _up(naive)) | (x == np.nextafter(naive, -np.inf))
        off += int(np.count_nonzero(~near & np.isfinite(x)))
    return off


def test_k2_fits_equal_enumeration_where_limits_are_far_from_the_guess(monkeypatch):
    """two-sample-s2, n = 1000, seed 0: the K = 2 realized-loss search takes
    limits more than a float from limit - c; both K = 2 fits still equal
    the first minimum over every split."""
    batch = generate(ScenarioSpec("two-sample-s2", n=1000, seed=0))
    cfg = SearchConfig(k=2)
    assert _limits_off_the_naive_guess(monkeypatch, lambda: fit_oracle_loss(batch, cfg)) > 0
    grid = brute_force.grid_of(batch.s, 2, cfg.mn_factor)
    loss_ctx = _SortedBatch(batch, batch.s, loss=True)
    sure_ctx = _SortedBatch(batch, batch.s)
    sure_term = functools.partial(brute_force.sure_group, hybrid=True)
    for fit, want in (
        (fit_oracle_loss(batch, cfg), brute_force.search(loss_ctx, grid, 2, brute_force.loss_group)),
        (fit_asus(batch, cfg), brute_force.search(sure_ctx, grid, 2, sure_term, sure_ctx.s2_total)),
    ):
        np.testing.assert_array_equal(fit.hp.tau, want[1])
        np.testing.assert_array_equal(fit.hp.t, want[2])
        np.testing.assert_array_equal(fit.group_sizes, want[3])
