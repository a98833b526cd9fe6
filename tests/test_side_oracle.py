"""The side-oracle accumulator against its loop reference.

`_SideOracleAccumulator.add` sums the loss curves of both groups of every
split in one histogram pass. `brute_force.SideOracleReference` loops over
the splits and groups and sums each group's curve from its own prefix sums.
The two add in different orders, so their curves agree to within 1e-12 of
each curve's largest |value|, and the (tau, t1, t2) they minimize to must be
the same, unless splits tie in exact arithmetic.
"""

import dataclasses

import numpy as np
import pytest

from auxshrink import DataBatch, ScenarioSpec, generate, universal_threshold
from auxshrink.sim import _SideOracleAccumulator
from brute_force import SideOracleReference

RTOL = 1e-12
REPS = 3

SPECS = [
    ScenarioSpec(family="one-sample-s1", n=600, m=10, aux_variant=1),
    ScenarioSpec(family="one-sample-s2", n=1500, m=10, aux_variant=4),
    ScenarioSpec(family="two-sample-s1", n=300),
    ScenarioSpec(family="two-sample-s2", n=300),
    ScenarioSpec(family="asymptotic-s1", n=1000, aux_variant=1),
    ScenarioSpec(family="asymptotic-s2", n=1000, aux_variant=2),
    ScenarioSpec(family="toy", n=200),
]


def assert_matches_reference(batches, t_points=513):
    acc = _SideOracleAccumulator(batches[0], t_points=t_points)
    ref = SideOracleReference(acc.tau_cands, acc.t_grid)
    for b in batches:
        acc.add(b)
        ref.add(b)
    assert acc.acc.shape == ref.acc.shape
    scale = np.abs(ref.acc).max(axis=2, keepdims=True)
    assert np.all(np.abs(acc.acc - ref.acc) <= RTOL * scale)
    assert acc.minimize() == ref.minimize()


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family)
def test_every_family_matches_reference(spec, seed):
    assert_matches_reference(
        [generate(dataclasses.replace(spec, seed=REPS * seed + r)) for r in range(REPS)])


def designed(seed, n=256, *, y_of, sigma_of=None, xi_of=None):
    """REPS batches whose y, sigma and xi come from the given draws."""
    rng = np.random.default_rng(seed)
    t_grid = np.linspace(0.0, universal_threshold(n), 513)
    batches = []
    for _ in range(REPS):
        sigma = np.ones(n) if sigma_of is None else sigma_of(rng, n)
        y = y_of(rng, n, t_grid, sigma)
        theta = np.where(rng.random(n) < 0.3, y - sigma * rng.standard_normal(n), 0.0)
        xi = rng.uniform(0.0, 5.0, n) if xi_of is None else xi_of(rng, n)
        batches.append(DataBatch(y=y, sigma=sigma, s=xi, theta=theta, xi=xi))
    return batches


def signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def on_grid_points(rng, n, t_grid, sigma):
    # |y| = t_k exactly, t_0 = 0 and t_n included
    return signs(rng, n) * t_grid[rng.integers(0, t_grid.size, n)]


def with_zeros(rng, n, t_grid, sigma):
    return np.where(rng.random(n) < 0.3, 0.0, sigma * rng.normal(0.0, 2.0, n))


def above_t_n(rng, n, t_grid, sigma):
    big = signs(rng, n) * sigma * (t_grid[-1] + rng.uniform(0.0, 3.0, n))
    return np.where(rng.random(n) < 0.4, big, sigma * rng.standard_normal(n))


def few_values(rng, n):
    return rng.choice([0.0, 0.5, 2.0], n, p=[0.6, 0.3, 0.1])


def tied_integers(rng, n):
    # 100 tied levels: the 99 midpoints are thinned to 65 split points
    return np.repeat(np.arange(100.0), n // 100 + 1)[rng.permutation(n)]


def eight_levels(rng, n):
    # wide cells: a thin cell whose coordinates all lie at or below both
    # thresholds ties its two splits (see the tie test below)
    return rng.integers(0, 8, n) * 1.0


def unit_to_two(rng, n):
    return rng.uniform(0.3, 2.0, n)


@pytest.mark.parametrize("name, batches", [
    ("sigma 1, |y| on grid points", designed(5, y_of=on_grid_points)),
    ("y = 0", designed(6, y_of=with_zeros, sigma_of=unit_to_two, xi_of=eight_levels)),
    ("|y| above t_n", designed(7, y_of=above_t_n, sigma_of=unit_to_two)),
    ("few distinct xi", designed(8, y_of=with_zeros, xi_of=few_values)),
    ("tied xi, thinned splits", designed(9, y_of=on_grid_points, xi_of=tied_integers)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_designed_batches_match_reference(name, batches):
    assert_matches_reference(batches)


def tied_split_batches():
    # A cell whose coordinates lie at or below both thresholds adds the same
    # theta^2 to either group, so the splits on its two sides tie in exact
    # arithmetic. Here every coordinate with xi = 1 has y = 0: splits 0.5 and
    # 1.5 tie, and the first of them is the minimizer.
    batches = designed(11, y_of=lambda rng, n, t_grid, sigma: rng.normal(0.0, 3.0, n),
                       xi_of=lambda rng, n: rng.integers(0, 3, n) * 1.0)
    return [dataclasses.replace(b, y=np.where(b.xi == 1.0, 0.0, b.y)) for b in batches]


def test_splits_tied_in_exact_arithmetic_give_a_reference_minimizer():
    batches = tied_split_batches()
    acc = _SideOracleAccumulator(batches[0])
    ref = SideOracleReference(acc.tau_cands, acc.t_grid)
    for b in batches:
        acc.add(b)
        ref.add(b)
    tau, t1, t2 = acc.minimize()
    _, ref_t1, ref_t2 = ref.minimize()
    assert list(acc.tau_cands) == [0.5, 1.5]
    totals = ref.acc.min(axis=2).sum(axis=1)
    assert abs(totals[0] - totals[1]) <= RTOL * totals.max()
    assert tau == 0.5 and (t1, t2) == (ref_t1, ref_t2)


@pytest.mark.parametrize("seed", range(6))
def test_tied_splits_do_not_depend_on_summation_order(seed):
    # the same batches with their coordinates permuted, added in either
    # order: rounding differs from run to run, the minimizer may not
    rng = np.random.default_rng(seed)
    batches = []
    for b in tied_split_batches():
        p = rng.permutation(b.n)
        batches.append(DataBatch(y=b.y[p], sigma=b.sigma[p], s=b.s[p], theta=b.theta[p],
                                 xi=b.xi[p]))
    for order in (batches, batches[::-1]):
        acc = _SideOracleAccumulator(order[0])
        for b in order:
            acc.add(b)
        assert acc.minimize()[0] == 0.5


def test_bridge_grid_matches_reference():
    # two latent labels and the 1025-point grid the acceptance bridge uses
    batches = designed(10, n=400, y_of=with_zeros,
                       xi_of=lambda rng, n: rng.integers(0, 2, n) * 1.0)
    assert_matches_reference(batches, t_points=1025)
