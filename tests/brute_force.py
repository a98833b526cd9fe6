"""Brute-force reference for the breakpoint search: every candidate enumerated.

This is the search the package ran before it combined interval costs: it
visits every sorted (K-1)-subset of the breakpoint grid in lexicographic
order, splits the z-sorted batch with boolean masks, fits each group's
threshold on its compacted coordinates, and keeps the first minimum of
(base + sum of group terms) / n. Its cost grows as C(m, K-1), so it serves
only as the reference that `tests/test_search_equivalence.py` compares the
package's search with, on small grids.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from auxshrink.tuner import _SortedBatch, tau_grid


def _prefix(x):
    return np.concatenate([[0.0], np.cumsum(x)])


def _candidates(zs, t_n):
    return np.unique(np.concatenate([[0.0], zs[zs <= t_n], [t_n]]))


def _objective_values(zs, s2s, t_values):
    p0 = _prefix(s2s)
    p2 = _prefix(s2s * zs * zs)
    j = np.searchsorted(zs, t_values, side="right")
    tail = p0[-1] - p0[j]
    return t_values * t_values * tail + p2[j] - 2.0 * p0[j]


def _hybrid_fires(capped_sum, size, n):
    stat = capped_sum / size - 1.0
    bound = n ** (-0.5) * math.log(n) ** 1.5 if n > 1 else 0.0
    return stat <= bound


def sure_group(ctx: _SortedBatch, sel, hybrid: bool):
    zs = ctx.zs[sel]
    s2s = ctx.s2s[sel]
    # the capped sum in z order, as the package takes it; an empty group does
    # not fire, and its term is (0, 0)
    if hybrid and zs.size and _hybrid_fires(float(np.cumsum(ctx.capped[sel])[-1]),
                                            zs.size, ctx.n):
        return ctx.t_n, float(_objective_values(zs, s2s, np.array([ctx.t_n]))[0])
    cands = _candidates(zs, ctx.t_n)
    vals = _objective_values(zs, s2s, cands)
    i = int(np.argmin(vals))
    return float(cands[i]), float(vals[i])


def _loss_values(prefixes, t_values, j):
    pq, pse, psc, ps2 = prefixes
    return (
        pq[j]
        + (pse[-1] - pse[j])
        - 2.0 * t_values * (psc[-1] - psc[j])
        + t_values**2 * (ps2[-1] - ps2[j])
    )


def loss_group(ctx: _SortedBatch, sel):
    zs = ctx.zs[sel]
    cands = _candidates(zs, ctx.t_n)
    pre = [_prefix(col[sel]) for col in ctx.loss_columns]
    j = np.searchsorted(zs, cands, side="right")
    suf_sc = pre[2][-1] - pre[2][j]
    suf_s2 = pre[3][-1] - pre[3][j]
    upper = np.append(cands[1:], ctx.t_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(suf_s2 > 0, suf_sc / np.where(suf_s2 > 0, suf_s2, 1.0), np.nan)
    ok = (suf_s2 > 0) & (vertex > cands) & (vertex < upper)
    points = np.concatenate([cands, vertex[ok]])
    values = _loss_values(pre, points, np.concatenate([j, j[ok]]))
    srt = np.argsort(points, kind="stable")
    i = int(np.argmin(values[srt]))
    return float(points[srt][i]), float(values[srt][i])


def search(ctx: _SortedBatch, grid: np.ndarray, k: int, term, base: float = 0.0,
           min_last: bool = False):
    """(value, tau, t, sizes) of the first minimum over every sorted (K-1)-subset
    of ``grid``, skipping subsets that leave a group empty; None if none is
    feasible. ``term(ctx, mask)`` fits one group.

    ``min_last`` keeps, among equal values, the candidate with the smallest
    last breakpoint instead: the tie rule of a segmentation DP whose
    back-pointers keep the smallest left end. It exists so that the
    equivalence test can show that it tells the two rules apart.
    """
    best = None
    for combo in itertools.combinations(range(grid.size), k - 1):
        tau = grid[list(combo)]
        assign = np.searchsorted(tau, ctx.side, side="left")
        sizes = np.bincount(assign, minlength=k)
        if sizes.min() == 0:
            continue
        ts = np.empty(k)
        total = base
        for g in range(k):
            ts[g], val = term(ctx, assign == g)
            total += val
        value = total / ctx.n
        if best is None or value < best[0]:
            best = (value, tau, ts, sizes)
        elif min_last and value == best[0] and tau.size and tau[-1] < best[1][-1]:
            best = (value, tau, ts, sizes)
    return best


def grid_of(s: np.ndarray, k: int, mn_factor: float) -> np.ndarray:
    return tau_grid(s, mn_factor) if k > 1 else np.empty(0)


class SideOracleReference:
    """The side-oracle accumulator as a loop over splits and groups: for
    each split and each of its two groups it compacts the z-sorted batch to
    the group's coordinates and sums the loss at every t from the group's
    own prefix sums. ``tests/test_side_oracle.py`` compares the package's
    histogram pass with it."""

    def __init__(self, tau_cands: np.ndarray, t_grid: np.ndarray):
        self.tau_cands = tau_cands
        self.t_grid = t_grid
        self.acc = np.zeros((tau_cands.size, 2, t_grid.size))

    def add(self, batch) -> None:
        ctx = _SortedBatch(batch, batch.xi, loss=True)
        for ti, tau in enumerate(self.tau_cands):
            lower = ctx.side <= tau
            # an empty group's curve is zero and leaves its row unchanged
            for g, sel in enumerate((lower, ~lower)):
                j = np.searchsorted(ctx.zs[sel], self.t_grid, side="right")
                prefixes = [_prefix(col[sel]) for col in ctx.loss_columns]
                self.acc[ti, g] += _loss_values(prefixes, self.t_grid, j)

    def minimize(self):
        """(tau, t1, t2) of the first minimum over splits, then thresholds."""
        best = None
        for ti, tau in enumerate(self.tau_cands):
            i1 = int(np.argmin(self.acc[ti, 0]))
            i2 = int(np.argmin(self.acc[ti, 1]))
            total = self.acc[ti, 0][i1] + self.acc[ti, 1][i2]
            if best is None or total < best[0]:
                best = (total, float(tau), float(self.t_grid[i1]), float(self.t_grid[i2]))
        return best[1], best[2], best[3]
