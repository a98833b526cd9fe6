"""Hyperparameter search: breakpoint grids, per-group thresholds, K selection.

Every grouped fit in the package runs on the kernel and the search here. A
batch is sorted once by z = |y|/sigma (``_SortedBatch``). A breakpoint grid
on a side sequence (S, |S| or the latent xi) cuts it into cells, cell c
holding the side values in (grid[c-1], grid[c]], so every group of a K-group
fit is a run of contiguous cells and the fit's objective is a sum of
independent group terms. A ``_Cut`` is such a grid with its group terms; the
three cut builders live here: ``_sure_cut`` (SURE), ``_loss_cut`` (realized
loss, for the oracles) and ``_screen_cut`` (the screening baseline).
``_Cut.terms`` evaluates the term of the group spanning cells a..b for many
(a, b) at once, each from sums over z-sorted coordinates masked to the group.
``_search``, the one entry point of every search, combines these interval
terms over cells into the exact minimizer for every K, as in optimal
partitioning (Jackson et al. 2005, "An algorithm for optimal partitioning of
data on an interval"): a forward pass finds the least objective, a backward
pass bounds what each partial sum may be and still reach it, and a greedy
pass then picks the lexicographically smallest breakpoints. All three read
the same terms, each group scored once. Its cost grows with the square of
the number of cells, not with the C(m, K-1) breakpoint vectors.

``_search`` first rules groups out when the cut carries a bound and the
largest K it searches is 2 or 3, as pruning does in optimal partitioning
(Killick et al. 2012, "Optimal detection of changepoints with a linear
computational cost"). ``_IntervalBound`` bounds from below the least term of
the group on any run of cells, from per-coordinate minima on a fixed coarse
grid of thresholds (the segment-wise bound of FPOP, Maidstone et al. 2017),
summed per cell from histograms over bins of z, a block of segments at a
time. ``_pruned`` bounds every split (K = 2) and every pair of
breakpoints (K = 3) by the bounds of its head, middle and tail groups, takes
the exact total of the one with the least bound, and scores exactly only the
groups that a split or pair still within a rounding margin of that total
needs; a K = 3 pair is bounded again with its exact head and tail before its
middle group is scored. It returns those terms, +inf elsewhere, and the
search runs on them: the splits and pairs left out cannot reach the minimum
or tie with it, so the fit is bit for bit that of scoring every group. The
loss and screening cuts always carry their bound, so the K = 2 searches of
``fit_oracle_loss``, ``fit_oracle_side`` and ``fit_auxscr`` (whose screened
group's bound is its exact per-cell sum) and ``fit_oracle_loss`` at K = 3
are pruned. A SURE cut carries it only for a largest K of 3
(``select_k(k_max=3)`` and ``fit_asus`` at K = 3). The K = 2 SURE search and
K >= 4 are not pruned.

A grid holds only nonempty cells, decided once in ``_split_points``: it keeps
the grid points whose lower cell holds a side value and that lie below the
largest one. A group's term depends on its coordinates alone, so a grid
point that differs from a split point only by empty cells gives the same
groups, and the lexicographically first minimizer is always a split point.
Every search runs on these points (README "Where the search lives" gives
their share of the grid), or on the latent splits of
``xi_split_candidates``; only the screening cut adds 0 and max |S|, whose
lowest and top cells may be empty.

For each group the threshold is chosen on the group's order statistics:
between consecutive standardized magnitudes the SURE objective is
nondecreasing in t, so its minimum over [0, t_n] is attained on
{0} | {z_i <= t_n} | {t_n}. A hybrid fallback returns the universal
threshold for groups whose empirical second moment is too close to pure
noise for SURE to be trustworthy. Its statistic is the group's capped sum in
z order; a dot product and a derived slack settle the rule for nearly every
group (``_surely_fires``), and the z-order sum is taken only where they
cannot.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    DataBatch,
    FitResult,
    HyperParams,
    _check_integer,
    _envelope,
    _finite_vector,
    _sure_rows,
    apply_estimator,
    loss,
    sure,
    universal_threshold,
)

__all__ = [
    "SearchConfig",
    "SweepCurve",
    "KSelection",
    "tau_grid",
    "threshold_candidates",
    "fit_group_threshold",
    "fit_asus",
    "fit_sureshrink",
    "sweep_tau",
    "select_k",
]

# elements of one (groups x coordinates) masked-row temporary in _Cut.terms;
# the working set of the search stays on this budget whatever n is
_CHUNK_ELEMENTS = 1 << 12
# elements of one (breakpoints x coordinates) stack of thresholds in
# sweep_tau; with the SURE formula's temporaries about 1 MB is live at once
_SWEEP_ELEMENTS = 1 << 15
# segments of [0, t_n] on which _IntervalBound bounds each cell's term. On
# two-sample-s2 batches of 5000 rows, 65 segments left 2-3 times the splits
# (K = 2 loss) and 18 times the middle groups (K = 3 SURE) to score that 129
# leave; 257 raised a K = 2 loss fit's peak memory from 0.86 to 1.05 MB
_BOUND_SEGMENTS = 129
# the most points tau_grid builds: 8 MB of breakpoints, and far beyond any
# density a search can score
_GRID_LIMIT = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    """Options shared by the grouping searches.

    k            number of groups
    mn_factor    grid density: m_n = ceil(mn_factor * ln n)
    hybrid       apply the sparse-regime fallback to t_n per group; the
                 fallback bound is n^{-1/2} (ln n)^{3/2} with the global n
    """

    k: int = 2
    mn_factor: float = 50.0
    hybrid: bool = True

    def __post_init__(self):
        _check_integer(self.k, "k", 1)
        _check_mn_factor(self.mn_factor)
        _check_hybrid(self.hybrid)


def _check_mn_factor(mn_factor: float) -> None:
    if isinstance(mn_factor, bool) or not isinstance(mn_factor, numbers.Real):
        raise ValueError(f"mn_factor must be a real number, not {mn_factor!r}")
    if not (math.isfinite(mn_factor) and mn_factor > 0):
        raise ValueError(f"mn_factor must be finite and positive, not {mn_factor}")


def _check_hybrid(hybrid: bool) -> None:
    if not isinstance(hybrid, (bool, np.bool_)):
        raise ValueError(f"hybrid must be a bool, not {hybrid!r}")


@dataclass(frozen=True)
class SweepCurve:
    """Minimized SURE as a function of the single breakpoint (K = 2)."""

    tau_values: np.ndarray
    sure_values: np.ndarray
    t1_values: np.ndarray
    t2_values: np.ndarray


@dataclass(frozen=True)
class KSelection:
    """Outcome of scanning group counts K = 1..k_max."""

    k_selected: int  # argmin of SURE over K (primary rule)
    sure_values: np.ndarray  # SURE per K, index 0 <-> K = 1
    k_elbow: int  # last K whose incremental SURE gain is >= 5%


def tau_grid(s, mn_factor: float = 50.0) -> np.ndarray:
    """Equi-spaced interior breakpoint candidates spanning (min S, max S).

    Returns m_n = ceil(mn_factor * ln n) points; the range endpoints
    themselves are excluded. A constant auxiliary sequence carries no
    ordering information and is rejected, as are a non-finite one, one whose
    width times m_n overflows, and an ``mn_factor`` asking for over 2^20 points.
    """
    s = _finite_vector(s, "s")
    n = s.size
    if n < 2:
        raise ValueError("need at least two coordinates to build a grid")
    _check_mn_factor(mn_factor)
    lo = float(s.min())
    hi = float(s.max())
    if lo == hi:
        raise ValueError(
            "auxiliary sequence is degenerate (all values equal); "
            "it induces no grouping"
        )
    size = mn_factor * math.log(n)  # inf when it overflows
    if size > _GRID_LIMIT:
        raise ValueError(
            f"mn_factor {mn_factor} asks for m = ceil({mn_factor} * ln {n}) = {size:.4g} "
            f"grid points; at most {_GRID_LIMIT} are allowed"
        )
    m = int(math.ceil(size))
    if not math.isfinite(m * (hi - lo)):
        raise ValueError(f"s spans [{lo}, {hi}]: {m} times its width overflows")
    j = np.arange(1, m + 1, dtype=float)
    return lo + j * (hi - lo) / (m + 1)


def threshold_candidates(z, t_n: float) -> np.ndarray:
    """Candidate thresholds for one group: {0} | {z_i <= t_n} | {t_n}, sorted."""
    z = _finite_vector(z, "z")
    if np.any(z < 0):
        raise ValueError("z must hold magnitudes |y|/sigma >= 0")
    inside = z[z <= t_n]
    return np.unique(np.concatenate([[0.0], inside, [t_n]]))


def _prefix(x: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis with a leading zero:
    p[..., j] = x[..., 0] + ... + x[..., j-1], added in that order."""
    p = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=p[..., 1:])
    return p


def _sure_values(p0: np.ndarray, p2: np.ndarray, t_values: np.ndarray,
                 j: np.ndarray) -> np.ndarray:
    """Group SURE term sum s2 (z ^ t)^2 - 2 s2 I(z <= t) at each t.

    ``p0`` and ``p2`` are prefix sums of s2 and s2 z^2 over the group's
    z-ascending coordinates (last axis); ``j`` counts the z values <= each t.
    ``j`` is None when the t values are 0, the c = p2.shape[-1] - 1 z values
    at or below t_n, all distinct and above 0, and t_n: the counts are then
    0, 1, ..., c, c, read by slice.
    """
    if j is None:
        c = p2.shape[-1] - 1
        p0j = np.concatenate([p0[..., :c + 1], p0[..., c:c + 1]], axis=-1)
        p2j = np.concatenate([p2, p2[..., c:]], axis=-1)
    else:
        p0j, p2j = np.take(p0, j, axis=-1), np.take(p2, j, axis=-1)
    v = p0[..., -1:] - p0j  # the tail sum
    v *= t_values * t_values
    v += p2j
    p0j *= 2.0
    v -= p0j
    return v


def _loss_at(parts: tuple, t_values: np.ndarray) -> np.ndarray:
    """Group loss sum (theta_hat - theta)^2 of soft thresholding at each t:
    coordinates at or below t contribute theta^2, the others
    (y - theta - sigma t sign y)^2."""
    below, sc, s2 = parts
    v = 2.0 * t_values * sc
    np.subtract(below, v, out=v)
    v += t_values**2 * s2
    return v


def _hybrid_fires(capped_sum, size, n: int):
    """Whether a group looks like pure noise: its mean of (z^2 ^ t_n^2)
    exceeds 1 by at most n^{-1/2} (ln n)^{3/2}, n the global size.
    Elementwise on arrays of sums and sizes; an empty group (0 / 0, which
    the caller's np.errstate allows) does not fire."""
    stat = capped_sum / size - 1.0
    bound = n ** (-0.5) * math.log(n) ** 1.5 if n > 1 else 0.0
    return stat <= bound


def _surely_fires(capped_sum, slack, size, n: int):
    """Whether the hybrid rule fires on every capped sum up to
    ``capped_sum`` + ``slack``: ``_hybrid_fires`` is monotone in the sum
    (rounding of x / size - 1 is), so it fires there iff it fires at that
    largest sum. With a negative ``slack``, whether it may fire on some sum
    down to ``capped_sum`` - |slack|. ``slack`` must be twice the distance
    to the sum it stands for, so that adding it rounds past that sum."""
    return _hybrid_fires(capped_sum + slack, size, n)


def fit_group_threshold(z, sigma, n_global: int, hybrid: bool = True) -> float:
    """Threshold for a single group of standardized magnitudes ``z``.

    Applies the hybrid rule first: if the group's average of (z^2 ^ t_n^2)
    exceeds 1 by no more than n^{-1/2} (ln n)^{3/2}, the group looks like
    pure noise and the universal threshold is returned. Otherwise the SURE
    objective is minimized over the group's candidate set, smallest
    threshold winning ties. This is the group term every grouped fit uses.
    """
    _check_integer(n_global, "n_global", 1)
    _check_hybrid(hybrid)
    z = _finite_vector(z, "z")
    sigma = _finite_vector(sigma, "sigma")
    if z.size == 0:
        raise ValueError("group is empty")
    if z.shape != sigma.shape:
        raise ValueError("z and sigma must have equal length")
    if np.any(z < 0):
        raise ValueError("z must hold magnitudes |y|/sigma >= 0")
    _envelope(sigma, z=z)
    ctx = _SortedBatch.of_group(z, sigma, n_global)
    t, _ = _sure_group(ctx, np.ones((1, z.size), dtype=bool), hybrid)
    return float(t[0])


class _SortedBatch:
    """A batch sorted by standardized magnitude, with the side sequence the
    groups split on. It holds the columns of the SURE terms (``capped``,
    ``s2z2``) or, with ``loss``, those of the realized loss (``loss_columns``,
    which need batch.theta); the others are None. ``order[i]`` is the row of
    coordinate i."""

    def __init__(self, batch: DataBatch, side: np.ndarray, loss: bool = False):
        order = self._sort(np.abs(batch.y) / batch.sigma, batch.sigma, batch.n, loss)
        self.side = side[order]
        if loss:
            y, theta, sigma = batch.y[order], batch.theta[order], batch.sigma[order]
            err = y - theta
            self.loss_columns = (theta**2, err**2, sigma * np.sign(y) * err, self.s2s)

    @classmethod
    def of_group(cls, z: np.ndarray, sigma: np.ndarray, n: int) -> "_SortedBatch":
        """The SURE columns of one group of standardized magnitudes ``z``,
        with n and t_n those of a batch of ``n`` coordinates; no side."""
        ctx = cls.__new__(cls)
        ctx._sort(z, sigma, n, loss=False)
        return ctx

    def _sort(self, z: np.ndarray, sigma: np.ndarray, n: int, loss: bool) -> np.ndarray:
        """Sort by z and, without ``loss``, set the SURE columns; returns the order."""
        self.n = n
        self.t_n = universal_threshold(n)
        self.order = order = np.argsort(z, kind="stable")
        self.zs = z[order]
        self.s2s = sigma[order] ** 2
        self.side = self.capped = self.s2z2 = self.loss_columns = self.s2_total = None
        if not loss:
            self.s2_total = float(self.s2s.sum())
            self.capped = np.minimum(self.zs**2, self.t_n**2)
            self.s2z2 = self.s2s * self.zs * self.zs
        return order

    @functools.cached_property
    def candidates(self) -> tuple:
        """(cands, counts, starts, c): the candidate thresholds {0} |
        {z_i <= t_n} | {t_n} (``threshold_candidates`` of these coordinates),
        the count of z values <= each, the first column of each in
        [0, z_0, ..., z_{c-1}, t_n] (None when they are distinct), and
        c = #{z_i <= t_n}."""
        c = int(np.searchsorted(self.zs, self.t_n, side="right"))
        ext = np.concatenate([[0.0], self.zs[:c], [self.t_n]])
        starts = np.flatnonzero(np.concatenate([[True], ext[1:] != ext[:-1]]))
        cands = ext[starts]
        counts = np.searchsorted(self.zs, cands, side="right")
        return cands, counts, starts if starts.size < c + 2 else None, c

    def restrict(self, keep: np.ndarray) -> "_SortedBatch":
        """The coordinates ``keep`` alone, still in z order. Group terms on
        them equal those on the whole batch: n and t_n stay global."""
        sub = copy.copy(self)
        sub.__dict__.pop("candidates", None)
        sub.zs, sub.s2s, sub.side = self.zs[keep], self.s2s[keep], self.side[keep]
        if self.loss_columns is None:
            sub.capped, sub.s2z2 = self.capped[keep], self.s2z2[keep]
        else:
            sub.loss_columns = tuple(col[keep] for col in self.loss_columns)
        sub.s2_total = sub.order = None
        return sub

    def members(self, mask: np.ndarray) -> np.ndarray:
        """Which candidates each group (row of ``mask``) holds: 0 and t_n
        always, a z value when one of the group's coordinates has it. Only
        the realized loss needs it (``_min_loss_threshold``); the SURE term
        cannot take its minimum at a candidate a group does not hold."""
        _, _, starts, c = self.candidates
        ext = np.ones((mask.shape[0], c + 2), dtype=bool)
        ext[:, 1:-1] = mask[:, :c]
        if starts is None:
            return ext
        return np.logical_or.reduceat(ext, starts, axis=1)


def _sure_group(ctx: _SortedBatch, mask: np.ndarray, hybrid: bool) -> tuple:
    """SURE-fitted threshold and SURE term of each group (row of ``mask``),
    hybrid rule first; the smallest threshold wins ties. An empty group gives
    (0, 0).

    Every row is scored at every candidate of the batch, not only those its
    group holds. A candidate the group does not hold has the prefix sums of
    the last one at or below it that the group holds (0 at least), and a
    larger t; the computed term is nondecreasing in t at fixed sums, so it
    is no lower there, and ``np.argmin`` takes the first least value."""
    cands, counts, starts, c = ctx.candidates
    p0 = _prefix(mask * ctx.s2s)
    # the terms read s2 z^2 below t_n only, the first c coordinates
    p2 = _prefix(mask[:, :c] * ctx.s2z2[:c])
    vals = _sure_values(p0, p2, cands, None if starts is None else counts)
    i = np.argmin(vals, axis=1)
    rows = np.arange(mask.shape[0])
    t, v = cands[i], vals[rows, i]
    if hybrid:
        # The rule is decided on the capped sum in z order, bit for bit that
        # over the group alone; a dot product d settles most rows. Adding 0
        # is exact, so d (in any order) and that sum each lie within
        # g eps/2 T of the exact sum T <= d (1 + g eps) of the group's g
        # values >= 0: they differ by at most g eps d (1 + g eps). Only a row
        # whose rule changes within twice that takes the z-order sum.
        d = mask @ ctx.capped
        size = np.count_nonzero(mask, axis=1)
        slack = 2.0 * np.finfo(float).eps * size * d
        with np.errstate(divide="ignore", invalid="ignore"):
            fires = _surely_fires(d, slack, size, ctx.n)
            open_ = np.flatnonzero(_surely_fires(d, -slack, size, ctx.n) & ~fires)
            if open_.size:
                fires[open_] = _hybrid_fires(_z_order_sums(mask[open_], ctx.capped),
                                             size[open_], ctx.n)
        t[fires] = ctx.t_n
        v[fires] = vals[fires, -1]
    return t, v


def _z_order_sums(mask: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Each group's (row of ``mask``) sum of ``column`` in z order: adding
    +-0.0 leaves a sequential sum unchanged, so bit for bit the sum over the
    group alone."""
    return _prefix(mask * column)[:, -1]


def _screen_group(ctx: _SortedBatch, mask: np.ndarray) -> tuple:
    """Screened groups: a group's threshold is its largest magnitude (0 when
    empty), so every estimate is zero and the SURE term is sum s2 (z^2 - 2),
    summed in z order."""
    t = (mask * ctx.zs).max(axis=1, initial=0.0)
    return t, _z_order_sums(mask, ctx.s2z2 - 2.0 * ctx.s2s)


def _min_loss_threshold(ctx: _SortedBatch, mask: np.ndarray) -> tuple:
    """Threshold minimizing the realized loss of each group (row of ``mask``)
    over [0, t_n]; the smallest threshold wins ties.

    Unlike the SURE objective the loss is quadratic (not monotone) between
    order statistics, so each segment's interior vertex joins the candidate
    set. An empty group gives (0, 0).
    """
    cands, counts = ctx.candidates[:2]
    pq, pe, psc, ps2 = (_prefix(mask * col) for col in ctx.loss_columns)
    # the group's theta^2 at or below each candidate plus (y-theta)^2 above
    # it, and its sums of sigma*sign(y)*(y-theta) and of sigma^2 above it
    below = np.take(pq, counts, axis=-1)
    below += pe[:, -1:] - np.take(pe, counts, axis=-1)
    suf_sc = psc[:, -1:] - np.take(psc, counts, axis=-1)
    suf_s2 = ps2[:, -1:] - np.take(ps2, counts, axis=-1)
    parts = below, suf_sc, suf_s2
    member = ctx.members(mask)
    rows = np.arange(mask.shape[0])
    at_cand = _loss_at(parts, cands)
    at_cand[~member] = np.inf
    i = np.argmin(at_cand, axis=1)
    t, v = cands[i], at_cand[rows, i]
    del at_cand
    # each segment ends at the group's next candidate; t_n ends the last
    upper = np.full(member.shape, ctx.t_n)
    upper[:, :-1] = np.minimum.accumulate(
        np.where(member, cands, np.inf)[:, :0:-1], axis=1)[:, ::-1]
    vertex = suf_sc / np.where(suf_s2 > 0, suf_s2, 1.0)
    ok = member & (suf_s2 > 0) & (vertex > cands) & (vertex < upper)
    # no order statistic lies strictly inside a segment, so a vertex counts
    # the same z values as the segment's left end
    at_vertex = np.where(ok, _loss_at(parts, vertex), np.inf)
    i = np.argmin(at_vertex, axis=1)
    tv, vv = vertex[rows, i], at_vertex[rows, i]
    # vertices and candidates each ascend along a row; the lower value wins,
    # then the smaller point
    take = (vv < v) | ((vv == v) & (tv < t))
    return np.where(take, tv, t), np.where(take, vv, v)


class _IntervalBound:
    """Lower bounds on the least term of the group on cells a..b of a cut,
    for any a <= b, and the margin by which rounding may move the search's
    totals and these bounds.

    Each coordinate's term is ``below`` at thresholds t >= z, and at least
    ``above`` below z for t in a segment [t_j, t_{j+1}] of a fixed grid on
    [0, t_n]: on the segment at least ``below`` if z <= t_j, ``above`` if
    z > t_{j+1} and the smaller of the two otherwise. Summed over a group
    these minima bound its term on the segment, and their least over
    segments bounds its least term. Each segment's sums are taken
    cumulatively over the cells, so a group's sum is the difference of two
    entries.

    The knots cut z into bins. A cell's ``below`` sum on segment j is a
    (bin x cell) histogram, one ``np.bincount``, cumulated over the bins up
    to t_j. For SURE ``above`` is the s2 column (the term below z is
    s2 t^2 >= s2 t_j^2): add t_j^2 times the cell's s2 total less its s2 over
    the bins up to t_{j+1}, and the smaller of the two over the bin
    (t_j, t_{j+1}] that straddles the segment, two histograms more. For the
    realized loss ``above(t_j, t_{j+1}, i)`` bounds coordinates i.. on the
    segment, a bincount per segment. Segments run in blocks of about
    _CHUNK_ELEMENTS sums, each reading the z slice of its bins. A K = 2
    search's heads and tails take one block at a time, a K = 3 search's
    bounds the table of all blocks, O(segments x m); both agree bit for bit.

    With ``hybrid`` (SURE only) a group whose capped sum surely fires the
    hybrid rule has its exact term at t_n as its bound. "Surely" means with
    the slack derived below added to the sum; a group within it keeps the
    segment bound, which holds whether the rule fires or not.

    ``head_column``, when given, is a column whose sum over a K = 2 split's first
    group is that group's term at every threshold (the screened group's);
    ``ends`` then bounds the first group by the column's cumulative sum
    over the cells, with no segments.
    """

    def __init__(self, cut: _Cut, below: np.ndarray, above, scale: float,
                 hybrid: bool = False, head_column: np.ndarray | None = None):
        ctx, m = cut.ctx, cut.m
        self.m, self.n, self.cells, self.count = m, ctx.n, cut.cells, cut.count
        self.below, self.above = below, above
        self.head_column = head_column
        self.knots = np.linspace(0.0, ctx.t_n, _BOUND_SEGMENTS + 1)
        # the coordinates before first[j] have z <= t_j
        self.first = np.searchsorted(ctx.zs, self.knots, side="right")
        self.step = max(1, _CHUNK_ELEMENTS // (m + 2))  # segments per block
        # Every term, bound and base sums values of magnitude at most
        # ``scale`` in all, and adding k such values in floating point errs by
        # at most k eps/2 scale. A total adds at most three terms (each from
        # prefix sums: n + 4 operations) to the base, so it errs by at most
        # (n + 7) eps scale. A segment's cumulative entry (S segments) takes a
        # value through at most n + m + S + 5 operations (its bin, S + 1 bins,
        # the cell's sum, m + 1 cells) and sums at most 3 scale: t_j^2 s2 of a
        # coordinate at or under t_{j+1} is in the cell's total and in the s2
        # taken from it. A bound, the difference of two entries, thus errs by
        # at most 3 (n + m + S + 6) eps scale. A pruned split or pair adds at
        # most three bounds to the base (or one bound to exact terms), and a
        # row's bound takes a few operations more: 9 (n + m + S + 7) eps scale
        # at most. Both together are under 10 (n + m + S + 7) eps scale; the
        # margin is twice that, which covers the window of a few eps scale in
        # which the search counts totals as tied.
        self.margin = 20.0 * (ctx.n + m + _BOUND_SEGMENTS + 7) * np.finfo(float).eps * scale
        self.hybrid = hybrid
        if hybrid:  # SURE: ``above`` is s2
            c = self.first[-1]
            at_t_n = np.concatenate([below[:c], above[c:] * (ctx.t_n * ctx.t_n)])
            self.at_t_n, self.capped = self._cumulative(at_t_n), self._cumulative(ctx.capped)
            # The capped values are >= 0. The search sums a group's in z order
            # over at most n values, within n eps/2 of their sum T <= total;
            # each cumulative entry is within (n + m) eps/2 total of its exact
            # value, and their difference adds eps/2 total. So the search's sum
            # is below the difference plus 2 (n + m + 1) eps total, and twice
            # that absorbs the rounding of adding it (``_surely_fires``).
            self.slack = 4.0 * (ctx.n + m + 1) * np.finfo(float).eps * self.capped[-1]

    def _cumulative(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.m + 2)
        np.cumsum(np.bincount(self.cells, x, self.m + 1), out=out[1:])
        return out

    def _blocks(self):
        """Each block of consecutive segments' cumulative sums over the
        cells, with a leading zero: (segments of the block, m + 2)."""
        m, cells, below, above, first = self.m, self.cells, self.below, self.above, self.first
        under = s2_under = 0.0  # each cell's sums over the bins below a block
        s2_total = None if callable(above) else np.append(0.0, np.bincount(cells, above, m + 1))
        for j in range(0, _BOUND_SEGMENTS, self.step):
            k = min(j + self.step, _BOUND_SEGMENTS)
            # row i + 1 of a histogram is the bin (t_{j+i}, t_{j+i+1}], which
            # straddles segment j + i; row 0 the carry and, first, z = 0
            a, b, size = first[j] if j else 0, first[k], (k - j + 1) * (m + 2)
            sizes = np.diff(first[j:k + 1], prepend=a)
            key = np.repeat(np.arange(1, size, m + 2), sizes) + cells[a:b]  # column 0 is 0

            def histogram(x):  # float even when the block holds no coordinate
                return np.bincount(key, x, size).astype(float, copy=False).reshape(-1, m + 2)

            low = histogram(below[a:b])
            low[0] += under
            np.cumsum(low, axis=0, out=low)
            under = low[-1]
            if callable(above):  # the realized loss, one segment at a time
                block = np.zeros((k - j, m + 2))
                for i in range(j, k):
                    lo, hi = first[i], first[i + 1]
                    d = above(self.knots[i], self.knots[i + 1], lo)
                    np.minimum(d[:hi - lo], below[lo:hi], out=d[:hi - lo])
                    block[i - j, 1:] = np.bincount(cells[lo:], d, m + 1)
            else:
                t2 = self.knots[j:k] * self.knots[j:k]
                s2 = histogram(above[a:b])
                s2[0] += s2_under
                np.cumsum(s2, axis=0, out=s2)
                s2_under = s2[-1].copy()
                block = np.subtract(s2_total, s2[1:], out=s2[1:])
                block *= t2[:, None]
                t2 = np.repeat(np.append(0.0, t2), sizes)
                block += histogram(np.minimum(below[a:b], above[a:b] * t2))[1:]
            block += low[:-1]
            np.cumsum(block, axis=1, out=block)
            yield block

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Every segment's cumulative sums: (segments, m + 2), all the blocks."""
        return np.concatenate(list(self._blocks()))

    def __call__(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The bound of the group on cells lo[i]..hi[i], for each i; the
        reference that ``ends``, ``row`` and ``rows`` are checked against."""
        return self._finish((self.table[:, hi + 1] - self.table[:, lo]).min(axis=0), lo, hi)

    def _finish(self, v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The segment bounds ``v`` of the groups lo[i]..hi[i] with the hybrid
        rule applied."""
        if self.hybrid:
            with np.errstate(divide="ignore", invalid="ignore"):
                fires = _surely_fires(self.capped[hi + 1] - self.capped[lo], self.slack,
                                      self.count[hi + 1] - self.count[lo], self.n)
            v = np.where(fires, self.at_t_n[hi + 1] - self.at_t_n[lo], v)
        return v

    def ends(self, table: bool = False) -> tuple:
        """(head, tail): for each split b = 0..m-1 the bound of cells 0..b and
        that of cells b+1..m. With ``table`` they are read from the table of
        all segments (built here), else taken one block at a time; minima
        are exact, so the two agree bit for bit."""
        m = self.m
        head = tail = np.inf
        for cum in [self.table] if table else self._blocks():
            head = np.minimum(head, cum[:, 1:m + 1].min(axis=0))
            tail = np.minimum(tail, (cum[:, m + 1:] - cum[:, 1:m + 1]).min(axis=0))
        b = np.arange(m)
        head = (self._finish(head, np.zeros(m, dtype=int), b) if self.head_column is None
                else self._cumulative(self.head_column)[1:m + 1])
        return head, self._finish(tail, b + 1, np.full(m, m))

    def row(self, a: int) -> np.ndarray:
        """The bound of the groups a..b, b = a..m-1: ``__call__``'s
        differences, taken from slices of the table rather than gathers, so
        bit for bit its values."""
        m, table = self.m, self.table
        v = np.min(table[:, a + 1:m + 1] - table[:, a, None], axis=0)
        return self._finish(v, np.full(m - a, a), np.arange(a, m))

    def rows(self, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """For each a = 1..m-1, a lower bound on first[a-1] + bound(a..b) +
        last[b] over b = a..m-1, from the segment bounds alone: for each
        segment, the least cum[b+1] + last[b] over b from a, less cum[a]."""
        m, table = self.m, self.table  # built here: the rows' pairs use it next
        low = np.inf
        for j in range(0, _BOUND_SEGMENTS, self.step):  # a block of the table at a time
            cum = table[j:j + self.step]
            suffix = cum[:, 1:m + 1] + last[:m]
            np.minimum.accumulate(suffix[:, ::-1], axis=1, out=suffix[:, ::-1])
            low = np.minimum(low, (suffix[:, 1:] - cum[:, 1:m]).min(axis=0))
        return first[:m - 1] + low


def _loss_bound(cut: _Cut) -> _IntervalBound:
    """The interval bound of a realized-loss cut. A coordinate loses theta^2
    at thresholds t >= z and sigma^2 (v - t)^2 below z, with
    v = sign(y) (y - theta) / sigma: on [t_j, t_{j+1}] at least sigma^2 d^2,
    d the distance from v to the segment."""
    ctx = cut.ctx
    theta2, err2, sc, s2 = ctx.loss_columns
    v = sc / s2

    def above(lo: float, hi: float, i: int) -> np.ndarray:
        d = np.maximum(lo - v[i:], v[i:] - hi)
        np.maximum(d, 0.0, out=d)
        d *= d
        d *= s2[i:]
        return d

    # a coordinate's loss on [0, t_n] is at most theta^2 + (|y - theta| +
    # sigma t_n)^2 <= theta^2 + 2 (y - theta)^2 + 2 sigma^2 t_n^2
    scale = theta2.sum() + 2.0 * err2.sum() + 2.0 * ctx.t_n**2 * s2.sum()
    return _IntervalBound(cut, theta2, above, scale)


def _sure_bound(cut: _Cut, hybrid: bool, screen: bool = False) -> _IntervalBound:
    """The interval bound of a SURE cut. A coordinate's term is
    s2 (z^2 - 2) at thresholds t >= z and s2 t^2 below z: on [t_j, t_{j+1}]
    at least s2 t_j^2. So ``above`` is the s2 column, and each segment's sums
    take ``_IntervalBound``'s closed form over bins of z. With ``screen`` a
    K = 2 split's first group is screened (``_screen_cut``): its term is
    s2 (z^2 - 2) at every threshold, and that column's cumulative sum over
    the cells bounds it exactly."""
    ctx = cut.ctx
    below = ctx.s2z2 - 2.0 * ctx.s2s
    # a coordinate's term is at most s2 (t_n^2 + 2) in magnitude, and the
    # base is the sum of s2
    scale = (ctx.t_n**2 + 3.0) * ctx.s2_total
    if not screen:
        return _IntervalBound(cut, below, ctx.s2s, scale, hybrid)
    # A screened coordinate's term s2 (z^2 - 2) is not limited by t_n. A
    # total or bound sums kept terms, screened terms and the base, so its
    # values have magnitude at most the scale above plus the sum of
    # s2 |z^2 - 2| in all, and the margin's derivation holds with that scale.
    scale += float(np.abs(below).sum())
    return _IntervalBound(cut, below, ctx.s2s, scale, hybrid, head_column=below)


def _within(ctx: _SortedBatch, cells: np.ndarray, lo: int, hi: int) -> tuple:
    """(batch, cells, keep): the batch and cells restricted to the
    coordinates in cells lo..hi when that drops at least half of them (a
    smaller saving does not pay for the copy, in time or in memory), and
    which of the coordinates returned lie in cells lo..hi."""
    keep = (cells >= lo) & (cells <= hi)
    size = np.count_nonzero(keep)
    if 2 * size > keep.size:
        return ctx, cells, keep
    return ctx.restrict(keep), cells[keep], np.ones(size, dtype=bool)


def _split_points(grid: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The points of ``grid`` below max ``side`` whose lower cell holds a side
    value: every cell of the grid they make holds one.

    Moving a breakpoint down across an empty cell keeps every group, and a
    point at or above max ``side`` leaves the groups above it empty, so the
    lexicographically first minimizer with no empty group uses these points
    only."""
    cells = np.searchsorted(grid, side, side="left")
    held = np.bincount(cells, minlength=grid.size + 1)[:-1] > 0
    return grid[held & (grid < side.max())]


class _Cut:
    """A sorted batch cut into the cells of a breakpoint grid, with the terms
    of every first group (cells 0..b, b = 0..m) and every last group (cells
    a..m, a = 1..m), each computed on first use. ``first`` fits the first
    group and ``rest`` the others. ``row(a)`` scores the middle groups a..b,
    b = a..m-1. ``bound``, when given, maps the cut to its
    ``_IntervalBound``, with which ``_search`` prunes when its largest K is 2
    or 3. The cut builders are ``_sure_cut``, ``_loss_cut`` and
    ``_screen_cut``; every cell of their grids holds a coordinate, but for
    the screening cut's lowest and top cells."""

    def __init__(self, ctx: _SortedBatch, grid: np.ndarray, first, rest, base: float,
                 bound=None):
        self.ctx = ctx
        self.grid = grid
        self.m = m = grid.size
        self.first = first
        self.rest = rest
        self.base = base
        self.bound = bound
        self.cells = np.searchsorted(grid, ctx.side, side="left")
        self.count = np.concatenate([[0], np.cumsum(np.bincount(self.cells, minlength=m + 1))])

    @functools.cached_property
    def head(self) -> tuple:
        return self.terms(self.first, np.zeros(self.m + 1, dtype=int), np.arange(self.m + 1))

    @functools.cached_property
    def tail(self) -> tuple:
        return self.terms(self.rest, np.arange(1, self.m + 1), np.full(self.m, self.m))

    def terms(self, term, lo: np.ndarray, hi: np.ndarray, within: tuple | None = None):
        """Threshold and objective term of the group holding cells lo[i]..hi[i],
        for each i. On the grids of ``_split_points`` every cell holds a
        coordinate, so no two groups hold the same coordinates and each is
        scored once.

        Consecutive groups run together in chunks of a fixed number of
        elements: one row per group, holding the coordinates of the chunk's
        cells, those outside the row's group multiplied by zero. Adding +-0.0
        leaves a sequential sum unchanged, so the prefix sums are bit for bit
        those over the group alone.

        Chunks are cut from ``within``, a (_SortedBatch, cells) pair that
        holds every group's cells, or else from the whole batch. A chunk
        whose cells hold more than half of that batch keeps all of it, while
        its row count follows from its cells alone, so scattered groups (a
        pruned search's) are cut from the whole batch: cut from the span of
        them all, their chunks would outgrow the budget.
        """
        t, v = np.empty(lo.size), np.empty(lo.size)
        ctx, cells = (self.ctx, self.cells) if within is None else within
        s = 0
        while s < lo.size:
            a = np.minimum.accumulate(lo[s:])
            b = np.maximum.accumulate(hi[s:])
            # coordinates in the cells of the first 1, 2, ... groups from s
            width = self.count[b + 1] - self.count[a]
            e = s + max(1, int(np.count_nonzero(
                np.arange(1, a.size + 1) * (width + 1) <= _CHUNK_ELEMENTS)))
            sub, sub_cells, keep = _within(ctx, cells, a[e - s - 1], b[e - s - 1])
            # the coordinates of one group are those the chunk keeps
            mask = (keep[None] if e - s == 1
                    else (sub_cells >= lo[s:e, None]) & (sub_cells <= hi[s:e, None]))
            t[s:e], v[s:e] = term(sub, mask)
            s = e
        return t, v

    def row(self, a: int):
        """Terms of the middle groups a..b, b = a..m-1, cut from cells
        a..m-1 alone when that halves the batch."""
        b = np.arange(a, self.m)
        return self.terms(self.rest, np.full(b.size, a), b,
                          _within(self.ctx, self.cells, a, self.m - 1)[:2])


_SIGN = np.int64(-(2**63))


def _key(x: np.ndarray) -> np.ndarray:
    """Integers in the order of the floats ``x`` (one per float; -0 == 0)."""
    b = np.ascontiguousarray(x, dtype=float).view(np.int64)
    return np.where(b < 0, _SIGN - b, b)


def _unkey(k: np.ndarray) -> np.ndarray:
    return np.where(k < 0, _SIGN - k, k).view(np.float64)


def _largest(ok, x: np.ndarray) -> np.ndarray:
    """Largest float y with ok(y), elementwise, from a guess ``x``; ``ok``
    is elementwise, true at -inf and monotone (true up to y, false beyond).

    A guess off by a step is corrected by one; other elements are bisected
    on the integer keys of the floats, which takes 64 halvings at most.
    """
    x = np.where(ok(x), x, np.nextafter(x, -np.inf))
    up = np.nextafter(x, np.inf)
    x = np.where(ok(up), up, x)
    if not (ok(np.nextafter(x, np.inf)) | ~ok(x)).any():
        return x
    lo = np.full(x.shape, _key(np.array([-np.inf]))[0])
    hi = np.full(x.shape, _key(np.array([np.inf]))[0])
    for _ in range(64):
        mid = (lo & hi) + ((lo ^ hi) >> 1)  # floor((lo + hi) / 2) without overflow
        good = ok(_unkey(mid))
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return _unkey(lo)


def _largest_addend(c: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Largest x with fl(x + c) <= limit, elementwise; -inf where none is.
    fl(x + c) is nondecreasing in x, so fl(x + c) <= limit iff x <= the result."""
    with np.errstate(invalid="ignore"):
        return _largest(lambda x: (x == -np.inf) | (x + c <= limit), limit - c)


def _largest_total(total: float, n: int) -> float:
    """Largest sum whose mean over n rounds to the mean of ``total``."""
    value = total / n
    return _largest(lambda x: (x == -np.inf) | (x / n <= value), np.array([total]))[0]


def _search(cut: _Cut, ks) -> dict:
    """{K: (value, tau, t, sizes)} of the minimizer of
    value = (base + term of group 1 + ... + term of group K) / n, summed in
    that order, for each K in ``ks`` that a breakpoint vector can fit: its
    K - 1 breakpoints, K thresholds and K group sizes. Every term is finite
    (``DataBatch``), so that is every K <= m + 1, K - 1 of the m grid points;
    a larger K is dropped before any work.

    Every search runs here, on the (t, v) terms of the first groups, of the
    last groups and of the rows of ``middle``, a mapping a -> groups a..b,
    b = a..m-1. When the cut carries a bound and the largest K left is 2 or
    3 they are what ``_pruned(cut, ks)`` keeps, bit for bit the same fits;
    else ``cut.head``, ``cut.tail`` and, from K = 3 on, every ``cut.row(a)``,
    each scored once and read by all three passes.

    Ties go to the lexicographically smallest breakpoints. Rounding of
    x + c and of x / n is monotone in x, so the least partial sums give the
    least value (forward pass), and from the largest sum that still reaches
    it each state gets the largest partial sum that can (backward pass). The
    greedy pass then takes at each step the smallest breakpoint within that
    bound. A row absent from ``middle`` is all +inf: it changes no partial
    sum and no limit, and the greedy pass never reaches it.
    """
    m, n, base = cut.m, cut.ctx.n, cut.base
    ks = [k for k in ks if k <= m + 1]
    kmax = max(ks, default=1)
    if cut.bound is not None and kmax in (2, 3):
        (head_t, head_v), (tail_t, tail_v), middle = _pruned(cut, ks)
    else:
        (head_t, head_v), (tail_t, tail_v) = cut.head, cut.tail
        middle = {a: cut.row(a) for a in range(1, m)} if kmax > 2 else {}
    # part[k][b]: least sum of base and k groups covering cells 0..b
    part = [None, base + head_v[:m]] + [np.full(m, np.inf) for _ in range(2, kmax)]
    for a, (_, row) in middle.items():
        for k in range(2, kmax):
            np.minimum(part[k][a:], part[k - 1][a - 1] + row, out=part[k][a:])
    best = {1: base + head_v[m]}
    for k in ks:
        if k > 1:
            best[k] = np.min(part[k - 1] + tail_v)
    # limit[k][g][b]: largest sum of base and g groups covering cells 0..b
    # from which the remaining groups reach the K = k minimum
    limit = {}
    for k in ks:
        if k > 1:
            limit[k] = ([None] + [np.full(m, -np.inf) for _ in range(1, k - 1)]
                        + [_largest_addend(tail_v, _largest_total(best[k], n))])
    for a, (_, row) in reversed(middle.items()) if max(limit, default=0) > 2 else ():
        for k, lim in limit.items():
            for g in range(1, k - 1):
                lim[g][a - 1] = np.max(_largest_addend(row, lim[g + 1][a:]))
    fits = {}
    for k in ks:
        total, prev, idx, ts = base, -1, [], []
        for g in range(1, k):
            row_t, row_v = (head_t[:m], head_v[:m]) if g == 1 else middle[prev + 1]
            cand = total + row_v
            j = int(np.argmax(cand <= limit[k][g][prev + 1:]))
            total = cand[j]
            prev += 1 + j
            idx.append(prev)
            ts.append(row_t[j])
        total, last_t = (best[1], head_t[m]) if k == 1 else (total + tail_v[prev], tail_t[prev])
        sizes = np.diff(cut.count[[0, *(i + 1 for i in idx), m + 1]])
        fits[k] = (total / n, cut.grid[idx], np.array(ts + [last_t]), sizes)
    return fits


def _pruned(cut: _Cut, ks) -> tuple:
    """The terms (head, tail, middle) ``_search`` runs on for the K in ``ks``
    (each at most 3): exact only where K = 1, a split (K = 2) or a pair of
    breakpoints (K = 3) whose lower bound can still reach that K's least
    total needs them, +inf elsewhere, and with ``middle`` holding, a
    ascending, only the rows a that keep a pair.

    A K = 3 total is (base + head term of cells 0..a-1) + the term of cells
    a..b + the tail term of cells b+1..m, and a K = 2 total has no middle
    term. For each K the least total is at most the exact total of the split
    or pair with the least bound. One whose bound exceeds that by more than
    the rounding margin can neither reach the least total nor tie with it,
    so the search returns, bit for bit, what it returns on every group's
    terms. K = 3 rows are first bounded as a whole (``_IntervalBound.rows``)
    and then visited least bound first to find the pair with the least
    bound. The pairs within the margin have their head and tail scored, and
    only those still within it with these exact terms have their middle
    group scored. A search of K = 2 alone takes its bounds one block of
    segments at a time, with no table.
    """
    m, base = cut.m, cut.base
    bound = cut.bound(cut)
    head, tail = bound.ends(table=3 in ks)
    head_t, head_v = np.zeros(m + 1), np.full(m + 1, np.inf)
    tail_t, tail_v = np.zeros(m), np.full(m, np.inf)

    def score(heads: np.ndarray, tails: np.ndarray) -> None:
        """Exact terms of the groups 0..b, b in ``heads``, and b+1..m, b in
        ``tails``."""
        head_t[heads], head_v[heads] = cut.terms(cut.first, np.zeros(heads.size, dtype=int), heads)
        tail_t[tails], tail_v[tails] = cut.terms(cut.rest, tails + 1, np.full(tails.size, m))

    none = np.empty(0, dtype=int)
    # the split and the pair (a, b) with the least bound
    lower = head + tail
    lower += base
    split = np.argsort(lower, kind="stable")[:1] if 2 in ks else none
    pair = none, none
    if 3 in ks:
        first = base + head
        floor = bound.rows(first, tail)
        least = np.inf
        for a in np.argsort(floor, kind="stable") + 1:
            if not floor[a - 1] < least:
                break
            low = first[a - 1] + bound.row(a) + tail[a:]
            i = int(np.argmin(low))
            if low[i] < least:
                least, pair = low[i], (np.array([a]), np.array([a + i]))
    heads, tails = np.concatenate([split, pair[0] - 1]), np.concatenate([split, pair[1]])
    score(heads, tails)
    # their exact totals bound the least totals from above
    kept = lo = hi = mid = none
    if split.size:
        upper = base + head_v[split[0]] + tail_v[split[0]]
        kept = np.flatnonzero(lower <= upper + bound.margin)
    if pair[0].size:
        a, b = pair[0][0], pair[1][0]
        limit = base + head_v[a - 1] + cut.terms(cut.rest, *pair)[1][0] + tail_v[b]
        limit += bound.margin
        lo, hi, mid = [none], [none], [none]
        for a in np.flatnonzero(floor <= limit) + 1:
            low = bound.row(a)
            b = np.flatnonzero(first[a - 1] + low + tail[a:] <= limit)
            lo.append(np.full(b.size, a))
            hi.append(b + a)
            mid.append(low[b])
        lo, hi, mid = np.concatenate(lo), np.concatenate(hi), np.concatenate(mid)
    del bound  # its table is not needed while scoring
    score(np.setdiff1d(np.concatenate([[m] if 1 in ks else none, kept, lo - 1]), heads),
          np.setdiff1d(np.concatenate([kept, hi]), tails))
    middle = {}
    if lo.size:
        # the pairs still within the limit with their exact heads and tails
        kept = base + head_v[lo - 1] + mid + tail_v[hi] <= limit
        lo, hi = lo[kept], hi[kept]
        t, v = cut.terms(cut.rest, lo, hi)
        starts = np.searchsorted(lo, np.arange(m + 1))
        for a in np.unique(lo).tolist():
            kept = slice(starts[a], starts[a + 1])
            row_t, row_v = np.zeros(m - a), np.full(m - a, np.inf)
            row_t[hi[kept] - a], row_v[hi[kept] - a] = t[kept], v[kept]
            middle[a] = row_t, row_v
    return (head_t, head_v), (tail_t, tail_v), middle


def _sure_cut(batch: DataBatch, grid: np.ndarray, hybrid: bool, k_max: int = 2) -> _Cut:
    """The SURE terms of the groups on ``grid`` over ``batch.s``, for a
    search whose largest K is ``k_max``.

    Only a cut for k_max = 3 carries the bound, with which ``_search``
    scores exactly only the head, middle and tail groups of the pairs it
    cannot rule out, and the K = 1 and K = 2 fits ``select_k`` takes from the
    same search. A K = 2 prune of the splits (``fit_asus`` at K = 2) is as
    sound as the realized loss's, and more than doubles the benchmark's
    ``reps_per_s``, but it waits on the benchmark's ``peak_rss_mb`` (ROADMAP
    items 2 and 6). ``_search`` prunes no K >= 4.
    """
    ctx = _SortedBatch(batch, batch.s)
    term = functools.partial(_sure_group, hybrid=hybrid)
    bound = functools.partial(_sure_bound, hybrid=hybrid) if k_max == 3 else None
    return _Cut(ctx, grid, term, term, ctx.s2_total, bound=bound)


def _loss_cut(batch: DataBatch, side: np.ndarray, grid: np.ndarray) -> _Cut:
    """The realized-loss terms of the groups on ``grid`` over ``side``, with
    their interval bound."""
    ctx = _SortedBatch(batch, side, loss=True)
    return _Cut(ctx, grid, _min_loss_threshold, _min_loss_threshold, 0.0, bound=_loss_bound)


def _screen_cut(batch: DataBatch, mn_factor: float = 50.0) -> _Cut:
    """The screening terms of every cutoff on |S| (``fit_auxscr``), the split
    points of the grid on |S| with 0 (screen nothing) and max |S| (screen
    everything), screened group first, with their interval bound. Cell 0
    (|S| = 0) and the top cell may be empty, and an empty group's term is 0."""
    abs_s = np.abs(batch.s)
    tau_cands = np.union1d([0.0, abs_s.max()], _split_points(tau_grid(abs_s, mn_factor), abs_s))
    ctx = _SortedBatch(batch, abs_s)
    return _Cut(ctx, tau_cands, _screen_group, functools.partial(_sure_group, hybrid=False),
                ctx.s2_total, bound=functools.partial(_sure_bound, hybrid=False, screen=True))


def _fit_grid(s: np.ndarray, k: int, mn_factor: float) -> np.ndarray:
    """The breakpoints a K-group fit on ``s`` searches; none for K = 1."""
    return _split_points(tau_grid(s, mn_factor), s) if k > 1 else np.empty(0)


def _infeasible(k: int) -> ValueError:
    return ValueError(
        f"no feasible breakpoint candidate for K={k}; "
        "the auxiliary sequence cannot support that many nonempty groups"
    )


def _scored_fit(batch: DataBatch, hp: HyperParams, sizes: np.ndarray, name: str) -> FitResult:
    """The estimate of ``hp`` on ``batch`` with its SURE and, given theta, its loss."""
    theta_hat = apply_estimator(batch, hp)
    return FitResult(
        theta_hat=theta_hat,
        hp=hp,
        group_sizes=sizes,
        sure_value=sure(batch, hp),
        loss_value=loss(batch.theta, theta_hat) if batch.theta is not None else None,
        estimator_name=name,
    )


def _fit_cut(batch: DataBatch, cut: _Cut, k: int, name: str) -> FitResult:
    """The scored fit of ``batch`` at the K = ``k`` minimizer of ``cut``."""
    best = _search(cut, [k]).get(k)
    if best is None:
        raise _infeasible(k)
    return _scored_fit(batch, HyperParams(*best[1:3]), best[3], name)


def _fit_sure(batch: DataBatch, cfg: SearchConfig, name: str) -> FitResult:
    grid = _fit_grid(batch.s, cfg.k, cfg.mn_factor)
    return _fit_cut(batch, _sure_cut(batch, grid, cfg.hybrid, cfg.k), cfg.k, name)


def fit_sureshrink(batch: DataBatch, hybrid: bool = True) -> FitResult:
    """Single-group fit: one SURE-tuned threshold with the hybrid fallback."""
    return _fit_sure(batch, SearchConfig(k=1, hybrid=hybrid), "sureshrink")


def fit_asus(batch: DataBatch, cfg: SearchConfig | None = None) -> FitResult:
    """Full grouped fit: search breakpoints x per-group thresholds by SURE.

    Returns the exact SURE minimizer over every sorted (K-1)-subset of the
    breakpoint grid with the group thresholds fitted for each, computed by
    combining the terms of contiguous-cell groups rather than by visiting
    the subsets. Ties resolve to the lexicographically smallest breakpoints.
    """
    return _fit_sure(batch, SearchConfig() if cfg is None else cfg, "asus")


def sweep_tau(batch: DataBatch, cfg: SearchConfig | None = None) -> SweepCurve:
    """Minimized SURE at every grid breakpoint (K = 2 only).

    The curve's global minimum coincides with fit_asus(K=2) because both
    scan the same candidates. Breakpoints that leave a group empty are
    omitted from the curve. The search runs on the split points of the grid
    (``_split_points``), and every other point takes the fit and SURE of the
    last split point at or below it, whose groups hold the same coordinates.
    """
    if cfg is None:
        cfg = SearchConfig(k=2)
    if cfg.k != 2:
        raise ValueError("sweep_tau is defined for K = 2")
    grid = tau_grid(batch.s, cfg.mn_factor)
    split = _split_points(grid, batch.s)
    if not split.size:
        raise ValueError("no feasible breakpoint candidate for K=2")
    cut = _sure_cut(batch, split, cfg.hybrid)
    t1, t2 = cut.head[0][:split.size], cut.tail[0]
    # each split point's SURE as core.sure gives it, with group 1 at s <= tau
    sures = np.empty(split.size)
    step = max(1, _SWEEP_ELEMENTS // batch.n)
    for lo in range(0, split.size, step):
        rows = slice(lo, lo + step)
        t_rows = np.where(batch.s <= split[rows, None], t1[rows, None], t2[rows, None])
        sures[rows] = _sure_rows(batch, t_rows)
    # the grid points with both groups nonempty, each with its split point
    at = np.searchsorted(split, grid, side="right") - 1
    feasible = (at >= 0) & (grid < batch.s.max())
    at = at[feasible]
    return SweepCurve(
        tau_values=grid[feasible],
        sure_values=sures[at],
        t1_values=t1[at],
        t2_values=t2[at],
    )


def select_k(
    batch: DataBatch,
    k_max: int,
    mn_factor: float = 50.0,
    hybrid: bool = True,
) -> KSelection:
    """Fit K = 1..k_max and report the SURE-minimizing K.

    One set of group terms serves every K, and each K's fit equals
    fit_asus at that K; a k_max above m + 1, for m split points, raises
    ValueError naming K = m + 2. The primary rule is the SURE argmin. An
    elbow heuristic is reported alongside: the last K whose SURE
    improvement over K-1 is at least 5% relative.
    """
    _check_integer(k_max, "k_max", 1)
    _check_mn_factor(mn_factor)
    _check_hybrid(hybrid)
    grid = _fit_grid(batch.s, k_max, mn_factor)
    if k_max > grid.size + 1:  # _search's rule, checked before the cut is built
        raise _infeasible(grid.size + 2)
    fits = _search(_sure_cut(batch, grid, hybrid, k_max), range(1, k_max + 1))
    sures = np.array([sure(batch, HyperParams(tau, t)) for _, tau, t, _ in fits.values()])
    k_selected = int(np.argmin(sures)) + 1
    k_elbow = 1
    for k in range(2, k_max + 1):
        prev, cur = sures[k - 2], sures[k - 1]
        denom = abs(prev) if prev != 0 else 1.0
        if (prev - cur) / denom >= 0.05:
            k_elbow = k
        else:
            break
    return KSelection(k_selected=k_selected, sure_values=sures, k_elbow=k_elbow)
