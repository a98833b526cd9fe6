"""Hyperparameter search: breakpoint grids, per-group thresholds, K selection.

Every grouped fit in the package runs on the kernel and the driver here: a
batch sorted once by z = |y|/sigma (``_SortedBatch``), group terms that
minimize prefix sums over a group's z-sorted coordinates (SURE, realized
loss, screening), and ``_search``, which splits on a side sequence (S, |S|
or the latent xi) and yields one (value, tau, t, sizes) per breakpoint
vector. Fits keep the first minimum, so ties go to the earliest candidate.

The search enumerates sorted (K-1)-subsets of an equi-spaced breakpoint grid
over the auxiliary sequence. For each candidate grouping the per-group
threshold is chosen on the group's order statistics: between consecutive
standardized magnitudes the SURE objective is nondecreasing in t, so its
minimum over [0, t_n] is attained on {0} | {z_i <= t_n} | {t_n}. A hybrid
fallback returns the universal threshold for groups whose empirical second
moment is too close to pure noise for SURE to be trustworthy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import (
    DataBatch,
    FitResult,
    HyperParams,
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
        if self.k < 1:
            raise ValueError("K must be at least 1")
        if self.mn_factor <= 0:
            raise ValueError("mn_factor must be positive")


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
    ordering information and is rejected.
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    if n < 2:
        raise ValueError("need at least two coordinates to build a grid")
    if mn_factor <= 0:
        raise ValueError("mn_factor must be positive")
    lo = float(s.min())
    hi = float(s.max())
    if lo == hi:
        raise ValueError(
            "auxiliary sequence is degenerate (all values equal); "
            "it induces no grouping"
        )
    m = int(math.ceil(mn_factor * math.log(n)))
    j = np.arange(1, m + 1, dtype=float)
    return lo + j * (hi - lo) / (m + 1)


def threshold_candidates(z, t_n: float) -> np.ndarray:
    """Candidate thresholds for one group: {0} | {z_i <= t_n} | {t_n}, sorted."""
    z = np.asarray(z, dtype=float)
    inside = z[z <= t_n]
    return np.unique(np.concatenate([[0.0], inside, [t_n]]))


def _prefix(x: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero: p[j] = x[0] + ... + x[j-1]."""
    return np.concatenate([[0.0], np.cumsum(x)])


def _objective_values(zs: np.ndarray, s2s: np.ndarray, t_values: np.ndarray) -> np.ndarray:
    """Group SURE term sum s2 (z ^ t)^2 - 2 s2 I(z <= t) at each t.

    ``zs`` must be sorted ascending with ``s2s`` aligned.
    """
    p0 = _prefix(s2s)
    p2 = _prefix(s2s * zs * zs)
    j = np.searchsorted(zs, t_values, side="right")
    tail = p0[-1] - p0[j]
    return t_values * t_values * tail + p2[j] - 2.0 * p0[j]


def _loss_values(prefixes: list, t_values: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Group loss sum (theta_hat - theta)^2 of soft thresholding at each t.

    ``prefixes`` are the prefix sums of theta^2, (y-theta)^2,
    sigma*sign(y)*(y-theta) and sigma^2 over the group's z-ascending
    coordinates; ``j`` counts the group's z values <= each t. Coordinates
    at or below t contribute theta^2, the others (y - theta - sigma t sign y)^2.
    """
    pq, pse, psc, ps2 = prefixes
    return (
        pq[j]
        + (pse[-1] - pse[j])
        - 2.0 * t_values * (psc[-1] - psc[j])
        + t_values**2 * (ps2[-1] - ps2[j])
    )


def _min_objective(zs: np.ndarray, s2s: np.ndarray, t_n: float) -> tuple[float, float]:
    """Minimize the group SURE term over the candidate set; smallest t on ties."""
    cands = threshold_candidates(zs, t_n)
    vals = _objective_values(zs, s2s, cands)
    i = int(np.argmin(vals))  # first occurrence == smallest threshold
    return float(cands[i]), float(vals[i])


def _hybrid_fires(capped_sum: float, size: int, n: int) -> bool:
    """Whether a group looks like pure noise: its mean of (z^2 ^ t_n^2)
    exceeds 1 by at most n^{-1/2} (ln n)^{3/2}, n the global size."""
    stat = capped_sum / size - 1.0
    bound = n ** (-0.5) * math.log(n) ** 1.5 if n > 1 else 0.0
    return stat <= bound


def fit_group_threshold(z, sigma, n_global: int, hybrid: bool = True) -> float:
    """Threshold for a single group of standardized magnitudes ``z``.

    Applies the hybrid rule first: if the group's average of (z^2 ^ t_n^2)
    exceeds 1 by no more than n^{-1/2} (ln n)^{3/2}, the group looks like
    pure noise and the universal threshold is returned. Otherwise the SURE
    objective is minimized over the group's candidate set, smallest
    threshold winning ties.
    """
    z = np.asarray(z, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if z.size == 0:
        raise ValueError("group is empty")
    if z.shape != sigma.shape:
        raise ValueError("z and sigma must have equal length")
    order = np.argsort(z, kind="stable")
    zs = z[order]
    t_n = universal_threshold(n_global)
    capped_sum = float(np.minimum(zs * zs, t_n * t_n).sum())
    if hybrid and _hybrid_fires(capped_sum, zs.size, n_global):
        return t_n
    return _min_objective(zs, sigma[order] ** 2, t_n)[0]


class _SortedBatch:
    """A batch sorted by standardized magnitude, with the side sequence the
    groups split on. The loss columns are None when the batch lacks theta."""

    def __init__(self, batch: DataBatch, side: np.ndarray):
        self.n = batch.n
        self.t_n = universal_threshold(batch.n)
        z = np.abs(batch.y) / batch.sigma
        order = np.argsort(z, kind="stable")
        self.zs = z[order]
        sigma = batch.sigma[order]
        self.s2s = sigma**2
        self.side = side[order]
        self.capped = np.minimum(self.zs**2, self.t_n**2)
        self.s2_total = float(self.s2s.sum())
        self.loss_columns = None
        if batch.theta is not None:
            y = batch.y[order]
            theta = batch.theta[order]
            err = y - theta
            self.loss_columns = (theta**2, err**2, sigma * np.sign(y) * err, self.s2s)


def _sure_group(ctx: _SortedBatch, sel, hybrid: bool) -> tuple[float, float]:
    """SURE-fitted threshold and SURE term of one group, hybrid rule first.
    Without the hybrid rule an empty group gives (0, 0)."""
    zs = ctx.zs[sel]
    s2s = ctx.s2s[sel]
    if hybrid and _hybrid_fires(float(ctx.capped[sel].sum()), zs.size, ctx.n):
        return ctx.t_n, float(_objective_values(zs, s2s, np.array([ctx.t_n]))[0])
    return _min_objective(zs, s2s, ctx.t_n)


def _screen_group(ctx: _SortedBatch, sel) -> tuple[float, float]:
    """Screened group: its threshold is its largest magnitude, so every
    estimate is zero and the SURE term reduces to sum s2 z^2 - 2 s2."""
    zs = ctx.zs[sel]
    s2s = ctx.s2s[sel]
    t = float(zs[-1]) if zs.size else 0.0
    return t, float((s2s * zs**2).sum() - 2.0 * s2s.sum())


def _min_loss_threshold(ctx: _SortedBatch, sel) -> tuple[float, float]:
    """Threshold minimizing the realized group loss over [0, t_n].

    Unlike the SURE objective the loss is quadratic (not monotone) between
    order statistics, so each segment's interior vertex joins the candidate
    set. An empty group gives (0, 0).
    """
    zs = ctx.zs[sel]
    cands = threshold_candidates(zs, ctx.t_n)
    pre = [_prefix(col[sel]) for col in ctx.loss_columns]
    j = np.searchsorted(zs, cands, side="right")
    suf_sc = pre[2][-1] - pre[2][j]
    suf_s2 = pre[3][-1] - pre[3][j]
    upper = np.append(cands[1:], ctx.t_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(suf_s2 > 0, suf_sc / np.where(suf_s2 > 0, suf_s2, 1.0), np.nan)
    ok = (suf_s2 > 0) & (vertex > cands) & (vertex < upper)
    # no order statistic lies strictly inside a segment, so a vertex counts
    # the same z values as the segment's left end
    points = np.concatenate([cands, vertex[ok]])
    values = _loss_values(pre, points, np.concatenate([j, j[ok]]))
    srt = np.argsort(points, kind="stable")
    i = int(np.argmin(values[srt]))
    return float(points[srt][i]), float(values[srt][i])


def _search(ctx: _SortedBatch, breakpoints, terms: list, base: float = 0.0,
            skip_empty: bool = True):
    """Yield (value, tau, t, sizes) for each breakpoint vector ``tau``.

    Group g holds the side values in (tau[g-1], tau[g]]; ``terms[g](ctx, mask)``
    gives its threshold and objective term, and value = (base + sum of the
    terms) / n. With ``skip_empty`` a vector that leaves a group empty is skipped.
    """
    k = len(terms)
    for tau in breakpoints:
        if k == 2:
            # one comparison splits on a single breakpoint, well below the
            # cost of searchsorted plus bincount
            upper = ctx.side > tau[0]
            n_upper = int(np.count_nonzero(upper))
            sizes = np.array([ctx.n - n_upper, n_upper])
            masks = (~upper, upper)
        else:
            assign = np.searchsorted(tau, ctx.side, side="left")
            sizes = np.bincount(assign, minlength=k)
            masks = (assign == g for g in range(k))
        if skip_empty and sizes.min() == 0:
            continue
        ts = np.empty(k)
        total = base
        for g, (term, mask) in enumerate(zip(terms, masks)):
            ts[g], val = term(ctx, mask)
            total += val
        yield total / ctx.n, tau, ts, sizes


def _breakpoint_vectors(s: np.ndarray, k: int, mn_factor: float):
    """Every sorted (K-1)-subset of the breakpoint grid on ``s``, in
    lexicographic order; a single empty vector for K = 1."""
    grid = tau_grid(s, mn_factor) if k > 1 else np.empty(0)
    for combo in itertools.combinations(range(grid.size), k - 1):
        yield grid[list(combo)]


def _sure_search(batch: DataBatch, k: int, mn_factor: float, hybrid: bool):
    """The driver over the SURE candidates of a K-group fit on ``batch.s``."""
    ctx = _SortedBatch(batch, batch.s)
    term = functools.partial(_sure_group, hybrid=hybrid)
    return _search(ctx, _breakpoint_vectors(batch.s, k, mn_factor), [term] * k,
                   base=ctx.s2_total)


def _fit_sure(batch: DataBatch, cfg: SearchConfig, name: str) -> FitResult:
    best = min(_sure_search(batch, cfg.k, cfg.mn_factor, cfg.hybrid),
               key=itemgetter(0), default=None)
    if best is None:
        raise ValueError(
            f"no feasible breakpoint candidate for K={cfg.k}; "
            "the auxiliary sequence cannot support that many nonempty groups"
        )
    _, tau, t, sizes = best
    hp = HyperParams(tau=tau, t=t)
    theta_hat = apply_estimator(batch, hp)
    return FitResult(
        theta_hat=theta_hat,
        hp=hp,
        group_sizes=sizes,
        sure_value=sure(batch, hp),
        loss_value=loss(batch.theta, theta_hat) if batch.theta is not None else None,
        estimator_name=name,
    )


def fit_sureshrink(batch: DataBatch, hybrid: bool = True) -> FitResult:
    """Single-group fit: one SURE-tuned threshold with the hybrid fallback."""
    return _fit_sure(batch, SearchConfig(k=1, hybrid=hybrid), "sureshrink")


def fit_asus(batch: DataBatch, cfg: SearchConfig | None = None) -> FitResult:
    """Full grouped fit: search breakpoints x per-group thresholds by SURE.

    Enumerates every sorted (K-1)-subset of the breakpoint grid, fits the
    group thresholds for each, and returns the SURE minimizer. Candidate
    order is lexicographic in tau and strict improvement is required to
    replace the incumbent, so ties resolve to the lexicographically
    smallest hyperparameters.
    """
    return _fit_sure(batch, SearchConfig() if cfg is None else cfg, "asus")


def sweep_tau(batch: DataBatch, cfg: SearchConfig | None = None) -> SweepCurve:
    """Minimized SURE at every grid breakpoint (K = 2 only).

    The curve's global minimum coincides with fit_asus(K=2) because both
    scan the same candidates. Breakpoints skipped for creating an empty
    group are omitted from the curve.
    """
    if cfg is None:
        cfg = SearchConfig(k=2)
    if cfg.k != 2:
        raise ValueError("sweep_tau is defined for K = 2")
    taus, sures, t1s, t2s = [], [], [], []
    for _, tau, ts, _ in _sure_search(batch, 2, cfg.mn_factor, cfg.hybrid):
        taus.append(tau[0])
        sures.append(sure(batch, HyperParams(tau=tau, t=ts)))
        t1s.append(ts[0])
        t2s.append(ts[1])
    if not taus:
        raise ValueError("no feasible breakpoint candidate for K=2")
    return SweepCurve(
        tau_values=np.array(taus),
        sure_values=np.array(sures),
        t1_values=np.array(t1s),
        t2_values=np.array(t2s),
    )


def select_k(
    batch: DataBatch,
    k_max: int,
    mn_factor: float = 50.0,
    hybrid: bool = True,
) -> KSelection:
    """Fit K = 1..k_max and report the SURE-minimizing K.

    The primary rule is the SURE argmin. An elbow heuristic is reported
    alongside: the last K whose SURE improvement over K-1 is at least 5%
    relative. Beware the combinatorial cost of large K on dense grids.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    sures = []
    for k in range(1, k_max + 1):
        cfg = SearchConfig(k=k, mn_factor=mn_factor, hybrid=hybrid)
        sures.append(fit_asus(batch, cfg).sure_value)
    sures = np.array(sures)
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
