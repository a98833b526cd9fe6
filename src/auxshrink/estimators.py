"""Comparison estimators: auxiliary screening, the two oracles, and a
positive-part James-Stein baseline.

The screening estimator zeroes every coordinate whose auxiliary magnitude
falls below a cutoff and soft-thresholds the rest; cutoff and surviving
threshold are tuned jointly by SURE. The oracles require the simulation-only
fields of the batch (ground truth, latent side information) and minimize
realized loss instead of SURE.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .core import (
    DataBatch,
    FitResult,
    HyperParams,
    apply_estimator,
    loss,
    partition,
    sure,  # unused here; perfbench/tracing.py patches it (ROADMAP item 6)
)
from .tuner import (
    SearchConfig,
    _best,
    _Cut,
    _fit_grid,
    _infeasible,
    _loss_bound,
    _min_loss_threshold,
    _scored_fit,
    _screen_bound,
    _screen_group,
    _SortedBatch,
    _sure_group,
    tau_grid,
)

__all__ = [
    "fit_auxscr",
    "fit_oracle_loss",
    "fit_oracle_side",
    "fit_ejs",
]


def fit_auxscr(batch: DataBatch, mn_factor: float = 50.0) -> FitResult:
    """Screening baseline: zero out small-|S| coordinates, threshold the rest.

    Group 1 collects coordinates with |S_i| <= tau and is forced to zero by
    setting its threshold to the group's largest standardized magnitude;
    group 2 gets a pure SURE-fitted threshold. The cutoff tau is searched
    over the interior grid on |S| extended by 0 (screen nothing) and
    max |S| (screen everything), minimizing the same SURE criterion.

    The hyperparameters reproduce the fit through ``core`` on the batch as
    given, which splits on S itself. When some S_i < 0, the screen
    -tau <= S <= tau is the middle of three groups:
    tau = [nextafter(-tau, -inf), tau] and t = [t_keep, t_screen, t_keep].

    The search scores exactly only the cutoffs whose lower bound
    (``tuner._screen_bound``) can still reach the least SURE, and returns
    bit for bit what scoring every cutoff returns.
    """
    _, tau, t, sizes = _best(_screen_cut(batch, mn_factor), 2)
    if (batch.s < 0).any():
        tau = np.array([np.nextafter(-tau[0], -np.inf), tau[0]])
        t = t[[1, 0, 1]]
        sizes = partition(batch.s, tau).sizes
    return _scored_fit(batch, HyperParams(tau=tau, t=t), sizes, "aux-scr")


def _screen_cut(batch: DataBatch, mn_factor: float = 50.0) -> _Cut:
    """The screening terms of every cutoff on |S|, with the interval bound
    that prunes their K = 2 search."""
    abs_s = np.abs(batch.s)
    grid = tau_grid(abs_s, mn_factor)
    tau_cands = np.unique(np.concatenate([[0.0], grid, [float(abs_s.max())]]))
    ctx = _SortedBatch(batch, abs_s)
    return _Cut(ctx, tau_cands, _screen_group, functools.partial(_sure_group, hybrid=False),
                ctx.s2_total, skip_empty=False, bound=_screen_bound)


def _loss_cut(batch: DataBatch, side: np.ndarray, grid: np.ndarray) -> _Cut:
    """The realized-loss terms of the groups on ``grid`` over ``side``,
    with the interval bound that prunes their K = 2 and K = 3 searches."""
    return _Cut(_SortedBatch(batch, side, loss=True), grid, _min_loss_threshold,
                _min_loss_threshold, 0.0, bound=_loss_bound)


def fit_oracle_loss(batch: DataBatch, cfg: SearchConfig | None = None) -> FitResult:
    """Best hyperparameters in hindsight: same search space as fit_asus,
    realized loss as the objective. Requires batch.theta."""
    if batch.theta is None:
        raise ValueError("fit_oracle_loss requires batch.theta")
    if cfg is None:
        cfg = SearchConfig()
    grid = _fit_grid(batch.s, cfg.k, cfg.mn_factor)
    best = _best(_loss_cut(batch, batch.s, grid), cfg.k)
    if best is None:
        raise _infeasible(cfg.k)
    _, tau, t, sizes = best
    return _scored_fit(batch, HyperParams(tau=tau, t=t), sizes, "oracle-loss")


def xi_split_candidates(xi: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Split points for grouping on the latent sequence: midpoints between
    consecutive distinct values. Optionally thinned to at most ``cap``
    candidates, always keeping the outermost gaps. A constant latent
    sequence has no split and is rejected.

    Between adjacent floats a midpoint can round onto the upper value. Such
    a split repeats the next one, or after the largest value leaves the
    upper group empty, so it is dropped, and a sequence left with no split
    is rejected as for any K = 2 fit without two nonempty groups."""
    uniq = np.unique(xi)
    if uniq.size < 2:
        raise ValueError(
            "latent sequence xi is degenerate (all values equal); "
            "it induces no grouping"
        )
    mids = 0.5 * (uniq[:-1] + uniq[1:])
    mids = mids[mids < uniq[1:]]
    if not mids.size:
        raise _infeasible(2)
    if cap is not None and mids.size > cap:
        idx = np.unique(np.linspace(0, mids.size - 1, cap).round().astype(int))
        mids = mids[idx]
    return mids


def fit_oracle_side(batch: DataBatch) -> FitResult:
    """Two groups split on the latent (noiseless) side information, with
    loss-minimizing thresholds per group. Requires batch.theta and batch.xi.

    The split point ranges over midpoints of consecutive distinct latent
    values; this is exhaustive for threshold-on-xi partitions.
    """
    if batch.theta is None or batch.xi is None:
        raise ValueError("fit_oracle_side requires batch.theta and batch.xi")
    # every split leaves both groups nonempty, so a minimizer exists
    _, tau, t, sizes = _best(_loss_cut(batch, batch.xi, xi_split_candidates(batch.xi)), 2)
    hp = HyperParams(tau=tau, t=t)
    theta_hat = apply_estimator(dataclasses.replace(batch, s=batch.xi), hp)
    return FitResult(
        theta_hat=theta_hat,
        hp=hp,
        group_sizes=sizes,
        sure_value=None,
        loss_value=loss(batch.theta, theta_hat),
        estimator_name="oracle-side",
    )


def fit_ejs(batch: DataBatch) -> FitResult:
    """Positive-part James-Stein shrinkage toward the precision-weighted mean."""
    n = batch.n
    if n < 4:
        raise ValueError("James-Stein shrinkage needs n >= 4")
    y = batch.y
    prec = 1.0 / batch.sigma**2
    y_bar = float((y * prec).sum() / prec.sum())
    disp = float(((y - y_bar) ** 2 * prec).sum())
    if disp == 0.0:
        theta_hat = np.full(n, y_bar)
    else:
        factor = max(0.0, 1.0 - (n - 3) / disp)
        theta_hat = y_bar + factor * (y - y_bar)
    return FitResult(
        theta_hat=theta_hat,
        hp=None,
        group_sizes=np.array([n]),
        sure_value=None,
        loss_value=loss(batch.theta, theta_hat) if batch.theta is not None else None,
        estimator_name="ejs",
    )
