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
    _fit_cut,
    _fit_grid,
    _infeasible,
    _loss_cut,
    _scored_fit,
    _screen_cut,
    _search,
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

    The search scores exactly only the cutoffs whose lower bound (the
    screening cut's, ``tuner._screen_cut``) can still reach the least SURE,
    and returns bit for bit what scoring every cutoff returns.
    """
    _, tau, t, sizes = _search(_screen_cut(batch, mn_factor), [2])[2]
    if (batch.s < 0).any():
        tau = np.array([np.nextafter(-tau[0], -np.inf), tau[0]])
        t = t[[1, 0, 1]]
        sizes = partition(batch.s, tau).sizes
    return _scored_fit(batch, HyperParams(tau=tau, t=t), sizes, "aux-scr")


def fit_oracle_loss(batch: DataBatch, cfg: SearchConfig | None = None) -> FitResult:
    """Best hyperparameters in hindsight: same search space as fit_asus,
    realized loss as the objective. Requires batch.theta."""
    if batch.theta is None:
        raise ValueError("fit_oracle_loss requires batch.theta")
    if cfg is None:
        cfg = SearchConfig()
    grid = _fit_grid(batch.s, cfg.k, cfg.mn_factor)
    return _fit_cut(batch, _loss_cut(batch, batch.s, grid), cfg.k, "oracle-loss")


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
    # halve before adding, so neighbours near the float limit do not overflow;
    # for normal floats this is 0.5 * (a + b) bit for bit
    mids = 0.5 * uniq[:-1] + 0.5 * uniq[1:]
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
    _, tau, t, sizes = _search(_loss_cut(batch, batch.xi, xi_split_candidates(batch.xi)), [2])[2]
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
