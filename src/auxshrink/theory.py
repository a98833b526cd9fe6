"""Closed-form evaluators for the asymptotic risk quantities and the
grouping-quality diagnostics.

These are leading-order expressions: the risk-gap evaluator drops the
O((log n)^{-nu}) remainder and documents itself as a sign-and-magnitude
predictor, not a precise one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DataBatch

__all__ = [
    "RegimeParams",
    "EfficiencyDiagnostics",
    "MisclassRates",
    "opt_threshold_f",
    "risk_factor_h",
    "risk_gap_first_order",
    "efficiency_diagnostics",
    "misclass_rates",
]

_LOG_PHI0 = -0.5 * math.log(2.0 * math.pi)  # log of the standard normal density at 0
# violations of r_as >= r_os or r_ns >= r_os up to this share of the risk
# scale are Monte Carlo noise, clamped by efficiency_diagnostics
_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class RegimeParams:
    """Sparsity regime: group-1 proportion pi1, sparsity exponents
    0 < alpha < beta <= 1 (group nonnull rates n^-alpha, n^-beta), average
    noise variance, and the dimension."""

    alpha: float
    beta: float
    pi1: float
    sigma_bar_sq: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.alpha < self.beta <= 1.0):
            raise ValueError("need 0 < alpha < beta <= 1")
        if not (0.0 < self.pi1 < 1.0):
            raise ValueError("pi1 must lie strictly inside (0, 1)")
        if not (math.isfinite(self.sigma_bar_sq) and self.sigma_bar_sq > 0.0):
            raise ValueError(f"sigma_bar_sq must be finite and positive, not {self.sigma_bar_sq}")
        if not float(self.n).is_integer():
            raise ValueError(f"n must be an integer, not {self.n}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        object.__setattr__(self, "n", int(self.n))  # an integral float counts as its int


def opt_threshold_f(t: float) -> float:
    """Best soft threshold at sparsity level exp(-t^2/2):
    f(t) = sqrt(t^2 - 6 log t + 2 log phi(0)).

    Above 2^500 it is taken on t / 2^k, each term scaled by 4^-k, and scaled
    back by 2^k: rounding commutes with powers of two, so the value is bit
    for bit the formula's wherever its t^2 is finite, and t^2 cannot
    overflow."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, not {t}")
    k = max(0, math.frexp(t)[1] - 500)
    u = math.ldexp(t, -k)
    arg = u * u - math.ldexp(6.0 * math.log(t), -2 * k) + math.ldexp(2.0 * _LOG_PHI0, -2 * k)
    if arg <= 0.0:
        raise ValueError(
            f"t={t} is below the expansion's range: t^2 - 6 log t + 2 log phi(0) "
            f"= {arg} is not positive"
        )
    return math.ldexp(math.sqrt(arg), k)


def risk_factor_h(t: float) -> float:
    """Per-nonnull risk factor h(t) = f(t)^2 + 5."""
    f = opt_threshold_f(t)
    h = f * f + 5.0
    if h == math.inf:
        raise ValueError(f"h(t) = f(t)^2 + 5 overflows at t={t}")
    return h


def risk_gap_first_order(rp: RegimeParams) -> float:
    """Leading-order gap between the no-side-information and side-oracle
    maximal risks:

        pi1 * n^-alpha * sigma_bar_sq * log(1/pi1) * (2 - 3 / (alpha log n))
    """
    k_n = math.log(rp.n)
    if rp.alpha * k_n <= 1.5:
        raise ValueError(
            "alpha * log n must exceed 3/2; the first-order prefactor "
            f"(2 - 3/(alpha log n)) is not positive at alpha={rp.alpha}, n={rp.n}"
        )
    return (
        rp.pi1
        * rp.n ** (-rp.alpha)
        * rp.sigma_bar_sq
        * math.log(1.0 / rp.pi1)
        * (2.0 - 3.0 / (rp.alpha * k_n))
    )


@dataclass(frozen=True)
class EfficiencyDiagnostics:
    """Risk improvement and efficiency ratio. ri == 1 - 1/e exactly."""

    ri: float
    e: float
    degenerate: bool  # True when r_ns == r_os makes both ratios undefined


def efficiency_diagnostics(r_ns: float, r_as: float, r_os: float) -> EfficiencyDiagnostics:
    """Normalized measures of how much of the oracle's gain the grouped
    estimator captures.

        e  = (r_ns - r_os) / (r_as - r_os)
        ri = 1 - 1/e

    Small Monte Carlo violations of r_as >= r_os or r_ns >= r_os (within
    _CLAMP_TOL relative to the risk scale) clamp to the boundary; larger
    ones raise. r_as == r_os yields e = inf, ri = 1. r_ns == r_os is
    flagged as degenerate (no headroom to measure improvement against).
    """
    for name, r in (("r_ns", r_ns), ("r_as", r_as), ("r_os", r_os)):
        if not math.isfinite(r):
            raise ValueError(f"{name} must be finite, not {r}")
    scale = max(abs(r_ns), abs(r_os), abs(r_as), 1.0)
    tol = _CLAMP_TOL * scale
    if r_as < r_os:
        if r_os - r_as > tol:
            raise ValueError("r_as < r_os beyond tolerance: not a valid risk triple")
        r_as = r_os
    if r_ns < r_os:
        if r_os - r_ns > tol:
            raise ValueError("r_ns < r_os beyond tolerance: not a valid risk triple")
        r_ns = r_os
    gap_total = r_ns - r_os
    gap_as = r_as - r_os
    if gap_total == 0.0:
        return EfficiencyDiagnostics(ri=math.nan, e=math.nan, degenerate=True)
    if gap_as == 0.0:
        return EfficiencyDiagnostics(ri=1.0, e=math.inf, degenerate=False)
    e = gap_total / gap_as
    return EfficiencyDiagnostics(ri=1.0 - 1.0 / e, e=e, degenerate=False)


@dataclass(frozen=True)
class MisclassRates:
    """Empirical variance-weighted disagreement between the observed grouping
    (S vs tau) and the latent grouping (xi vs tau_star)."""

    q21: float  # weight of latent group 1 sent to observed group 2
    q12: float  # weight of latent group 2 sent to observed group 1
    group1_empty: bool
    group2_empty: bool


def misclass_rates(batch: DataBatch, tau: float, tau_star: float) -> MisclassRates:
    """sigma^2-weighted misclassification rates of the S-based split at tau
    against the xi-based split at tau_star. Empty conditioning groups yield
    a zero rate and a flag."""
    if batch.xi is None:
        raise ValueError("misclass_rates requires batch.xi")
    for name, x in (("tau", tau), ("tau_star", tau_star)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, not {x}")
    w = batch.sigma**2
    in1 = batch.xi <= tau_star
    in2 = ~in1
    said2 = batch.s > tau
    said1 = ~said2

    w1 = float(w[in1].sum())
    w2 = float(w[in2].sum())
    g1_empty = not in1.any()
    g2_empty = not in2.any()
    q21 = 0.0 if g1_empty else float(w[in1 & said2].sum()) / w1
    q12 = 0.0 if g2_empty else float(w[in2 & said1].sum()) / w2
    return MisclassRates(q21=q21, q12=q12, group1_empty=g1_empty, group2_empty=g2_empty)
