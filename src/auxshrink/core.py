"""Numeric kernel: soft thresholding, group partitioning, SURE, and loss.

Every estimator in the package is built from the primitives here. All
functions are pure and operate on plain numpy arrays, so they are safe to
call concurrently.

Conventions used throughout the package:

* ``z_i = |y_i| / sigma_i`` is the noise-standardized magnitude of the
  primary statistic.
* a group partition induced by breakpoints ``tau_1 < ... < tau_{K-1}`` uses
  half-open cells ``(tau_{k-1}, tau_k]`` with ``tau_0 = -inf`` and
  ``tau_K = +inf``; a value sitting exactly on a breakpoint belongs to the
  lower group.
* group indices are 0-based internally (the CLI reports them 1-based).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DataBatch",
    "HyperParams",
    "Grouping",
    "FitResult",
    "universal_threshold",
    "soft_estimate",
    "partition",
    "sure",
    "loss",
    "apply_estimator",
]


def _finite(x, name: str) -> np.ndarray:
    """``x`` as a float array of any shape; a non-finite entry raises
    ValueError naming ``name`` and the entry's index."""
    arr = np.asarray(x, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        i = tuple(int(k) for k in np.unravel_index(np.argmin(finite), arr.shape))
        where = f" at index {i[0] if arr.ndim == 1 else i}" if arr.ndim else ""
        raise ValueError(f"{name} is not finite{where}: {arr[i]}")
    return arr


def _finite_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    return _finite(arr, name)


@dataclass(frozen=True)
class DataBatch:
    """One observed problem instance; every given field must be finite.

    y       primary statistics, one per coordinate
    sigma   known noise standard deviations, all > 0
    s       auxiliary (side information) statistics
    theta   ground truth mean vector; simulation only
    xi      latent noiseless side information; simulation only
    """

    y: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    theta: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None

    def __post_init__(self):
        y = _finite_vector(self.y, "y")
        sigma = _finite_vector(self.sigma, "sigma")
        s = _finite_vector(self.s, "s")
        if y.size < 1:
            raise ValueError("batch must contain at least one coordinate")
        if sigma.shape != y.shape or s.shape != y.shape:
            raise ValueError("y, sigma and s must have identical length")
        if np.any(sigma <= 0):
            raise ValueError("all sigma values must be positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "s", s)
        for name in ("theta", "xi"):
            val = getattr(self, name)
            if val is not None:
                val = _finite_vector(val, name)
                if val.shape != y.shape:
                    raise ValueError(f"{name} must have length {y.size}")
                object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class HyperParams:
    """Grouping breakpoints plus one soft threshold per group.

    ``tau`` has length K-1 and must be strictly increasing (empty for K=1);
    ``t`` has length K with nonnegative entries; both must be finite.
    Thresholds fitted by the tuner stay within [0, universal_threshold(n)];
    callers may construct larger values (the screening baseline does).
    """

    tau: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        tau = _finite_vector(self.tau, "tau")
        t = _finite_vector(self.t, "t")
        if t.size < 1:
            raise ValueError("need at least one threshold")
        if tau.size != t.size - 1:
            raise ValueError("tau must have length K-1")
        if tau.size > 1 and np.any(np.diff(tau) <= 0):
            raise ValueError("tau must be strictly increasing")
        if np.any(t < 0):
            raise ValueError("thresholds must be nonnegative")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "t", t)

    @property
    def k(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class Grouping:
    """Result of partitioning coordinates by the auxiliary sequence."""

    assignment: np.ndarray  # 0-based group index per coordinate
    sizes: np.ndarray  # length K, sums to n


@dataclass(frozen=True)
class FitResult:
    """A fitted estimator: the estimate plus everything chosen on the way."""

    theta_hat: np.ndarray
    hp: Optional[HyperParams]
    group_sizes: np.ndarray
    sure_value: Optional[float]
    loss_value: Optional[float]
    estimator_name: str


def universal_threshold(n: int) -> float:
    """sqrt(2 log n), the upper end of every threshold search range."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return math.sqrt(2.0 * math.log(n))


def soft_estimate(y_i, sigma_i, t):
    """Soft-threshold estimate: 0 when |y/sigma| <= t, else shrink by sigma*t.

    Accepts scalars or arrays (broadcasting elementwise); every entry must
    be finite.
    """
    y_i = _finite(y_i, "y")
    sigma_i = _finite(sigma_i, "sigma")
    t = _finite(t, "t")
    if np.any(sigma_i <= 0):
        raise ValueError("sigma must be positive")
    if np.any(t < 0):
        raise ValueError("threshold must be nonnegative")
    z = np.abs(y_i) / sigma_i
    out = np.where(z <= t, 0.0, y_i - sigma_i * t * np.sign(y_i))
    if out.ndim == 0:
        return float(out)
    return out


def partition(s, tau) -> Grouping:
    """Assign each coordinate to the group whose (tau_{k-1}, tau_k] cell holds s_i.

    Boundary values go to the lower group. ``tau`` may be empty (K=1); ``s``
    and ``tau`` must be finite.
    """
    s = _finite_vector(s, "s")
    tau = _finite_vector(tau, "tau")
    if tau.size > 1 and np.any(np.diff(tau) <= 0):
        raise ValueError("tau must be strictly increasing")
    k = tau.size + 1
    # count of breakpoints strictly below s_i == 0-based group index
    assignment = np.searchsorted(tau, s, side="left").astype(np.intp)
    sizes = np.bincount(assignment, minlength=k)
    return Grouping(assignment=assignment, sizes=sizes)


def _group_thresholds_per_coord(batch: DataBatch, hp: HyperParams) -> np.ndarray:
    grouping = partition(batch.s, hp.tau)
    return hp.t[grouping.assignment]


def sure(batch: DataBatch, hp: HyperParams) -> float:
    """Unbiased risk estimate of the group-wise soft-threshold estimator.

    Returns
        n^{-1} [ sum_i sigma_i^2
                 + sum_i { sigma_i^2 (z_i ^ t_{g(i)})^2
                           - 2 sigma_i^2 I(z_i <= t_{g(i)}) } ]

    Empty groups contribute nothing.
    """
    t_per = _group_thresholds_per_coord(batch, hp)
    return float(_sure_rows(batch, t_per[np.newaxis])[0])


def _sure_rows(batch: DataBatch, t_rows: np.ndarray) -> np.ndarray:
    """SURE (as in ``sure``) at each row of per-coordinate thresholds.

    ``t_rows`` has shape (r, n). Each row is summed on its own, so a row's
    value does not depend on the other rows of the stack.
    """
    s2 = batch.sigma**2
    z = np.abs(batch.y) / batch.sigma
    inner = s2 * np.minimum(z, t_rows) ** 2 - 2.0 * s2 * (z <= t_rows)
    return (s2.sum() + inner.sum(axis=1)) / batch.n


def loss(theta, theta_hat) -> float:
    """Mean squared error n^{-1} ||theta_hat - theta||^2; both vectors, and
    the loss, must be finite."""
    theta = _finite_vector(theta, "theta")
    theta_hat = _finite_vector(theta_hat, "theta_hat")
    if theta.shape != theta_hat.shape:
        raise ValueError("theta and theta_hat must have equal length")
    with np.errstate(over="ignore"):
        diff = theta_hat - theta
        value = float(diff @ diff / theta.size)
    if not math.isfinite(value):
        raise ValueError("the loss overflows: theta_hat - theta is too large to square and sum")
    return value


def apply_estimator(batch: DataBatch, hp: HyperParams) -> np.ndarray:
    """Soft-threshold each coordinate at its group's threshold."""
    t_per = _group_thresholds_per_coord(batch, hp)
    return soft_estimate(batch.y, batch.sigma, t_per)
