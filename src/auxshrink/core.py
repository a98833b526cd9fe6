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
    return _require(arr, np.isfinite(arr), name, "finite")


def _require(arr: np.ndarray, ok: np.ndarray, name: str, what: str) -> np.ndarray:
    """``arr``; where ``ok`` is false, ValueError naming ``name``, the first
    such entry's index and value, and what it is not."""
    if not ok.all():
        i = tuple(int(k) for k in np.unravel_index(np.argmin(ok), arr.shape))
        where = f" at index {i[0] if arr.ndim == 1 else i}" if arr.ndim else ""
        raise ValueError(f"{name} is not {what}{where}: {arr[i]}")
    return arr


def _check_integer(value, name: str, least: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer (a
    Python or numpy one, not a bool), of at least ``least`` when given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        floor = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{floor}, not {value!r}")


def _envelope(sigma, y=None, theta=None, z=None) -> None:
    """Raise ValueError naming the first entry at which sigma is not positive,
    or sigma^2, 1/sigma^2, z^2 = (|y|/sigma)^2, y^2 = sigma^2 z^2 or, with
    ``theta``, theta^2, (y - theta)^2 or ((y - theta)/sigma)^2 is not finite
    (``z`` may stand for ``y``); else unless 16 E is finite. E = 269 sum
    sigma^2 + sum y^2 + sum 1/sigma^2 + 4 sum z^2 + sum theta^2 + 2 sum
    (y - theta)^2 adds the SURE and screening scale (``tuner._sure_bound``),
    the loss scale (``_loss_bound``; 269 = 3 t_n^2 + 5, t_n^2 = 2 ln n < 88)
    and the sums of ``fit_ejs`` (its dispersion is at most 4 sum z^2). A
    search's values reach 3 scales (``_IntervalBound``) and add a few."""
    _require(sigma, sigma > 0, "sigma", "positive")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s2 = sigma * sigma
        z = np.abs(y) / sigma if z is None else z
        squares = {"sigma^2": s2, "1/sigma^2": 1.0 / s2, "(|y|/sigma)^2": z * z,
                   "y^2": s2 * z * z}
        if theta is not None:
            err = y - theta
            squares.update({"theta^2": theta * theta, "(y - theta)^2": err * err,
                            "((y - theta)/sigma)^2": (err / sigma) ** 2})
        cols = np.broadcast_arrays(*squares.values())
        sums = [col.sum() for col in cols]  # finite sums of squares have finite terms
        if not np.isfinite(sums).all():
            ok = np.isfinite(np.stack(cols)).reshape(len(cols), -1)
            if not ok.all():
                q = int(np.argmin(ok[:, np.argmin(ok.all(axis=0))]))
                _require(cols[q], np.isfinite(cols[q]), list(squares)[q], "finite")
        weights = (269.0, 1.0, 4.0, 1.0, 1.0, 2.0)  # the last square is not summed
        if not math.isfinite(16.0 * sum(w * x for w, x in zip(weights, sums))):
            raise ValueError("the squares of y, sigma and theta overflow summed over rows")


def _finite_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    return _finite(arr, name)


@dataclass(frozen=True)
class DataBatch:
    """One observed problem instance, finite and within ``_envelope``.

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
        _envelope(sigma, y, self.theta)

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
    _check_integer(n, "n", 1)
    return math.sqrt(2.0 * math.log(n))


def soft_estimate(y_i, sigma_i, t):
    """Soft-threshold estimate: 0 when |y/sigma| <= t, else shrink by sigma*t.

    Accepts scalars or arrays (broadcasting elementwise); every entry must
    be finite, and y and sigma must lie in ``DataBatch``'s envelope.
    """
    y_i = _finite(y_i, "y")
    sigma_i = _finite(sigma_i, "sigma")
    t = _finite(t, "t")
    _envelope(sigma_i, y_i)
    if np.any(t < 0):
        raise ValueError("threshold must be nonnegative")
    z = np.abs(y_i) / sigma_i
    # kept rows have z > t; zeroed rows shrink by sigma z = |y|, which is finite
    out = np.where(z <= t, 0.0, y_i - sigma_i * np.minimum(t, z) * np.sign(y_i))
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
