"""Scenario generators and the Monte Carlo risk harness.

Families
--------
one-sample-s1 / one-sample-s2
    Sparse latent blocks observed through unit-variance noise; the auxiliary
    sequence is the latent plus averaged secondary noise, in four variants of
    increasing corruption (Laplace mean noise, chi-square mean noise, and two
    sign-perturbed versions with heavy-tailed contamination of the nulls).
two-sample-s1 / two-sample-s2
    Difference-of-means setting: Y_i = U_i - V_i with the auxiliary sequence
    |U_i + kappa_i V_i|, kappa_i = sigma_{i,1}/sigma_{i,2}. s1 has unit
    variances, s2 draws each variance from Unif(0.1, 1).
asymptotic-s1 / asymptotic-s2
    Percentage-sized sparsity blocks with conditionally Gaussian (s1) or
    chi-square (s2) auxiliary sequences whose group separation is controlled
    by log-scale constants; two separation variants each.
toy
    The two-sample illustrative example: 40% signal coordinates in two
    uniform blocks, sigma_i = sqrt(0.5), auxiliary |Ybar_1 + Ybar_2|; the
    latent field carries the signal/null labels.

All generators are deterministic functions of ScenarioSpec.seed. Averaged
auxiliary noise is summed one row of n draws at a time, never as an (m, n)
matrix. The harness generates each replication's batch once and fits each
requested estimator on it. For the side oracle row it adds each
replication's loss on a common (split, threshold) grid in one histogram
pass, minimizes the average, approximating the population risk minimizer,
and then scores that rule on every replication. Only while the side oracle
is requested, the harness keeps each replication's scoring view (y, sigma,
theta and xi: 32 bytes per coordinate) until the grid is minimized.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DataBatch, HyperParams, apply_estimator, loss, partition, universal_threshold
from .estimators import fit_auxscr, fit_ejs, fit_oracle_loss, xi_split_candidates
from .tuner import SearchConfig, fit_asus, fit_sureshrink

__all__ = [
    "FAMILIES",
    "ESTIMATORS",
    "ALIASES",
    "Estimator",
    "ScenarioSpec",
    "EstimatorRisk",
    "RiskReport",
    "generate",
    "gen_one_sample",
    "gen_two_sample",
    "gen_asymptotic",
    "gen_toy",
    "run_risk_experiment",
]

FAMILIES = (
    "one-sample-s1",
    "one-sample-s2",
    "two-sample-s1",
    "two-sample-s2",
    "asymptotic-s1",
    "asymptotic-s2",
    "toy",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Which experiment to generate, at what size, from which seed."""

    family: str
    n: int
    m: Optional[int] = None  # auxiliary sample count (one-sample/asymptotic)
    aux_variant: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown scenario family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be positive")


def _sparse_eta1(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rare N(2, 0.01) perturbations hitting each coordinate w.p. n^{-1/2}."""
    mask = rng.random(n) < n ** (-0.5)
    vals = rng.normal(2.0, 0.1, n)
    return np.where(mask, vals, 0.0)


def _mean_of_draws(draw, m: int) -> np.ndarray:
    """Mean of ``m`` rows ``draw()``, drawn in order, holding one row at a time.

    Bit for bit the ``.mean(axis=0)`` of the (m, n) matrix drawn in one call:
    the rows consume the random stream as the matrix would, and the axis-0
    mean adds whole rows in order before dividing by m.
    """
    acc = draw()
    for _ in range(m - 1):
        acc += draw()
    return acc / m


def gen_one_sample(spec: ScenarioSpec) -> DataBatch:
    if spec.family not in ("one-sample-s1", "one-sample-s2"):
        raise ValueError(f"not a one-sample family: {spec.family}")
    m = spec.m
    if m is None or m < 10:
        raise ValueError("one-sample scenarios need m >= 10")
    variant = spec.aux_variant
    if variant not in (1, 2, 3, 4):
        raise ValueError("aux_variant must be 1..4")
    n = spec.n
    if spec.family == "one-sample-s1":
        sizes = (50, 200)
        ranges = ((6.0, 7.0), (2.0, 3.0))
    else:
        sizes = (200, 800)
        ranges = ((4.0, 8.0), (1.0, 3.0))
    if n <= sum(sizes):
        raise ValueError(f"n must exceed {sum(sizes)} for {spec.family}")

    rng = np.random.default_rng(spec.seed)
    xi = np.concatenate(
        [
            rng.uniform(*ranges[0], sizes[0]),
            rng.uniform(*ranges[1], sizes[1]),
            np.zeros(n - sum(sizes)),
        ]
    )
    theta = xi + _sparse_eta1(rng, n)
    y = theta + rng.standard_normal(n)
    sigma = np.ones(n)

    if variant in (1, 3):
        eta2_bar = _mean_of_draws(lambda: rng.laplace(0.0, 4.0, n), m)
    else:
        eta2_bar = _mean_of_draws(lambda: rng.chisquare(10.0, n), m)

    if variant in (1, 2):
        s = np.abs(xi + eta2_bar)
    elif variant == 3:
        contaminated = rng.lognormal(0.0, 5.0 / math.sqrt(m), n)
        xi_tilde = np.where(xi != 0.0, xi, contaminated)
        rho = rng.integers(0, 2, n) * 2.0 - 1.0
        s = np.abs(xi_tilde + rho * eta2_bar)
    else:
        df = max(1, round(2 * m / 10))
        contaminated = rng.standard_t(df, n)
        xi_tilde = np.where(xi != 0.0, xi, contaminated)
        rho = np.where(rng.random(n) < 0.75, 1.0, -1.0)
        s = np.abs(xi_tilde - rho * eta2_bar)

    return DataBatch(y=y, sigma=sigma, s=s, theta=theta, xi=xi)


def gen_two_sample(spec: ScenarioSpec) -> DataBatch:
    if spec.family not in ("two-sample-s1", "two-sample-s2"):
        raise ValueError(f"not a two-sample family: {spec.family}")
    n = spec.n
    if n < 2:
        raise ValueError("two-sample scenarios need n >= 2")
    rng = np.random.default_rng(spec.seed)
    p1 = n ** (-0.6)
    p2 = n ** (-0.3)
    xi1 = np.where(rng.random(n) < p1, rng.uniform(3.0, 7.0, n), 0.0)
    xi2 = np.where(rng.random(n) < p2, 4.0, 0.0)
    mu1 = xi1 + rng.normal(0.0, 0.1, n)
    mu2 = xi2 + rng.normal(0.0, 0.1, n)
    if spec.family == "two-sample-s1":
        var1 = np.ones(n)
        var2 = np.ones(n)
    else:
        var1 = rng.uniform(0.1, 1.0, n)
        var2 = rng.uniform(0.1, 1.0, n)
    u = mu1 + np.sqrt(var1) * rng.standard_normal(n)
    v = mu2 + np.sqrt(var2) * rng.standard_normal(n)
    kappa = np.sqrt(var1 / var2)
    y = u - v
    sigma = np.sqrt(var1 + var2)
    s = np.abs(u + kappa * v)
    theta = mu1 - mu2
    # latent for the side oracle: the noiseless value behind S (E[U + kappa V]
    # up to the mean perturbations), which cleanly separates the union support
    xi = xi1 + kappa * xi2
    return DataBatch(y=y, sigma=sigma, s=s, theta=theta, xi=xi)


def gen_asymptotic(spec: ScenarioSpec) -> DataBatch:
    if spec.family not in ("asymptotic-s1", "asymptotic-s2"):
        raise ValueError(f"not an asymptotic family: {spec.family}")
    m = 50 if spec.m is None else spec.m
    if m < 1:
        raise ValueError("m must be positive")
    variant = spec.aux_variant
    if variant not in (1, 2):
        raise ValueError("aux_variant must be 1 or 2 for asymptotic scenarios")
    n = spec.n
    k_n = math.log(n)
    rng = np.random.default_rng(spec.seed)

    if spec.family == "asymptotic-s1":
        nb1 = round(0.01 * n)
        nb2 = round(0.04 * n)
        ranges = ((6.0, 7.0), (2.0, 3.0))
    else:
        nb1 = round(0.04 * n)
        nb2 = round(0.16 * n)
        ranges = ((4.0, 8.0), (1.0, 3.0))
    if nb1 < 1 or nb2 < 1 or nb1 + nb2 >= n:
        raise ValueError(f"n={n} too small for {spec.family} block sizes")

    xi = np.concatenate(
        [
            rng.uniform(*ranges[0], nb1),
            rng.uniform(*ranges[1], nb2),
            np.zeros(n - nb1 - nb2),
        ]
    )
    theta = xi + _sparse_eta1(rng, n)
    if spec.family == "asymptotic-s1":
        sigma = np.ones(n)
    else:
        sigma = np.sqrt(rng.uniform(0.1, 1.0, n))
    y = theta + sigma * rng.standard_normal(n)

    null = xi == 0.0
    eta2_bar = _mean_of_draws(lambda: rng.normal(0.0, 0.1, n), m)
    if spec.family == "asymptotic-s1":
        mu0 = math.sqrt(math.log(k_n)) if variant == 1 else math.sqrt(k_n)
        mean_s = np.where(null, mu0, 0.0)
        sigma_s = np.sqrt(rng.uniform(0.1, 1.0, n))
        s = np.abs(rng.normal(mean_s, sigma_s) + eta2_bar)
    else:
        df0 = 1.0 + (math.sqrt(math.log(k_n)) if variant == 1 else k_n)
        df = np.where(null, df0, 1.0)
        s = np.abs(rng.chisquare(df) + eta2_bar)
    return DataBatch(y=y, sigma=sigma, s=s, theta=theta, xi=xi)


def gen_toy(spec: ScenarioSpec) -> DataBatch:
    if spec.family != "toy":
        raise ValueError(f"not the toy family: {spec.family}")
    n = spec.n
    nb = round(0.2 * n)
    if nb < 1 or 2 * nb >= n:
        raise ValueError("toy scenario needs n >= 5")
    rng = np.random.default_rng(spec.seed)
    rest = n - 2 * nb
    mu1 = np.concatenate(
        [rng.uniform(4.0, 6.0, nb), rng.uniform(2.0, 3.0, nb), np.zeros(rest)]
    )
    mu2 = np.concatenate(
        [rng.uniform(1.0, 2.0, nb), rng.uniform(1.0, 6.0, nb), np.zeros(rest)]
    )
    ybar1 = mu1 + 0.5 * rng.standard_normal(n)
    ybar2 = mu2 + 0.5 * rng.standard_normal(n)
    y = ybar1 - ybar2
    sigma = np.full(n, math.sqrt(0.5))
    s = np.abs(ybar1 + ybar2)
    theta = mu1 - mu2
    labels = np.concatenate([np.ones(2 * nb), np.zeros(rest)])
    return DataBatch(y=y, sigma=sigma, s=s, theta=theta, xi=labels)


_GENERATORS = {
    "one-sample-s1": gen_one_sample,
    "one-sample-s2": gen_one_sample,
    "two-sample-s1": gen_two_sample,
    "two-sample-s2": gen_two_sample,
    "asymptotic-s1": gen_asymptotic,
    "asymptotic-s2": gen_asymptotic,
    "toy": gen_toy,
}


def generate(spec: ScenarioSpec) -> DataBatch:
    """Generate one batch for the scenario; deterministic given spec.seed."""
    return _GENERATORS[spec.family](spec)


@dataclass
class EstimatorRisk:
    """Monte Carlo summary for one estimator."""

    name: str
    losses: np.ndarray
    mean_loss: float
    sd_loss: Optional[float]
    se_loss: Optional[float]
    mean_tau: Optional[list]
    mean_t: Optional[list]
    mean_sizes: Optional[list]


@dataclass
class RiskReport:
    spec: ScenarioSpec
    n_reps: int
    results: dict

    def to_dict(self) -> dict:
        out = {
            "scenario": self.spec.family,
            "n": self.spec.n,
            "m": self.spec.m,
            "aux_variant": self.spec.aux_variant,
            "seed": self.spec.seed,
            "reps": self.n_reps,
            "estimators": {},
        }
        for name, r in self.results.items():
            out["estimators"][name] = {
                "risk": r.mean_loss,
                "sd": r.sd_loss,
                "se": r.se_loss,
                "mean_tau": r.mean_tau,
                "mean_t": r.mean_t,
                "mean_sizes": r.mean_sizes,
            }
        return out


def _summarize(name, rows) -> EstimatorRisk:
    """Summarize one estimator's (loss, hp, group_sizes) rows, one per
    replication. A rule shared by every row (the side oracle's) is reported
    as it is: the mean of identical floats need not equal them."""
    losses = np.asarray([lv for lv, _, _ in rows], dtype=float)
    sd = float(losses.std(ddof=1)) if losses.size >= 2 else None
    hps = [hp for _, hp, _ in rows if hp is not None]
    mean_tau = mean_t = None
    if hps and all(hp is hps[0] for hp in hps):
        mean_tau, mean_t = hps[0].tau.tolist(), hps[0].t.tolist()
    elif hps:
        mean_tau = list(np.mean([hp.tau for hp in hps], axis=0))
        mean_t = list(np.mean([hp.t for hp in hps], axis=0))
    return EstimatorRisk(
        name=name,
        losses=losses,
        mean_loss=float(losses.mean()),
        sd_loss=sd,
        se_loss=None if sd is None else sd / math.sqrt(losses.size),
        mean_tau=mean_tau,
        mean_t=mean_t,
        mean_sizes=list(np.mean([sz for _, _, sz in rows], axis=0)),
    )


class _SideOracleAccumulator:
    """Average, across replications, the loss of every (split, t1, t2)
    combination on common grids, then minimize. Groups come from the latent
    sequence: group 1 of a split tau is xi <= tau."""

    def __init__(self, batch0: DataBatch, t_points: int = 513):
        if batch0.xi is None or batch0.theta is None:
            raise ValueError("side oracle needs theta and xi in the batch")
        self.t_grid = np.linspace(0.0, universal_threshold(batch0.n), t_points)
        self.tau_cands = xi_split_candidates(batch0.xi, cap=65)
        self.acc = np.zeros((self.tau_cands.size, 2, t_points))

    def add(self, batch: DataBatch) -> None:
        """Add the batch's loss curves of both groups of every split, in one
        pass. A coordinate's cell #{tau < xi} and threshold bin #{t < z} index
        one histogram per loss column: at t_k a coordinate of bin b <= k loses
        theta^2, any other (y-theta)^2 - 2 t_k sigma sign(y) (y-theta)
        + t_k^2 sigma^2. Sums along the bins give each cell's curve; group 1
        of split s sums cells 0..s, group 2 the cells above s, top one first.
        """
        cells, bins = self.tau_cands.size + 1, self.t_grid.size + 1
        index = np.searchsorted(self.tau_cands, batch.xi, side="left") * bins
        index += np.searchsorted(self.t_grid, np.abs(batch.y) / batch.sigma, side="left")

        def histogram(weights):
            return np.bincount(index, weights, cells * bins).reshape(cells, bins)

        def above(weights, coef):
            """coef times each cell's sum of ``weights`` over the z above each t."""
            h = histogram(weights)
            np.cumsum(h[:, ::-1], axis=1, out=h[:, ::-1])
            h = h[:, 1:]
            h *= coef
            return h

        # each cell's sum of theta^2 at or below each t
        curves = np.cumsum(histogram(batch.theta**2), axis=1)[:, :-1]
        err = batch.y - batch.theta
        curves += above(err**2, 1.0)
        curves += above(batch.sigma * np.sign(batch.y) * err, -2.0 * self.t_grid)
        curves += above(batch.sigma**2, self.t_grid**2)
        self.acc[:, 1] += np.cumsum(curves[:0:-1], axis=0)[::-1]
        np.cumsum(curves, axis=0, out=curves)
        self.acc[:, 0] += curves[:-1]

    def minimize(self) -> tuple[float, float, float]:
        """Return (tau, t1, t2) minimizing the averaged loss; the smallest
        thresholds win ties, and the first split within 1e-12 (relative) of the
        least total, so that rounding does not decide between tied splits."""
        i = np.argmin(self.acc, axis=2)
        best = np.take_along_axis(self.acc, i[..., None], axis=2)[..., 0]
        total = best[:, 0] + best[:, 1]  # losses: total >= 0
        s = int(np.argmax(total <= total.min() * (1.0 + 1e-12)))
        return float(self.tau_cands[s]), float(self.t_grid[i[s, 0]]), float(self.t_grid[i[s, 1]])


@dataclass(frozen=True)
class Estimator:
    """A registry entry. ``fit(batch, cfg)`` returns a FitResult named
    ``name`` whose hp (None for ejs) reproduces it through ``core`` on the
    batch as given; ``needs_truth`` marks fits that read batch.theta."""

    name: str
    fit: Callable  # (DataBatch, SearchConfig) -> FitResult
    needs_truth: bool = False


# Each fit looks up this module's name for the fitting function when it runs,
# so replacing that name here reroutes every caller of the registry.
ESTIMATORS = {est.name: est for est in (
    Estimator("asus", lambda batch, cfg: fit_asus(batch, cfg)),
    Estimator("sureshrink", lambda batch, cfg: fit_sureshrink(batch, hybrid=cfg.hybrid)),
    Estimator("aux-scr", lambda batch, cfg: fit_auxscr(batch, mn_factor=cfg.mn_factor)),
    Estimator("ejs", lambda batch, cfg: fit_ejs(batch)),
    Estimator("oracle-loss", lambda batch, cfg: fit_oracle_loss(batch, cfg), needs_truth=True),
)}
ALIASES = {"auxscr": "aux-scr"}


def _resolve_estimators(names) -> list:
    """Registry names of ``names`` (aliases resolved, "oracle" kept), in order.
    An unknown or repeated name, or none at all, raises ValueError."""
    out = []
    for name in names:
        nm = ALIASES.get(name, name)
        if nm != "oracle" and nm not in ESTIMATORS:
            known = ", ".join([*ESTIMATORS, "oracle"])
            raise ValueError(f"unknown estimator {name!r}; choose from {known}")
        if nm in out:
            raise ValueError(f"estimator {nm!r} is requested twice")
        out.append(nm)
    if not out:
        raise ValueError("no estimator requested")
    return out


def run_risk_experiment(
    spec: ScenarioSpec,
    estimators: list,
    n_reps: int,
    k: int = 2,
    mn_factor: float = 50.0,
    hybrid: bool = True,
) -> RiskReport:
    """Replicate the scenario n_reps times and summarize estimator risks.

    ``estimators`` names, each once, registry entries (``ESTIMATORS``, aliases
    allowed; refit per replication) and "oracle" (the side oracle, fit once
    on the replication-averaged loss and then scored per replication). Child
    seeds derive deterministically from spec.seed, so identical inputs give
    identical reports.

    Each replication is generated once and adds one (loss, hp, group_sizes)
    row per name; the side oracle's rows follow once the averaged grid is
    minimized. When "oracle" is requested, each replication's scoring view
    (the batch with ``s=xi``: y, sigma, theta and xi, 32 bytes per
    coordinate) is kept until then; otherwise no batch outlives its
    replication. A failure in any replication, fitting or scoring, raises
    RuntimeError naming it.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    names = _resolve_estimators(estimators)
    cfg = SearchConfig(k=k, mn_factor=mn_factor, hybrid=hybrid)
    child_seeds = [int(s) for s in
                   np.random.SeedSequence(spec.seed).generate_state(n_reps, np.uint64)]
    rows = {nm: [] for nm in names}  # (loss, hp, group_sizes) per replication
    oracle, views = None, []  # the side oracle's accumulator and scoring views

    def fit(r):
        nonlocal oracle
        batch = generate(dataclasses.replace(spec, seed=child_seeds[r]))
        for nm, out in rows.items():
            if nm == "oracle":
                if oracle is None:
                    oracle = _SideOracleAccumulator(batch)
                oracle.add(batch)
                views.append(dataclasses.replace(batch, s=batch.xi))
            else:
                fr = ESTIMATORS[nm].fit(batch, cfg)
                out.append((fr.loss_value, fr.hp, fr.group_sizes))

    _each_replication(n_reps, fit)
    if oracle is not None:
        tau, t1, t2 = oracle.minimize()
        hp = HyperParams(tau=[tau], t=[t1, t2])

        def score(r):
            theta_hat = apply_estimator(views[r], hp)
            rows["oracle"].append((loss(views[r].theta, theta_hat), hp,
                                   partition(views[r].s, hp.tau).sizes))

        _each_replication(n_reps, score)
    return RiskReport(spec=spec, n_reps=n_reps,
                      results={nm: _summarize(nm, out) for nm, out in rows.items()})


def _each_replication(n_reps: int, step) -> None:
    """Call step(r) for each replication r in order; a failure raises
    RuntimeError naming the replication."""
    for r in range(n_reps):
        try:
            step(r)
        except Exception as exc:
            raise RuntimeError(f"replication {r} failed: {exc}") from exc
