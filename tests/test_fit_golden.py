"""Recorded outputs of every grouped fit on seeded batches of every family.

`fit_golden.json` holds what the fitting code returned when it was
recorded. Each fit is compared with its record at a tolerance set by what the
number is:

* breakpoints and thresholds (stored as ``repr`` strings), group sizes and
  selected K are exact: they are grid points, order statistics, the
  universal threshold or a loss vertex, and any change in the search shows
  in them;
* the estimate is exact too (a SHA-256 digest of its bytes), because it is
  elementwise soft thresholding at the fitted hyperparameters;
* SURE and loss values agree to 1e-12 relative, because they are sums whose
  rounding may follow the summation order.

Regenerate only for a deliberate change of fitted outputs:

    PYTHONPATH=src python tests/test_fit_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    fit_auxscr,
    fit_oracle_loss,
    fit_oracle_side,
    fit_sureshrink,
    generate,
    select_k,
    sweep_tau,
)
from auxshrink.sim import _SideOracleAccumulator

GOLDEN_PATH = Path(__file__).with_name("fit_golden.json")
REL_TOL = 1e-12
SEEDS = (11, 12)
# grid densities: the default for K <= 2, a coarse grid where K = 3 enumerates
# pairs and where every sweep point is recorded
MN_K3 = 3.0
MN_SWEEP = 5.0

SPECS = {
    "one-sample-s1": dict(n=600, m=10),
    "one-sample-s2": dict(n=1200, m=10),
    "two-sample-s1": dict(n=800),
    "two-sample-s2": dict(n=800),
    "asymptotic-s1": dict(n=1000, m=20),
    "asymptotic-s2": dict(n=1000, m=20),
    "toy": dict(n=500),
}


def _variant(family: str, seed: int):
    if family.startswith("one-sample"):
        return 1 + seed % 4
    if family.startswith("asymptotic"):
        return 1 + seed % 2
    return None


def make_batch(family: str, seed: int, signed: bool = False) -> DataBatch:
    spec = ScenarioSpec(family=family, aux_variant=_variant(family, seed), seed=seed,
                        **SPECS[family])
    batch = generate(spec)
    if not signed:
        return batch
    signs = np.where(np.random.default_rng(seed).random(batch.n) < 0.5, -1.0, 1.0)
    return DataBatch(y=batch.y, sigma=batch.sigma, s=batch.s * signs,
                     theta=batch.theta, xi=batch.xi)


def _exact(values) -> list:
    return [repr(float(v)) for v in np.asarray(values, dtype=float)]


def _fit_record(fr) -> dict:
    return {
        "tau": _exact(fr.hp.tau),
        "t": _exact(fr.hp.t),
        "sizes": [int(v) for v in fr.group_sizes],
        "theta_hat": hashlib.sha256(np.ascontiguousarray(fr.theta_hat).tobytes()).hexdigest(),
        "sure": fr.sure_value,
        "loss": fr.loss_value,
    }


def batch_record(batch: DataBatch) -> dict:
    """Outputs of every grouped fit on one batch."""
    out = {}
    for hybrid in (True, False):
        h = "hybrid" if hybrid else "plain"
        out[f"sureshrink/{h}"] = _fit_record(fit_sureshrink(batch, hybrid=hybrid))
        for k, mn in ((1, 50.0), (2, 50.0), (3, MN_K3)):
            cfg = SearchConfig(k=k, mn_factor=mn, hybrid=hybrid)
            out[f"asus/k{k}/{h}"] = _fit_record(fit_asus(batch, cfg))
    for k, mn in ((1, 50.0), (2, 50.0), (3, MN_K3)):
        cfg = SearchConfig(k=k, mn_factor=mn)
        out[f"oracle-loss/k{k}"] = _fit_record(fit_oracle_loss(batch, cfg))
    out["aux-scr"] = _fit_record(fit_auxscr(batch))
    out["oracle-side"] = _fit_record(fit_oracle_side(batch))
    curve = sweep_tau(batch, SearchConfig(k=2, mn_factor=MN_SWEEP))
    out["sweep"] = {
        "tau": _exact(curve.tau_values),
        "t1": _exact(curve.t1_values),
        "t2": _exact(curve.t2_values),
        "sure": [float(v) for v in curve.sure_values],
    }
    sel = select_k(batch, 3, mn_factor=MN_K3)
    out["select-k"] = {
        "k_selected": sel.k_selected,
        "k_elbow": sel.k_elbow,
        "sure": [float(v) for v in sel.sure_values],
    }
    return out


def side_oracle_record(family: str) -> dict:
    """Side-oracle minimiser of the loss averaged over the family's batches."""
    batches = [make_batch(family, seed) for seed in SEEDS]
    acc = _SideOracleAccumulator(batches[0])
    for b in batches:
        acc.add(b)
    tau, t1, t2 = acc.minimize()
    return {"tau": _exact([tau]), "t": _exact([t1, t2])}


def case_names() -> list:
    names = [f"{fam}/{seed}" for fam in SPECS for seed in SEEDS]
    names += ["one-sample-s1/11/signed", "two-sample-s2/12/signed"]
    names += [f"{fam}/side-oracle" for fam in SPECS]
    return names


def case_record(name: str) -> dict:
    family, rest = name.split("/", 1)
    if rest == "side-oracle":
        return side_oracle_record(family)
    seed, _, signed = rest.partition("/")
    return batch_record(make_batch(family, int(seed), signed=signed == "signed"))


def differences(got, want, path: str = "") -> list:
    """Paths where ``got`` departs from the record ``want``: strings and
    integers must be equal, floats within REL_TOL relative."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in differences(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r} (rel {REL_TOL})"]
    if got != want or type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_fit_outputs_match_record(name, golden):
    diffs = differences(case_record(name), golden[name], name)
    assert not diffs, "\n".join(diffs[:20])


def test_differences_applies_each_tolerance():
    want = {"t": ["1.5"], "sizes": [3], "sure": 0.25}
    assert differences({"t": ["1.5"], "sizes": [3], "sure": 0.25 * (1 + 1e-13)}, want) == []
    assert differences({"t": ["1.5000000000000002"], "sizes": [3], "sure": 0.25}, want)
    assert differences({"t": ["1.5"], "sizes": [4], "sure": 0.25}, want)
    assert differences({"t": ["1.5"], "sizes": [3], "sure": 0.25 * (1 + 1e-11)}, want)
    assert differences({"t": ["1.5"], "sizes": [3], "sure": None}, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    record = {name: case_record(name) for name in case_names()}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
