"""Recorded outputs of the Monte Carlo harness and of the scenario generators.

`harness_golden.json` holds, for small seeded experiments of every scenario
family, what `run_risk_experiment` reported with the side oracle and every
fitted estimator: each replication's loss, the summary statistics and the
mean hyperparameters and group sizes, all as exact ``repr`` strings. It also
holds a SHA-256 digest of every field of `generate` at the full auxiliary
sample count m=200. A change to the harness or the generators that is meant
to be a pure speed-up must leave every entry as it is. The harness must also
generate each replication exactly once, side oracle included.

Regenerate only for a deliberate change of the random stream or the reports:

    PYTHONPATH=src python tests/test_harness_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from auxshrink import ScenarioSpec, generate, run_risk_experiment, sim

GOLDEN_PATH = Path(__file__).with_name("harness_golden.json")
REPS = 3
ESTIMATORS = ("oracle", "sureshrink", "asus", "aux-scr", "ejs", "oracle-loss")
FIELDS = ("y", "sigma", "s", "theta", "xi")
FULL_M = 200
# auxiliary sample count of the experiments (one-sample and asymptotic)
EXPERIMENT_M = 20
MN_FACTOR = 10.0


def _spec(family: str, n: int, variant=None) -> ScenarioSpec:
    m = EXPERIMENT_M if variant is not None else None
    return ScenarioSpec(family=family, n=n, m=m, aux_variant=variant, seed=1000 + n)


SPECS = {
    **{f"one-sample-s1/v{v}": _spec("one-sample-s1", 600, v) for v in (1, 2, 3, 4)},
    **{f"one-sample-s2/v{v}": _spec("one-sample-s2", 1200, v) for v in (1, 2, 3, 4)},
    **{f"asymptotic-s1/v{v}": _spec("asymptotic-s1", 1000, v) for v in (1, 2)},
    **{f"asymptotic-s2/v{v}": _spec("asymptotic-s2", 1000, v) for v in (1, 2)},
    "two-sample-s1": _spec("two-sample-s1", 800),
    "two-sample-s2": _spec("two-sample-s2", 800),
    "toy": _spec("toy", 500),
}


def _exact(values) -> list:
    return [repr(float(v)) for v in np.ravel(np.asarray(values, dtype=float))]


def _optional(values):
    return None if values is None else _exact(values)


def experiment_record(spec: ScenarioSpec) -> dict:
    report = run_risk_experiment(spec, list(ESTIMATORS), REPS, mn_factor=MN_FACTOR)
    out = {}
    for name, r in report.results.items():
        out[name] = {
            "losses": _exact(r.losses),
            "risk": repr(r.mean_loss),
            "sd": repr(r.sd_loss),
            "se": repr(r.se_loss),
            "mean_tau": _optional(r.mean_tau),
            "mean_t": _optional(r.mean_t),
            "mean_sizes": _optional(r.mean_sizes),
        }
    return out


def generate_record(spec: ScenarioSpec) -> dict:
    if spec.m is not None:
        spec = dataclasses.replace(spec, m=FULL_M)
    batch = generate(spec)
    return {f: hashlib.sha256(np.ascontiguousarray(getattr(batch, f)).tobytes()).hexdigest()
            for f in FIELDS}


def record() -> dict:
    return {name: {"report": experiment_record(spec), "generate": generate_record(spec)}
            for name, spec in SPECS.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_spec(golden):
    assert sorted(golden) == sorted(SPECS)


@pytest.mark.parametrize("name", list(SPECS))
def test_generate_matches_record(name, golden):
    assert generate_record(SPECS[name]) == golden[name]["generate"]


@pytest.mark.parametrize("name", list(SPECS))
def test_report_matches_record(name, golden):
    assert experiment_record(SPECS[name]) == golden[name]["report"]


@pytest.mark.parametrize("estimators", [ESTIMATORS, ("oracle",), ("sureshrink",)])
def test_one_generation_per_replication(monkeypatch, estimators):
    calls = []

    def counted(spec):
        calls.append(spec.seed)
        return generate(spec)

    monkeypatch.setattr(sim, "generate", counted)
    run_risk_experiment(SPECS["toy"], list(estimators), REPS, mn_factor=MN_FACTOR)
    assert len(calls) == REPS
    assert len(set(calls)) == REPS


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
