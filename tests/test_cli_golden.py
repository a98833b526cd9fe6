"""Recorded bytes of every file the CLI writes.

`cli_golden.json` holds a SHA-256 digest of each output file of `estimate`
(every method at K=2, and asus at K=3), `sweep`, `choose-k --kmax 3` and
`simulate` (toy, n=500, 3 replications, every estimator plus the side
oracle, once from flags and once from a config file). The inputs are a
seeded 400-row CSV written with ``repr`` floats and fixed flags. A change
to the CLI or to what it calls that is meant to keep its output must leave
every digest as it is.

Regenerate only for a deliberate change of the CLI's output:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from auxshrink.cli import main

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
N_ROWS = 400
SIMULATE = {"scenario": "toy", "n": 500, "reps": 3, "seed": 11,
            "estimators": ["oracle", "asus", "sureshrink", "aux-scr", "ejs", "oracle-loss"]}

# case -> (arguments after the input, output files)
CASES = {
    **{f"estimate-{method}-k2": (
        ["estimate", "--method", method, "--k", "2",
         "--output", "est.csv", "--report", "report.json"],
        ["est.csv", "report.json"]) for method in ("asus", "sureshrink", "aux-scr", "ejs")},
    "estimate-asus-k3": (
        ["estimate", "--method", "asus", "--k", "3",
         "--output", "est.csv", "--report", "report.json"],
        ["est.csv", "report.json"]),
    "sweep": (["sweep", "--output", "sweep.csv"], ["sweep.csv"]),
    "choose-k": (["choose-k", "--kmax", "3", "--output", "k.csv"], ["k.csv"]),
    "simulate-flags": (
        ["simulate", "--scenario", SIMULATE["scenario"], "--n", str(SIMULATE["n"]),
         "--reps", str(SIMULATE["reps"]), "--seed", str(SIMULATE["seed"]),
         "--estimators", ",".join(SIMULATE["estimators"]), "--output", "sim.json"],
        ["sim.json", "sim_losses.csv"]),
    "simulate-config": (
        ["simulate", "--config", "sim_config.json", "--output", "sim.json"],
        ["sim.json", "sim_losses.csv"]),
}


def write_inputs(directory: Path) -> None:
    """The seeded batch CSV and the simulate config, in ``directory``."""
    rng = np.random.default_rng(2024)
    theta = np.where(rng.random(N_ROWS) < 0.2, rng.normal(0.0, 4.0, N_ROWS), 0.0)
    sigma = rng.uniform(0.5, 1.5, N_ROWS)
    y = theta + sigma * rng.standard_normal(N_ROWS)
    s = np.abs(theta) + rng.normal(0.0, 0.5, N_ROWS)
    with open(directory / "batch.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "y", "sigma", "s"])
        for i in range(N_ROWS):
            w.writerow([f"c{i}", repr(float(y[i])), repr(float(sigma[i])), repr(float(s[i]))])
    (directory / "sim_config.json").write_text(json.dumps(SIMULATE))


def run_case(directory: Path, case: str) -> dict:
    """Run one case in ``directory``; returns {output file: SHA-256}."""
    args, outputs = CASES[case]
    argv = [args[0]]
    if args[0] != "simulate":
        argv += ["--input", str(directory / "batch.csv")]
    for arg in args[1:]:
        argv.append(str(directory / arg) if arg.endswith((".csv", ".json")) else arg)
    assert main(argv) == 0
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in outputs}


def record() -> dict:
    out = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            write_inputs(Path(tmp))
            out[case] = run_case(Path(tmp), case)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_record(case, golden, tmp_path):
    write_inputs(tmp_path)
    assert run_case(tmp_path, case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
