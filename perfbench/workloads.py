"""Workloads of the auxshrink benchmark: inputs, timed operations, output checks.

A workload is a cycle of operations repeated until the run's time is up:
``run_risk_experiment`` calls (one sample of ``reps_per_s`` each) and the
``estimate``, ``sweep`` and ``choose-k`` CLI commands on one CSV (one sample
of ``estimate_s``, ``sweep_s`` and ``choose_k_s`` each). Every workload runs
both kinds, because every run reports every end-to-end metric; the workloads
differ in which kind dominates. The kinds alternate within a cycle, so each
metric samples the whole run rather than a few moments of it. Inputs are
derived from the workload seed only, and every operation's output is checked.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from auxshrink import (
    DataBatch,
    HyperParams,
    ScenarioSpec,
    apply_estimator,
    generate,
    run_risk_experiment,
)
from auxshrink import cli
from hostspeed import scaled, time_reference

ALL_ESTIMATORS = ("oracle", "asus", "aux-scr", "sureshrink", "oracle-loss", "ejs")

# (len(tau), len(t)) of each estimator's mean hyperparameters at K = 2
_HP_SHAPES = {
    "oracle": (1, 2),
    "asus": (1, 2),
    "aux-scr": (1, 2),
    "oracle-loss": (1, 2),
    "sureshrink": (0, 1),
    "ejs": None,
}


@dataclass(frozen=True)
class Workload:
    """One cycle runs the operations of ``schedule`` in order: ``mc`` is one
    risk experiment, the others are CLI commands on the cycle's CSV."""

    mc: ScenarioSpec  # seed is replaced per call
    estimators: tuple
    reps: int  # replications per run_risk_experiment call
    csv: ScenarioSpec  # seed is replaced per cycle
    kmax: int
    schedule: tuple
    cli_flags: tuple = ()  # extra flags for all three CLI commands


ONE_SAMPLE = ScenarioSpec("one-sample-s1", n=5000, m=200, aux_variant=2)
TWO_SAMPLE = ScenarioSpec("two-sample-s2", n=5000)
ROUND = ("mc", "estimate", "sweep")

WORKLOADS = {
    # Table-1 fixture: generation-heavy (two (m, n) chi-square draws per rep),
    # estimators layer nearly idle, K=2 searches only. CLI commands on a
    # 1000-row CSV alternate with the risk experiments.
    "mc-one-sample": Workload(
        mc=ONE_SAMPLE,
        estimators=("oracle", "asus", "sureshrink", "ejs"),
        reps=4,
        csv=dataclasses.replace(ONE_SAMPLE, n=1000),
        kmax=2,
        schedule=ROUND * 2 + ("choose-k",),
    ),
    # CLI default set plus the hindsight oracle: estimators-heavy, generation
    # about 1 ms, per-coordinate sigma. choose-k runs one large K=3 search
    # (C(346, 2) candidates) on a 1000-row CSV instead of many K=2 ones.
    "mc-two-sample": Workload(
        mc=TWO_SAMPLE,
        estimators=("oracle", "asus", "aux-scr", "sureshrink", "oracle-loss"),
        reps=2,
        csv=dataclasses.replace(TWO_SAMPLE, n=1000),
        kmax=3,
        schedule=ROUND * 2 + ("choose-k",) + ROUND * 2,
    ),
}

# Same code paths at sizes that finish in seconds, for the self-test.
TINY = {
    "mc-one-sample": dataclasses.replace(
        WORKLOADS["mc-one-sample"],
        mc=dataclasses.replace(ONE_SAMPLE, n=600, m=20),
        reps=2,
        csv=dataclasses.replace(ONE_SAMPLE, n=400, m=20),
    ),
    "mc-two-sample": dataclasses.replace(
        WORKLOADS["mc-two-sample"],
        mc=dataclasses.replace(TWO_SAMPLE, n=600),
        csv=dataclasses.replace(TWO_SAMPLE, n=300),
        cli_flags=("--mn-factor", "8"),
    ),
}


def derive_seed(seed: int, *keys: int) -> int:
    """Child seed for one input, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


def write_csv(batch: DataBatch, path: str) -> None:
    """Write the observed columns only (no ground truth), exactly round-trippable."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "y", "sigma", "s"])
        for i in range(batch.n):
            w.writerow([i, repr(float(batch.y[i])), repr(float(batch.sigma[i])),
                        repr(float(batch.s[i]))])


def observed(batch: DataBatch) -> DataBatch:
    return DataBatch(y=batch.y, sigma=batch.sigma, s=batch.s)


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_report(report, estimators, reps: int) -> dict:
    """Validate one risk report; return per-estimator loss arrays."""
    _require(list(report.results) == list(estimators), "estimator set or order")
    losses = {}
    for name, r in report.results.items():
        lv = np.asarray(r.losses, dtype=float)
        _require(lv.size == reps, f"{name}: {lv.size} losses for {reps} reps")
        _require(bool(np.isfinite(lv).all() and (lv >= 0).all()), f"{name}: bad loss")
        _require(_close(r.mean_loss, float(lv.mean())), f"{name}: risk != mean loss")
        shape = _HP_SHAPES[name]
        got = None if r.mean_tau is None else (len(r.mean_tau), len(r.mean_t))
        _require(got == shape, f"{name}: hyperparameter shape {got}")
        losses[name] = lv
    if "oracle-loss" in losses and "asus" in losses:
        # the hindsight oracle searches a superset of asus's candidates
        bound = losses["asus"] * (1 + 1e-9) + 1e-12
        _require(bool((losses["oracle-loss"] <= bound).all()), "oracle-loss above asus")
    return losses


class Session:
    """Runs one workload's cycles, collecting timings and counting failures.

    An operation is one run_risk_experiment call or one CLI command. It fails
    when it raises, returns non-zero, or its output check fails. Each cycle
    draws its own CSV and risk-experiment seeds, so a run's medians average
    over several inputs.
    """

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.samples: dict = {"reps_per_s": [], "estimate_s": [], "sweep_s": [],
                              "choose_k_s": []}  # at reference speed
        self.raw: dict = {name: [] for name in self.samples}  # as measured
        self.refs: list = []  # reference times around untraced operations
        self.attempted = 0
        self.failed = 0
        self.reps_done = 0
        self.cycles = 0  # cycles started
        self._inputs: dict = {}  # cycle -> (CSV path, batch)
        self._first: dict = {}  # (cycle, operation) -> outputs of its first run
        self._sure: dict = {}  # (cycle, "estimate" | "reference") -> SURE value

    def operation(self, label: str, fn, *args) -> float:
        """Run one operation; return the wall time of its timed call, 0 if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # one failed operation must not stop the run
            self.failed += 1
            print(f"# FAILED {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return 0.0

    def _input(self, index: int) -> tuple:
        if index not in self._inputs:
            spec = dataclasses.replace(self.wl.csv, seed=derive_seed(self.seed, 1, index))
            batch = observed(generate(spec))
            path = os.path.join(self.workdir, f"input-{index}.csv")
            write_csv(batch, path)
            self._inputs[index] = (path, batch)
        return self._inputs[index]

    def run(self, seconds: float, tracer=None) -> tuple:
        """Run cycles for about ``seconds``; return (untraced, traced) wall
        time of the timed calls.

        Whole cycles run until the total is as close to ``seconds`` as they
        allow, taking the next cycle to be as long as the last (at least one
        cycle). Whole cycles keep the per-layer counts exact. Each untraced
        operation runs between two timings of the host-speed reference and is
        kept as a sample. With a tracer each operation then runs again traced,
        on the same inputs.
        """
        start = time.perf_counter()
        plain, traced = 0.0, 0.0
        ref = None  # reference time measured right before the next operation
        while True:
            index = self.cycles
            self._input(index)
            self.cycles += 1
            cycle_start = time.perf_counter()
            j = 0
            for kind in self.wl.schedule:
                if ref is None:
                    ref = time_reference()
                t = self._step(kind, index, j, None)
                ref_after = time_reference()
                if t:
                    self._keep(kind, t, scaled(t, ref, ref_after))
                    self.refs.append(ref_after)
                ref = ref_after
                plain += t
                if tracer is not None:
                    with tracer.installed():
                        traced += self._step(kind, index, j, tracer)
                    ref = None
                j += kind == "mc"
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds:
                return plain, traced

    def _keep(self, kind: str, seconds: float, at_ref: float) -> None:
        if kind == "mc":
            self.samples["reps_per_s"].append(self.wl.reps / at_ref)
            self.raw["reps_per_s"].append(self.wl.reps / seconds)
            self.reps_done += self.wl.reps
        else:
            name = kind.replace("-", "_") + "_s"
            self.samples[name].append(at_ref)
            self.raw[name].append(seconds)

    def _step(self, kind: str, index: int, j: int, tracer) -> float:
        if kind == "mc":
            return self.operation(f"run_risk_experiment {index}.{j}", self._mc, index, j, tracer)
        return self.operation(f"{kind} {index}", self._cli, index, kind, tracer)

    def _mc_spec(self, index: int, j: int) -> ScenarioSpec:
        return dataclasses.replace(self.wl.mc, seed=derive_seed(self.seed, 0, index, j))

    def _mc(self, index: int, j: int, tracer) -> float:
        spec = self._mc_spec(index, j)
        t0 = time.perf_counter()
        if tracer is None:
            report = run_risk_experiment(spec, list(self.wl.estimators), self.wl.reps)
        else:
            with tracer.span("sim.run_risk_experiment", reps=self.wl.reps):
                report = run_risk_experiment(spec, list(self.wl.estimators), self.wl.reps)
        dt = time.perf_counter() - t0
        losses = check_report(report, self.wl.estimators, self.wl.reps)
        first = self._first.setdefault((index, j), losses)
        for name, lv in losses.items():
            _require(np.array_equal(lv, first[name]), f"{name}: traced run differs")
        return dt

    def _cli_args(self, index: int, command: str) -> tuple[list, list]:
        """Arguments and output paths of one CLI command."""
        out = os.path.join(self.workdir, command)
        args = [command, "--input", self._input(index)[0], "--output", out + ".csv"]
        paths = [out + ".csv"]
        if command == "estimate":
            args += ["--report", out + ".json", "--method", "asus", "--k", "2"]
            paths.append(out + ".json")
        elif command == "choose-k":
            args += ["--kmax", str(self.wl.kmax)]
        return args + list(self.wl.cli_flags), paths

    def _cli(self, index: int, command: str, tracer) -> float:
        args, paths = self._cli_args(index, command)
        for p in paths:
            if os.path.exists(p):
                os.remove(p)
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(args)
        else:
            with tracer.span("cli." + command):
                rc = cli.main(args)
        dt = time.perf_counter() - t0
        _require(rc == 0, f"{command} exited {rc}")
        texts = []
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                texts.append(fh.read())
        first = self._first.get((index, command))
        if first is None:
            getattr(self, "_check_" + command.replace("-", "_"))(index, *paths)
            self._first[(index, command)] = texts
        else:
            _require(texts == first, f"{command}: output differs from its first run")
        return dt

    # -- checks of the seeded CLI outputs ----------------------------------

    def _check_estimate(self, index: int, csv_path: str, report_path: str) -> None:
        b = self._input(index)[1]
        rows = read_rows(csv_path)
        _require(rows[0] == ["id", "y", "sigma", "s", "theta_hat", "group"], "estimate header")
        _require([r[0] for r in rows[1:]] == [str(i) for i in range(b.n)], "estimate ids")
        with open(report_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        _require(rep["method"] == "asus" and rep["n"] == b.n and rep["k"] == 2, "report header")
        _require(sum(rep["group_sizes"]) == b.n, "group sizes do not sum to n")
        hp = HyperParams(tau=np.array(rep["tau"]), t=np.array(rep["t"]))
        theta_hat = np.array([float(r[4]) for r in rows[1:]])
        _require(bool(np.allclose(theta_hat, apply_estimator(b, hp), rtol=1e-9, atol=1e-9)),
                 "estimates do not reproduce from the reported hyperparameters")
        self._sure[(index, "estimate")] = rep["sure"]

    def _check_sweep(self, index: int, csv_path: str) -> None:
        rows = read_rows(csv_path)
        _require(rows[0] == ["kind", "tau", "sure", "t1", "t2"], "sweep header")
        _require(rows[1][0] == "reference" and len(rows) > 2, "sweep rows")
        _require(all(r[0] == "sweep" for r in rows[2:]), "sweep row kinds")
        curve = [float(r[2]) for r in rows[2:]]
        _require(all(math.isfinite(v) for v in curve), "non-finite sweep SURE")
        # the curve's minimum is the K=2 fit's SURE
        _require(_close(min(curve), self._sure[(index, "estimate")]),
                 "sweep minimum != estimate SURE")
        self._sure[(index, "reference")] = float(rows[1][2])

    def _check_choose_k(self, index: int, csv_path: str) -> None:
        rows = read_rows(csv_path)
        _require(rows[0] == ["k", "sure", "selected", "elbow"], "choose-k header")
        body = rows[1:]
        _require([r[0] for r in body] == [str(k) for k in range(1, self.wl.kmax + 1)],
                 "choose-k rows")
        sures = [float(r[1]) for r in body]
        _require(_close(sures[0], self._sure[(index, "reference")]),
                 "K=1 SURE != sweep reference")
        _require(_close(sures[1], self._sure[(index, "estimate")]), "K=2 SURE != estimate SURE")
        selected = [int(r[2]) for r in body]
        _require(sum(selected) == 1 and selected.index(1) == int(np.argmin(sures)),
                 "selected K is not the SURE argmin")
        _require(sum(int(r[3]) for r in body) == 1, "elbow marks")

    def replay_first_replication(self) -> None:
        """Re-run replication 0 of the first risk experiment alone; every
        refitted estimator must give the same loss (the side oracle pools
        replications, so it is left out)."""
        fitted = [e for e in self.wl.estimators if e != "oracle"]
        report = run_risk_experiment(self._mc_spec(0, 0), fitted, 1)
        first = self._first[(0, 0)]
        for name in fitted:
            _require(report.results[name].losses[0] == first[name][0],
                     f"{name}: replication 0 not reproducible")


# -- golden outputs: a regression guard against the package's own outputs ----

GOLDEN_SEED = 1811
GOLDEN_MC = {
    "mc-one-sample": (dataclasses.replace(ONE_SAMPLE, seed=GOLDEN_SEED),
                      ("oracle", "asus", "sureshrink", "ejs"), 2),
    "mc-all-estimators": (dataclasses.replace(TWO_SAMPLE, n=2000, seed=GOLDEN_SEED),
                          ALL_ESTIMATORS, 2),
}
GOLDEN_CSV = dataclasses.replace(TWO_SAMPLE, n=300, seed=GOLDEN_SEED)
GOLDEN_CLI_FLAGS = ["--mn-factor", "8"]


def _cells(rows: list) -> list:
    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x
    return [[cell(x) for x in r] for r in rows]


def golden_outputs(workdir: str) -> dict:
    """Outputs of the fixed golden fixtures, one entry per operation."""
    out = {}
    for key, (spec, ests, reps) in GOLDEN_MC.items():
        report = run_risk_experiment(spec, list(ests), reps)
        out[key] = {
            name: {"risk": r.mean_loss, "mean_tau": r.mean_tau, "mean_t": r.mean_t,
                   "losses": [float(v) for v in r.losses]}
            for name, r in report.results.items()
        }
    src = os.path.join(workdir, "golden.csv")
    write_csv(observed(generate(GOLDEN_CSV)), src)
    p = {name: os.path.join(workdir, "golden_" + name) for name in
         ("estimate.csv", "estimate.json", "sweep.csv", "choose-k.csv")}
    commands = [
        ["estimate", "--output", p["estimate.csv"], "--report", p["estimate.json"],
         "--method", "asus", "--k", "2"],
        ["sweep", "--output", p["sweep.csv"]],
        ["choose-k", "--output", p["choose-k.csv"], "--kmax", "3"],
    ]
    for args in commands:
        rc = cli.main(args + ["--input", src] + GOLDEN_CLI_FLAGS)
        _require(rc == 0, f"golden {args[0]} exited {rc}")
    with open(p["estimate.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    out["cli"] = {
        "estimate_csv": _cells(read_rows(p["estimate.csv"])),
        "estimate_report": report,
        "sweep_csv": _cells(read_rows(p["sweep.csv"])),
        "choose_k_csv": _cells(read_rows(p["choose-k.csv"])),
    }
    return out


def first_difference(got, want, path: str = "") -> Optional[str]:
    """Path of the first mismatch between two output trees, or None.
    Floats agree to 1e-10 relative, so only last-digit noise passes."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return path or "/"
        for k in want:
            d = first_difference(got[k], want[k], f"{path}/{k}")
            if d:
                return d
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            d = first_difference(g, w, f"{path}/{i}")
            if d:
                return d
        return None
    if isinstance(want, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and isinstance(want, (int, float))
              and math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12))
        return None if ok else path
    return None if got == want else path


def check_golden(workdir: str, golden: dict) -> None:
    got = golden_outputs(workdir)
    diffs = [d for key in golden if (d := first_difference(got.get(key), golden[key], key))]
    if diffs:
        raise CheckFailed("golden outputs differ at " + ", ".join(diffs))
