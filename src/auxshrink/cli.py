"""Command-line surface: estimate from CSV, reproduce simulations, sweep the
breakpoint grid, select K, and evaluate the closed-form theory quantities.

Input CSV format: header ``id,y,sigma,s[,xi,theta]``; the sigma column is
optional and defaults to 1.0. All commands are deterministic given their
flags; stochastic commands require an explicit --seed. Output files are
written atomically: on failure nothing is left behind.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from .core import DataBatch, partition, universal_threshold
from .sim import ALIASES, ESTIMATORS, FAMILIES, ScenarioSpec, run_risk_experiment
from .theory import (
    RegimeParams,
    efficiency_diagnostics,
    opt_threshold_f,
    risk_factor_h,
    risk_gap_first_order,
)
from .tuner import SearchConfig, fit_sureshrink, select_k, sweep_tau

# unused here; perfbench/tracing.py patches these names (ROADMAP item 6)
from .estimators import fit_auxscr, fit_ejs
from .tuner import fit_asus

DEFAULT_ESTIMATORS = ("oracle", "asus", "aux-scr", "sureshrink")
_QUOTED = frozenset(',"\r\n')  # what an id is quoted for
CONFIG_REQUIRED = ("scenario", "n", "reps", "seed")
# what each simulate config key must hold; a JSON bool is no integer
CONFIG_TYPES = {
    "scenario": ("a string", lambda v: isinstance(v, str)),
    "estimators": ("a list of strings",
                   lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v)),
    **{key: ("an integer", lambda v: type(v) is int) for key in ("n", "reps", "seed")},
    **{key: ("an integer or null", lambda v: v is None or type(v) is int)
       for key in ("m", "aux_variant")},
}


def _round12(x):
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _commit(files) -> None:
    """Write each (path, text) of ``files`` all-or-nothing: every text goes to
    ``path + ".tmp"`` first, and only when all are written are they moved
    into place; on failure the temporary files are removed. Two outputs at
    one resolved path are rejected before anything is written."""
    seen = set()
    for path, _ in files:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{path}: two outputs would be written to this one path")
        seen.add(real)
    written = []
    try:
        for path, text in files:
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            written.append((tmp, path))
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            try:
                os.remove(tmp)
            except OSError:
                pass
        raise


def _numeric(columns: dict) -> dict:
    """Numeric ``columns`` (name: cells) as floats; optional ones skip empty cells."""
    return {name: list(map(float, columns[name] if name in ("y", "s")
                           else filter(None, columns.get(name, ()))))
            for name in ("y", "s", "sigma", "xi", "theta")}


def read_batch_csv(path: str) -> tuple[DataBatch, list]:
    """Parse the input CSV into a batch; returns (batch, ids). Blank lines
    are skipped, and the cells a short row lacks read as empty."""
    # utf-8-sig drops a leading byte-order mark, which would join the first name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        cols = [c.strip() for c in header]  # "id, y, s" reads as "id,y,s"
        for i, name in enumerate(cols):
            if name in cols[:i]:
                raise ValueError(f"{path}: column {name!r} appears more than once")
        for required in ("id", "y", "s"):
            if required not in cols:
                raise ValueError(f"{path}: missing required column {required!r}")
        # a blank line reads as an empty row; reader.line_num is a row's last line
        numbered = [(reader.line_num, row + [""] * (len(cols) - len(row)))
                    for row in reader if row]
    if not numbered:
        raise ValueError(f"{path}: no data rows")
    lines, rows = zip(*numbered)
    columns = dict(zip(cols, zip(*rows)))
    try:
        if max(map(len, rows)) > len(cols):
            raise ValueError
        data = _numeric(columns)
    except ValueError:  # name the first bad row
        for line, row in numbered:
            if len(row) > len(cols):
                raise ValueError("%s:%d: row has %d cells, the header %d"
                                 % (path, line, len(row), len(cols)))
            try:
                _numeric(dict(zip(cols, zip(row))))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: bad row ({exc})") from exc
    for name, values in data.items():  # y and s have every cell
        if 0 < len(values) < len(rows):
            raise ValueError(f"{path}:{lines[columns[name].index('')]}: column {name!r} "
                             "is empty here but filled on other rows")
    data = {name: np.array(values) if values else np.ones(len(rows)) if name == "sigma" else None
            for name, values in data.items()}  # an absent or empty sigma column means 1
    return DataBatch(**data), list(columns["id"])


def cmd_estimate(args) -> int:
    batch, ids = read_batch_csv(args.input)
    method = ALIASES.get(args.method, args.method)
    cfg = SearchConfig(k=args.k, mn_factor=args.mn_factor, hybrid=args.hybrid)
    fr = ESTIMATORS[method].fit(batch, cfg)
    tau = [] if fr.hp is None else fr.hp.tau.tolist()
    t = [] if fr.hp is None else fr.hp.t.tolist()
    groups = partition(batch.s, tau).assignment + 1
    report = {
        "method": method,
        "n": batch.n,
        "k": int(fr.group_sizes.size),
        "t_n": _round12(universal_threshold(batch.n)),
        # exact, unlike the other floats, so that they reproduce the fit
        "tau": tau,
        "t": t,
        "group_sizes": [int(v) for v in fr.group_sizes],
        "sure": _round12(fr.sure_value),
        "mn_factor": _round12(args.mn_factor),
        "hybrid": bool(args.hybrid),
    }
    # cells formatted from Python floats: the same bytes as from numpy
    # scalars. An id holding a character of _QUOTED is quoted, its quotes
    # doubled: csv.writer (lineterminator "\n") leaves a lone CR bare, and
    # that file would not read back
    ids = [i if _QUOTED.isdisjoint(i) else '"%s"' % i.replace('"', '""') for i in ids]
    cells = zip(ids, batch.y.tolist(), batch.sigma.tolist(), batch.s.tolist(),
                fr.theta_hat.tolist(), groups.tolist())
    estimates = "id,y,sigma,s,theta_hat,group\n" + "".join(
        map("%s,%.17g,%.17g,%.17g,%.17g,%d\n".__mod__, cells))
    _commit([(args.output, estimates), (args.report, json.dumps(report, indent=2) + "\n")])
    return 0


def cmd_sweep(args) -> int:
    batch, _ = read_batch_csv(args.input)
    cfg = SearchConfig(k=2, mn_factor=args.mn_factor, hybrid=args.hybrid)
    curve = sweep_tau(batch, cfg)
    ref = fit_sureshrink(batch, hybrid=args.hybrid)
    text = "kind,tau,sure,t1,t2\nreference,,%.17g,%.17g,\n" % (ref.sure_value, ref.hp.t[0])
    text += "".join(map("sweep,%.17g,%.17g,%.17g,%.17g\n".__mod__, zip(
        curve.tau_values.tolist(), curve.sure_values.tolist(), curve.t1_values.tolist(),
        curve.t2_values.tolist())))
    _commit([(args.output, text)])
    return 0


def cmd_choose_k(args) -> int:
    batch, _ = read_batch_csv(args.input)
    sel = select_k(batch, args.kmax, mn_factor=args.mn_factor, hybrid=args.hybrid)
    rows = ((k, sv, k == sel.k_selected, k == sel.k_elbow)
            for k, sv in enumerate(sel.sure_values.tolist(), start=1))
    text = "k,sure,selected,elbow\n" + "".join(map("%d,%.17g,%d,%d\n".__mod__, rows))
    _commit([(args.output, text)])
    return 0


def cmd_simulate(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"{args.config}: the config must be a JSON object")
        for key in CONFIG_REQUIRED:
            if key not in cfg:
                raise ValueError(f"{args.config}: missing required key {key!r}")
        for key in sorted(set(cfg) - set(CONFIG_TYPES)):
            raise ValueError(f"{args.config}: unknown key {key!r}")
        for key, (kind, ok) in CONFIG_TYPES.items():
            if key in cfg and not ok(cfg[key]):
                raise ValueError(f"{args.config}: key {key!r} must be {kind}, "
                                 f"not {json.dumps(cfg[key])}")
        scenario, n, reps, seed = (cfg[key] for key in CONFIG_REQUIRED)
        m, aux_variant = cfg.get("m"), cfg.get("aux_variant")
        estimators = cfg.get("estimators", list(DEFAULT_ESTIMATORS))
    else:
        if args.scenario is None or args.reps is None or args.seed is None:
            raise ValueError("simulate needs --scenario, --reps and --seed (or --config)")
        scenario, n, reps, seed = args.scenario, args.n, args.reps, args.seed
        m, aux_variant = args.m, args.aux_variant
        estimators = (
            [e.strip() for e in args.estimators.split(",") if e.strip()]
            if args.estimators is not None
            else list(DEFAULT_ESTIMATORS)
        )
    if scenario not in FAMILIES:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {', '.join(FAMILIES)}")
    if n is None:
        n = 10000 if scenario == "toy" else 5000
    spec = ScenarioSpec(family=scenario, n=n, m=m, aux_variant=aux_variant, seed=seed)
    report = run_risk_experiment(
        spec,
        estimators,
        n_reps=reps,
        k=args.k,
        mn_factor=args.mn_factor,
        hybrid=args.hybrid,
    )
    # registry names hold no character a CSV cell quotes
    losses = ((r, nm, lv) for nm, res in report.results.items()
              for r, lv in enumerate(res.losses.tolist()))
    _commit([
        (args.output, json.dumps(_round12(report.to_dict()), indent=2) + "\n"),
        (os.path.splitext(args.output)[0] + "_losses.csv", "replication,estimator,loss\n"
         + "".join(map("%d,%s,%.17g\n".__mod__, losses))),
    ])
    return 0


def cmd_theory(args) -> int:
    sub = args.quantity
    vals = args.args
    def need(k):
        if len(vals) != k:
            raise ValueError(f"theory {sub} takes exactly {k} numeric argument(s)")
    if sub == "f":
        need(1)
        print(f"{opt_threshold_f(vals[0]):.12g}")
    elif sub == "h":
        need(1)
        print(f"{risk_factor_h(vals[0]):.12g}")
    elif sub == "gap":
        need(5)
        rp = RegimeParams(
            alpha=vals[0], beta=vals[1], pi1=vals[2], sigma_bar_sq=vals[3], n=vals[4]
        )
        print(f"{risk_gap_first_order(rp):.12g}")
    elif sub == "diagnostics":
        need(3)
        d = efficiency_diagnostics(vals[0], vals[1], vals[2])
        if d.degenerate:
            raise ValueError(
                "r_ns equals r_os: no improvement headroom, RI is undefined"
            )
        print(f"RI={d.ri:.12g} E={d.e:.12g}")
    else:
        raise ValueError(f"unknown theory quantity {sub!r}")
    return 0


@functools.cache  # one parser per process; its choices come from import-time registries
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="auxshrink",
        description="Adaptive sparse estimation with auxiliary side information",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--mn-factor", type=float, default=50.0)
        sp.add_argument(
            "--hybrid", action=argparse.BooleanOptionalAction, default=True
        )

    e = sub.add_parser("estimate", help="fit an estimator to a CSV batch")
    e.add_argument("--input", required=True)
    e.add_argument("--output", required=True, help="estimates CSV path")
    e.add_argument("--report", required=True, help="fit report JSON path")
    methods = [nm for nm, est in ESTIMATORS.items() if not est.needs_truth]
    methods += [alias for alias, nm in ALIASES.items() if nm in methods]
    e.add_argument("--method", choices=methods, default="asus")
    e.add_argument("--k", type=int, default=2)
    add_common(e)
    e.set_defaults(func=cmd_estimate)

    s = sub.add_parser("sweep", help="minimized SURE across the breakpoint grid")
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    add_common(s)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("choose-k", help="SURE per group count K")
    c.add_argument("--input", required=True)
    c.add_argument("--output", required=True)
    c.add_argument("--kmax", type=int, required=True)
    add_common(c)
    c.set_defaults(func=cmd_choose_k)

    m = sub.add_parser("simulate", help="run a Monte Carlo risk experiment")
    m.add_argument("--scenario", choices=FAMILIES)
    m.add_argument("--n", type=int)
    m.add_argument("--m", type=int)
    m.add_argument("--aux-variant", type=int)
    m.add_argument("--reps", type=int)
    m.add_argument("--seed", type=int)
    m.add_argument("--estimators", help="comma-separated estimator names")
    m.add_argument("--k", type=int, default=2)
    m.add_argument("--config", help="JSON config file (overrides other flags)")
    m.add_argument("--output", required=True, help="risk report JSON path")
    add_common(m)
    m.set_defaults(func=cmd_simulate)

    t = sub.add_parser("theory", help="evaluate closed-form quantities")
    t.add_argument("quantity", choices=("f", "h", "gap", "diagnostics"))
    t.add_argument("args", type=float, nargs="*")
    t.set_defaults(func=cmd_theory)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
