"""Span tracing around the calls auxshrink's modules make into each other.

The benchmark does not edit the package. In a traced run it replaces the
module-level names that ``sim``, ``tuner``, ``estimators`` and ``cli`` call
through with wrappers that record a span (name, start, end, parent) per
call, and restores them afterwards. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager

import auxshrink.cli
import auxshrink.estimators
import auxshrink.sim
import auxshrink.tuner
from auxshrink.tuner import SearchConfig, tau_grid

# (module, attribute it calls through, span name)
WRAP_POINTS = [
    (auxshrink.sim, "generate", "sim.generate"),
    (auxshrink.sim, "fit_asus", "tuner.fit_asus"),
    (auxshrink.sim, "fit_sureshrink", "tuner.fit_sureshrink"),
    (auxshrink.sim, "fit_auxscr", "estimators.fit_auxscr"),
    (auxshrink.sim, "fit_ejs", "estimators.fit_ejs"),
    (auxshrink.sim, "fit_oracle_loss", "estimators.fit_oracle_loss"),
    (auxshrink.tuner, "fit_asus", "tuner.fit_asus"),  # select_k's calls
    (auxshrink.tuner, "sure", "core.sure"),
    (auxshrink.estimators, "sure", "core.sure"),
    (auxshrink.cli, "read_batch_csv", "cli.read_batch_csv"),
    (auxshrink.cli, "fit_asus", "tuner.fit_asus"),
    (auxshrink.cli, "fit_sureshrink", "tuner.fit_sureshrink"),
    (auxshrink.cli, "fit_auxscr", "estimators.fit_auxscr"),
    (auxshrink.cli, "fit_ejs", "estimators.fit_ejs"),
    (auxshrink.cli, "sweep_tau", "tuner.sweep_tau"),
    (auxshrink.cli, "select_k", "tuner.select_k"),
]


def _asus_attrs(batch, cfg=None):
    """Group count and breakpoint candidates C(m, K-1) of one fit_asus call."""
    cfg = cfg or SearchConfig()
    cands = math.comb(tau_grid(batch.s, cfg.mn_factor).size, cfg.k - 1) if cfg.k > 1 else 0
    return {"k": cfg.k, "candidates": cands}


class Tracer:
    """Records spans as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        attrs_of = _asus_attrs if name == "tuner.fit_asus" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Route the package's internal calls through span-recording wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAP_POINTS]
        try:
            for mod, attr, name in WRAP_POINTS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, **a}
                for n, s, e, p, a in self.spans]


def self_times(spans: list) -> list:
    """Span duration minus the time its children cover. Children of one span
    run one after another on one thread, so their durations add up."""
    child = [0.0] * len(spans)
    for name, s, e, parent, _ in spans:
        if parent is not None:
            child[parent] += e - s
    return [(e - s) - c for (_, s, e, _, _), c in zip(spans, child)]


def under(spans: list, i: int, name: str) -> bool:
    """Whether span ``i`` runs inside a span called ``name``."""
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer_metrics(spans: list, reps: int, overhead_pct: float) -> dict:
    """Per-layer metric values of a traced run of ``reps`` replications.
    A layer the workload never calls reads 0."""
    selfs = self_times(spans)
    dur = {}
    for name, s, e, _, attrs in spans:
        dur.setdefault(name, []).append((e - s, attrs))

    def ms(name, pred=lambda a: True):
        vals = [d for d, a in dur.get(name, []) if pred(a)]
        return 1e3 * statistics.fmean(vals) if vals else 0.0

    def per(x, n):
        return x / n if n else 0.0

    harness_self = sum(t for (name, *_), t in zip(spans, selfs)
                       if name == "sim.run_risk_experiment")
    asus = [(d, a) for d, a in dur.get("tuner.fit_asus", []) if a["k"] >= 2]
    cands = sum(a["candidates"] for _, a in asus)
    sweep_sure_calls = sum(1 for i, span in enumerate(spans)
                           if span[0] == "core.sure" and under(spans, i, "cli.sweep"))
    cli_cmds = [t for (name, *_), t in zip(spans, selfs)
                if name in ("cli.estimate", "cli.sweep", "cli.choose-k")]
    return {
        "sim.generate_ms": ms("sim.generate"),
        "sim.generate_calls_per_rep": per(len(dur.get("sim.generate", [])), reps),
        "sim.harness_self_ms_per_rep": per(1e3 * harness_self, reps),
        "tuner.fit_asus_ms": ms("tuner.fit_asus", lambda a: a["k"] == 2),
        "tuner.fit_asus_k3_ms": ms("tuner.fit_asus", lambda a: a["k"] == 3),
        "tuner.fit_sureshrink_ms": ms("tuner.fit_sureshrink"),
        "tuner.candidates_per_fit": per(cands, len(asus)),
        "tuner.us_per_candidate": per(1e6 * sum(d for d, _ in asus), cands),
        "tuner.sweep_tau_ms": ms("tuner.sweep_tau"),
        "tuner.select_k_ms": ms("tuner.select_k"),
        "core.sure_calls": per(sweep_sure_calls, len(dur.get("cli.sweep", []))),
        "core.sure_ms": ms("core.sure"),
        "estimators.fit_oracle_loss_ms": ms("estimators.fit_oracle_loss"),
        "estimators.fit_auxscr_ms": ms("estimators.fit_auxscr"),
        "estimators.fit_ejs_ms": ms("estimators.fit_ejs"),
        "cli.read_batch_csv_ms": ms("cli.read_batch_csv"),
        "cli.self_ms": per(1e3 * sum(cli_cmds), len(cli_cmds)),
        "trace.overhead_pct": overhead_pct,
    }

