"""auxshrink benchmark: Monte Carlo replication throughput and CLI latency.

Run from the repository root:

    python3 perfbench/run.py --workload mc-one-sample --seed 1 --seconds 55 --trace 0

Measures the package under ``src/`` for ``--seconds`` seconds on inputs
derived from ``--seed``, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a span trace, plus the tracing overhead, and the
spans are written to ``perfbench/_out/``. Lines before the last start with
``#``: the environment record and each timing's median, sample count and
tail percentile, and its median as measured.

Timings are scaled to a fixed host speed; ``hostspeed.py`` says how and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t0)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the same workload at small sizes, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_time(module: str, env: dict) -> float:
    """Wall time of ``import <module>`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def measure_setup(env: dict) -> tuple:
    """Wall time of ``import auxshrink`` in fresh interpreters, at reference
    speed and as measured. Import time does not track the compute reference,
    so each probe runs between two imports of numpy alone instead."""
    import hostspeed  # imports numpy, so only once main() has capped its threads
    at_ref, raw = [], []
    ref = import_time("numpy", env)
    for _ in range(SETUP_REPEATS):
        t = import_time("auxshrink", env)
        ref_after = import_time("numpy", env)
        at_ref.append(hostspeed.scaled(t, ref, ref_after, hostspeed.NUMPY_IMPORT_S))
        raw.append(t)
        ref = ref_after
    return at_ref, raw


def commit_hash() -> str:
    """HEAD of a git checkout read from .git directly; 'unknown' elsewhere."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "auxshrink").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail_summary(name: str, values: list, raw: list) -> str:
    """Median, sample count and the highest percentile with >= 10 samples
    beyond it; then the median as measured."""
    n = len(values)
    line = f"# {name}: median={statistics.median(values)!r} n={n}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        srt = sorted(values)
        line += f" p{pct}={srt[min(n - 1, -(-pct * n // 100) - 1)]!r}"
    return line + f" raw_median={statistics.median(raw)!r}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "auxshrink" / "__init__.py").is_file():
        print(f"error: no auxshrink sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    import numpy as np
    import auxshrink
    if Path(auxshrink.__file__).resolve().parent != SRC / "auxshrink":
        print(f"error: imported auxshrink from {auxshrink.__file__}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads

    table = workloads.TINY if args.scale == "tiny" else workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]

    setup, setup_raw = measure_setup(dict(os.environ))
    hostspeed.time_reference()  # the first run pays for numpy's lazy set-up
    out_dir = HERE / "_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = workloads.Session(wl, args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = session.run(args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        session.operation("replay replication 0", session.replay_first_replication)
        golden = json.loads((HERE / "golden.json").read_text())["outputs"]
        session.operation("golden outputs", workloads.check_golden, str(workdir), golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit_hash(), "source_sha256": source_digest(),
        "cycles": session.cycles, "reps_per_call": wl.reps,
        "mc_calls": len(session.samples["reps_per_s"]), "reps_timed": session.reps_done,
        "reference_s": hostspeed.REFERENCE_S,
        "reference_median_s": statistics.median(session.refs) if session.refs else None,
    }
    print("# env " + json.dumps(env))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        overhead = 100.0 * (traced / plain - 1.0)
        values = tracing.per_layer_metrics(tracer.spans, session.reps_done, overhead)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"env": env, "spans": tracer.records()}))
        print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        samples = dict(session.samples, setup_s=setup)
        raw = dict(session.raw, setup_s=setup_raw)
        for name, v in samples.items():
            if v:
                print(tail_summary(name, v, raw[name]))
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        values["peak_rss_mb"] = peak_rss_mb
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
