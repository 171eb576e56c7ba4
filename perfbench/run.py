"""Benchmark of gradedalg: closed-loop CLI jobs on seeded algebras.

Run from the repository root:

    python3 perfbench/run.py --workload certify_local --seed 1 --seconds 30 --trace 0

One process runs one closed-loop client: the next job starts when the
previous one has ended.  Set-up (building the seeded inputs, validating
them, computing their oracles, writing the input files) runs several times
and its median is ``setup_s``.  Then jobs run for ``--seconds``.  Each
set-up and job time is scaled to the speed of the reference work in
``calibrate.py``, timed around it; the raw times are kept as well.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` jobs alternate
between untraced and traced, and it reports the per-layer metrics, taken
from the spans of the traced jobs.  The line before it carries the raw
samples and the machine: nproc, CPU model, Python and numpy versions and
the BLAS/OpenMP thread caps, which this process sets to at most nproc
before numpy loads.  Inputs, reports and spans go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_REPEATS times and for at least SETUP_MIN_S
# of wall time, references included: a set-up of a few milliseconds then
# gets enough samples for a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Ratio metrics: (numerator count, denominator count) summed over traced jobs.
RATIOS = {"nonzero_ratio": ("nonzero", "calls"), "success_ratio": ("found", "trials")}


def cap_threads() -> dict[str, int]:
    """Cap every BLAS/OpenMP pool of this process at nproc (or lower, if set)."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            cap = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            cap = nproc
        caps[var] = max(cap, 1)
        os.environ[var] = str(caps[var])
    return caps


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_job(wl, prep, tracer, job_id: int) -> tuple[float, bool, int]:
    """Run one job; returns (wall seconds, passed its oracle, bytes written)."""
    if tracer is not None:
        tracer.job = job_id
        tracer.install()
    start = time.perf_counter()
    try:
        res = wl.job(prep)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        res = None
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if res is None:
        return elapsed, False, 0
    try:
        bad = wl.mismatches(prep, res)
    except (KeyError, TypeError, ValueError):
        traceback.print_exc(file=sys.stderr)
        bad = ["malformed report"]
    for msg in bad:
        print(f"job {job_id}: {msg}", file=sys.stderr)
    return elapsed, not bad, res.bytes_written


def layer_metric(name: str, layers: dict, traced: list[dict], untraced: list[dict]) -> float:
    """One per-layer metric, from the per-job span summaries of traced jobs."""
    if name == "trace.overhead_ratio":
        return statistics.median(j["s"] for j in traced) / statistics.median(j["s"] for j in untraced)
    if name == "cli.report_bytes":
        return statistics.median(j["bytes"] for j in traced)
    span, kind = name.rsplit(".", 1)
    recs = [layers.get(j["id"], {}).get(span, {}) for j in traced]
    if kind == "self_s":
        return statistics.median(r.get(kind, 0) * j["factor"] for r, j in zip(recs, traced))
    if kind in RATIOS:
        num, den = RATIOS[kind]
        total = sum(r.get(den, 0) for r in recs)
        return sum(r.get(num, 0) for r in recs) / total if total else 0.0
    if kind not in ("calls", "cells", "system_cells"):
        raise KeyError(f"no rule for per-layer metric {name!r}")
    return statistics.median(r.get(kind, 0) for r in recs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gradedalg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no gradedalg sources under src/", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    t0 = time.perf_counter()
    caps = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    import gradedalg

    from perfbench import tracing, workloads
    from perfbench.calibrate import REFERENCE_S, reference_s

    import_s = time.perf_counter() - t0
    if Path(gradedalg.__file__).resolve().parent != ROOT / "src" / "gradedalg":
        print(f"perfbench: imported gradedalg from {gradedalg.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Every set-up and job is timed between two passes of the reference
    # work; ``scale`` turns its wall time into seconds at reference speed.
    refs = [reference_s()]

    def scale(raw: float) -> float:
        refs.append(reference_s())
        return raw * 2 * REFERENCE_S / (refs[-2] + refs[-1])

    setups = []
    setup_start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - setup_start < SETUP_MIN_S:
        start = time.perf_counter()
        prep = wl.setup(args.seed, workdir)
        raw = time.perf_counter() - start
        setups.append({"raw_s": raw, "s": scale(raw)})

    tracer = tracing.Tracer() if args.trace else None
    jobs = []
    start = time.perf_counter()
    # a traced run needs at least one untraced and one traced job
    while time.perf_counter() - start < args.seconds or (tracer and len(jobs) < 2):
        job_id = len(jobs)
        traced = tracer is not None and job_id % 2 == 1
        raw, ok, nbytes = run_job(wl, prep, tracer if traced else None, job_id)
        secs = scale(raw)
        jobs.append({"id": job_id, "traced": traced, "raw_s": raw, "s": secs,
                     "factor": secs / raw, "ok": ok, "bytes": nbytes})

    failed = sum(not j["ok"] for j in jobs)
    untraced = [j for j in jobs if not j["traced"]]
    if tracer is None:
        values = {
            "setup_s": statistics.median(s["s"] for s in setups),
            "job_s": statistics.median(j["s"] for j in jobs),
            "jobs_per_s": (len(jobs) - failed) / sum(j["s"] for j in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        traced = [j for j in jobs if j["traced"]]
        layers = tracing.per_job_layers(tracer.spans)
        values = {m["name"]: layer_metric(m["name"], layers, traced, untraced)
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]
        tracer.write(workdir / "spans.json.gz")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(jobs),
        "jobs_traced": len(jobs) - len(untraced),
        "job_raw_s": [j["raw_s"] for j in jobs],
        "setup_raw_s": [s["raw_s"] for s in setups],
        "reference_s": refs,
        "import_s": import_s,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": caps,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
