"""The mto1 benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-main --seed 0 --seconds 16 --trace 0

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it makes the serial traced run and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a result file with the
machine record goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from measure import (FINGERPRINTS, HERE, ROOT, SRC, build_fields,
                     load_fingerprints, peak_rss_mb, query_key, run_pass,
                     run_query, setup_probe)
from workloads import WORKLOADS

OUT = HERE / "out"
SETUP_PROBES = 21
DEFAULT_JOBS = 2

# name -> unit, in the order printed; BENCHMARK.json lists the same
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def nproc():
    return len(os.sched_getaffinity(0))


# -- machine record --------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes():
    """{'L1d': '32K', ...} for the first CPU, from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        size = _read(index / "size")
        if level and kind and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest():
    """sha256 over the package sources; identifies the program where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mto1").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(args):
    import numpy
    return {"nproc": nproc(), "cpu_model": cpu_model(),
            "caches": cache_sizes(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(),
            "src_sha256": source_digest(), "platform": platform.platform(),
            "seed": args.seed, "jobs": args.jobs}


# -- the two kinds of run ----------------------------------------------------------

def timed_run(workload, queries, args, fingerprints):
    """End-to-end metrics: set-up probes, then passes for --seconds."""
    probes = [setup_probe(workload.fields)
              for _ in range(1 if args.quick else SETUP_PROBES)]
    build_fields(workload.fields)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(queries, args.jobs, args.seed, fingerprints))
    results = [r for p in passes for r in p.results]
    passed = sum(not r.failed for r in results)
    values = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "work_per_s": statistics.median(p.work / p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "pass_ratio": passed / len(results),
    }
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    detail = {"setup_probes_s": probes,
              "passes": [_pass_detail(p) for p in passes]}
    return results, metrics, detail


def traced_run(workload, queries, args, fingerprints):
    """Per-layer metrics: a serial traced pass, the same pass untraced for
    the tracing overhead, and an untraced --jobs pass for the pool figures."""
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    with tracer:
        build_fields(workload.fields)
        traced = run_pass(queries, 1, args.seed, fingerprints, tracer.call)
    untraced = run_pass(queries, 1, args.seed, fingerprints)
    verify = [q for q in queries if q[0] == "verify"]
    pooled = None
    if verify:
        pooled = (run_pass(verify, args.jobs, args.seed, fingerprints)
                  if args.jobs > 1 else untraced)
    metrics = layer_metrics(tracer, traced, untraced, pooled, args.jobs)
    results = traced.results + untraced.results
    if pooled is not None and pooled is not untraced:
        results += pooled.results
    detail = {"passes": [_pass_detail(p) for p in (traced, untraced, pooled)
                         if p is not None],
              "spans": tracer.rows()}
    return results, metrics, detail


def _pass_detail(p):
    return {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "work": p.work,
            "queries": [{"argv": r.argv, "wall_s": r.wall_s, "rc": r.rc,
                         "work": r.work, "digest": r.digest,
                         "failures": r.failures} for r in p.results]}


# -- fingerprint recording -------------------------------------------------------

def record_fingerprints(args):
    """Record every query's digest at seed 0; a verify query whose digest
    is the same at seed 1 is stored as seed_free."""
    store = {"seed": 0, "queries": {}}
    unchecked = {"seed": 0, "queries": {}}
    for w in WORKLOADS.values():
        for quick in (False, True):
            for q0, q1 in zip(w.queries(0, quick), w.queries(1, quick)):
                res = run_query(q0, args.jobs, 0, unchecked)
                if res.failed:
                    raise SystemExit(f"{q0}: {res.failures}; not recorded")
                seed_free = q0 == q1 or run_query(
                    q1, args.jobs, 1, unchecked).digest == res.digest
                store["queries"][query_key(q0)] = {"sha256": res.digest,
                                                   "seed_free": seed_free}
                print(f"{query_key(q0)}: seed_free={seed_free}", flush=True)
    FINGERPRINTS.write_text(json.dumps(store, indent=1, sort_keys=True)
                            + "\n")


# -- entry point -------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0,
                    help="how long the timed passes run (--trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                    help="verify worker processes; at most nproc")
    ap.add_argument("--quick", action="store_true",
                    help="tiny queries, one set-up probe (for the tests)")
    ap.add_argument("--out", type=Path, default=None,
                    help="result file (default: perfbench/out/...)")
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="rewrite perfbench/fingerprints.json at seed 0")
    args = ap.parse_args(argv)
    if not args.record_fingerprints and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mto1" / "cli.py").is_file():
        print(f"error: no mto1 sources under {SRC}", file=sys.stderr)
        return 2
    if not 1 <= args.jobs <= nproc():
        print(f"error: --jobs {args.jobs} is outside [1, nproc = {nproc()}]",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_fingerprints:
        record_fingerprints(args)
        return 0
    workload = WORKLOADS[args.workload]
    queries = workload.queries(args.seed, args.quick)
    fingerprints = load_fingerprints()
    run = traced_run if args.trace else timed_run
    t0 = time.perf_counter()
    results, metrics, detail = run(workload, queries, args, fingerprints)
    failed = sum(r.failed for r in results)

    for r in results:
        if r.failed:
            print(f"FAILED {' '.join(r.argv)}: {'; '.join(r.failures)}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:<{width}}  {shown} {unit}")
    if not args.trace:
        print(f"{'failed_ratio':<{width}}  {failed / len(results):>14.6g} "
              f"ratio ({failed} failed of {len(results)} queries)")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "quick": args.quick,
              "seconds": args.seconds, "run_s": time.perf_counter() - t0,
              "machine": machine_record(args),
              "attempted": len(results), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              **detail}
    out = args.out or OUT / (f"{args.workload}-seed{args.seed}-trace"
                             f"{args.trace}{'-quick' if args.quick else ''}"
                             ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
