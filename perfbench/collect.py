"""Repeat benchmark runs and summarise them: medians, quartiles and spreads.

    python3 perfbench/collect.py --out perfbench/trajectory/NAME.json

For each workload in BENCHMARK.json it runs `perfbench/run.py` for the
file's run_seconds once per seed (1..RUNS, each in a fresh interpreter, one
after another), then once more with --trace 1 at seed 0.  For every
end-to-end metric it reports the median, the quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json.  The summary file is a trajectory
point that later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds, trace, timeout=600):
    out = HERE / "out" / f"collect-{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text())["machine"]


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        rows, machine = [], None
        for seed in range(1, RUNS + 1):
            result, machine = run_once(workload, seed, seconds, 0)
            rows.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"attempted": sum(r["attempted"] for r in rows),
                 "failed": sum(r["failed"] for r in rows),
                 "correct": all(r["correct"] for r in rows),
                 "end_to_end": {}}
        for name in rows[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in rows])
            stats["unit"] = rows[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            entry["end_to_end"][name] = stats
            print(f"  {name:<12} median {stats['median']:<12.6g} spread "
                  f"{stats['spread']:.4f} (bound {stats['bound']})",
                  flush=True)
        traced, _ = run_once(workload, 0, seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["per_layer_correct"] = traced["correct"]
        summary["machine"] = {k: v for k, v in machine.items()
                              if k != "seed"}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    ok = all(w["correct"] for w in summary["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
