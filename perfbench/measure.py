"""Running the workloads' queries in-process and checking what they print.

Queries go through the package's public entry point `mto1.cli.main`, with
standard output captured.  Each query's output is checked: exit code, zero
disagreements, a non-zero amount of work, re-verified search hits, and a
behaviour fingerprint compared against `fingerprints.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import candidates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"

VERIFY_KEYS = ("evaluator", "params", "predicted", "observed", "agree",
               "skipped", "exceptional_set")


# -- behaviour fingerprints ----------------------------------------------------

def projection(argv, payload):
    """The part of a query's JSON output that the fingerprint covers.

    verify: the sorted records restricted to VERIFY_KEYS, so that summary or
    timing fields added to reports later do not change it.  search: the
    sorted hit list.  analyze: the whole payload.
    """
    if argv[0] == "verify":
        recs = [{k: rec.get(k) for k in VERIFY_KEYS}
                for rec in payload["records"]]
        return sorted(recs, key=_canonical)
    if argv[0] == "search":
        return sorted(payload["hits"], key=_canonical)
    return payload


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def digest(argv, payload):
    return hashlib.sha256(
        _canonical(projection(argv, payload)).encode()).hexdigest()


def query_key(argv):
    """Fingerprint key of a query: its argv without the seed."""
    out = list(argv)
    if "--seed" in out:
        i = out.index("--seed")
        del out[i:i + 2]
    return " ".join(out)


def load_fingerprints():
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def expected_digest(fingerprints, argv, seed):
    """The recorded digest this query must match, or None if it has none.

    Digests are recorded at the store's seed; a query whose output did not
    change with the seed is marked seed_free and is checked at every seed.
    """
    entry = fingerprints["queries"].get(query_key(argv))
    if entry is None:
        return None
    if entry["seed_free"] or seed == fingerprints["seed"]:
        return entry["sha256"]
    return None


# -- one query -----------------------------------------------------------------

@dataclass
class QueryResult:
    argv: list
    wall_s: float
    rc: int | None
    output_bytes: int
    work: int = 0          # checks, candidates or domain points
    checks: int = 0        # verify only
    skips: int = 0         # verify only: hypothesis skips and skipped records
    hits: int = 0          # search only
    busy_s: float = 0.0    # verify only: sum of the records' elapsed
    pool_s: float = 0.0    # verify only: the report's elapsed (the pool's wall)
    item_max_s: float = 0.0  # verify only: largest record elapsed
    models_kept: int = 0   # verify only: checks of criteria_batch records
    digest: str | None = None
    failures: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.failures)


def cli_argv(argv, jobs):
    extra = ["--jobs", str(jobs)] if argv[0] == "verify" else []
    return list(argv) + extra + ["--json"]


def call_cli(argv, jobs, call=None):
    """Run one query through mto1.cli.main; returns (exit code, stdout).

    `call(fn, args)` lets the tracer put a span around the call.
    """
    import mto1.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if call is None:
            rc = mto1.cli.main(cli_argv(argv, jobs))
        else:
            rc = call(mto1.cli.main, cli_argv(argv, jobs))
    return rc, buf.getvalue()


def record_checks(rec):
    """Checks one verify record stands for: its grid's `checked`, 1 for a
    plain record, 0 for a skipped one."""
    if rec["skipped"]:
        return 0
    return rec["params"].get("checked", 1)


def run_query(argv, jobs, seed, fingerprints, call=None):
    t0 = time.perf_counter()
    try:
        rc, text = call_cli(argv, jobs, call)
    except Exception:  # a crash is this query's failure, not the run's
        res = QueryResult(argv, time.perf_counter() - t0, None, 0)
        res.failures.append("crashed: "
                            + traceback.format_exc().strip().splitlines()[-1])
        return res
    res = QueryResult(argv, time.perf_counter() - t0, rc, len(text.encode()))
    if rc != 0:
        res.failures.append(f"exit code {rc}")
    try:
        payload = json.loads(text)
    except ValueError:
        res.failures.append("output is not JSON")
        return res
    check_output(res, payload, seed, fingerprints)
    return res


def check_output(res, payload, seed, fingerprints):
    """Fill in the counts of a parsed query and record its failures."""
    argv = res.argv
    if argv[0] == "verify":
        recs = payload["records"]
        res.checks = res.work = sum(record_checks(r) for r in recs)
        res.skips = sum(r["params"].get("hypothesis_skips", 0)
                        + bool(r["skipped"]) for r in recs)
        res.busy_s = sum(r["elapsed"] for r in recs)
        res.pool_s = payload["elapsed"]
        res.item_max_s = max((r["elapsed"] for r in recs), default=0.0)
        res.models_kept = sum(record_checks(r) for r in recs
                              if r["evaluator"] == "criteria_batch")
        bad = payload["summary"]["disagreements"]
        if bad:
            res.failures.append(f"{bad} disagreement(s)")
        if res.checks == 0:
            res.failures.append("zero checks")
    elif argv[0] == "search":
        res.work = candidates(argv)
        res.hits = payload["count"]
        unverified = sum(1 for h in payload["hits"] if not h["verified"])
        if unverified:
            res.failures.append(f"{unverified} hit(s) failed re-verification")
    else:
        res.work = payload["size"]
        if res.work == 0:
            res.failures.append("empty domain")
    res.digest = digest(argv, payload)
    want = expected_digest(fingerprints, argv, seed)
    if want is not None and want != res.digest:
        res.failures.append("fingerprint mismatch")


# -- passes and set-up ---------------------------------------------------------

def cpu_seconds():
    """User + system time of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """The larger of ru_maxrss for this process and for its children."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    results: list

    @property
    def work(self):
        return sum(r.work for r in self.results)


def run_pass(queries, jobs, seed, fingerprints, call=None):
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    results = [run_query(q, jobs, seed, fingerprints, call) for q in queries]
    wall = time.perf_counter() - t0
    return Pass(wall, cpu_seconds() - cpu0, results)


def build_fields(specs):
    """Import mto1 with its CLI and build (and cache) the given fields."""
    import mto1.cli  # noqa: F401  (the entry point pulls in every module)
    from mto1.galois import parse_field
    for spec in specs:
        parse_field(spec)


PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from measure import build_fields
build_fields(sys.argv[3:])
print("ready", flush=True)
"""


def setup_probe(specs, timeout=120):
    """Seconds from starting a fresh interpreter until it has imported mto1
    and built the fields, as seen by this process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE, str(SRC), str(HERE), *specs],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed
