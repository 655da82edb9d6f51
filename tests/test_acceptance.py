"""Acceptance gate: one test per criterion, run at the stated scale.

Every comparison is exact (the algebra is exact); each test prints a
PASS/FAIL line with its runtime so `pytest -s tests/test_acceptance.py`
doubles as the acceptance report.
"""

import json
import re
import time
from multiprocessing import cpu_count

from mto1.cyclotomic import CycloForm, main_predict, star_census
from mto1.galois import Poly, build_field, unity_subgroup
from mto1.harness import VerifyJob, run_job
from mto1.criteria import construction2_verdict
from mto1.multiplicity import (FiniteMapping, IndexMapping, check_m_to_1,
                               count_by_enumeration, count_formula)

JOBS = cpu_count()


def _report(number, label, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label}: "
          f"{elapsed:.1f}s (limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def _star_mapping(form):
    """f on F_q^* in dlog order, from the oracle's logs."""
    exp, logs = form.spec.exp, star_census(form)[0].tolist()
    return IndexMapping(exp[:len(logs)], [exp[t] for t in logs],
                        form.spec.from_index)


def _no_disagreements(report):
    return report["summary"]["disagreements"] == 0


def test_acceptance_1_paper_fixtures():
    t0 = time.perf_counter()
    ok = True
    # (a) x^3 + x on F_5 is 3-to-1 with E = {1, 4}
    spec5 = build_field(5)
    f5 = FiniteMapping.from_function(
        spec5.elements(), lambda x: x ** 3 + x)
    rep = check_m_to_1(f5, 3)
    ok &= rep.verdict and {e.index for e in rep.exceptional_set} == {1, 4}
    # (b) F_29: x^2 h(x^4) is 12-to-1 on the star with E = {1,28,12,17},
    #     and U_7 = {1,7,16,20,23,24,25}
    spec29 = build_field(29)
    form29 = CycloForm(spec29, 2, 4, Poly.from_string(spec29, "1,0,0,15,1,1"))
    rep29 = check_m_to_1(_star_mapping(form29), 12)
    ok &= rep29.verdict
    ok &= {e.index for e in rep29.exceptional_set} == {1, 28, 12, 17}
    ok &= main_predict(form29, 12).verdict
    ok &= ({e.index for e in unity_subgroup(spec29, 7)}
           == {1, 7, 16, 20, 23, 24, 25})
    # (c) F_64 with the named modulus: x^2 (x^21 + xi^9) is 3-to-1 on the star
    spec64 = build_field(2, 6, (1, 1, 0, 1, 1, 0, 1))
    form64 = CycloForm(spec64, 2, 21, Poly.from_string(spec64, "g^9,1"))
    ok &= check_m_to_1(_star_mapping(form64), 3).verdict
    ok &= main_predict(form64, 3).verdict
    _report(1, "paper fixtures bit-exact", ok, time.perf_counter() - t0, 1.0)


def test_acceptance_2_counting_oracle():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3, 4, 5):
        census = count_by_enumeration(q)
        for m in range(1, q + 1):
            ok &= count_formula(q, m) == census[m]
    _report(2, "counting formula vs exhaustive census (q <= 5)", ok,
            time.perf_counter() - t0, 10.0)


def test_acceptance_3_main_soundness_grid():
    t0 = time.perf_counter()
    report = run_job(VerifyJob("main", {"hcount": 200}, jobs=JOBS))
    ok = _no_disagreements(report) and report["summary"]["total"] >= 12000
    _report(3, "main-theorem soundness grid (12 fields, 200 h per (q,s))",
            ok, time.perf_counter() - t0, 600.0)


def test_acceptance_4_specialization_coherence():
    t0 = time.perf_counter()
    small = run_job(VerifyJob("small", {"hcount": 12}, jobs=JOBS))
    ell = run_job(VerifyJob("ell", {"hcount": 12}, jobs=JOBS))
    ok = _no_disagreements(small) and _no_disagreements(ell)
    _report(4, "m in {2,3} and ell in {2,3} specializations + corollaries",
            ok, time.perf_counter() - t0, 120.0)


def test_acceptance_5_monomial_and_hd_families():
    t0 = time.perf_counter()
    mono = run_job(VerifyJob("monomial", {}, jobs=JOBS))
    hd = run_job(VerifyJob("hd", {}, jobs=JOBS))
    ok = _no_disagreements(mono) and _no_disagreements(hd)
    # the named fixture must be inside the grid: q=5, d=4, k=1, r=1
    fixture = [r for r in mono["records"]
               if r["params"].get("q") == 5 and r["params"].get("d") == 4
               and r["params"].get("k") == 1 and r["params"].get("r") == 1]
    ok &= bool(fixture) and fixture[0]["agree"]
    _report(5, "monomial-like and h_d families vs oracles", ok,
            time.perf_counter() - t0, 300.0)


def test_acceptance_6_section8_families():
    t0 = time.perf_counter()
    reports = {
        "lemmas": run_job(VerifyJob("lemmas", {}, jobs=JOBS)),
        "split": run_job(VerifyJob("split", {}, jobs=JOBS)),
        "g3": run_job(VerifyJob("g3", {}, jobs=JOBS)),
        "g5": run_job(VerifyJob("g5", {}, jobs=JOBS)),
        "transfer": run_job(VerifyJob("transfer", {}, jobs=JOBS)),
    }
    ok = all(_no_disagreements(rep) for rep in reports.values())
    # 5-to-1 exactly at n = 2 mod 4 shows up in the g5 records
    g5_ms = {r["params"]["n"]: r["params"]["g_m"]
             for r in reports["g5"]["records"]}
    ok &= all(g5_ms[n] == (5 if n % 4 == 2 else 1) for n in range(1, 9))
    _report(6, "rootlessness, split, g3/g5 and transfer families (n <= 8)",
            ok, time.perf_counter() - t0, 300.0)


def test_acceptance_7_tower_families():
    t0 = time.perf_counter()
    ok = True
    checked = {}
    for fam, draws in (("r1l1", 300), ("r3", 400), ("rk", 700),
                       ("fq_r1l1", 300), ("gbar", 400)):
        report = run_job(VerifyJob("towers",
                                   {"families": (fam,), "draws": draws},
                                   jobs=JOBS))
        ok &= _no_disagreements(report)
        checked[fam] = sum(r["params"].get("checked", 0)
                           for r in report["records"])
        ok &= checked[fam] >= 500
    _report(7, f"tower families, conforming draws per family {checked}",
            ok, time.perf_counter() - t0, 600.0)


def test_acceptance_8_abstract_criteria(paper_square_f29):
    t0 = time.perf_counter()
    report = run_job(VerifyJob("criteria", {"count": 2000}, jobs=JOBS))
    total = sum(r["params"].get("checked", 0) for r in report["records"])
    ok = _no_disagreements(report) and total >= 10000
    # plus the paper-derived square
    sq = paper_square_f29
    rep12 = construction2_verdict(sq, 2, 12)
    rep6 = construction2_verdict(sq, 2, 6)
    ok &= rep12.agree and rep12.lhs and rep6.agree and not rep6.lhs
    _report(8, f"abstract criteria on {total} random models + F_29 square",
            ok, time.perf_counter() - t0, 120.0)


def test_acceptance_9_cli_contract(capsys, monkeypatch):
    import mto1.cli as cli
    t0 = time.perf_counter()
    ok = True

    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    code, out = run("analyze", "5^1", "0,1,0,1")
    ok &= code == 0 and "m=3" in out and "['1', '4']" in out
    code, out = run("analyze", "7^1", "0,0,1", "--star")
    ok &= code == 0 and "m=2" in out and "verdict=True" in out
    code, out = run("analyze", "2^2", "1")
    ok &= code == 0 and "m=4" in out
    # exit-code semantics
    ok &= run("analyze", "bad^field", "1")[0] == 2
    ok &= run("analyze", "2^17", "1,1")[0] == 3
    ok &= run("search", "29^1", "--s", "4", "--deg", "5", "--m", "12",
              "--budget", "10")[0] == 4
    code, _ = run("verify", "count", "--q", "2..4")
    ok &= code == 0
    # byte-identical re-runs modulo the elapsed fields
    strip = lambda text: re.sub(r'"elapsed": [0-9.e+-]+', "X", text)
    _, out1 = run("verify", "g3", "--n", "1..2", "--jobs", "1", "--json")
    _, out2 = run("verify", "g3", "--n", "1..2", "--jobs", "2", "--json")
    ok &= strip(out1) == strip(out2) and bool(json.loads(out1))
    _report(9, "CLI analyze fixtures, exit codes, deterministic reports",
            ok, time.perf_counter() - t0, 30.0)
