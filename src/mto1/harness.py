"""Grid verification: theorem predictions against brute-force oracles.

A VerifyJob names a theorem family and a parameter grid; running it produces
a Report whose records each carry the instance parameters, the predicted and
observed verdicts, and an agreement flag.  Hypothesis-violating instances are
recorded as skipped, never as disagreements.  Reports are deterministic for a
fixed seed: records are sorted before assembly and every random draw is
seeded from a string derived from the instance parameters (string seeds are
stable across processes, unlike hash()).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii
from multiprocessing import Pool, cpu_count
from typing import Callable, NamedTuple

from .criteria import (CommutativeSquare, GroupModel, HypothesisError,
                       _fibers_of, construction1_verdict,
                       construction2_verdict, construction3_verdict,
                       local_criterion_check)
from .cyclotomic import (CycloForm, conjunct_text, decompose,
                         hd_family_predict, hd_rootless_gcd, hd_rootless_scan,
                         lift_from_permutation, monomial_predict,
                         count_rootless, permutes_field, predict_from,
                         random_rootless_form, random_rootless_forms,
                         random_rootless_poly, reduction_chunks,
                         rootless_censuses, small_ell_predict,
                         small_m_predict, star_census, transfer_equivalence)
from .galois import (MAX_FIELD_SIZE, FieldElement, Poly, ScaleError,
                     build_field, quadratic_base, subfield_indices)
from .multiplicity import (ENUMERATION_MAX_Q, FiniteMapping, IndexMapping,
                           check_m_to_1, count_by_enumeration, count_formula,
                           fibers_verdict)
from .unitline import (base_trace, frob_q, g3_families, g5_family,
                       g_permutation_lemma, halfplane_split, line_pair_deg1,
                       line_poly_deg1, line_poly_rk, observe_towers,
                       quartic_rootless_lemma, tower_gbar_predict,
                       tower_line_predict, tower_unit_predict,
                       transfer_families, unit_pair_deg1, unit_pair_g3,
                       unit_subgroup_points)


@dataclass
class VerifyJob:
    family: str
    options: dict = dc_field(default_factory=dict)
    seed: int = 0
    jobs: int = 0  # 0 means cpu_count()


MAIN_GRID_Q = (5, 7, 8, 9, 11, 13, 16, 25, 27, 29, 49, 64)
Q2_GRID = (3, 4, 5, 7, 8)
CHAR2_NS = tuple(range(1, 9))  # the n of the F_(2^(2n)) families


def _fkey(p, n=1, modulus=None):
    return (p, n, tuple(modulus) if modulus else None)


def _field(fk):
    return build_field(fk[0], fk[1], fk[2])


def _field_key_for_q(q):
    """(p, n, None) with p^n = q, a prime power of at most MAX_FIELD_SIZE."""
    if q > MAX_FIELD_SIZE:
        raise ScaleError(f"q = {q} exceeds the supported {MAX_FIELD_SIZE}")
    for p in range(2, q + 1):
        if q % p == 0:  # the least divisor above 1 is prime
            n = round(math.log(q, p))
            if p ** n == q:
                return _fkey(p, n)
            break
    raise ValueError(f"{q} is not a prime power")


def _q2_field_key(q):
    # full F_{q^2} scans are capped at q^2 <= 4096
    if q * q > 4096:
        raise ScaleError(f"full F_(q^2) scans need q^2 <= 4096, got q = {q}")
    p, n, _ = _field_key_for_q(q)
    return _fkey(p, 2 * n)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _rng(*parts):
    return random.Random("|".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# instance evaluators (top-level so the process pool can pickle them)
# ---------------------------------------------------------------------------

EVALUATORS = {}


def evaluator(name):
    def wrap(fn):
        EVALUATORS[name] = fn
        return fn
    return wrap


def _record(params, predicted, observed, skipped=None, exceptional=None):
    agree = None if skipped else predicted == observed
    return {"params": params, "predicted": predicted, "observed": observed,
            "agree": agree, "skipped": skipped, "exceptional_set": exceptional}


class _Tally:
    """Bookkeeping of one grid evaluator: checks run, hypothesis skips, and
    the detail of every failed check, folded into one grid record."""

    __slots__ = ("checked", "skipped", "bad")

    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.bad = []

    def check(self, ok):
        """Count one check and return ok, so that a caller builds its
        failure detail only when the check fails."""
        self.checked += 1
        return ok

    def record(self, params):
        """The grid record; one with no check and no failure agreed on
        nothing, so it is skipped, with its hypothesis skips as the reason."""
        params = dict(params)
        params["checked"] = self.checked
        if self.skipped:
            params["hypothesis_skips"] = self.skipped
        skipped = None
        if not self.checked and not self.bad:
            skipped = f"no checks: {self.skipped} hypothesis skip(s)"
        return _record(params, predicted="all-agree",
                       observed="all-agree" if not self.bad else self.bad,
                       skipped=skipped)


@evaluator("count")
def _eval_count(params):
    q = params["q"]
    census = count_by_enumeration(q)
    return [_record({"q": q, "m": m}, predicted=count_formula(q, m),
                    observed=census[m])
            for m in range(1, q + 1)]


@evaluator("main_grid")
def _eval_main_grid(params):
    """One (q, s) cell: hcount distinct rootless h drawn from the cell's own
    stream, each checked at all r in [1, 2s] and all m <= min(ell*m1, mcap);
    one record per h, read from reduction_chunks."""
    fk = tuple(params["field"])
    spec = _field(fk)
    s = params["s"]
    ell = (spec.q - 1) // s
    pairs = [(r, m) for r in range(1, 2 * s + 1)
             for m in range(1, min(ell * math.gcd(r, s), params["mcap"]) + 1)]
    rng = _rng(params["seed"], "main", spec.q, s)
    drawn = {}
    while len(drawn) < params["hcount"]:
        for form in random_rootless_forms(spec, s, params["degmax"], rng,
                                          params["hcount"] - len(drawn)):
            drawn.setdefault(form.h.coeffs, form)
    records = []
    for red in reduction_chunks(spec, s, list(drawn.values()), pairs):
        tally = _Tally()
        tally.checked = len(pairs)
        for i in red.misses:
            (r, m), code = pairs[i], red.codes[i]
            tally.bad.append({"r": r, "m": m, "predicted": code == 0,
                              "observed": red.observed[i],
                              "failed_conjunct": conjunct_text(
                                  code, m // math.gcd(r, s), ell)})
        records.append(tally.record({"field": list(fk[:2]), "s": s,
                                     "h": str(red.form.h), "rmax": 2 * s}))
    return records


@evaluator("main_fixture")
def _eval_main_fixture(params):
    spec = _field(tuple(params["field"]))
    h = Poly.from_string(spec, params["h"])
    form = CycloForm(spec, params["r"], params["s"], h)
    m = params["m"]
    prediction = predict_from(decompose(form), m)
    exp, logs = spec.arrays()[0], star_census(form)[0]
    rep = check_m_to_1(IndexMapping(exp[:len(logs)], exp[logs],
                                    spec.from_index), m)
    exc = [str(e) for e in rep.exceptional_set]
    rec = _record({"field": list(params["field"][:2]), "r": params["r"],
                   "s": params["s"], "h": params["h"], "m": m},
                  predicted=prediction.verdict, observed=rep.verdict,
                  exceptional=exc)
    rec["failed_conjunct"] = prediction.failed
    return [rec]


def _case_list_grid(params, predict, ms):
    """Case-list vs main prediction vs oracle for the hcount h drawn from
    one cell's stream, every r in [1, 2s] and every m in ms(ell, m1);
    yields each h's tally and record params.  The case predictor reads the
    decomposition that reduction_chunks built from g's rows."""
    spec = _field(tuple(params["field"]))
    s = params["s"]
    ell = (spec.q - 1) // s
    rng = _rng(params["seed"])
    forms = random_rootless_forms(spec, s, params["degmax"], rng,
                                  params["hcount"])
    pairs = [(r, m) for r in range(1, 2 * s + 1)
             for m in ms(ell, math.gcd(r, s))]
    for red in reduction_chunks(spec, s, forms, pairs):
        tally = _Tally()
        decs = red.decompositions()
        for (r, m), code, observed in zip(pairs, red.codes, red.observed):
            case_verdict, _ = predict(decs[r].form, m, decs[r])
            if not tally.check(case_verdict == (code == 0) == observed):
                tally.bad.append({"r": r, "m": m, "case": case_verdict,
                                  "main": code == 0, "oracle": observed})
        yield tally, {"field": list(params["field"][:2]), "s": s,
                      "h": str(red.form.h)}


@evaluator("small_m")
def _eval_small_m(params):
    """The m in {2, 3} case lists, at the cell's m."""
    m = params["m"]
    return [tally.record(dict(rec, m=m)) for tally, rec
            in _case_list_grid(params, small_m_predict, lambda *_: (m,))]


@evaluator("small_m_corollary")
def _eval_small_m_corollary(params):
    """f = x^r (x^(2s) + x^s + a), s = (q-1)/3: the closed-form 2-to-1
    condition ((a-1)^5 (a+2))^((q-1)/6) outside {w, w^2} vs brute force."""
    spec = _field(tuple(params["field"]))
    q = spec.q
    s = (q - 1) // 3
    w = spec.exp_at((q - 1) // 3)
    wsq = spec.mul(w, w)
    tally = _Tally()
    cases = [FieldElement(spec, a_idx) for a_idx in range(q)]
    cases = [a for a in cases if a != spec.one and a != -spec.element(2)]
    hs = [Poly.from_elements(spec, (a, spec.one, spec.one)) for a in cases]
    census = rootless_censuses(spec, s, hs, range(1, 2 * s + 1))[1].tolist()
    for a, rows in zip(cases, census):
        val = spec.pow(
            spec.mul(spec.pow(spec.sub(a.index, 1), 5), spec.add(a.index, 2)),
            (q - 1) // 6)
        for r in range(1, 2 * s + 1):
            cond = (math.gcd(r, s) == 2 and r % 6 in (2, 4)
                    and val not in (w, wsq))
            observed = fibers_verdict(rows[r - 1][2], q - 1, 2)
            if not tally.check(cond == observed):
                tally.bad.append({"a": str(a), "r": r, "cond": cond,
                                  "oracle": observed})
    return [tally.record({"field": list(params["field"][:2])})]


@evaluator("small_ell")
def _eval_small_ell(params):
    """The ell in {2, 3} case lists, at every m in [1, ell*m1]."""
    return [tally.record(rec) for tally, rec in _case_list_grid(
        params, small_ell_predict, lambda ell, m1: range(1, ell * m1 + 1))]


@evaluator("ell2_corollary")
def _eval_ell2_corollary(params):
    """f = x^r (x^((q-1)/2) + a): (a^2-1)^((q-1)/2) = (-1)^r and the m1 = 2
    companion condition, both against brute force."""
    spec = _field(tuple(params["field"]))
    q = spec.q
    s = (q - 1) // 2
    minus_one = spec.neg(1)
    tally = _Tally()
    cases = [a for a in range(q) if a != 1 and a != minus_one]
    hs = [Poly.from_elements(spec, (FieldElement(spec, a), spec.one))
          for a in cases]
    census = rootless_censuses(spec, s, hs, range(1, 2 * s + 1))[1].tolist()
    for a_idx, rows in zip(cases, census):
        a = FieldElement(spec, a_idx)
        val = spec.pow(spec.sub(spec.mul(a_idx, a_idx), 1), s)
        for r in range(1, 2 * s + 1):
            m1 = math.gcd(r, s)
            sign = minus_one if r % 2 else 1
            cond = m1 == 1 and val == sign
            if m1 == 2:
                frac = spec.mul(spec.add(a_idx, 1),
                                spec.inv(spec.sub(a_idx, 1)))
                v2 = spec.pow(frac, (q - 1) // 4)
                sign2 = minus_one if (r // 2) % 2 else 1
                cond = v2 != sign2
            observed = fibers_verdict(rows[r - 1][2], q - 1, 2)
            if not tally.check(cond == observed):
                tally.bad.append({"a": str(a), "r": r, "cond": cond,
                                  "oracle": observed})
    return [tally.record({"field": list(params["field"][:2])})]


@evaluator("monomial_grid")
def _eval_monomial_grid(params):
    """F_{q^2} family x^r (x^(d(q-1)) - a)^(k m1) with a^(q+1) = 1, a^t != 1:
    the monomial predicate, the main reduction, the closed-form gcd condition
    and the oracle must all agree, at every m <= min(m1 (q+1), 24)."""
    spec = _field(tuple(params["field"]))
    q = params["q"]
    d, k, r = params["d"], params["k"], params["r"]
    t = (q + 1) // math.gcd(d, q + 1)
    m1 = math.gcd(r, q - 1)
    tally = _Tally()
    cases = [FieldElement(spec, a_i) for a_i in unit_subgroup_points(spec)
             if spec.pow(a_i, t) != 1]
    if not cases:
        return [_record({"q": q, "d": d, "k": k, "r": r}, None, None,
                        skipped="hypothesis: no a with a^(q+1)=1 and a^t != 1")]
    forms = [CycloForm(spec, r, q - 1, Poly.from_elements(
        spec, (-a, spec.one)).of_power(d) ** (k * m1)) for a in cases]
    pairs = [(r, m) for m in range(1, min(m1 * (q + 1), 24) + 1)]
    for a, red in zip(cases, reduction_chunks(spec, q - 1, forms, pairs)):
        mono_m = monomial_predict(red.form, (-a) ** (-k), -k * d)["m"]
        for (_, m), code, observed in zip(pairs, red.codes, red.observed):
            mono = m == mono_m
            main_v = code == 0
            closed = (m % m1 == 0
                      and math.gcd(r // m1 - k * d, q + 1) == m // m1)
            if not tally.check(mono == main_v == observed == closed):
                tally.bad.append({"a": str(a), "m": m, "mono": mono,
                                  "main": main_v, "oracle": observed,
                                  "closed_form": closed})
    return [tally.record({"q": q, "d": d, "k": k, "r": r})]


@evaluator("hd_root_lemma")
def _eval_hd_root_lemma(params):
    """gcd criterion vs exhaustive scan for roots of h_d(x^e) in U_ell."""
    spec = _field(tuple(params["field"]))
    base_q = params["base_q"]
    dmax, emax = params["dmax"], params["emax"]
    q1 = spec.q - 1
    tally = _Tally()
    for ell in _divisors(q1):
        for d in range(1, dmax + 1):
            for e in range(1, emax + 1):
                g = hd_rootless_gcd(d, e, ell, base_q)
                sc = hd_rootless_scan(spec, d, e, ell)
                if not tally.check(g == sc):
                    tally.bad.append({"ell": ell, "d": d, "e": e, "gcd": g,
                                      "scan": sc})
    return [tally.record({"field": list(params["field"][:2]),
                          "base_q": base_q})]


@evaluator("hd_family")
def _eval_hd_family(params):
    """The h_d towers over F_(q0^n0): gcd-formula verdicts vs brute force,
    at d, r <= 6 and m <= 12."""
    spec = _field(tuple(params["field"]))
    base_degree = params["base_degree"]
    q1 = spec.q - 1
    tally = _Tally()
    for s in _divisors(q1):
        ell = q1 // s
        for d in range(1, 7):
            for e in (1, 2, 3):
                for t in (1, 2):
                    for r in range(1, 7):
                        ms = range(1, min(ell * math.gcd(r, s), 12) + 1)
                        try:
                            rec = hd_family_predict(spec, base_degree, r, s,
                                                    d, e, t)
                        except HypothesisError:
                            tally.skipped += len(ms)  # one skip per m
                            continue
                        census = star_census(rec["form"])[1].tolist()
                        for m in ms:
                            predicted = m == rec["m"]
                            observed = fibers_verdict(census[m], q1, m)
                            if not tally.check(predicted == observed
                                               and rec["hd_rootless_gcd"]):
                                tally.bad.append({
                                    "s": s, "d": d, "e": e, "t": t, "r": r,
                                    "m": m, "case": rec["case"],
                                    "predicted": predicted,
                                    "oracle": observed})
    return [tally.record({"field": list(params["field"][:2]),
                          "base_degree": base_degree})]


def _conforming_twist(spec, s, m1, rng):
    """(M, t) with eps = 1 and x^(t/m1) M(x)^(s/m1) = 1 on U_ell: take
    M = x^a W(x)^(ell*m1) for rootless W, so M^(s/m1) = x^(a*s/m1) there,
    and pick t/m1 = -a*(s/m1) mod ell."""
    q1 = spec.q - 1
    ell = q1 // s
    s1 = s // m1
    W = random_rootless_poly(spec, s, rng.randrange(0, 3), rng)
    a = rng.randrange(0, 3)
    t1 = ell * rng.randrange(1, 4) - (a * s1) % ell
    if t1 < 1:
        t1 += ell
    M = W ** (ell * m1)
    if a:
        M = M * Poly.monomial(spec, a)
    return M, m1 * t1


@evaluator("lift")
def _eval_lift(params):
    """Permutation lifts and the transfer equivalence at one small field."""
    spec = _field(tuple(params["field"]))
    rng = _rng(params["seed"])
    q1 = spec.q - 1
    tally = _Tally()
    for _ in range(params["draws"]):
        s = rng.choice(_divisors(q1))
        ell = q1 // s
        form = None
        for _ in range(200):
            r = rng.randrange(1, 2 * s + 1)
            if math.gcd(r, s) != 1:
                continue
            cand = random_rootless_form(spec, s, rng.randrange(0, 4),
                                        rng).with_r(r)
            if permutes_field(cand):
                form = cand
                break
        if form is None:
            tally.skipped += 1
            continue
        eps = spec.one
        M, t = _conforming_twist(spec, s, 1, rng)  # (r, s) = 1 for permutations
        try:
            lifted = lift_from_permutation(form, M, eps, t,
                                           rng.randrange(1, 4))
        except HypothesisError as err:
            tally.bad.append({"stage": "lift", "error": str(err)})
            continue
        if not tally.check(lifted["verified"]):
            tally.bad.append({"stage": "lift", "r": form.r, "s": s,
                              "m": lifted["m"]})
        # transfer equivalence on an arbitrary base form, any m1 = (r2, s)
        r2 = rng.randrange(1, 2 * s + 1)
        base = random_rootless_form(spec, s, rng.randrange(0, 4),
                                    rng).with_r(r2)
        M2, t2 = _conforming_twist(spec, s, base.m1, rng)
        k = rng.randrange(1, 4)
        if math.gcd(base.r + k * t2, s) != base.m1:
            tally.skipped += 1
            continue
        rec = transfer_equivalence(base, M2, eps, t2, k)
        for m in range(1, min(ell * base.m1, 10) + 1):
            if not tally.check((rec["lifted"] == m) == (rec["base"] == m)):
                tally.bad.append({"stage": "transfer", "r": base.r, "s": s,
                                  "m": m})
    return [tally.record({"field": list(params["field"][:2])})]


@evaluator("g3")
def _eval_g3(params):
    spec = _field(tuple(params["field"]))
    trinomials = params["trinomials"]
    _, half = quadratic_base(spec)
    tally = _Tally()
    cs = [FieldElement(spec, ci) for ci in subfield_indices(spec, half) if ci]
    for rec in g3_families(spec, cs, trinomials=trinomials):
        ok = rec["g_verdict"] and rec.get("g1_verdict", True)
        if trinomials:
            ok = ok and all(
                rec[f"{nm}_{w}_predicted"] == rec[f"{nm}_{w}_observed"]
                for nm in ("f_a", "f_b") for w in ("1to1", "3to1"))
        if not tally.check(ok):
            tally.bad.append({"c": str(rec["c"])})
    return [tally.record({"field": list(params["field"][:2]),
                          "trinomials": trinomials})]


@evaluator("g5")
def _eval_g5(params):
    spec = _field(tuple(params["field"]))
    rec = g5_family(spec)
    ok = all(rec[k] for k in rec if k.endswith("_verdict"))
    for w in ("1to1", "3to1"):
        if f"f3_{w}_predicted" in rec:
            ok = ok and rec[f"f3_{w}_predicted"] == rec[f"f3_{w}_observed"]
    return [_record({"field": list(params["field"][:2]), "n": rec["n"],
                     "g_m": rec["g_predicted_m"]},
                    predicted="all-agree",
                    observed="all-agree" if ok else "family mismatch")]


@evaluator("split")
def _eval_split(params):
    spec = _field(tuple(params["field"]))
    rec = halfplane_split(spec)
    n = spec.n // 2
    ok = (len(rec["A0"]) == 2 ** (n - 1) - 1
          and len(rec["A1"]) == 2 ** (n - 1) and rec["two_to_one"])
    return [_record({"field": list(params["field"][:2]), "n": n},
                    predicted="sizes+pairings",
                    observed="sizes+pairings" if ok else "mismatch")]


@evaluator("lemmas")
def _eval_lemmas(params):
    spec = _field(tuple(params["field"]))
    rootless = quartic_rootless_lemma(spec)
    pred, obs = g_permutation_lemma(spec)
    return [_record({"field": list(params["field"][:2]), "n": spec.n // 2},
                    predicted={"rootless": True, "G_permutes": pred},
                    observed={"rootless": rootless, "G_permutes": obs})]


@evaluator("transfer_q2")
def _eval_transfer_q2(params):
    spec = _field(tuple(params["field"]))
    base = params["base"]
    _, half = quadratic_base(spec)
    tally = _Tally()
    cs = ([FieldElement(spec, i) for i in subfield_indices(spec, half) if i]
          if base == "f3" else [None])
    for c in cs:
        for d in (1, 3, 5, 7):
            for k in (1, 2, 3):
                try:
                    rec = transfer_families(spec, base, c=c, d=d, k=k)
                except HypothesisError:
                    tally.skipped += 1
                    continue
                if base == "f3":
                    if not tally.check(rec["predicted"] == rec["observed"]
                                       == rec["base_observed"]):
                        tally.bad.append({"c": str(c), "d": d, "k": k})
                elif not tally.check(rec["agree"]):
                    tally.bad.append({"d": d, "k": k})
    return [tally.record({"field": list(params["field"][:2]), "base": base})]


# -- tower draws ----------------------------------------------------------------

def _rand_elt(spec, rng, nonzero=False):
    return FieldElement(spec, rng.randrange(1 if nonzero else 0, spec.q))


def _norm_neq(spec, x, y):
    """x^(q+1) != y^(q+1) (relative norms differ)."""
    return x * frob_q(spec, x) != y * frob_q(spec, y)


def _ratio_neq(spec, x, y, q):
    """x^(q-1) != y^(q-1), for nonzero x, y."""
    return spec.pow(x.index, q - 1) != spec.pow(y.index, q - 1)


def _pick_r(rng, q, m1, target, tries=64):
    """r with gcd(r, q-1) = m1 and r/m1 = target (mod q+1), or None."""
    co = (q - 1) // m1
    for j in range(tries):
        rho = target % (q + 1) + j * (q + 1)
        if rho >= 1 and math.gcd(rho, co) == 1 \
                and math.gcd(m1 * rho, q - 1) == m1:
            return m1 * rho
    return None


@evaluator("tower_batch")
def _eval_tower_batch(params):
    """Randomized draws of one tower family over one F_{q^2}.

    Each draw checks two things: that the hypothesis scans pass exactly when
    the lemma's closed-form conditions hold, and that for passing draws the
    predicted verdict matches the full F_{q^2}^* scan.
    """
    spec = _field(tuple(params["field"]))
    fam = params["family"]
    rng = _rng(params["seed"])
    q, half = quadratic_base(spec)
    tally = _Tally()
    bad = tally.bad
    cond_mismatch = []
    drawn = []  # (cond, record) of every checked draw, in draw order
    for _ in range(params["draws"]):
        n = rng.randrange(1, q + 3)
        m1 = rng.choice(_divisors(q - 1))
        if fam in ("r1l1", "r3"):
            gamma, delta = _rand_elt(spec, rng), _rand_elt(spec, rng)
            if gamma.is_zero and delta.is_zero:
                continue
            inner = unit_pair_deg1(spec, gamma, delta)
            cond = _norm_neq(spec, gamma, delta)
            if fam == "r1l1":
                alpha, beta = _rand_elt(spec, rng), _rand_elt(spec, rng)
                outer = unit_pair_deg1(spec, alpha, beta)
                cond = cond and _norm_neq(spec, alpha, beta)
                target = n
            else:
                ci = rng.choice(subfield_indices(spec, half)[1:])
                c = FieldElement(spec, ci)
                outer = unit_pair_g3(spec, c)
                cond = cond and base_trace(spec,
                                           spec.one + spec.one / c).is_zero
                target = 3 * n
        else:  # the towers through F_q + {INF}: fq_r1l1, rk, gbar
            gamma = _rand_elt(spec, rng, nonzero=True)
            delta = _rand_elt(spec, rng, nonzero=True)
            pair = line_pair_deg1(spec, gamma, delta)
            alpha = _rand_elt(spec, rng, nonzero=True)
            beta = _rand_elt(spec, rng, nonzero=True)
            cond = (_ratio_neq(spec, gamma, delta, q)
                    and _ratio_neq(spec, alpha, beta, q))
            if fam == "rk":
                k = rng.randrange(1, q + 2)
                if math.gcd(k, q + 1) != 1:
                    tally.skipped += 1
                    continue
                g2, d2 = _rand_elt(spec, rng), _rand_elt(spec, rng)
                N = line_poly_rk(spec, alpha, beta, g2, d2, k)
                if N.is_zero or N.degree != k:
                    tally.skipped += 1
                    continue
                target = n * k
                cond = cond and _norm_neq(spec, g2, d2)
            else:
                N = line_poly_deg1(spec, alpha, beta)
                target = 3 if fam == "gbar" else n
            if fam == "gbar":
                pole = _rand_elt(spec, rng)
                cond = cond and frob_q(spec, pole) != pole
        r = _pick_r(rng, q, m1, target)
        if r is None:
            tally.skipped += 1
            continue
        if fam in ("r1l1", "r3"):
            m = (m1 * math.gcd(n, q + 1) if rng.random() < 0.5
                 else rng.randrange(1, m1 * (q + 1) + 1))
            rec = tower_unit_predict(spec, inner, outer, n, r, m)
        elif fam == "gbar":
            rec = tower_gbar_predict(spec, pair, N, pole, r)
        else:
            m = (m1 if rng.random() < 0.5
                 else rng.randrange(1, m1 * (q + 1) + 1))
            rec = tower_line_predict(spec, pair, N, n, r, m)
        if (fam in ("rk", "gbar") and cond
                and rec["failed"] == "H has roots in U"):
            # H rootlessness is itself a hypothesis of these two corollaries
            tally.skipped += 1
            continue
        drawn.append((cond, rec))
    observe_towers([rec for _, rec in drawn])
    tally.checked += len(drawn)
    for cond, rec in drawn:
        if rec["hypotheses_ok"] != cond:
            cond_mismatch.append({"family": fam, "failed": rec["failed"],
                                  "cond": cond, "params": rec["params"]})
        elif rec["hypotheses_ok"] and not rec["agree"]:
            bad.append({"family": fam, "params": rec["params"],
                        "predicted": rec["predicted"],
                        "observed": rec["observed"]})
    if bad or cond_mismatch:
        tally.bad = {"disagreements": bad,
                     "condition_mismatches": cond_mismatch}
    return [tally.record({"field": list(params["field"][:2]), "family": fam,
                          "draws": params["draws"]})]


# -- randomized abstract-criteria models ------------------------------------------

def random_mapping(rng, domain, codomain):
    return {a: rng.choice(codomain) for a in domain}


def random_local_instance(rng, max_size=12):
    na = rng.randrange(1, max_size + 1)
    A = [f"a{i}" for i in range(na)]
    B = [f"b{i}" for i in range(rng.randrange(1, max_size + 1))]
    C = [f"c{i}" for i in range(rng.randrange(1, max_size + 1))]
    f = FiniteMapping.from_table(random_mapping(rng, A, B))
    psi = random_mapping(rng, B, C)
    return f, psi, rng.randrange(1, na + 1)


def random_construction1_square(rng, max_size=12):
    ns = rng.randrange(1, 5)
    nsbar = ns + rng.randrange(0, 3)
    S = [f"s{i}" for i in range(ns)]
    Sbar = [f"t{i}" for i in range(nsbar)]
    fbar = dict(zip(S, rng.sample(Sbar, ns)))
    na = rng.randrange(1, max_size + 1)
    A = [f"a{i}" for i in range(na)]
    lam = random_mapping(rng, A, S)
    nabar = rng.randrange(nsbar, max_size + nsbar)
    Abar = [f"b{i}" for i in range(nabar)]
    lambar = {b: (Sbar[i] if i < nsbar else rng.choice(Sbar))
              for i, b in enumerate(Abar)}
    fibers = _fibers_of(lambar, Abar)
    f = {a: rng.choice(fibers[fbar[lam[a]]]) for a in A}
    sq = CommutativeSquare(A, Abar, S, Sbar, f, fbar, lam, lambar)
    return sq, rng.randrange(1, na + 1)


def random_construction2_square(rng):
    m1 = rng.choice((1, 1, 2, 3))
    ns = rng.randrange(1, 4)
    nsbar = rng.randrange(1, 4)
    S = [f"s{i}" for i in range(ns)]
    Sbar = [f"t{i}" for i in range(nsbar)]
    fbar = random_mapping(rng, S, Sbar)
    sizes = {sb: rng.randrange(1, 3) for sb in Sbar}
    Abar, lambar = [], {}
    for sb in Sbar:
        for i in range(sizes[sb]):
            b = f"b{sb}_{i}"
            Abar.append(b)
            lambar[b] = sb
    A, lam, f = [], {}, {}
    for s in S:
        targets = [b for b in Abar if lambar[b] == fbar[s]]
        for b in targets:
            for j in range(m1):
                a = f"a{s}_{b}_{j}"
                A.append(a)
                lam[a] = s
                f[a] = b
    if not A:
        return None
    sq = CommutativeSquare(A, Abar, S, Sbar, f, fbar, lam, lambar)
    return sq, m1, rng.randrange(1, m1 * ns + 1)


def random_construction3_model(rng, variant, max_n=12):
    nn = rng.randrange(2, max_n + 1)
    group = GroupModel.cyclic(nn)
    A = list(group.elements)
    dd = rng.choice(_divisors(nn))
    lambar = {a: (a * dd) % nn for a in A}
    Sbar = sorted(set(lambar.values()))
    fibers = _fibers_of(lambar, A)
    if variant == 1:
        ns = rng.randrange(1, min(6, nn + 1))
        if ns > len(Sbar):
            return None
        S = rng.sample(A, ns)
        fbar = dict(zip(S, rng.sample(Sbar, ns)))
        lam = random_mapping(rng, A, S)
        f = {a: rng.choice(fibers[fbar[lam[a]]]) for a in A}
        c = rng.choice(Sbar)
        vmap = {s: rng.choice(fibers[c]) for s in S}
        u = {a: vmap[lam[a]] for a in A}
        sq = CommutativeSquare(A, A, S, Sbar, f, fbar, lam, lambar)
        return group, sq, u, rng.randrange(1, nn + 1), None
    kernel = nn // len(Sbar)
    m1 = rng.choice((1, 2))
    if nn % (m1 * kernel):
        return None
    ns = nn // (m1 * kernel)
    if ns > nn:
        return None
    S = rng.sample(A, ns)
    fbar = random_mapping(rng, S, Sbar)
    shuffled = A[:]
    rng.shuffle(shuffled)
    lam, blocks = {}, {}
    for i, s in enumerate(S):
        block = shuffled[i * m1 * kernel:(i + 1) * m1 * kernel]
        blocks[s] = block
        for a in block:
            lam[a] = s
    f = {}
    for s in S:
        targets = fibers[fbar[s]][:]
        rng.shuffle(targets)
        for i, a in enumerate(blocks[s]):
            f[a] = targets[i // m1]
    c = rng.choice(Sbar)
    u = {a: rng.choice(fibers[c]) for a in A}
    fu = {a: group.op(f[a], u[a]) for a in A}
    for s in S:
        block = FiniteMapping(blocks[s], [fu[a] for a in blocks[s]])
        if not fibers_verdict(block.census()[m1], len(block), m1):
            return None  # this u breaks the per-fiber hypothesis; resample
    sq = CommutativeSquare(A, A, S, Sbar, f, fbar, lam, lambar)
    return group, sq, u, rng.randrange(1, m1 * ns + 1), m1


@evaluator("criteria_batch")
def _eval_criteria_batch(params):
    kind = params["kind"]
    rng = _rng(params["seed"])
    count = params["count"]
    tally = _Tally()
    attempts = 0
    while tally.checked < count and attempts < 80 * count:
        attempts += 1
        try:
            if kind == "local":
                f, psi, m = random_local_instance(rng)
                rep = local_criterion_check(f, psi, m)
            elif kind == "c1":
                sq, m = random_construction1_square(rng)
                rep = construction1_verdict(sq, m)
            elif kind == "c2":
                inst = random_construction2_square(rng)
                if inst is None:
                    continue
                rep = construction2_verdict(inst[0], inst[1], inst[2])
            else:  # c3v1, c3v2
                variant = int(kind[-1])
                inst = random_construction3_model(rng, variant)
                if inst is None:
                    continue
                group, sq, u, m, m1 = inst  # m1 is None for variant 1
                rep = construction3_verdict(group, sq, u, variant, m, m1)
        except HypothesisError:
            continue
        if not tally.check(rep.agree):
            tally.bad.append({"kind": kind, "instance": tally.checked,
                              "lhs": rep.lhs, "rhs": rep.rhs})
    return [tally.record({"kind": kind, "seed": params["seed"]})]


# ---------------------------------------------------------------------------
# family -> instance list, and the runner
# ---------------------------------------------------------------------------

def _main_items(o, seed):
    """One item per (q, s) cell, which must hold hcount distinct rootless h:
    q^d (q - ell) of degree <= d = degmax surely are, or the cell counts."""
    d, hcount = o["degmax"], o["hcount"]
    for q in o["qs"]:
        fk = _field_key_for_q(q)
        for s in _divisors(q - 1):
            if hcount > q ** d * (q - (q - 1) // s) and hcount > (
                    have := count_rootless(_field(fk), s, d)):
                raise ValueError(
                    f"main cell q = {q}, s = {s} has {have} rootless h "
                    f"of degree <= {d}, fewer than hcount = {hcount}")
            yield ("main_grid", {"field": fk, "s": s, "seed": seed,
                                 "hcount": hcount, "degmax": d,
                                 "mcap": o["mcap"]})
    if o["fixtures"]:
        yield ("main_fixture", {"field": _fkey(29), "r": 2, "s": 4,
                                "h": "1,0,0,15,1,1", "m": 12})
        yield ("main_fixture", {"field": _fkey(2, 6, (1, 1, 0, 1, 1, 0, 1)),
                                "r": 2, "s": 21, "h": "g^9,1", "m": 3})


def _small_items(o, seed):
    for q in o["corollary_qs"]:  # the closed form raises to (q-1)/6
        if (q - 1) % 6:
            raise ValueError(f"corollary_qs takes q with 6 | q - 1, got {q}")
    for q in o["qs"]:
        fk = _field_key_for_q(q)
        for m in (2, 3):
            for s in _divisors(q - 1):
                if s < 2 or (q - 1) // s < m:
                    continue
                yield ("small_m", {"field": fk, "s": s, "m": m,
                                   "seed": f"{seed}|small|{q}|{s}|{m}",
                                   "hcount": o["hcount"],
                                   "degmax": o["degmax"]})
    for q in o["corollary_qs"]:
        yield ("small_m_corollary", {"field": _field_key_for_q(q)})


def _ell_items(o, seed):
    for q in o["corollary_qs"]:  # the corollary is x^r (x^((q-1)/2) + a)
        if q % 2 == 0:
            raise ValueError(f"corollary_qs takes odd q, got {q}")
    for q in o["qs"]:
        fk = _field_key_for_q(q)
        for ell in (2, 3):
            if (q - 1) % ell:
                continue
            yield ("small_ell", {"field": fk, "s": (q - 1) // ell,
                                 "seed": f"{seed}|ell|{q}|{ell}",
                                 "hcount": o["hcount"],
                                 "degmax": o["degmax"]})
    for q in o["corollary_qs"]:
        yield ("ell2_corollary", {"field": _field_key_for_q(q)})


def _monomial_items(o, seed):
    for q in o["qs"]:
        fk = _q2_field_key(q)
        dmax = q + 1 if o["dmax"] is None else o["dmax"]
        for d in range(1, dmax + 1):
            for k in range(1, o["kmax"] + 1):
                for r in range(1, o["rmax"] + 1):
                    yield ("monomial_grid", {"field": fk, "q": q, "d": d,
                                             "k": k, "r": r})


def _hd_items(o, seed):
    for q in o["scan_qs"]:
        p, n, _ = _field_key_for_q(q)
        yield ("hd_root_lemma", {"field": _fkey(p, n), "base_q": p,
                                 "dmax": o["dmax"], "emax": o["emax"]})
    for base_q, n0 in ((3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4)):
        p, bd, _ = _field_key_for_q(base_q)
        yield ("hd_family", {"field": _fkey(p, bd * n0), "base_degree": bd})


def _lift_items(o, seed):
    for q in o["qs"]:
        yield ("lift", {"field": _field_key_for_q(q),
                        "seed": f"{seed}|lift|{q}", "draws": o["draws"]})


def _g3_items(o, seed):
    for n in o["ns"]:
        yield ("g3", {"field": _fkey(2, 2 * n),
                      "trinomials": n <= o["trinomial_nmax"]})


def _quadratic_char2_items(name, o, seed):
    """One item per F_(2^(2n)), for families with no further grid."""
    for n in o["ns"]:
        yield (name, {"field": _fkey(2, 2 * n)})


def _transfer_items(o, seed):
    yield ("transfer_q2", {"field": _fkey(2, 6), "base": "f3"})
    yield ("transfer_q2", {"field": _fkey(2, 4), "base": "f5"})


def _tower_items(o, seed):
    per, chunk = o["draws"], o["chunk"]
    for q in o["qs"]:
        fk = _q2_field_key(q)
        for tf in o["families"]:
            if tf in ("r3", "gbar") and q % 2:
                continue  # even-characteristic families
            for i in range((per + chunk - 1) // chunk):
                yield ("tower_batch", {"field": fk, "family": tf,
                                       "draws": min(chunk, per - i * chunk),
                                       "seed": f"{seed}|tower|{q}|{tf}|{i}"})


def _criteria_items(o, seed):
    per, chunk = o["count"], o["chunk"]
    for kind in ("local", "c1", "c2", "c3v1", "c3v2"):
        for i in range((per + chunk - 1) // chunk):
            yield ("criteria_batch", {"kind": kind,
                                      "count": min(chunk, per - i * chunk),
                                      "seed": f"{seed}|criteria|{kind}|{i}"})


def _count_items(o, seed):
    for q in o["qs"]:
        if q > ENUMERATION_MAX_Q:
            raise ScaleError(f"enumerating {q}^{q} maps needs "
                             f"q <= {ENUMERATION_MAX_Q}, got q = {q}")
        yield ("count", {"q": q})


class Family(NamedTuple):
    generator: Callable  # (options, seed) -> (evaluator, params) work items
    options: dict  # key -> default; a tuple default marks a list option


# the CLI offers exactly these families; monomial's dmax None means q + 1
FAMILIES = {
    "main": Family(_main_items, {"qs": MAIN_GRID_Q, "hcount": 25,
                                 "degmax": 5, "mcap": 16, "fixtures": True}),
    "small": Family(_small_items, {"qs": MAIN_GRID_Q, "hcount": 12,
                                   "degmax": 4, "corollary_qs": (13, 19, 31)}),
    "ell": Family(_ell_items, {"qs": MAIN_GRID_Q, "hcount": 12, "degmax": 4,
                               "corollary_qs": (13, 17, 25)}),
    "monomial": Family(_monomial_items, {"qs": Q2_GRID, "dmax": None,
                                         "kmax": 4, "rmax": 12}),
    "hd": Family(_hd_items, {"scan_qs": (4, 8, 9, 16, 25, 27, 32, 49, 64),
                             "dmax": 12, "emax": 12}),
    "lift": Family(_lift_items, {"qs": (9, 13, 16, 25), "draws": 30}),
    "g3": Family(_g3_items, {"ns": CHAR2_NS, "trinomial_nmax": 5}),
    "g5": Family(partial(_quadratic_char2_items, "g5"), {"ns": CHAR2_NS}),
    "split": Family(partial(_quadratic_char2_items, "split"),
                    {"ns": CHAR2_NS}),
    "lemmas": Family(partial(_quadratic_char2_items, "lemmas"),
                     {"ns": CHAR2_NS}),
    "transfer": Family(_transfer_items, {}),
    "towers": Family(_tower_items, {
        "qs": Q2_GRID, "families": ("r1l1", "r3", "rk", "fq_r1l1", "gbar"),
        "draws": 500, "chunk": 50}),
    "criteria": Family(_criteria_items, {"count": 2000, "chunk": 250}),
    "count": Family(_count_items, {"qs": (2, 3, 4, 5)}),
}

# the least value of an option or list element: no q or n is below 1, degmax
# < 0 would draw only h = 0, and mcap or chunk = 0 would break a work item
FLOORS = {"qs": 1, "ns": 1, "corollary_qs": 1, "scan_qs": 1, "hcount": 0,
          "draws": 0, "count": 0, "degmax": 0, "mcap": 1, "chunk": 1}


def build_instances(job):
    """Expand a VerifyJob into (evaluator, params) work items, its options
    merged over the family's defaults.  An undeclared key, a list for one
    int or the reverse, a value of the wrong kind or below its floor, or an
    empty list while other items run raise a ValueError naming the key."""
    if job.family not in FAMILIES:
        raise ValueError(f"unknown family {job.family!r}")
    table = FAMILIES[job.family].options
    for key, value in job.options.items():
        if key not in table:
            raise ValueError(f"{job.family} has no option {key!r}; its "
                             f"options are: {', '.join(table) or 'none'}")
        default, floor = table[key], FLOORS.get(key)
        is_list = isinstance(default, tuple)
        if is_list != isinstance(value, (tuple, list, range)):
            want = "a list" if is_list else "one int"
            raise ValueError(f"{key} takes {want}, got {value!r}")
        for v in value if is_list else (value,):
            if is_list and isinstance(default[0], str):
                if v not in default:
                    raise ValueError(f"{key} takes elements of "
                                     f"{', '.join(default)}, got {v!r}")
            elif not isinstance(v, int) or floor is not None and v < floor:
                raise ValueError(f"{key} takes ints" + (
                    "" if floor is None else f" >= {floor}") + f", got {v!r}")
    items = list(FAMILIES[job.family].generator({**table, **job.options},
                                                job.seed))
    empty = [key for key, value in job.options.items()
             if isinstance(table[key], tuple) and not value]
    if empty and items:  # with no items the run is vacuous and says so
        raise ValueError(f"{empty[0]} is empty, yet {len(items)} items run")
    return items


def pool_size(jobs, cpus, items):
    """Worker processes for a run: the requested count (0 means every core),
    capped at the core count and at the number of work items."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return min(jobs or cpus, cpus, items)


class EvaluatorError(RuntimeError):
    """An evaluator raised something other than a HypothesisError.  The one
    message names the evaluator, its params and the original exception, so
    the error pickles back from a pool worker whatever the original was."""


def json_encoder(item_separator):
    """The stdlib C encoder under json.dumps(sort_keys=True, default=str)'s
    rules, with no circular check; a call enc(obj, 0) returns a list of
    text."""
    return c_make_encoder(None, str, encode_basestring_ascii, None, ": ",
                          item_separator, True, False, True)


_CANONICAL = json_encoder(", ")


def canonical_json(obj):
    """json.dumps(obj, sort_keys=True, default=str), from one encoder."""
    return "".join(_CANONICAL(obj, 0))


def _run_item(item):
    name, params = item
    t0 = time.perf_counter()
    try:
        records = EVALUATORS[name](params)
    except HypothesisError as err:
        records = [_record(dict(params), None, None,
                           skipped=f"hypothesis: {err}")]
    except Exception as err:
        raise EvaluatorError(f"evaluator {name} failed on "
                             f"{canonical_json(params)}: {err!r}") from err
    elapsed = time.perf_counter() - t0
    for rec in records:
        rec["evaluator"] = name
        rec["elapsed"] = round(elapsed / max(len(records), 1), 6)
    return records


def run_job(job):
    """Execute a VerifyJob and assemble the deterministic report dict."""
    items = build_instances(job)
    jobs = pool_size(job.jobs, cpu_count(), len(items))
    t0 = time.perf_counter()
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            chunks = pool.map(_run_item, items, chunksize=1)
    else:
        chunks = [_run_item(it) for it in items]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r["evaluator"], canonical_json(r["params"])))
    agreements = sum(1 for r in records if r["agree"] is True)
    disagreements = sum(1 for r in records if r["agree"] is False)
    skipped = sum(1 for r in records if r["skipped"])
    return {
        "family": job.family,
        "options": {k: (list(v) if isinstance(v, (tuple, range)) else v)
                    for k, v in sorted(job.options.items())},
        "seed": job.seed,
        "summary": {"total": len(records), "agreements": agreements,
                    "disagreements": disagreements, "skipped": skipped},
        "records": records,
        "elapsed": round(time.perf_counter() - t0, 6),
    }
