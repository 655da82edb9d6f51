"""The subgroup reduction for x^r h(x^s): decomposition, predictions, and the
monomial / h_d / lift specializations, all against brute-force scans."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest

import mto1.cyclotomic as cyclotomic
from mto1.criteria import HypothesisError
from mto1.cyclotomic import (CycloForm, _row_censuses, brute_verdict_star,
                             conjunct_rule, count_rootless, decompose,
                             forms_from_logs, fq_bridge, g_censuses,
                             hd_family_predict, hd_poly,
                             hd_rootless_gcd, hd_rootless_scan,
                             infer_monomial_params, lift_from_permutation,
                             main_predict, monomial_predict, permutes_field,
                             predict_from, random_rootless_form,
                             random_rootless_forms, random_rootless_poly,
                             reduction_chunks, rootless_censuses,
                             small_ell_predict, small_m_predict, star_census,
                             star_censuses, star_fibers, transfer_equivalence,
                             u_ell_values)
from mto1.galois import FieldElement, Poly, build_field
from mto1.multiplicity import (IndexMapping, admissible_m_set, check_m_to_1,
                               fiber_census, sorted_row_censuses,
                               verdict_from_histogram)

F64 = (2, 6, (1, 1, 0, 1, 1, 0, 1))


def f29_form():
    spec = build_field(29)
    return CycloForm(spec, 2, 4, Poly.from_string(spec, "1,0,0,15,1,1"))


def f64_form():
    spec = build_field(*F64)
    return CycloForm(spec, 2, 21, Poly.from_string(spec, "g^9,1"))


def oracle_mapping(form, with_zero=False):
    """f on F_q^* (in dlog order), or on all of F_q with zero first, as an
    IndexMapping built from the oracle's logs."""
    exp = np.asarray(form.spec.exp)
    logs = star_census(form)[0]
    domain, images = exp[:len(logs)], exp[logs]
    if with_zero:
        domain, images = np.append(0, domain), np.append(0, images)
    return IndexMapping(domain, images, form.spec.from_index)


def g_mapping(dec):
    """g on U_ell as an IndexMapping, built from the decomposition's g_logs."""
    spec, s = dec.form.spec, dec.form.s
    return IndexMapping([spec.exp[j * s] for j in range(dec.ell)],
                        [spec.exp[t] for t in dec.g_logs], spec.from_index)


def failed_conjunct(dec, m):
    """The first failed conjunct of the reduction at m, on a decomposition,
    as predict_from evaluates it."""
    return conjunct_rule(dec.form.s, dec.ell, dec.m1, m, dec.g_verdict)


def hlogs_f(form):
    """f's dlogs at g^0, ..., g^(q-2) from h's values on U_ell (hlogs): the
    prediction side's f, a reference for the oracle."""
    q1 = form.spec.q - 1
    return [(form.r * i + form.hlogs[i % form.ell]) % q1 for i in range(q1)]


def test_form_validation():
    spec = build_field(5)
    with pytest.raises(HypothesisError):
        CycloForm(spec, 1, 3, Poly.from_string(spec, "1,1"))  # 3 does not divide 4
    with pytest.raises(ValueError):
        CycloForm(spec, 0, 2, Poly.from_string(spec, "2,1"))
    # x^3 + x = x * (x^2 + 1) has nonzero roots: h = y + 1 vanishes on U_2
    with pytest.raises(HypothesisError):
        CycloForm(spec, 1, 2, Poly.from_string(spec, "1,1"))


def test_decompose_monomial_case():
    # h = 1: g = x^(r/(r,s)) on U_ell
    spec = build_field(13)
    for r, s in ((2, 4), (3, 6), (4, 4)):
        form = CycloForm(spec, r, s, Poly.constant(spec, 1))
        dec = decompose(form)
        ell = (13 - 1) // s
        for j in range(ell):
            expected = spec.pow(spec.exp_at(j * s), form.r1)
            assert spec.exp_at(dec.g_logs[j]) == expected


def test_decompose_f29_paper_instance():
    dec = decompose(f29_form())
    assert (dec.m1, dec.r1, dec.s1, dec.ell) == (2, 1, 2, 7)
    # g = x h(x)^2 is 6-to-1 on U_7
    assert check_m_to_1(g_mapping(dec), 6).verdict


def test_decompose_f64_constant_g():
    dec = decompose(f64_form())
    assert dec.ell == 3 and dec.m1 == 1
    assert set(dec.g_logs) == {0}  # g(1) = g(w) = g(w^2) = 1


def test_main_predict_f29():
    form = f29_form()
    pred = main_predict(form, 12)
    assert pred.verdict
    rep = check_m_to_1(oracle_mapping(form), 12)
    assert rep.verdict
    assert {e.index for e in rep.exceptional_set} == {1, 28, 12, 17}
    assert not main_predict(form, 6).verdict
    assert not brute_verdict_star(form, 6)


def test_main_predict_m1_is_permutation_criterion():
    # m = 1 reduces to: (r, s) = 1 and g permutes U_ell
    spec = build_field(13)
    rng = random.Random("thm41")
    for _ in range(150):
        s = rng.choice((1, 2, 3, 4, 6, 12))
        r = rng.randrange(1, 2 * s + 1)
        h = random_rootless_poly(spec, s, 3, rng)
        form = CycloForm(spec, r, s, h)
        dec = decompose(form)
        classic = form.m1 == 1 and dec.g_verdict(1)
        assert main_predict(form, 1).verdict == classic
        assert brute_verdict_star(form, 1) == classic


def test_random_rootless_form_is_the_scanned_draw():
    # the form's own U_ell scan is the draw's rootless test, and the poly
    # draw is its h: the same stream gives the same h
    spec = build_field(13)
    for s in (1, 2, 3, 4, 6, 12):
        draws = random.Random(f"draw-{s}"), random.Random(f"draw-{s}")
        for _ in range(20):
            form = random_rootless_form(spec, s, 3, draws[0])
            assert (form.r, form.s) == (1, s)
            assert form.h == random_rootless_poly(spec, s, 3, draws[1])
            assert all(form.h.eval_index(spec.exp_at(j * s))
                       for j in range(form.ell))


@pytest.mark.parametrize("s", [0, 5, 24, 2.0])
def test_random_rootless_draw_rejects_an_s_not_dividing_q_minus_1(s):
    # CycloForm refuses such an s, so without this check the draw would
    # loop forever (or, scanning the wrong points, return a rooted h)
    with pytest.raises(ValueError, match="must divide"):
        random_rootless_poly(build_field(13), s, 3, random.Random(0))


@pytest.mark.parametrize("max_degree", [-1, -3])
def test_random_rootless_draw_rejects_a_negative_degree(monkeypatch,
                                                        max_degree):
    # a degree below 0 draws only the zero h, which CycloForm refuses, so
    # the draw must refuse it before its retry loop.  Such a draw makes no
    # rng call, so the bound that turns a retrying loop into a failure here
    # (not a hang) is on the forms it tries
    tries = []
    form_init = CycloForm.__init__

    def bounded(self, *args):
        tries.append(args)
        if len(tries) > 1000:
            raise RuntimeError("the draw retries forever")
        form_init(self, *args)

    monkeypatch.setattr(CycloForm, "__init__", bounded)
    with pytest.raises(ValueError, match="max_degree"):
        random_rootless_form(build_field(13), 4, max_degree, random.Random(0))
    assert not tries


@pytest.mark.parametrize("q", [7, 9, 11, 13, 16, 25, 29])
def test_main_soundness_sample_grid(q):
    key = {9: (3, 2), 16: (2, 4), 25: (5, 2)}.get(q, (q, 1))
    spec = build_field(*key)
    q1 = spec.q - 1
    rng = random.Random(f"grid-{q}")
    for s in [d for d in range(1, q1 + 1) if q1 % d == 0]:
        for _ in range(20):
            h = random_rootless_poly(spec, s, 5, rng)
            for r in range(1, min(2 * s, 12) + 1):
                form = CycloForm(spec, r, s, h)
                dec = decompose(form)
                fib = star_fibers(form)
                for m in range(1, min(dec.ell * dec.m1, 12) + 1):
                    assert (predict_from(dec, m).verdict
                            == verdict_from_histogram(fib, q1, m))


def test_predict_range_errors():
    form = f29_form()
    with pytest.raises(ValueError):
        main_predict(form, 0)
    with pytest.raises(ValueError):
        main_predict(form, 15)  # > ell*m1 = 14


def test_fq_bridge_m1_and_x4_f29():
    spec = build_field(29)
    form = CycloForm(spec, 4, 4, Poly.constant(spec, 1))  # x^4
    rec = fq_bridge(form, 4)
    assert rec["verdict_star"] and rec["verdict_fq"]
    # oracle on all of F_q
    rep = check_m_to_1(oracle_mapping(form, with_zero=True), 4)
    assert rep.verdict
    one = fq_bridge(form, 1)
    assert one["verdict_fq"] == one["verdict_star"]


def test_fq_bridge_blocks_m_dividing_q():
    # over F_9 pick a form that is 3-to-1 on the star; 3 | 9 kills the
    # F_q verdict even though the star verdict holds
    spec = build_field(3, 2)
    rng = random.Random("bridge9")
    found = None
    while found is None:
        s = rng.choice((2, 4, 8))
        r = rng.randrange(1, 2 * s + 1)
        h = random_rootless_poly(spec, s, 3, rng)
        form = CycloForm(spec, r, s, h)
        if brute_verdict_star(form, 3):
            found = form
    rec = fq_bridge(found, 3)
    assert rec["verdict_star"] and not rec["verdict_fq"]
    assert not check_m_to_1(oracle_mapping(found, with_zero=True), 3).verdict


def test_fq_bridge_matches_direct_field_check():
    rng = random.Random("bridge-direct")
    for q, key in ((13, (13, 1)), (16, (2, 4)), (25, (5, 2))):
        spec = build_field(*key)
        q1 = spec.q - 1
        for _ in range(25):
            s = rng.choice([d for d in range(1, q1 + 1) if q1 % d == 0])
            r = rng.randrange(1, 2 * s + 1)
            h = random_rootless_poly(spec, s, 4, rng)
            form = CycloForm(spec, r, s, h)
            direct = check_m_to_1(oracle_mapping(form, with_zero=True),
                                  rng.randrange(1, q))
            rec = fq_bridge(form, direct.m)
            assert rec["verdict_fq"] == direct.verdict


def test_small_m_trivial_cases():
    spec = build_field(29)
    # m1 = 1, ell odd: never 2-to-1
    form = CycloForm(spec, 1, 4, Poly.constant(spec, 1))  # ell = 7
    verdict, case = small_m_predict(form, 2)
    assert not verdict and case is None
    assert not brute_verdict_star(form, 2)
    # m = 3, m1 = 1, ell = 2 mod 3: no case matches
    spec13 = build_field(13)
    form13 = CycloForm(spec13, 1, 4, Poly.constant(spec13, 1))  # ell = 3... use s=6 -> ell=2 < 3 invalid; s=4 gives ell=3
    # ell = 3 is 0 mod 3; build ell = 2 mod 3 with q=29, s=4 -> ell=7 = 1 mod 3? no: use q=13, s=2 -> ell=6; q=29 s=2 -> ell=14 = 2 mod 3
    form29 = CycloForm(spec, 1, 2, Poly.constant(spec, 1))  # ell = 14
    verdict, case = small_m_predict(form29, 3)
    assert not verdict and case is None
    assert not brute_verdict_star(form29, 3)


def test_small_m_agrees_with_main_and_oracle():
    rng = random.Random("small-unit")
    for q, key in ((13, (13, 1)), (25, (5, 2)), (29, (29, 1))):
        spec = build_field(*key)
        q1 = spec.q - 1
        for m in (2, 3):
            for s in [d for d in range(2, q1 + 1) if q1 % d == 0]:
                if q1 // s < m:
                    continue
                for _ in range(10):
                    h = random_rootless_poly(spec, s, 4, rng)
                    for r in range(1, 2 * s + 1):
                        form = CycloForm(spec, r, s, h)
                        verdict, _ = small_m_predict(form, m)
                        assert verdict == brute_verdict_star(form, m)


def test_small_ell_f64_fixture():
    verdict, case = small_ell_predict(f64_form(), 3)
    assert verdict and case == "m=3*m1, g 3-to-1 on U_3"
    assert brute_verdict_star(f64_form(), 3)


def test_small_ell_constant_g_trivial():
    # ell = 3, g constant, m = 3*m1: always true
    spec = build_field(13)
    form = CycloForm(spec, 4, 4, Poly.constant(spec, 2))  # g = x^1 *2^1? m1=4
    dec = decompose(form)
    m = 3 * dec.m1
    verdict, _ = small_ell_predict(form, m)
    assert verdict == brute_verdict_star(form, m)


def test_small_ell_agrees_everywhere():
    rng = random.Random("ell-unit")
    for q, key in ((13, (13, 1)), (25, (5, 2)), (16, (2, 4)), (27, (3, 3))):
        spec = build_field(*key)
        q1 = spec.q - 1
        for ell in (2, 3):
            if q1 % ell:
                continue
            s = q1 // ell
            for _ in range(10):
                h = random_rootless_poly(spec, s, 4, rng)
                for r in range(1, 2 * s + 1):
                    form = CycloForm(spec, r, s, h)
                    for m in range(1, ell * form.m1 + 1):
                        verdict, _ = small_ell_predict(form, m)
                        assert verdict == brute_verdict_star(form, m), \
                            (q, ell, r, m, str(h))


def test_small_ell_requires_small_ell():
    form = f29_form()  # ell = 7
    with pytest.raises(HypothesisError):
        small_ell_predict(form, 2)


def test_monomial_predict_power_h():
    # h = H^(ell*m1) forces h^s1 = 1 on U_ell: t = 0, beta = 1, and the
    # verdict is (r, ell*m1) = m
    rng = random.Random("mono-pow")
    for q, key in ((13, (13, 1)), (16, (2, 4))):
        spec = build_field(*key)
        q1 = spec.q - 1
        for _ in range(15):
            s = rng.choice([d for d in range(1, q1 + 1) if q1 % d == 0])
            ell = q1 // s
            r = rng.randrange(1, 2 * s + 1)
            m1 = math.gcd(r, s)
            H = random_rootless_poly(spec, s, 2, rng)
            form = CycloForm(spec, r, s, H ** (ell * m1))
            rec = monomial_predict(form, spec.one, 0)
            for m in range(1, min(ell * m1, 10) + 1):
                verdict = m == rec["m"]
                assert verdict == (m % m1 == 0
                                   and math.gcd(r, ell * m1) == m)
                assert verdict == brute_verdict_star(form, m)


def test_monomial_fixture_x17_plus_x_f25():
    # x^(4q-3) + x = x(x^(4(q-1)) + 1) over F_25 is exactly 3-to-1
    spec = build_field(5, 2)
    a = -spec.one
    h = Poly.from_elements(spec, (spec.one, 0, 0, 0, spec.one))  # y^4 + 1
    form = CycloForm(spec, 1, 4, h)
    beta = (-a) ** (-1)
    rec = monomial_predict(form, beta, -4)
    for m in range(1, 7):
        assert (m == rec["m"]) == (m == 3)
        assert brute_verdict_star(form, m) == (m == 3)
        assert main_predict(form, m).verdict == (m == 3)


def test_monomial_general_conforming_M_f16():
    # the general conforming shape with t = 4, deg 3:
    # M = a1 x + (a2 + eps a2^q) x^2 + eps a1^q x^3 satisfies
    # eps x^4 M(x)^q = M(x) on U_{q+1}, so when M is rootless there,
    # f = x^r M(x^(q-1))^(k m1) is monomial-like with t_mono = -4k
    spec = build_field(2, 4)
    q = 4
    rng = random.Random("general-M")
    half = 2
    units = [spec.exp_at(3 * j) for j in range(5)]
    checked = 0
    for _ in range(400):
        if checked >= 15:
            break
        a1 = spec.from_index(rng.randrange(1, 16))
        a2 = spec.from_index(rng.randrange(16))
        eps = spec.from_index(spec.exp_at(3 * rng.randrange(5)))  # U_5
        conj = lambda x: FieldElement(spec, spec.frob(x.index, half))
        mid = a2 + eps * conj(a2)
        M = Poly.from_elements(spec, (spec.zero, a1, mid, eps * conj(a1)))
        assert all(
            spec.mul(eps.index,
                     spec.mul(spec.pow(u, 4),
                              spec.frob(M.eval_index(u), half)))
            == M.eval_index(u) for u in units)
        if any(M.eval_index(u) == 0 for u in units):
            continue
        r = rng.randrange(1, 10)
        k = rng.randrange(1, 4)
        m1 = math.gcd(r, q - 1)
        form = CycloForm(spec, r, q - 1, M ** (k * m1))
        beta = eps ** (-k)
        rec = monomial_predict(form, beta, -4 * k)
        for m in range(1, min(m1 * (q + 1), 12) + 1):
            closed = (m % m1 == 0
                      and math.gcd(r // m1 - 4 * k, q + 1) == m // m1)
            assert (m == rec["m"]) == closed == brute_verdict_star(form, m)
        checked += 1
    assert checked >= 15


def test_count_formula_scale_cap():
    # exact big-integer counting stays exact out to q = 64
    from mto1.multiplicity import count_formula
    value = count_formula(64, 5)
    assert value > 0 and isinstance(value, int)


def test_monomial_fixture_x13_minus_ax_f25():
    # x^(3q-2) - ax with a^(q+1) = 1, a^2 != 1 is 2-to-1 on F_25^*
    spec = build_field(5, 2)
    for j in range(6):
        ai = spec.exp_at(4 * j)
        if spec.pow(ai, 2) == 1:
            continue
        a = FieldElement(spec, ai)
        h = Poly.from_elements(spec, (-a, spec.zero, spec.zero, spec.one))
        form = CycloForm(spec, 1, 4, h)
        assert brute_verdict_star(form, 2)
        assert monomial_predict(form, (-a) ** (-1), -3)["m"] == 2


def test_monomial_hypothesis_mutation():
    # perturbing one coefficient must either break the hypothesis scan or
    # leave a verdict that still matches the oracle
    spec = build_field(5, 2)
    rng = random.Random("mutate")
    a = -spec.one
    base = Poly.from_elements(spec, (spec.one, 0, 0, 0, spec.one))
    beta = (-a) ** (-1)
    for _ in range(40):
        coeffs = list(base.coeffs)
        coeffs[rng.randrange(len(coeffs))] = rng.randrange(25)
        try:
            form = CycloForm(spec, 1, 4, Poly(spec, coeffs))
        except HypothesisError:
            continue
        try:
            rec = monomial_predict(form, beta, -4)
        except HypothesisError:
            continue  # scan caught the mutation
        assert (rec["m"] == 3) == brute_verdict_star(form, 3)


def test_infer_monomial_params():
    spec = build_field(5, 2)
    h = Poly.from_elements(spec, (spec.one, 0, 0, 0, spec.one))
    form = CycloForm(spec, 1, 4, h)
    got = infer_monomial_params(form)
    assert got is not None
    beta, t = got
    assert monomial_predict(form, beta, t)["m"] == 3
    # a generic h is usually not monomial-like
    rng = random.Random("non-mono")
    hits = 0
    for _ in range(30):
        h2 = random_rootless_poly(spec, 4, 3, rng)
        if infer_monomial_params(CycloForm(spec, 1, 4, h2)) is not None:
            hits += 1
    assert hits < 30


def test_hd_poly_at_one_and_root_lemma_fixture():
    # h_d(1) = d, so rootlessness at the point 1 means p does not divide d
    for p, n in ((2, 4), (3, 2), (5, 1)):
        spec = build_field(p, n)
        for d in range(1, 9):
            assert (hd_poly(spec, d).eval_index(1) != 0) == (d % p != 0)
    # d=3, e=1, ell=5, base q=4: gcd(3, 4*5/(1,5)) = (3,20) = 1 -> rootless
    assert hd_rootless_gcd(3, 1, 5, 4)
    assert hd_rootless_scan(build_field(2, 4), 3, 1, 5)


@pytest.mark.parametrize("p,n,base_q", [(2, 4, 4), (3, 2, 9), (5, 2, 25),
                                        (2, 6, 8)])
def test_hd_root_lemma_gcd_vs_scan(p, n, base_q):
    spec = build_field(p, n)
    q1 = spec.q - 1
    for ell in [d for d in range(1, q1 + 1) if q1 % d == 0]:
        for d in range(1, 9):
            for e in range(1, 9):
                assert (hd_rootless_gcd(d, e, ell, base_q)
                        == hd_rootless_scan(spec, d, e, ell)), (ell, d, e)


def test_hd_family_q_plus_1_case_f9():
    # q0 = 3, n0 = 2: ell*m1 | 4 grid, formula vs brute force
    spec = build_field(3, 2)
    checked = 0
    for s in (2, 4, 8):
        ell = 8 // s
        for d in (1, 2, 4, 5):
            for e in (1, 2):
                for t in (1, 2):
                    for r in (1, 2, 3, 4):
                        m1 = math.gcd(r, s)
                        try:
                            rec = hd_family_predict(spec, 1, r, s, d, e, t)
                        except HypothesisError:
                            continue
                        for m in range(1, ell * m1 + 1):
                            assert (m == rec["m"]) == brute_verdict_star(
                                rec["form"], m), (s, d, e, t, r, m)
                            checked += 1
    assert checked > 50


def test_hd_family_q_minus_1_case():
    # q0 = 5, n0 = 4 over F_625: ell*m1 | (q0-1, n0) = 4
    spec = build_field(5, 4)
    checked = 0
    for s, r, d, e, t in ((624 // 2, 2, 2, 1, 1), (624 // 2, 2, 3, 1, 2),
                          (624, 4, 2, 3, 1), (624, 4, 7, 2, 1)):
        m1 = math.gcd(r, s)
        ell = 624 // s
        try:
            rec = hd_family_predict(spec, 1, r, s, d, e, t)
        except HypothesisError:
            continue
        for m in range(1, min(ell * m1, 8) + 1):
            assert rec["case"] == "q-1"
            assert (m == rec["m"]) == brute_verdict_star(rec["form"], m)
            checked += 1
    assert checked


def test_lift_constant_M():
    # M constant c with eps*c^s = 1, t = 0: F = c^k f keeps multiplicity (r,s)
    spec = build_field(9 // 3, 2)
    rng = random.Random("lift-const")
    q1 = 8
    for _ in range(20):
        s = rng.choice((1, 2, 4, 8))
        r = rng.randrange(1, 2 * s + 1)
        if math.gcd(r, s) != 1:
            continue
        h = random_rootless_poly(spec, s, 3, rng)
        form = CycloForm(spec, r, s, h)
        if not permutes_field(form):
            continue
        c = spec.from_index(spec.exp_at(rng.randrange(q1)))
        eps = (c ** s) ** -1
        rec = lift_from_permutation(form, Poly.constant(spec, c), eps, 0,
                                    rng.randrange(1, 4))
        assert rec["verified"] and rec["m"] == math.gcd(form.r, s)


def test_lift_identity_form_with_crafted_M():
    # f = x permutes F_9; M = W^ell with t = ell gives F = x^(kt) M(x^s)^k x
    spec = build_field(3, 2)
    rng = random.Random("lift-crafted")
    for s in (1, 2, 4, 8):
        ell = 8 // s
        form = CycloForm(spec, 1, s, Poly.constant(spec, 1))
        W = random_rootless_poly(spec, s, 2, rng)
        M = W ** ell
        for k in (1, 2, 3):
            rec = lift_from_permutation(form, M, spec.one, ell, k)
            assert rec["m"] == math.gcd(1 + k * ell, s)
            assert rec["verified"]


def test_lift_rejects_non_permutation():
    spec = build_field(3, 2)
    form = CycloForm(spec, 2, 2, Poly.constant(spec, 1))  # x^2: (2,2) != 1
    with pytest.raises(HypothesisError):
        lift_from_permutation(form, Poly.constant(spec, 1), spec.one, 4, 1)


def test_transfer_equivalence_instances():
    spec = build_field(13)
    rng = random.Random("transfer-unit")
    done = 0
    while done < 25:
        s = rng.choice((2, 4, 6, 12))
        ell = 12 // s
        r = rng.randrange(1, 2 * s + 1)
        h = random_rootless_poly(spec, s, 3, rng)
        form = CycloForm(spec, r, s, h)
        W = random_rootless_poly(spec, s, 2, rng)
        M = W ** (ell * form.m1)
        t = form.m1 * ell
        k = rng.randrange(1, 4)
        if math.gcd(r + k * t, s) != form.m1:
            continue
        rec = transfer_equivalence(form, M, spec.one, t, k)
        for m in range(1, min(ell * form.m1, 8) + 1):
            assert rec["agree"]
            assert (m == rec["base"]) == brute_verdict_star(form, m)
            assert (m == rec["lifted"]) == brute_verdict_star(rec["form_F"], m)
        done += 1


def test_transfer_equivalence_rejects_changed_gcd():
    spec = build_field(13)
    form = CycloForm(spec, 2, 4, Poly.from_string(spec, "2,1"))
    W = Poly.from_string(spec, "1,1")
    M = W ** 6
    with pytest.raises(HypothesisError):
        transfer_equivalence(form, M, spec.one, 6, 1)  # (2+6, 4) = 4 != 2


def test_small_ell3_s_divides_r_conjunct_is_sharp():
    # ell = 3, m = 2*m1: given g 2-to-1 on U_3, the verdict holds exactly
    # when s | r; both directions must show up in the sample
    seen = {True: 0, False: 0}
    rng = random.Random("sharp-s-divides-r")
    for q, key in ((13, (13, 1)), (25, (5, 2)), (16, (2, 4))):
        spec = build_field(*key)
        q1 = spec.q - 1
        if q1 % 3:
            continue
        s = q1 // 3
        for _ in range(80):
            h = random_rootless_poly(spec, s, 4, rng)
            for r in range(1, 3 * s + 1):
                form = CycloForm(spec, r, s, h)
                dec = decompose(form)
                if not dec.g_verdict(2):
                    continue
                expected = r % s == 0
                assert brute_verdict_star(form, 2 * dec.m1) == expected
                seen[expected] += 1
    assert seen[True] and seen[False]


def test_admissible_star_and_f29():
    assert admissible_m_set(oracle_mapping(f29_form())) == {12}


SMALL_FIELDS = {13: (13, 1), 16: (2, 4), 25: (5, 2)}


@pytest.mark.parametrize("q", sorted(SMALL_FIELDS))
def test_with_r_matches_a_fresh_form(q):
    spec = build_field(*SMALL_FIELDS[q])
    rng = random.Random(f"with-r-{q}")
    for s in [d for d in range(1, q) if (q - 1) % d == 0]:
        base = CycloForm(spec, 1, s, random_rootless_poly(spec, s, 4, rng))
        for r in range(1, 2 * s + 2):
            fast, fresh = base.with_r(r), CycloForm(spec, r, s, base.h)
            assert (fast.r, fast.s, fast.ell, fast.hlogs, fast.m1, fast.r1,
                    fast.s1) == (fresh.r, fresh.s, fresh.ell, fresh.hlogs,
                                 fresh.m1, fresh.r1, fresh.s1)
            assert hlogs_f(fast) == star_census(fresh)[0].tolist()
        with pytest.raises(ValueError):
            base.with_r(0)


@pytest.mark.parametrize("q", sorted(SMALL_FIELDS))
def test_failed_conjunct_and_cached_g_verdict_match_predict_from(q):
    spec = build_field(*SMALL_FIELDS[q])
    rng = random.Random(f"conjunct-{q}")
    texts = {1: "m1 divides m", 3: "s*(ell mod m2) < m"}
    for s in [d for d in range(1, q) if (q - 1) % d == 0]:
        for _ in range(3):
            base = CycloForm(spec, 1, s, random_rootless_poly(spec, s, 4, rng))
            for r in range(1, 2 * s + 1):
                dec = decompose(base.with_r(r))
                for m2 in range(1, dec.ell + 1):
                    assert (dec.g_verdict(m2)
                            == check_m_to_1(g_mapping(dec), m2).verdict)
                assert failed_conjunct(dec, 0)
                assert failed_conjunct(dec, (dec.ell + 1) * dec.m1) == 2
                for m in range(1, dec.ell * dec.m1 + 1):
                    pred = predict_from(dec, m)
                    failed = failed_conjunct(dec, m)
                    assert (failed == 0) == pred.verdict
                    if failed == 2:
                        assert pred.failed.startswith("g is ")
                    else:
                        assert pred.failed == texts.get(failed)


@pytest.mark.parametrize("q", sorted(SMALL_FIELDS))
def test_reduction_chunks_match_one_form_at_a_time(q, monkeypatch):
    # the engine's codes, oracle verdicts and decompositions against
    # decompose, the rule on it and the one-form oracle, at a shuffled list
    # of (r, m) pairs, with chunks of one, two and three forms
    spec = build_field(*SMALL_FIELDS[q])
    rng = random.Random(f"engine-{q}")
    for s in [d for d in range(1, q) if (q - 1) % d == 0]:
        forms = [random_rootless_form(spec, s, 4, rng) for _ in range(3)]
        rs = rng.sample(range(1, 2 * s + 2), min(4, 2 * s + 1))
        pairs = [(r, m) for r in rs
                 for m in range(1, (q - 1) // s * math.gcd(r, s) + 1)]
        rng.shuffle(pairs)
        assert list(reduction_chunks(spec, s, [], pairs)) == []
        for per_chunk in (1, 2, 3):
            monkeypatch.setattr(cyclotomic, "REDUCTION_CELLS",
                                per_chunk * len(rs) * (q - 1))
            reds = list(reduction_chunks(spec, s, forms, pairs))
            assert [red.form for red in reds] == forms
            for red in reds:
                decs = {r: decompose(red.form.with_r(r)) for r in rs}
                assert red.decompositions().keys() == decs.keys()
                for r, dec in red.decompositions().items():
                    want = decs[r]
                    assert (dec.form.r, dec.m1, dec.r1, dec.s1, dec.ell,
                            dec.g_logs, dec.g_census) == (
                        r, want.m1, want.r1, want.s1, want.ell, want.g_logs,
                        want.g_census)
                for i, (r, m) in enumerate(pairs):
                    assert red.codes[i] == failed_conjunct(decs[r], m)
                    assert red.observed[i] == brute_verdict_star(
                        decs[r].form, m)
                assert red.misses == [i for i, code in enumerate(red.codes)
                                      if (code == 0) != red.observed[i]]


ORACLE_FIELDS = {"F13": (13,), "F16": (2, 4), "F25": (5, 2), "F27": (3, 3),
                 "F29": (29,), "F49": (7, 2), "F64": (2, 6), "F64b": F64}


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_star_censuses_match_star_fibers(name):
    # the coefficient-side oracle and the batched g rows against f and g
    # computed from h's values on U_ell, for every r in [1, 2s]; the one-form
    # views and a column of r (one per h) read the same rows
    spec = build_field(*ORACLE_FIELDS[name])
    q = spec.q
    rng = random.Random(f"oracle-{name}")
    for s in [d for d in range(1, q) if (q - 1) % d == 0]:
        hs = [random_rootless_poly(spec, s, rng.randrange(0, 6), rng)
              for _ in range(3)]
        f_logs, f_census = star_censuses(spec, s, hs, range(1, 2 * s + 1))
        bases = [CycloForm(spec, 1, s, h) for h in hs]
        g_logs, g_census = g_censuses(bases, range(1, 2 * s + 1))
        column = [[rng.randrange(1, 2 * s + 1)] for _ in hs]
        col_logs, col_census = star_censuses(spec, s, hs, column)
        assert col_logs.shape == (len(hs), 1, q - 1)
        for i, base in enumerate(bases):
            r = column[i][0]
            assert (col_logs[i, 0] == f_logs[i, r - 1]).all()
            assert (col_census[i, 0] == f_census[i, r - 1]).all()
            for r in range(1, 2 * s + 1):
                form = base.with_r(r)
                assert f_logs[i, r - 1].tolist() == hlogs_f(form)
                row = f_census[i, r - 1].tolist()
                census = {c: n for c, n in enumerate(row) if c and n}
                assert census == fiber_census(Counter(hlogs_f(form)))
                assert fiber_census(star_fibers(form)) == census
                assert brute_verdict_star(form, 1) == (census == {1: q - 1})
                dec = decompose(form)
                assert tuple(g_logs[i, r - 1].tolist()) == dec.g_logs
                assert {c: n for c, n in enumerate(g_census[i, r - 1].tolist())
                        if c and n} == dec.g_census


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_star_censuses_read_polys_and_their_padded_rows_alike(name):
    # search hands the oracle coefficient rows; every other caller a list of
    # Polys, padded into those rows: both give one result, zero columns too
    spec = build_field(*ORACLE_FIELDS[name])
    q1 = spec.q - 1
    rng = random.Random(f"rows-{name}")
    for s in [d for d in range(1, q1 + 1) if q1 % d == 0][:4]:
        hs = [random_rootless_poly(spec, s, rng.randrange(0, 5), rng)
              for _ in range(5)]
        width = max(len(h.coeffs) for h in hs) + 2
        rows = np.array([h.coeffs + (0,) * (width - len(h.coeffs))
                         for h in hs])
        column = [[rng.randrange(1, 3 * q1)] for _ in hs]
        for rs in (range(1, 2 * s + 1), column, np.array(column)):
            logs, census = star_censuses(spec, s, hs, rs)
            row_logs, row_census = star_censuses(spec, s, rows, rs)
            assert logs.dtype == row_logs.dtype == np.int64
            assert (logs == row_logs).all() and (census == row_census).all()


def test_star_censuses_rejects_a_root():
    spec = build_field(13)
    h = Poly.from_string(spec, "12,1")  # x - 1 vanishes at x^s = 1
    with pytest.raises(HypothesisError):
        star_censuses(spec, 4, [Poly.from_string(spec, "1,1"), h], [1, 2])
    with pytest.raises(HypothesisError, match="h = 12,1 has the root 1"):
        star_censuses(spec, 4, np.array([[1, 1, 0], [12, 1, 0]]), [[1], [2]])
    # for h that a scan admitted, a root is an arithmetic bug, not a skip
    with pytest.raises(RuntimeError):
        rootless_censuses(spec, 4, [h], [1])


@pytest.mark.parametrize("rows, width, q1, spread", [
    (6, 1, 12, 12),        # one value per row
    (8, 15, 4095, 4095),   # width far below the value range: sparse rows
    (8, 15, 4095, 3),      # sparse rows with large fibers
    (5, 63, 63, 63),       # width equal to the range: dense rows
    (5, 63, 63, 4),        # dense rows with large fibers
])
def test_sorted_and_bincount_row_censuses_agree(rows, width, q1, spread):
    # the prediction's census (sorting) and the oracle's (offset bincount)
    # are defined for fiber sizes c >= 1 only, and agree on every one
    rng = np.random.default_rng([rows, width, q1, spread])
    values = rng.integers(q1 - spread, q1, size=(rows, width))
    by_sort = sorted_row_censuses(values)
    by_count = _row_censuses(values, q1)
    assert by_sort.shape == by_count.shape == (rows, width + 1)
    assert (by_sort[:, 1:] == by_count[:, 1:]).all()
    for row, census in zip(values.tolist(), by_sort.tolist()):
        want = fiber_census(Counter(row))
        assert {c: n for c, n in enumerate(census) if c and n} == want


def test_decompose_and_permutes_field_read_the_oracle():
    # one wrong value of h on U_ell reaches g but not the oracle's f: the
    # verified square fails, and permutes_field still sees x permute F_13
    spec = build_field(13)
    form = CycloForm(spec, 1, 1, Poly.constant(spec, 1))
    assert permutes_field(form)
    form.hlogs = ((form.hlogs[0] + 1) % 12,) + form.hlogs[1:]
    assert len(set(hlogs_f(form))) < 12
    assert permutes_field(form)
    assert brute_verdict_star(form, 1)
    with pytest.raises(RuntimeError):
        decompose(form)


SCAN_FIELDS = {"F13": (13,), "F16": (2, 4), "F25": (5, 2), "F27": (3, 3),
               "F49": (7, 2)}


@pytest.mark.parametrize("name", sorted(SCAN_FIELDS))
def test_bulk_u_ell_scan_is_the_scalar_scan(name):
    # u_ell_values against Poly.eval_index at every point of U_ell, for
    # random h with and without roots there, at every s: the same values,
    # and a form refuses a rooted h at the bulk scan's first root
    spec = build_field(*SCAN_FIELDS[name])
    q = spec.q
    rng = random.Random(f"scan-{name}")
    for s in [d for d in range(1, q) if (q - 1) % d == 0]:
        ell = (q - 1) // s
        rows = [[rng.randrange(q) for _ in range(rng.randrange(1, 7))]
                for _ in range(40)]
        rows.append([0, 1])  # x: no root on U_ell
        rows.append([spec.neg(1), 1])  # x - 1: a root at u_0 = 1
        width = max(map(len, rows))
        values = u_ell_values(spec, s, [r + [0] * (width - len(r))
                                        for r in rows])
        assert values.shape == (len(rows), ell)
        for row, vals in zip(rows, values.tolist()):
            h = Poly(spec, row)
            assert vals == [h.eval_index(spec.exp_at(j * s))
                            for j in range(ell)]
            if all(vals):
                assert CycloForm(spec, 1, s, h).hlogs == tuple(
                    spec.log[v] for v in vals)
            elif not h.is_zero:
                root = FieldElement(spec, spec.exp_at(vals.index(0) * s))
                with pytest.raises(HypothesisError,
                                   match=re.escape(f"root {root} in")):
                    CycloForm(spec, 1, s, h)


@pytest.mark.parametrize("q", [9, 13, 16])
def test_bulk_draw_is_successive_single_draws(q, monkeypatch):
    # random_rootless_forms(..., n) returns the forms of n single draws and
    # leaves the stream where they leave it, at count 1 and at a grid's
    # hcount, in one pass and in passes of a few candidates
    spec = build_field(*{9: (3, 2), 13: (13,), 16: (2, 4)}[q])
    for cells in (cyclotomic.REDUCTION_CELLS, 3 * (q - 1)):
        monkeypatch.setattr(cyclotomic, "REDUCTION_CELLS", cells)
        for s in [d for d in range(1, q) if (q - 1) % d == 0]:
            for count in (0, 1, 25):
                bulk, single = (random.Random(f"bulk-{q}-{s}")
                                for _ in range(2))
                forms = random_rootless_forms(spec, s, 3, bulk, count)
                want = [random_rootless_form(spec, s, 3, single)
                        for _ in range(count)]
                assert [(f.r, f.s, f.h, f.hlogs) for f in forms] == [
                    (f.r, f.s, f.h, f.hlogs) for f in want]
                assert bulk.getstate() == single.getstate()


@pytest.mark.parametrize("s, max_degree, match", [
    (5, 3, "must divide"), (0, 3, "must divide"), (2.0, 3, "must divide"),
    (4, -1, "max_degree"), (4, -3, "max_degree")])
def test_bulk_draw_refuses_before_drawing(s, max_degree, match):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=match):
        random_rootless_forms(build_field(13), s, max_degree, rng, 5)
    assert rng.getstate() == state


@pytest.mark.parametrize("q, d", [(5, 0), (5, 1), (7, 2), (9, 1), (8, 2)])
def test_count_rootless_counts_every_h(q, d):
    spec = build_field(*{5: (5,), 7: (7,), 9: (3, 2), 8: (2, 3)}[q])

    def rootless(h, s):
        return all(h.eval_index(spec.exp_at(j * s))
                   for j in range((q - 1) // s))

    for s in [e for e in range(1, q) if (q - 1) % e == 0]:
        hs = [Poly(spec, [k // q ** i % q for i in range(d + 1)])
              for k in range(q ** (d + 1))]
        assert count_rootless(spec, s, d) == sum(
            rootless(h, s) for h in hs)


@pytest.mark.parametrize("name", sorted(SCAN_FIELDS))
def test_star_censuses_rows_repeat_with_period_q_minus_1(name):
    # x^(q-1) = 1 on F_q^*, so the oracle's rows at r and r + q-1 agree:
    # reduction_chunks computes each class once
    spec = build_field(*SCAN_FIELDS[name])
    q1 = spec.q - 1
    rng = random.Random(f"period-{name}")
    for s in (1, q1):
        hs = [random_rootless_poly(spec, s, 3, rng) for _ in range(3)]
        rs = [1, 2, q1 - 1, q1]
        logs, census = star_censuses(spec, s, hs, rs + [r + q1 for r in rs])
        assert (logs[:, :4] == logs[:, 4:]).all()
        assert (census[:, :4] == census[:, 4:]).all()


@pytest.mark.parametrize("key", [(3, 2), (2, 4), (5, 2)],
                         ids=["F9", "F16", "F25"])
def test_forms_from_logs_interpolates_on_u_ell(key, fold):
    # at every s | q-1: random value logs give forms whose h has degree
    # < ell and gives them back on U_ell, and the logs of a rootless h of
    # degree >= ell give its fold mod x^ell - 1, the one such interpolant
    spec = build_field(*key)
    q1 = spec.q - 1
    exp = spec.arrays()[0]
    rng = random.Random(f"interpolate-{spec.q}")
    for s in [d for d in range(1, q1 + 1) if q1 % d == 0]:
        ell = q1 // s
        logs = [[rng.randrange(-q1, 3 * q1) for _ in range(ell)]
                for _ in range(6)]
        forms = forms_from_logs(spec, 3, s, logs)
        for form, row in zip(forms, logs):
            assert (form.r, form.s, form.ell) == (3, s, ell)
            assert form.h.degree < ell
            assert form.hlogs == tuple(v % q1 for v in row)
            assert u_ell_values(spec, s, [form.h.coeffs])[0].tolist() == [
                int(exp[v % q1]) for v in row]
        folded = 0
        while folded < 4:
            h = Poly(spec, [rng.randrange(spec.q)
                            for _ in range(rng.randrange(ell, 2 * ell + 3))]
                     + [rng.randrange(1, spec.q)])
            values = u_ell_values(spec, s, [h.coeffs])
            if not values.all():
                continue
            form, = forms_from_logs(spec, 1, s, spec.arrays()[1][values])
            assert form.h == fold(h, ell)
            folded += 1
