"""Rational maps on U_{q+1} and the projective line: evaluation conventions,
degree-one bijections, the trace split, and the 3/5-to-1 and tower families."""

import itertools
import random

import pytest

import mto1.cyclotomic as cyclotomic
from mto1.criteria import HypothesisError
from mto1.cyclotomic import CycloForm, brute_verdict_star, main_predict
from mto1.galois import (FieldElement, Poly, build_field, eval_powers,
                         subfield_indices)
from mto1.harness import Q2_GRID
from mto1.multiplicity import FiniteMapping, admissible_m_set, check_m_to_1
from mto1.unitline import (INF, Deg1Map, RationalEvalError, RationalMap,
                           _bijects, _clear_denominators, _tower_outcome,
                           base_trace, deg1_permutes_unit,
                           deg1_unit_to_line, frob_q, g3_families, g3_family,
                           g5_family, g_permutation_lemma, halfplane_split,
                           line_pair_deg1, line_poly_deg1, line_to_unit_scan,
                           observe_towers, permutes_unit_scan,
                           quartic_rootless_lemma, rat_eval,
                           tower_forms, tower_gbar_predict,
                           tower_line_predict, tower_unit_predict,
                           transfer_families,
                           unit_pair_deg1, unit_subgroup_points,
                           unit_to_line_scan)


def test_rat_eval_conventions():
    spec = build_field(2, 2)
    w = spec.from_index(2)  # x = 0 + 1*p
    x_over_1 = RationalMap(Poly.x(spec), Poly.constant(spec, 1))
    assert rat_eval(x_over_1, INF) is INF
    # (x+1)/(x+w) at x = w: nonzero over zero
    rm = RationalMap(Poly.from_elements(spec, (spec.one, spec.one)),
                     Poly.from_elements(spec, (w, spec.one)))
    assert rat_eval(rm, w) is INF
    # equal degrees at infinity: ratio of leading coefficients
    rm2 = RationalMap(Poly.from_elements(spec, (0, w)),
                      Poly.from_elements(spec, (spec.one, spec.one)))
    assert rat_eval(rm2, INF) == w
    # lower over higher degree at infinity: 0
    rm3 = RationalMap(Poly.constant(spec, 1),
                      Poly.from_elements(spec, (0, spec.one)))
    assert rat_eval(rm3, INF).is_zero
    with pytest.raises(RationalEvalError):
        rat_eval(RationalMap(Poly.from_elements(spec, (w, spec.one)),
                             Poly.from_elements(spec, (w, spec.one)).scale(w)),
                 -w)


def test_gbar_value_at_infinity():
    # gbar = x + 1/(x+a) + 1/(x+a^q) has numerator degree 3 over denominator
    # degree 2, so gbar(INF) = INF
    spec = build_field(2, 4)
    alpha = spec.from_index(spec.exp_at(1))
    aq = frob_q(spec, alpha)
    sigma, pi = alpha + aq, alpha * aq
    num = Poly.from_elements(spec, (sigma, pi, sigma, spec.one))
    den = Poly.from_elements(spec, (pi, sigma, spec.one))
    assert rat_eval(RationalMap(num, den), INF) is INF


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_conjugation_law_on_unit_subgroup(p, n):
    # (P(x))^q = P^(q)(1/x) for x in U_{q+1}
    spec = build_field(p, n)
    half = n // 2
    rng = random.Random(f"conj-{p}-{n}")
    units = unit_subgroup_points(spec)
    for _ in range(20):
        P = Poly(spec, [rng.randrange(spec.q)
                        for _ in range(rng.randrange(1, 6))])
        for i in units:
            lhs = spec.frob(P.eval_index(i), half)
            rhs = P.frobenius(half).eval_index(spec.inv(i))
            assert lhs == rhs


def test_deg1_compose_inverse_identity():
    spec = build_field(2, 4)
    rng = random.Random("deg1")
    units = unit_subgroup_points(spec)
    for _ in range(40):
        a, b, c, d = (spec.from_index(rng.randrange(16)) for _ in range(4))
        try:
            m = Deg1Map(a, b, c, d)
        except Exception:
            continue
        comp = m.compose(m.inverse())
        for i in units:
            x = FieldElement(spec, i)
            assert comp(x) == x
        assert comp(INF) is INF


def test_deg1_permutes_unit_fixtures():
    spec = build_field(2, 4)
    one, zero = spec.one, spec.zero
    assert deg1_permutes_unit(Deg1Map(one, zero, zero, one))  # identity
    # for the unit-permutation shape, norm equality alpha^(q+1) = beta^(q+1)
    # is exactly degeneracy of the matrix: such "maps" do not exist
    g = spec.generator()
    alpha = g
    beta = g * spec.from_index(spec.exp_at(3))  # same norm as alpha
    with pytest.raises(Exception):
        Deg1Map(frob_q(spec, beta), frob_q(spec, alpha), alpha, beta)
    # a line-shaped map carries U off itself, so it cannot permute U
    m = Deg1Map(beta, frob_q(spec, beta), alpha, frob_q(spec, alpha))
    assert not deg1_permutes_unit(m)
    assert not permutes_unit_scan(m, spec)


def test_deg1_permutes_unit_random_conforming():
    spec = build_field(2, 4)
    rng = random.Random("conforming")
    hits = 0
    while hits < 25:
        alpha = spec.from_index(rng.randrange(16))
        beta = spec.from_index(rng.randrange(16))
        if alpha.is_zero and beta.is_zero:
            continue
        if alpha * frob_q(spec, alpha) == beta * frob_q(spec, beta):
            continue
        m = Deg1Map(frob_q(spec, beta), frob_q(spec, alpha), alpha, beta)
        assert deg1_permutes_unit(m)
        assert permutes_unit_scan(m, spec)
        hits += 1


@pytest.mark.parametrize("p,half", [(2, 1), (3, 1), (2, 2)])
def test_deg1_shape_tests_equal_scans_exhaustively(p, half):
    # the lemma is an iff: the shape test must equal the exhaustive scan for
    # every nondegenerate degree-one map over F_{q^2}
    spec = build_field(p, 2 * half)
    pts = range(spec.q)
    for ai, bi, ci, di in itertools.product(pts, repeat=4):
        a, b = spec.from_index(ai), spec.from_index(bi)
        c, d = spec.from_index(ci), spec.from_index(di)
        if a * d == b * c:
            continue
        m = Deg1Map(a, b, c, d)
        assert deg1_permutes_unit(m) == permutes_unit_scan(m, spec)
        assert deg1_unit_to_line(m) == unit_to_line_scan(m, spec)


def test_deg1_unit_to_line_fixture_f16():
    # (x+1)/(theta x + theta^q) with theta^(q-1) != 1 carries U_5 onto
    # F_4 + {INF}
    spec = build_field(2, 4)
    g = spec.generator()
    theta = g  # theta^(q-1) = g^3 != 1
    m = Deg1Map(spec.one, spec.one, theta, frob_q(spec, theta))
    assert deg1_unit_to_line(m)
    assert unit_to_line_scan(m, spec)
    # alpha = beta fails the condition
    bad = Deg1Map(spec.one, spec.one, spec.one, spec.one + g)  # generic map
    assert deg1_unit_to_line(bad) == unit_to_line_scan(bad, spec)


def test_deg1_unit_to_line_random_f64():
    spec = build_field(2, 6)
    rng = random.Random("line64")
    hits = 0
    while hits < 25:
        alpha = spec.from_index(rng.randrange(1, 64))
        beta = spec.from_index(rng.randrange(1, 64))
        if spec.pow(alpha.index, 7) == spec.pow(beta.index, 7):
            continue  # alpha^(q-1) = beta^(q-1)
        m = Deg1Map(beta, frob_q(spec, beta), alpha, frob_q(spec, alpha))
        assert deg1_unit_to_line(m)
        assert unit_to_line_scan(m, spec)
        hits += 1


def _deg1_reference(a, b, c, d, x):
    """(a x + b)/(c x + d) on the projective line, by the closed formula: INF
    goes to INF if c = 0 and to a/c otherwise, a zero of c x + d goes to INF,
    and any other x to (a x + b)/(c x + d)."""
    if x is INF:
        return INF if c.is_zero else a / c
    den = c * x + d
    return INF if den.is_zero else (a * x + b) / den


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4)])
def test_deg1_map_is_the_closed_formula_everywhere(p, n):
    # Deg1Map evaluates through rat_eval, as every rational map does
    spec = build_field(p, n)
    points = spec.elements() + [INF]
    for a, b, c, d in itertools.product(spec.elements(), repeat=4):
        if a * d == b * c:
            continue
        m = Deg1Map(a, b, c, d)
        for x in points:
            assert m(x) == _deg1_reference(a, b, c, d, x)


def test_bijection_scan_stops_at_the_first_miss_or_0_over_0():
    # in point order, a miss before a 0/0 gives False and a 0/0 first raises
    spec = build_field(2, 4)
    units = unit_subgroup_points(spec)
    g = spec.generator()  # g^5 != 1, so g lies outside U_5
    assert units[0] == 1
    late = Poly.from_elements(spec, (spec.from_index(units[2]), spec.one))
    first = Poly.from_elements(spec, (spec.one, spec.one))  # x + 1
    for scan in (permutes_unit_scan, unit_to_line_scan):
        # value g at units[0], 0/0 at units[2]
        assert not scan(RationalMap(late.scale(g), late), spec)
        with pytest.raises(RationalEvalError):  # 0/0 at units[0] = 1
            scan(RationalMap(first * Poly.x(spec), first), spec)
    targets = set(units)
    assert not _bijects(spec, [0, 0], [1, 0], targets)  # 0 misses U first
    with pytest.raises(RationalEvalError):
        _bijects(spec, [0, 0], [0, 1], targets)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 2)])
def test_line_poly_deg1_bijects_the_line_onto_u_iff_ratios_differ(p, n):
    # N^(q)/N for N = alpha x + beta, its value at INF (alpha^(q-1)) read
    # last; when alpha^(q-1) = beta^(q-1), N has a root in F_q, which is 0/0,
    # and N^(q)/N is constant on the rest of F_q, which repeats
    spec = build_field(p, n)
    q, half = p ** (n // 2), n // 2
    for ai, bi in itertools.product(range(1, spec.q), repeat=2):
        N = line_poly_deg1(spec, spec.from_index(ai), spec.from_index(bi))
        try:
            ok = line_to_unit_scan(RationalMap(N.frobenius(half), N), spec)
        except RationalEvalError:
            ok = False
        assert ok == (spec.pow(ai, q - 1) != spec.pow(bi, q - 1))


@pytest.mark.parametrize("p,n", [(2, 4), (5, 2), (3, 4)])
def test_eval_powers_count_takes_the_first_columns(p, n):
    spec = build_field(p, n)
    rng = random.Random(f"count-{p}-{n}")
    for step in (1, 2, (spec.q - 1) // (p ** (n // 2) + 1)):
        coeffs = [[rng.randrange(spec.q) for _ in range(5)] for _ in range(4)]
        full = eval_powers(spec, coeffs, step)
        for count in (1, 7, p ** (n // 2) + 1, spec.q - 1):
            assert (eval_powers(spec, coeffs, step, count)
                    == full[:, :count]).all()


def test_halfplane_split_n2():
    spec = build_field(2, 4)
    rec = halfplane_split(spec)
    assert [c.index for c in rec["A0"]] == [1]
    assert len(rec["A1"]) == 2
    assert rec["two_to_one"]
    # the two cube roots of unity in F_4 pair to 1
    w = spec.from_index(subfield_indices(spec, 2)[2])
    assert (w + spec.one / w).index == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_halfplane_split_sizes(n):
    rec = halfplane_split(build_field(2, 2 * n))
    assert len(rec["A0"]) == 2 ** (n - 1) - 1
    assert len(rec["A1"]) == 2 ** (n - 1)
    assert rec["two_to_one"]


def test_halfplane_needs_char2():
    with pytest.raises(HypothesisError):
        halfplane_split(build_field(3, 2))


def test_g3_family_q4_fixtures():
    spec = build_field(2, 4)
    rec1 = g3_family(spec, spec.one)
    # Tr(1 + 1) = Tr(0) = 0: g is 1-to-1 on U_5
    assert rec1["tr_1_plus_inv"] == 0
    assert rec1["g_predicted_m"] == 1 and rec1["g_verdict"]
    # c = w (a cube root of unity): 1 + 1/w = 1 + w^2 = w has trace 1
    w_idx = subfield_indices(spec, 2)[2]
    rec2 = g3_family(spec, spec.from_index(w_idx))
    assert rec2["tr_1_plus_inv"] == 1
    assert rec2["g_predicted_m"] == 3 and rec2["g_verdict"]
    # c = 1: f = x^12 + x^6 + x^3 is 3-to-1 on F_16^* (Tr(1/c) = 0, n even)
    assert rec1["tr_inv"] == 0
    assert rec1["f_a_3to1_predicted"] and rec1["f_a_3to1_observed"]
    assert rec1["g1_predicted_m"] == 1 and rec1["g1_verdict"]


@pytest.mark.parametrize("n", range(1, 6))
def test_g3_family_all_c(n):
    spec = build_field(2, 2 * n)
    _, half = spec.p ** n, n
    for ci in subfield_indices(spec, n):
        if ci == 0:
            continue
        rec = g3_family(spec, spec.from_index(ci), trinomials=n <= 4)
        assert rec["g_verdict"], (n, ci)
        if "g1_verdict" in rec:
            assert rec["g1_verdict"]
        if n <= 4:
            for nm in ("f_a", "f_b"):
                for w in ("1to1", "3to1"):
                    assert (rec[f"{nm}_{w}_predicted"]
                            == rec[f"{nm}_{w}_observed"])


def test_g5_family_fixtures():
    rec2 = g5_family(build_field(2, 4))
    assert rec2["g_predicted_m"] == 5 and rec2["g_verdict"]
    # n = 2: f = x^(4q+1)+x^(q+4)+x^5 = x^17+x^8+x^5 is 5-to-1 on F_16^*
    assert rec2["f5a_predicted_m"] == 5 and rec2["f5a_verdict"]
    rec3 = g5_family(build_field(2, 6))
    assert rec3["g_predicted_m"] == 1 and rec3["g_verdict"]


@pytest.mark.parametrize("n", range(1, 9))
def test_g5_family_all_n(n):
    rec = g5_family(build_field(2, 2 * n))
    for key in [k for k in rec if k.endswith("_verdict")]:
        assert rec[key], (n, key)
    for w in ("1to1", "3to1"):
        if f"f3_{w}_predicted" in rec:
            assert rec[f"f3_{w}_predicted"] == rec[f"f3_{w}_observed"]


@pytest.mark.parametrize("n", range(1, 9))
def test_section8_lemmas(n):
    spec = build_field(2, 2 * n)
    assert quartic_rootless_lemma(spec)
    predicted, observed = g_permutation_lemma(spec)
    assert predicted == (n % 2 == 0) == observed


def test_transfer_f5_q4_paper_example():
    # (x^(2q) + x^(q+1) + x^2) f is 5-to-1 on F_16^* (d=3, k=1 at q=4)
    rec = transfer_families(build_field(2, 4), "f5", d=3, k=1)
    assert rec["agree"] and rec["observed"]


def test_transfer_f3_q8():
    spec = build_field(2, 6)
    for ci in subfield_indices(spec, 3):
        if ci == 0:
            continue
        c = spec.from_index(ci)
        rec = transfer_families(spec, "f3", c=c, d=5, k=2)
        assert rec["predicted"] == rec["observed"] == rec["base_observed"]


def test_transfer_rejects_bad_d_and_documents_failure():
    # d = 3 at q = 8 violates (d, q+1) = 1: h_3 vanishes on U_9, and the
    # scaled product is in fact never 3-to-1 there
    spec = build_field(2, 6)
    one = spec.one
    with pytest.raises(HypothesisError):
        transfer_families(spec, "f3", c=one, d=3, k=1)
    q = 8
    c = one
    star = spec.star_elements()

    def big(x):
        y = x ** (q - 1)
        return (x ** 2 * (y * y + y + 1)
                * (x ** (3 * q) + x ** (q + 2) + c * x ** 3))

    mp = FiniteMapping.from_function(star, big)
    assert not check_m_to_1(mp, 3).verdict
    assert admissible_m_set(mp) == frozenset()


def test_tower_unit_trivial_n1_matches_main_predict():
    # L1/M1 = x/1 and a degree-one outer map: the tower prediction must match
    # both the oracle and the plain subgroup prediction of the built form
    # f = x^r (alpha x^n + beta)^m1 (x -> x^(q-1))
    import math
    spec = build_field(2, 4)
    q = 4
    inner = (Poly.x(spec), Poly.constant(spec, 1), spec.one, 1)
    g = spec.generator()
    alpha, beta = g, spec.one
    outer = unit_pair_deg1(spec, alpha, beta)
    for n in (1, 2, 3, 5):
        for m1 in (1, 3):
            rho = n % (q + 1)
            r = m1 * (rho if rho else q + 1)
            if math.gcd(r, q - 1) != m1:
                continue
            H = Poly.monomial(spec, n, alpha) + Poly.constant(spec, beta)
            form = CycloForm(spec, r, q - 1, H ** m1)
            for m in range(1, m1 * (q + 1) + 1):
                rec, = observe_towers(
                    [tower_unit_predict(spec, inner, outer, n, r, m)])
                if not rec["hypotheses_ok"]:
                    continue
                assert rec["agree"], (n, r, m)
                assert rec["predicted"] == main_predict(form, m).verdict
                assert rec["observed"] == brute_verdict_star(form, m)


def test_tower_unit_r1l1_example_grid_q4():
    # H = alpha (delta^q x + gamma^q)^n + beta (gamma x + delta)^n over F_16
    spec = build_field(2, 4)
    q = 4
    rng = random.Random("r1l1-grid")
    import math
    done = 0
    while done < 120:
        gamma = spec.from_index(rng.randrange(16))
        delta = spec.from_index(rng.randrange(16))
        alpha = spec.from_index(rng.randrange(16))
        beta = spec.from_index(rng.randrange(16))
        cond = (gamma * frob_q(spec, gamma) != delta * frob_q(spec, delta)
                and alpha * frob_q(spec, alpha) != beta * frob_q(spec, beta))
        n = rng.randrange(1, q + 3)
        m1 = rng.choice((1, 3))
        rho = n % (q + 1) or q + 1
        r = None
        for j in range(8):
            cand = m1 * (rho + j * (q + 1))
            if math.gcd(cand, q - 1) == m1:
                r = cand
                break
        if r is None:
            continue
        m = rng.randrange(1, m1 * (q + 1) + 1)
        rec, = observe_towers([tower_unit_predict(
            spec, unit_pair_deg1(spec, gamma, delta),
            unit_pair_deg1(spec, alpha, beta), n, r, m)])
        assert rec["hypotheses_ok"] == cond
        if cond:
            expected = m % m1 == 0 and math.gcd(n, q + 1) == m // m1
            assert rec["predicted"] == expected == rec["observed"]
        done += 1


def test_tower_unit_with_g5_inner_pair_q8():
    # q = 8 = 2^3, 3 != 2 mod 4: the quintic pair permutes U_9 and feeds the
    # R1 construction
    spec = build_field(2, 6)
    q = 8
    import math
    # (x^5 + x^4 + x, x^4 + x + 1, 1, 5): permutes U_(q+1) iff n != 2 mod 4
    inner = (Poly(spec, (0, 1, 0, 0, 1, 1)), Poly(spec, (1, 1, 0, 0, 1)),
             spec.one, 5)
    g = spec.generator()
    outer = unit_pair_deg1(spec, g, spec.one)
    n, m1 = 2, 1
    target = 5 * n * 1  # t1 = 5, t2 = 1
    rho = target % (q + 1) or q + 1
    r = next(m1 * (rho + j * (q + 1)) for j in range(9)
             if math.gcd(m1 * (rho + j * (q + 1)), q - 1) == m1)
    m = math.gcd(n, q + 1) * m1
    rec, = observe_towers([tower_unit_predict(spec, inner, outer, n, r, m)])
    assert rec["hypotheses_ok"] and rec["agree"] and rec["predicted"]


def test_tower_gbar_final_theorem_q4():
    # alpha + alpha^q = 1 <=> f is m1-to-1, over F_16 with a degree-one pair
    spec = build_field(2, 4)
    q = 4
    import math
    g = spec.generator()
    pair = line_pair_deg1(spec, g, spec.one)   # gamma^(q-1) != delta^(q-1)
    N = line_poly_deg1(spec, g, spec.one + g)  # alpha^(q-1) != beta^(q-1)
    rho = 3
    good = bad = 0
    for ai in range(16):
        alpha = spec.from_index(ai)
        if frob_q(spec, alpha) == alpha:
            continue
        sigma_one = (alpha + frob_q(spec, alpha)) == spec.one
        for m1 in (1, 3):
            r = next((m1 * (rho + j * (q + 1)) for j in range(8)
                      if math.gcd(m1 * (rho + j * (q + 1)), q - 1) == m1),
                     None)
            if r is None:
                continue
            rec, = observe_towers([tower_gbar_predict(spec, pair, N, alpha,
                                                      r)])
            if not rec["hypotheses_ok"]:
                continue
            assert rec["agree"]
            assert rec["predicted"] == sigma_one
            good += sigma_one
            bad += not sigma_one
    assert good and bad  # both sides of the iff got exercised


def test_tower_line_r1l1_q5():
    spec = build_field(5, 2)
    q = 5
    import math
    rng = random.Random("fq-r1l1")
    done = 0
    while done < 80:
        gamma = spec.from_index(rng.randrange(1, 25))
        delta = spec.from_index(rng.randrange(1, 25))
        alpha = spec.from_index(rng.randrange(1, 25))
        beta = spec.from_index(rng.randrange(1, 25))
        cond = (spec.pow(gamma.index, q - 1) != spec.pow(delta.index, q - 1)
                and spec.pow(alpha.index, q - 1) != spec.pow(beta.index, q - 1))
        n = rng.randrange(1, q + 3)
        m1 = rng.choice((1, 2, 4))
        rho = n % (q + 1) or q + 1
        r = next((m1 * (rho + j * (q + 1)) for j in range(10)
                  if math.gcd(m1 * (rho + j * (q + 1)), q - 1) == m1), None)
        if r is None:
            continue
        m = m1 if rng.random() < 0.5 else rng.randrange(1, m1 * (q + 1) + 1)
        rec, = observe_towers([tower_line_predict(
            spec, line_pair_deg1(spec, gamma, delta),
            line_poly_deg1(spec, alpha, beta), n, r, m)])
        assert rec["hypotheses_ok"] == cond, (gamma, delta, alpha, beta)
        if cond:
            gg = math.gcd(n, q - 1)
            expected = (m == m1 and gg == 1) or (
                m % m1 == 0 and gg == m // m1 and gg >= 3
                and 2 * (q - 1) < m)
            assert rec["predicted"] == expected == rec["observed"]
        done += 1


def test_rational_map_parsing():
    spec = build_field(2, 4)
    rm = RationalMap.from_string(spec, "1,0,1/g^3,1")
    assert rm.num.coeffs == (1, 0, 1)
    assert rm.den.coeffs == (spec.exp_at(3), 1)
    with pytest.raises(Exception):
        RationalMap.from_string(spec, "1,0,1")


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_g3_matches_brute_force_mappings(n):
    # every c at once against FiniteMappings built here, point by point:
    # g and g1 on U_(q+1), the trinomials on F_(q^2)^*
    spec = build_field(2, 2 * n)
    q = 2 ** n
    cs = [spec.from_index(i) for i in subfield_indices(spec, n) if i]
    recs = g3_families(spec, cs)
    units = [spec.from_index(i) for i in unit_subgroup_points(spec)]
    star = spec.star_elements()
    one = spec.one

    def tr(x):
        return 0 if base_trace(spec, x).is_zero else 1

    for c, rec in zip(cs, recs):
        assert rec["c"] == c
        assert rec["tr_1_plus_inv"] == tr(one + one / c)
        assert rec["tr_inv"] == tr(one / c)
        g = RationalMap(Poly(spec, (1, 0, 1, c.index)),
                        Poly(spec, (c.index, 1, 0, 1)))
        brute = FiniteMapping.from_function(units, g)
        assert rec["g_verdict"] == check_m_to_1(
            brute, rec["g_predicted_m"]).verdict
        if n % 2 == 0:
            g1 = FiniteMapping.from_function(
                units, lambda x: x * (x ** 3 + x + c) ** ((q - 1) // 3))
            assert rec["g1_verdict"] == check_m_to_1(
                g1, rec["g1_predicted_m"]).verdict
        else:
            assert "g1_verdict" not in rec
        f_a = FiniteMapping.from_function(
            star, lambda x: x ** (3 * q) + x ** (q + 2) + c * x ** 3)
        f_b = FiniteMapping.from_function(
            star, lambda x: c * x ** (3 * q) + x ** (2 * q + 1) + x ** 3)
        for name, brute in (("f_a", f_a), ("f_b", f_b)):
            for w, m in (("1to1", 1), ("3to1", 3)):
                assert rec[f"{name}_{w}_observed"] == check_m_to_1(
                    brute, m).verdict, (c, name, w)
    assert g3_families(spec, cs[:1]) == [g3_family(spec, cs[0])]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 2)])
def test_tower_h_vanishing_on_u_has_roots_in_u(p, n):
    # an H that is 0 at every point of U, or at one, has no interpolant
    # without roots; the record must name the failed hypothesis
    spec = build_field(p, n)
    q = p ** (n // 2)
    units = unit_subgroup_points(spec)
    vanishing = Poly.monomial(spec, q + 1) - Poly.constant(spec, 1)
    one_root = Poly.x(spec) - Poly.constant(spec, 1)  # zero at u_0 = 1 alone
    for H in (vanishing, vanishing * Poly(spec, (1, 1)),
              vanishing * vanishing, one_root):
        hvals = [H.eval_index(u) for u in units]
        for m1 in (1, q - 1):
            rec = _tower_outcome(spec, m1, hvals, m1, m1, {}, True)
            assert rec["failed"] == "H has roots in U"
            assert not rec["hypotheses_ok"] and "form" not in rec
            with pytest.raises(HypothesisError):
                CycloForm(spec, m1, q - 1, H ** m1)


@pytest.mark.parametrize("q", Q2_GRID)
def test_tower_h_interpolates_the_fold_of_h_to_the_m1(q, fold):
    # h interpolated from H's values on U is H^m1 mod y^(q+1) - 1, for
    # random H of degree up to 3q over F_(q^2) and every m1 | q-1, all in
    # one tower_forms batch, each record with its own r = m1
    spec = next(build_field(p, 2 * k) for p in (2, 3, 5, 7)
                for k in (1, 2, 3) if p ** k == q)
    units = unit_subgroup_points(spec)
    rng = random.Random(f"interpolate-{q}")
    pending, expected = [], []
    for m1 in (d for d in range(1, q) if (q - 1) % d == 0):
        for deg in (0, 1, q, q + 1, 3 * q):
            H = Poly(spec, [rng.randrange(1, spec.q)
                            for _ in range(deg + 1)])
            hvals = [H.eval_index(u) for u in units]
            rec = _tower_outcome(spec, m1, hvals, m1, m1, {}, True)
            if not all(hvals):
                assert rec["failed"] == "H has roots in U"
                continue
            pending.append(rec["form"])
            expected.append((fold(fold(H, q + 1) ** m1, q + 1), m1))
    forms = tower_forms(pending)
    assert len(forms) == len(expected)
    for form, (h, m1) in zip(forms, expected):
        assert form.h == h
        assert form.r == m1 and form.s == q - 1
    assert len(forms) >= 3


def test_tower_h_that_misses_its_values_is_an_arithmetic_bug(monkeypatch):
    # the interpolant must give back H^m1's values through u_ell_values:
    # an h that does not, rooted or not, raises RuntimeError from the batch
    # step of observe_towers, never a hypothesis failure
    spec = build_field(2, 4)
    units = unit_subgroup_points(spec)
    hvals = next(vals for c in range(2, spec.q)
                 if all(vals := [Poly(spec, (c, 1)).eval_index(u)
                                 for u in units]))
    assert "form" in _tower_outcome(spec, 3, hvals, 3, 3, {}, True)
    for wrong in (lambda c: c * 0, lambda c: c[:, ::-1], lambda c: c ^ 1):
        monkeypatch.setattr(cyclotomic, "eval_powers",
                            lambda *a, wrong=wrong: wrong(eval_powers(*a)))
        batch = [_tower_outcome(spec, r, hvals, 3, 3, {}, True)
                 for r in (3, 6)]
        with pytest.raises(RuntimeError, match="arithmetic bug"):
            observe_towers(batch)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 2), (2, 6)])
def test_clear_denominators_on_values_is_the_poly_clearing_on_u(p, n):
    # sum a_j l^j m^(u-j) at each point of U equals M^u N(L/M) built as a
    # polynomial and evaluated there, also where L or M vanishes on U
    spec = build_field(p, n)
    q = p ** (n // 2)
    units = unit_subgroup_points(spec)
    rng = random.Random(f"clear-{p}-{n}")

    def rand_poly(deg):
        return Poly(spec, [rng.randrange(spec.q) for _ in range(deg)]
                    + [rng.randrange(1, spec.q)])

    vanishing = Poly.monomial(spec, q + 1) - Poly.constant(spec, 1)
    for trial in range(12):
        N = rand_poly(rng.randrange(0, 5))
        L, M = rand_poly(rng.randrange(0, 4)), rand_poly(rng.randrange(0, 4))
        if trial % 3 == 1:
            L = L * vanishing
        elif trial % 3 == 2:
            M = M * Poly(spec, (spec.neg(units[1]), 1))  # zero at u_1
        for u in (None, N.degree + rng.randrange(1, 3)):
            e = N.degree if u is None else u
            terms = ((L ** j * M ** (e - j)).scale(FieldElement(spec, a))
                     for j, a in enumerate(N.coeffs))
            poly = sum(terms, Poly(spec, ()))
            lv = [L.eval_index(x) for x in units]
            mv = [M.eval_index(x) for x in units]
            assert _clear_denominators(spec, N, lv, mv, u) == [
                poly.eval_index(x) for x in units]
    with pytest.raises(ValueError):
        _clear_denominators(spec, Poly(spec, (1, 1, 1)), [1], [1], u=1)


def test_observed_tower_batch_matches_one_form_calls():
    # records observed together, in one oracle call, agree with records
    # observed one at a time
    spec = build_field(2, 4)
    q = 4
    rng = random.Random("tower-batch")
    inner = unit_pair_deg1(spec, spec.generator(), spec.one)
    one_by_one, batch = [], []
    while len(batch) < 40:
        alpha = spec.from_index(rng.randrange(16))
        beta = spec.from_index(rng.randrange(16))
        outer = unit_pair_deg1(spec, alpha, beta)
        n = rng.randrange(1, q + 3)
        m1 = rng.choice((1, 3))
        r = m1 * (n % (q + 1) or q + 1)
        m = rng.randrange(1, m1 * (q + 1) + 1)
        args = (spec, inner, outer, n, r, m)
        one_by_one += observe_towers([tower_unit_predict(*args)])
        batch.append(tower_unit_predict(*args))
    pending = [rec for rec in batch if "form" in rec]
    assert pending and all(rec["observed"] is None for rec in pending)
    assert observe_towers(batch) == one_by_one
    assert any(rec["agree"] for rec in one_by_one)
