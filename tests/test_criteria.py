"""The local criterion and the three constructions on explicit finite models."""

import os

import pytest

from mto1.criteria import (CommutativeSquare, GroupModel, HypothesisError,
                           construction1_verdict, construction2_verdict,
                           construction3_verdict, local_criterion_check)
from mto1.cyclotomic import CycloForm, decompose, star_census
from mto1.galois import Poly, build_field
from mto1.harness import (random_construction1_square,
                          random_construction2_square,
                          random_construction3_model, random_local_instance,
                          _rng)
from mto1.multiplicity import FiniteMapping, check_m_to_1

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_local_criterion_identity_psi():
    f = FiniteMapping((0, 1, 2, 3, 4), (0, 2, 0, 0, 3))
    psi = {b: b for b in range(5)}
    for m in range(1, 6):
        rep = local_criterion_check(f, psi, m)
        assert rep.agree


def test_local_criterion_constant_psi_single_class():
    # psi constant: one class = all of A, so rhs degenerates to lhs
    f = FiniteMapping((0, 1, 2, 3, 4), (0, 2, 0, 0, 3))
    psi = {b: "c" for b in range(5)}
    rep = local_criterion_check(f, psi, 3)
    assert rep.lhs and rep.rhs and rep.agree


def test_local_criterion_randomized():
    rng = _rng("unit-local")
    for _ in range(400):
        f, psi, m = random_local_instance(rng)
        assert local_criterion_check(f, psi, m).agree


def test_square_validation():
    good = CommutativeSquare.from_json(
        os.path.join(FIXTURES, "example_square.json"))
    assert len(good.a_points) == 6
    # breaking commutativity at one point must be rejected
    f_bad = dict(good.f)
    f_bad["a4"] = "b0"
    with pytest.raises(HypothesisError):
        CommutativeSquare(good.a_points, good.abar_points, good.s_points,
                          good.sbar_points, f_bad, good.fbar, good.lam,
                          good.lambar)


def test_construction1_requires_injective_fbar():
    sq = CommutativeSquare.from_json(
        os.path.join(FIXTURES, "example_square.json"))
    # fbar maps s0, s1 -> t0: not 1-to-1
    with pytest.raises(HypothesisError):
        construction1_verdict(sq, 2)


def test_construction1_identity_square():
    # S = A, lam = id, fbar = f injective: both sides equal the m=1 check
    A = ["a", "b", "c"]
    f = {"a": "x", "b": "y", "c": "z"}
    sq = CommutativeSquare(A, ["x", "y", "z"], A, ["x", "y", "z"],
                           f, f, {a: a for a in A},
                           {v: v for v in ("x", "y", "z")})
    rep = construction1_verdict(sq, 1)
    assert rep.lhs and rep.rhs


def test_construction1_f29_instance_with_injective_g():
    # r=2, s=4 over F_29: f is 2-to-1 iff g = x h(x)^2 is injective on U_7;
    # find an h making g injective, then both construction-1 sides hold at m=2
    spec = build_field(29)
    form = CycloForm(spec, 2, 4, Poly(spec, (1, 1, 13)))  # h = 13x^2 + x + 1
    assert len(set(decompose(form).g_logs)) == 7  # g injective on U_7
    dec = decompose(form)
    star = [spec.exp_at(i) for i in range(28)]
    u7 = [spec.exp_at(4 * j) for j in range(7)]
    u14 = [spec.exp_at(2 * j) for j in range(14)]
    sq = CommutativeSquare(
        star, star, u7, u14,
        dict(zip(star, map(spec.exp_at, star_census(form)[0].tolist()))),
        {spec.exp_at(4 * j): spec.exp_at(dec.g_logs[j]) for j in range(7)},
        {x: spec.pow(x, 4) for x in star},
        {x: spec.pow(x, 2) for x in star})
    rep = construction1_verdict(sq, 2)
    assert rep.lhs and rep.rhs and rep.agree


def test_construction1_randomized():
    rng = _rng("unit-c1")
    for _ in range(300):
        sq, m = random_construction1_square(rng)
        assert construction1_verdict(sq, m).agree


def test_construction2_identity_reduction():
    # m1 = 1, lam = lambar = id, fbar = f: reduces to the plain check
    A = ["a", "b", "c", "d"]
    B = ["x", "y"]
    f = {"a": "x", "b": "x", "c": "y", "d": "y"}
    sq = CommutativeSquare(A, B, A, B, f, f, {a: a for a in A},
                           {b: b for b in B})
    for m in (1, 2):
        rep = construction2_verdict(sq, 1, m)
        assert rep.agree
        assert rep.lhs == check_m_to_1(FiniteMapping.from_table(f), m).verdict


def test_construction2_f29_square(paper_square_f29):
    sq = paper_square_f29
    rep12 = construction2_verdict(sq, 2, 12)
    assert rep12.lhs and rep12.rhs and rep12.agree
    rep6 = construction2_verdict(sq, 2, 6)
    assert not rep6.lhs and not rep6.rhs and rep6.agree


def test_construction2_hypothesis_violations(paper_square_f29):
    sq = paper_square_f29
    with pytest.raises(HypothesisError):
        construction2_verdict(sq, 4, 12)  # fibers are not 4*|lambar fiber|
    with pytest.raises(HypothesisError):
        construction2_verdict(sq, 2, 15)  # m > m1 * #S = 14


def test_construction2_randomized():
    rng = _rng("unit-c2")
    done = 0
    while done < 300:
        inst = random_construction2_square(rng)
        if inst is None:
            continue
        sq, m1, m = inst
        assert construction2_verdict(sq, m1, m).agree
        done += 1


def test_corollary_m1_equals_1_specialization():
    # with m1 = 1 the rhs is: fbar m-to-1 and sum over E_fbar of lam-fiber
    # sizes equals #A mod m
    rng = _rng("unit-c2-m1")
    done = 0
    while done < 200:
        inst = random_construction2_square(rng)
        if inst is None or inst[1] != 1:
            continue
        sq, m1, m = inst
        assert construction2_verdict(sq, 1, m).agree
        done += 1


def test_corollary_m_divides_m1S_drops_sum_identity():
    # when m | m1 * #S, the sum identity holds automatically, so the rhs is
    # equivalent to just [m1 | m and fbar (m/m1)-to-1]
    rng = _rng("unit-c2-div")
    done = 0
    while done < 200:
        inst = random_construction2_square(rng)
        if inst is None:
            continue
        sq, m1, m = inst
        if (m1 * len(sq.s_points)) % m:
            continue
        rep = construction2_verdict(sq, m1, m)
        short = (m % m1 == 0
                 and check_m_to_1(sq.fbar_mapping(), m // m1).verdict)
        assert rep.rhs == short
        assert rep.lhs == short
        done += 1


def test_construction3_trivial_u():
    # u constant at the group identity: f * u = f
    group = GroupModel.cyclic(6)
    A = list(group.elements)
    lambar = {a: (2 * a) % 6 for a in A}
    sbar = sorted(set(lambar.values()))
    S = A[:3]
    fbar = {0: 0, 1: 2, 2: 4}
    lam = {a: a % 3 for a in A}
    # f must satisfy lambar(f(a)) = fbar(lam(a))
    fibers = {t: [a for a in A if lambar[a] == t] for t in sbar}
    f = {a: fibers[fbar[lam[a]]][0] for a in A}
    u = {a: 0 for a in A}
    sq = CommutativeSquare(A, A, S, sbar, f, fbar, lam, lambar)
    for m in (1, 2, 3):
        rep = construction3_verdict(group, sq, u, 1, m)
        assert rep.agree


def test_construction3_multiplicative_transfer_instance():
    # the x^(kt) M(x^s)^k twist over F_13^* as a variant-2 instance
    spec = build_field(13)
    h = Poly.from_string(spec, "2,1")
    form = CycloForm(spec, 2, 4, h)   # m1 = 2, s = 4, ell = 3
    dec = decompose(form)
    # u(x) = x^(kt) M(x^s)^k with M = W^(ell*m1), t = m1*ell; k = 2 keeps
    # (r + kt, s) = (14, 4) = 2 = (r, s), so f*u stays 2-to-1 per fiber
    W = Poly.from_string(spec, "1,1")
    assert all(W.eval_index(spec.exp_at(4 * j)) for j in range(3))
    M = W ** 6
    t, k = 6, 2
    star = [spec.exp_at(i) for i in range(12)]
    u = {x: spec.mul(spec.pow(x, k * t),
                     spec.pow(M.eval_index(spec.pow(x, 4)), k))
         for x in star}
    lam = {x: spec.pow(x, 4) for x in star}
    lambar = {x: spec.pow(x, 2) for x in star}
    u3 = [spec.exp_at(4 * j) for j in range(3)]
    u6 = [spec.exp_at(2 * j) for j in range(6)]
    g = {spec.exp_at(4 * j): spec.exp_at(dec.g_logs[j]) for j in range(3)}
    f = dict(zip(star, map(spec.exp_at, star_census(form)[0].tolist())))
    elts = tuple(spec.exp_at(k) for k in range(spec.q - 1))  # F_q^*
    group = GroupModel(elts, spec.mul, 1, {a: spec.inv(a) for a in elts})
    sq = CommutativeSquare(star, star, u3, u6, f, g, lam, lambar)
    for m in (1, 2, 3, 4, 6):
        rep = construction3_verdict(group, sq, u, 2, m, m1=2)
        assert rep.agree


def test_construction3_randomized():
    rng = _rng("unit-c3")
    done1 = done2 = 0
    while done1 < 150 or done2 < 150:
        if done1 < 150:
            inst = random_construction3_model(rng, 1)
            if inst is not None:
                group, sq, u, m, _ = inst
                assert construction3_verdict(group, sq, u, 1, m).agree
                done1 += 1
        if done2 < 150:
            inst = random_construction3_model(rng, 2)
            if inst is not None:
                group, sq, u, m, m1 = inst
                assert construction3_verdict(group, sq, u, 2, m, m1).agree
                done2 += 1


def test_group_model_validation_and_json():
    group = GroupModel.from_json(os.path.join(FIXTURES, "example_group.json"))
    assert group.op("a", "b") == "e"
    with pytest.raises(HypothesisError):
        GroupModel(("e", "a"), {("e", "e"): "e", ("e", "a"): "a",
                                ("a", "e"): "a", ("a", "a"): "a"},
                   "e", {"e": "e", "a": "a"})  # a has no inverse
    # Z/7 with the products 1*2 and 1*3 swapped: identity and inverses hold,
    # but (1*1)*2 = 4 while 1*(1*2) = 5
    table = {(a, b): (a + b) % 7 for a in range(7) for b in range(7)}
    table[1, 2], table[1, 3] = table[1, 3], table[1, 2]
    inverse = {a: (-a) % 7 for a in range(7)}
    with pytest.raises(HypothesisError, match="associative"):
        GroupModel(range(7), table, 0, inverse)
    del table[1, 2]
    with pytest.raises(HypothesisError, match="no entry"):
        GroupModel(range(7), table, 0, inverse)
    with pytest.raises(HypothesisError, match="limited to 64"):
        GroupModel(range(65), lambda a, b: (a + b) % 65, 0,
                   {a: (-a) % 65 for a in range(65)})


def test_cyclic_group_models_are_built_once_per_order():
    assert GroupModel.cyclic(12) is GroupModel.cyclic(12)
    assert GroupModel.cyclic(12) is not GroupModel.cyclic(6)
    assert GroupModel.cyclic(64).op(63, 2) == 1


def test_construction3_variant_rejections():
    group = GroupModel.cyclic(4)
    A = list(group.elements)
    lambar = {a: a for a in A}
    lam = {a: a % 2 for a in A}
    fbar = {0: 0, 1: 1}
    f = {a: fbar[a % 2] for a in A}  # commutes: lambar(f(a)) = fbar(lam(a))
    sq = CommutativeSquare(A, A, [0, 1], A, f, fbar, lam, lambar)
    u = {a: a for a in A}  # lambar o u is not constant
    with pytest.raises(HypothesisError):
        construction3_verdict(group, sq, u, 1, 1)
