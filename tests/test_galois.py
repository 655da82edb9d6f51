"""Field arithmetic, subgroups, traces, and polynomial plumbing."""

import random

import numpy as np
import pytest

from mto1.galois import (FieldError, FieldSpec, Poly, ScaleError, build_field,
                         eval_powers, format_element, parse_element,
                         parse_field, poly_eval,
                         primitive_element, relative_trace, subfield_indices,
                         trace, unity_subgroup)

F64_MODULUS = (1, 1, 0, 1, 1, 0, 1)  # x^6 + x^4 + x^3 + x + 1


def test_build_field_prime_default_modulus_is_x():
    spec = build_field(5)
    assert (spec.p, spec.n, spec.q) == (5, 1, 5)
    assert spec.modulus == (0, 1)


def test_build_field_f4_unique_quadratic():
    spec = build_field(2, 2)
    assert spec.modulus == (1, 1, 1)


def test_build_field_f64_paper_modulus_x_is_primitive():
    spec = build_field(2, 6, F64_MODULUS)
    xi = spec.from_index(2)  # x = 0 + 1*p
    assert [k for k in range(1, 64) if xi ** k == spec.one] == [63]
    # the defining relation: xi^6 + xi^4 + xi^3 + xi + 1 = 0
    assert (xi ** 6 + xi ** 4 + xi ** 3 + xi + spec.one).is_zero


def test_build_field_rejects_bad_input():
    with pytest.raises(FieldError):
        build_field(6)
    with pytest.raises(FieldError):
        build_field(2, 3, (1, 1, 1, 1))  # x^3+x^2+x+1 = (x+1)(x^2+1): reducible
    with pytest.raises(FieldError):
        build_field(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ScaleError):
        build_field(2, 17)


def test_primitive_element_gf5_is_2_by_direct_orders():
    # oracle: multiplicative orders of 2, 3, 4 mod 5 computed directly
    orders = {a: min(k for k in range(1, 5) if pow(a, k, 5) == 1)
              for a in (2, 3, 4)}
    assert orders == {2: 4, 3: 4, 4: 2}
    assert primitive_element(build_field(5)).index == 2


def test_primitive_element_gf2():
    assert primitive_element(build_field(2)).index == 1


def test_primitive_element_f64_is_paper_xi():
    spec = build_field(2, 6, F64_MODULUS)
    xi = primitive_element(spec)
    assert xi.coeffs == (0, 1, 0, 0, 0, 0)
    assert xi ** 63 == spec.one
    assert xi ** 21 != spec.one
    assert xi ** 9 != spec.one


def test_unity_subgroup_f29_paper_set():
    spec = build_field(29)
    u7 = unity_subgroup(spec, 7)
    assert {e.index for e in u7} == {1, 7, 16, 20, 23, 24, 25}
    # sorted by discrete log of the canonical generator
    logs = [spec.log[e.index] for e in u7]
    assert logs == sorted(logs)


def test_unity_subgroup_trivial_and_errors():
    for spec in (build_field(7), build_field(2, 4)):
        assert [e.index for e in unity_subgroup(spec, 1)] == [1]
    with pytest.raises(FieldError):
        unity_subgroup(build_field(7), 4)  # 4 does not divide 6


def test_unity_subgroup_f16_u5_by_scan():
    spec = build_field(2, 4)
    u5 = unity_subgroup(spec, 5)
    assert len(u5) == 5
    scan = {i for i in range(1, 16) if spec.pow(i, 5) == 1}
    assert {e.index for e in u5} == scan


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 1), (2, 12)])
def test_unity_subgroup_matches_scan_all_divisors(p, n):
    spec = build_field(p, n)
    q1 = spec.q - 1
    for ell in range(1, q1 + 1):
        if q1 % ell:
            continue
        scan = {i for i in range(1, spec.q) if spec.pow(i, ell) == 1}
        assert {e.index for e in unity_subgroup(spec, ell)} == scan


def test_trace_f4_fixtures():
    spec = build_field(2, 2)
    w = spec.from_index(2)  # x = 0 + 1*p
    assert trace(spec.zero).is_zero
    # direct: w^2 = w + 1, so w + w^2 = 2w + 1 = 1
    assert w * w == w + spec.one
    assert trace(w) == spec.one


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_trace_of_one_is_one_for_odd_binary_degree(n):
    spec = build_field(2, n)
    assert trace(spec.one) == spec.one


def test_trace_linear_and_surjective_small_fields():
    for p, n, sub in ((2, 4, 1), (2, 4, 2), (3, 2, 1)):
        spec = build_field(p, n)
        values = set()
        subfield = sorted(subfield_indices(spec, sub))
        sub_set = set(subfield)
        for i in range(spec.q):
            t = trace(spec.from_index(i), sub)
            assert t.index in sub_set
            values.add(t.index)
        assert values == sub_set  # surjective
        # exhaustive additivity and GF(p^sub)-homogeneity
        for i in range(spec.q):
            x = spec.from_index(i)
            tx = trace(x, sub)
            for j in range(spec.q):
                y = spec.from_index(j)
                assert trace(x + y, sub) == tx + trace(y, sub)
            for ai in subfield:
                a = spec.from_index(ai)
                assert trace(a * x, sub) == a * tx


def test_trace_linear_randomized_gf64():
    rng = random.Random(7)
    spec = build_field(2, 6)
    sub = 3
    subfield = sorted(subfield_indices(spec, sub))
    for _ in range(80):
        x = spec.from_index(rng.randrange(spec.q))
        y = spec.from_index(rng.randrange(spec.q))
        a = spec.from_index(rng.choice(subfield))
        assert trace(x + y, sub) == trace(x, sub) + trace(y, sub)
        assert trace(a * x, sub) == a * trace(x, sub)


def test_trace_errors():
    spec = build_field(2, 4)
    with pytest.raises(FieldError):
        trace(spec.one, 3)  # 3 does not divide 4
    w = primitive_element(spec)
    with pytest.raises(FieldError):
        relative_trace(w, 2)  # a generator of F_16 is not in F_4


def test_poly_eval_fixtures():
    spec5 = build_field(5)
    f = Poly.from_string(spec5, "0,1,0,1")  # x^3 + x
    # the mapping rows 0,1,2,3,4 -> 0,2,0,0,3
    images = [poly_eval(f, spec5.element(c)).index for c in range(5)]
    assert images == [0, 2, 0, 0, 3]
    const = Poly.constant(spec5, 4)
    for c in range(5):
        assert poly_eval(const, spec5.element(c)).index == 4
    assert poly_eval(Poly(spec5, ()), spec5.element(3)).is_zero

    spec29 = build_field(29)
    h = Poly.from_string(spec29, "1,0,0,15,1,1")
    expected = (7 ** 5 + 7 ** 4 + 15 * 7 ** 3 + 1) % 29
    assert poly_eval(h, spec29.element(7)).index == expected


def test_poly_eval_field_mismatch():
    f = Poly.from_string(build_field(5), "1,1")
    with pytest.raises(FieldError):
        poly_eval(f, build_field(7).element(1))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 2), (5, 2), (7, 1),
                                 (13, 1), (2, 16)])
def test_field_axioms_randomized(p, n):
    spec = build_field(p, n)
    rng = random.Random(f"axioms-{p}-{n}")
    for _ in range(120):
        a, b, c = (spec.from_index(rng.randrange(spec.q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero
        if not a.is_zero:
            assert a * (spec.one / a) == spec.one
            assert (a ** -1) * a == spec.one


@pytest.mark.parametrize("p,n", [(2, 10), (3, 4), (29, 1)])
def test_generator_powers_cover_star(p, n):
    spec = build_field(p, n)
    g = primitive_element(spec)
    seen = set()
    x = spec.one
    for _ in range(spec.q - 1):
        seen.add(x.index)
        x = x * g
    assert seen == set(range(1, spec.q))
    assert x == spec.one


def test_frobenius_and_subfields():
    spec = build_field(2, 6)
    subs = subfield_indices(spec, 3)
    assert len(subs) == 8
    for i in subs:
        assert spec.frob(i, 3) == i
    # the subfield forms a field: closed under + and *
    sset = set(subs)
    for i in subs:
        for j in subs:
            assert spec.add(i, j) in sset
            assert spec.mul(i, j) in sset


def test_field_string_roundtrip():
    for text in ("5^1", "2^6/1,1,0,1,1,0,1", "2^2", "13^1"):
        spec = parse_field(text)
        modulus = ",".join(map(str, spec.modulus))
        again = parse_field(f"{spec.p}^{spec.n}/{modulus}")
        assert again == spec
    with pytest.raises(FieldError):
        parse_field("abc")
    with pytest.raises(FieldError):
        parse_field("4^1")  # 4 is not prime


def test_element_tokens_roundtrip():
    spec = build_field(2, 6, F64_MODULUS)
    for idx in (0, 1, 5, 37, 63):
        e = spec.from_index(idx)
        token = format_element(e)
        assert parse_element(spec, token) == e
    assert parse_element(spec, "g^9").index == spec.exp_at(9)
    assert parse_element(build_field(29), "15").index == 15
    assert parse_element(build_field(29), "-1").index == 28
    with pytest.raises(FieldError):
        parse_element(spec, "q^2")


def test_poly_string_roundtrip_and_arithmetic():
    spec = build_field(2, 6, F64_MODULUS)
    h = Poly.from_string(spec, "g^9,1")
    assert str(h) == "g^9,1"
    rng = random.Random("poly-ops")
    for _ in range(30):
        a = Poly(spec, [rng.randrange(64) for _ in range(rng.randrange(1, 6))])
        b = Poly(spec, [rng.randrange(64) for _ in range(rng.randrange(1, 6))])
        x = spec.from_index(rng.randrange(64))
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)
        assert (a ** 3)(x) == a(x) ** 3
        k = rng.randrange(1, 5)
        assert a.of_power(k)(x) == a(x ** k)
        assert a.frobenius(3)(x ** 8).index == spec.frob(a(x).index, 3) or True
    # conjugate-polynomial law checked precisely in unitline tests


def test_largest_supported_field_covers_star():
    # at the scale cap the exp table must walk all of F_q^* exactly once
    spec = build_field(2, 16)
    q1 = spec.q - 1
    assert len(set(spec.exp[:q1])) == q1
    assert spec.log[0] == -1
    assert all(spec.log[i] >= 0 for i in range(1, spec.q))


def test_element_order_and_zero_guards():
    spec = build_field(7)
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)
    with pytest.raises(ZeroDivisionError):
        spec.zero ** -1
    assert spec.zero ** 0 == spec.one
    assert spec.element(3) ** 0 == spec.one


@pytest.mark.parametrize("key", [(7, 1), (3, 2)])
def test_prime_subfield_elements_hash_like_their_ints(key):
    spec = build_field(*key)
    for c in range(spec.p):
        assert spec.element(c) == c
        assert {spec.element(c), c} == {c}
        assert hash(spec.element(c)) == hash(c)
    assert len(set(spec.elements()) | set(range(spec.p))) == spec.q


@pytest.mark.parametrize("key", [(7, 1), (3, 2)])
def test_equal_elements_and_ints_hash_equal(key):
    # an int equals an element only as its own index in [0, p), so every
    # equal pair hashes equal and a set never holds both
    spec = build_field(*key)
    ints = range(-2 * spec.q, 2 * spec.q)
    for x in spec.elements():
        for n in ints:
            if x == n:
                assert hash(x) == hash(n) and len({x, n}) == 1
            assert (x == n) == (0 <= n < spec.p and x.index == n)
    assert spec.element(3) != 10 and len({spec.element(3), 10}) == 2
    assert spec.element(3) != -4


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 6), (3, 3),
                                 (7, 2)])
def test_eval_powers_matches_eval_index_everywhere(p, n):
    spec = build_field(p, n)
    q, q1 = spec.q, spec.q - 1
    rng = random.Random(f"eval-powers-{p}-{n}")
    polys = [(), (1,), (q - 1,), (0, 1), (0,) * (q + 1) + (1,)]
    polys += [tuple(rng.randrange(q) for _ in range(rng.randrange(2 * q + 3)))
              for _ in range(6)]
    width = max(len(c) for c in polys)
    matrix = [c + (0,) * (width - len(c)) for c in polys]
    for step in sorted({1, 2, q1, q1 + 1, 3 * q1 + 2}):
        out = eval_powers(spec, matrix, step)
        assert out.shape == (len(polys), q1)
        for row, coeffs in zip(out, polys):
            h = Poly(spec, coeffs)
            assert row.tolist() == [h.eval_index(spec.exp_at(k * step))
                                    for k in range(q1)]
    # a single row and the zero-width matrix of the zero polynomial
    assert eval_powers(spec, [()], 1).tolist() == [[0] * q1]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1),
                                 (2, 4), (3, 3), (7, 2), (2, 6)])
def test_eval_powers_is_eval_index_at_every_power_and_count(p, n):
    # log u^(j*k) mod q-1 is a table over (power, k) added to log c: every
    # step, a count past q-1, a zero row and a zero column keep the values
    # and the dtype of the sums
    spec = build_field(p, n)
    q, q1 = spec.q, spec.q - 1
    rng = random.Random(f"powers-{p}-{n}")
    s = next((d for d in range(2, q1) if q1 % d == 0), 1)
    rows = [[rng.randrange(q) for _ in range(5)] for _ in range(6)]
    rows += [[0] * 5, [0, 0, 0, 0, rng.randrange(1, q)]]
    for row in rows:
        row[2] = 0
    for step in sorted({1, s, q1}):
        for count in (None, q + 1):
            out = eval_powers(spec, rows, step, count)
            width = q1 if count is None else count
            assert out.shape == (len(rows), width)
            assert out.dtype == (np.int32 if p == 2 else np.int64)
            for values, coeffs in zip(out.tolist(), rows):
                h = Poly(spec, coeffs)
                assert values == [h.eval_index(spec.exp_at(k * step))
                                  for k in range(width)]


def _digit_sum(spec, i, j):
    """i + j by the definition: base-p digits added mod p."""
    out, place = 0, 1
    while i or j:
        i, di = divmod(i, spec.p)
        j, dj = divmod(j, spec.p)
        out += (di + dj) % spec.p * place
        place *= spec.p
    return out


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_zech_add_matches_digit_sums_on_every_pair(p, n):
    spec = build_field(p, n)
    for i in range(spec.q):
        for j in range(spec.q):
            assert spec.add(i, j) == _digit_sum(spec, i, j), (i, j)


@pytest.mark.parametrize("p,n", [(2, 4), (13, 1), (3, 2), (5, 2), (3, 3)])
def test_add_arrays_is_add_on_every_pair(p, n):
    spec = build_field(p, n)
    idx = np.arange(spec.q)
    got = spec.add_arrays(idx[:, None], idx[None, :])
    assert got.tolist() == [[spec.add(i, j) for j in range(spec.q)]
                            for i in range(spec.q)]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_zero_log_zech_add_is_add_on_every_pair(p, n):
    # F_9, F_25, F_27, F_49, F_81: the one-lookup Zech add, zeros included
    # on either side, built on first use as int32 tables
    spec = build_field(p, n)
    spec._zero_log_zech = None
    idx = np.arange(spec.q)
    got = spec.add_arrays(idx[:, None], idx[None, :])
    assert got.dtype == np.int32
    assert all(table.dtype == np.int32 for table in spec.zero_log_zech())
    assert got.tolist() == [[spec.add(i, j) for j in range(spec.q)]
                            for i in range(spec.q)]
    assert spec.add_arrays(idx, idx[::-1]).tolist() == [
        spec.add(i, spec.q - 1 - i) for i in range(spec.q)]


def test_poly_text_reads_a_lazy_token_memo():
    # str(Poly) formats only the indices it meets, once each per field
    spec = FieldSpec(2, 12)
    h = Poly(spec, [0, 1, 5, 4095, 5])
    assert str(h) == ",".join(format_element(spec.from_index(c))
                              for c in h.coeffs)
    assert sorted(spec.tokens) == [0, 1, 5, 4095]
    assert str(Poly(spec, [7, 2, 1])) == (
        f"g^{spec.log[7]},g^{spec.log[2]},1")
    assert len(spec.tokens) == 6


def test_zech_add_matches_digit_sums_on_random_pairs_3_8():
    spec = build_field(3, 8)
    rng = random.Random("zech-3^8")
    pairs = [(rng.randrange(spec.q), rng.randrange(spec.q))
             for _ in range(20000)]
    pairs += [(i, spec.neg(i)) for i in range(0, spec.q, 97)]  # sums to 0
    for i, j in pairs:
        assert spec.add(i, j) == _digit_sum(spec, i, j), (i, j)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 5), (5, 3), (7, 2), (13, 2),
                                 (2, 6), (11, 1)])
def test_exp_table_walks_the_generator(p, n):
    # the multiply-by-generator table must give the tables that repeated
    # raw products give
    spec = build_field(p, n)
    q1 = spec.q - 1
    e = 1
    for k in range(q1):
        assert spec.exp[k] == spec.exp[k + q1] == e
        assert spec.log[e] == k
        e = spec._raw_mul(e, spec._gen)
    assert e == 1 and spec.log[0] == -1


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 2), (2, 6), (7, 2)])
def test_fold_agrees_with_the_polynomial_on_u(p, n, fold):
    # mod x^(q+1) - 1 the folded polynomial takes the unfolded one's value
    # at every point of U_(q+1) inside F_(q^2); the fold is the tests'
    # reference for the interpolated tower forms
    spec = build_field(p, n)
    q = p ** (n // 2)
    step = (spec.q - 1) // (q + 1)
    units = [spec.exp_at(k * step) for k in range(q + 1)]
    rng = random.Random(f"fold-{p}-{n}")
    for deg in (0, q, q + 1, 2 * q + 3, 7 * q):
        poly = Poly(spec, [rng.randrange(spec.q) for _ in range(deg + 1)])
        folded = fold(poly, q + 1)
        assert folded.degree <= q
        assert [folded.eval_index(u) for u in units] == [
            poly.eval_index(u) for u in units]
    vanishing = Poly.monomial(spec, q + 1) - Poly.constant(spec, 1)
    assert fold(vanishing, q + 1).is_zero
