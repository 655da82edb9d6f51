"""Form search: hit correctness, completeness, budget and memory contract."""

import itertools
import math
import random
import tracemalloc

import pytest

from mto1 import search
from mto1.criteria import HypothesisError
from mto1.cyclotomic import CycloForm, brute_verdict_star, star_censuses
from mto1.galois import Poly, build_field
from mto1.search import BudgetError, admissible_r_values, search_forms


def test_search_small_all_hits_verified():
    spec = build_field(13)
    hits = search_forms(spec, 4, 2, 3)
    assert hits
    for hit in hits:
        assert hit["verified"]
        form = CycloForm(spec, hit["r"], 4, Poly.from_string(spec, hit["h"]))
        assert brute_verdict_star(form, 3)


@pytest.mark.parametrize("field, s, deg, m", [
    ((7,), 2, 2, 2), ((13,), 4, 2, 3), ((2, 4), 5, 2, 3), ((5, 2), 4, 2, 2),
    ((3, 2), 2, 3, 2), ((13,), 2, 3, 2), ((3, 2), 1, 3, 2), ((7,), 6, 3, 2),
], ids=["F7", "F13", "F16", "F25", "F9-ell4", "F13-ell6", "F9-s1",
        "F7-ell1"])
def test_search_completeness_against_plain_enumeration(field, s, deg, m):
    # every (r, h) the search reports, and nothing else, is m-to-1; the
    # search scans one h per U_ell orbit, so these cases take orbits with
    # nontrivial stabilisers (ell = 4, 6), the full group F_q^* (s = 1) and
    # the trivial group (ell = 1)
    spec = build_field(*field)
    hits = search_forms(spec, s, deg, m)
    hit_set = {(h["r"], h["h"]) for h in hits}
    brute = set()
    for cs in itertools.product(range(spec.q), repeat=deg):
        h = Poly(spec, (1, *cs))
        try:
            for r in range(1, spec.q):
                form = CycloForm(spec, r, s, h)
                if brute_verdict_star(form, m):
                    brute.add((r, str(h)))
        except HypothesisError:
            continue
    assert hit_set == brute


def _rotated(spec, h, z):
    """h(z x) for the element index z."""
    return Poly(spec, [spec.mul(c, spec.pow(z, i))
                       for i, c in enumerate(h.coeffs)])


@pytest.mark.parametrize("field, s, deg", [
    ((13,), 2, 3), ((2, 4), 3, 3), ((5, 2), 4, 2), ((3, 3), 2, 3),
], ids=["F13", "F16", "F25", "F27"])
def test_rotation_keeps_every_census_through_the_oracle(field, s, deg):
    # for zeta in U_ell, x^r h(zeta x^s) = w^-r f(w x) with w^s = zeta:
    # the oracle alone must see the same fibers for h(x) and h(zeta x)
    spec = build_field(*field)
    q, ell = spec.q, (spec.q - 1) // s
    rng = random.Random(q)
    drawn = 0
    while drawn < 5:
        h = Poly(spec, [1] + [rng.randrange(q) for _ in range(deg)])
        turns = [_rotated(spec, h, spec.exp_at(s * t)) for t in range(ell)]
        try:
            census = star_censuses(spec, s, turns, list(range(1, q)))[1]
        except HypothesisError:
            continue
        drawn += 1
        assert (census == census[0]).all()


def test_a_hit_with_a_nontrivial_stabiliser_appears_once():
    # over F_9 with s = 2, ell = 4 and -1 in U_4 fixes h = 1 + c x^2: the
    # representatives meet its orbit {1 + g x^2, 1 + g^5 x^2} twice, and
    # the expansion reports each of its hits once
    spec = build_field(3, 2)
    pairs = [(hit["r"], hit["h"]) for hit in search_forms(spec, 2, 2, 2)]
    assert len(pairs) == len(set(pairs))
    rs = {r for r, h in pairs if h == "1,0,g^1"}
    assert rs and rs == {r for r, h in pairs if h == "1,0,g^5"}


def test_hit_strings_are_str_poly():
    # the hit strings come from one token per element index; they must be
    # str(Poly) of the kernel's hits, in the kernel's order
    spec = build_field(5, 2)
    hits = search_forms(spec, 4, 2, 2)
    found = sorted(search._kernel(spec, 4, 2,
                                  admissible_r_values(spec.q, 4, 2)))
    assert [(h["h"], h["r"]) for h in hits] == [
        (str(Poly(spec, coeffs)), r) for coeffs, r in found]
    assert any("g^" in h["h"] for h in hits)


def test_search_extension_field_generic_path():
    spec = build_field(2, 4)
    hits = search_forms(spec, 5, 1, 3)
    for hit in hits:
        assert hit["verified"]


def test_search_budget():
    spec = build_field(29)
    with pytest.raises(BudgetError):
        search_forms(spec, 4, 5, 12, budget=100)


def test_search_m_out_of_reduction_range_is_empty():
    # m too large for every (m1, ell) pair: no admissible r at all
    assert admissible_r_values(13, 12, 5) == []
    assert search_forms(build_field(13), 12, 1, 5) == []


def _reference_admissible_r_values(q, s, m, r_values=None):
    # conjuncts 1 and 3 of the reduction, written out as their own loop
    ell = (q - 1) // s
    out = []
    for r in (r_values if r_values is not None else range(1, q)):
        m1 = math.gcd(r, s)
        if m % m1:
            continue
        m2 = m // m1
        if m2 > ell:
            continue
        if not s * (ell % m2) < m:
            continue
        out.append((r, m1, m2))
    return out


def test_admissible_r_values_match_a_reference_loop():
    # every prime power q <= 64, every s | q-1 and every m in [1, q-1], over
    # all r and over one explicit r list per (q, s), kept in its given order
    prime_powers = [p ** k for p in range(2, 65)
                    if all(p % d for d in range(2, p))
                    for k in range(1, 7) if p ** k <= 64]
    assert len(prime_powers) == 27
    for q in sorted(prime_powers):
        for s in [d for d in range(1, q) if (q - 1) % d == 0]:
            rng = random.Random(f"r-values-{q}-{s}")
            r_values = rng.sample(range(1, q), rng.randrange(1, q))
            for m in range(1, q):
                assert (admissible_r_values(q, s, m)
                        == _reference_admissible_r_values(q, s, m))
                assert (admissible_r_values(q, s, m, r_values)
                        == _reference_admissible_r_values(q, s, m, r_values))


def test_search_kernel_memory_is_bounded():
    # the kernel works in chunks of bounded (candidate, point) cells, so
    # ell = 8190 points per candidate stays far below a q x ell grid
    spec = build_field(8191)
    tracemalloc.start()
    try:
        hits = search_forms(spec, 1, 1, 1, r_values=[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [h["h"] for h in hits] == ["1"]
    assert peak < 128 << 20


def test_a_rooted_hit_fails_alone_in_a_halving_of_its_chunk(monkeypatch):
    # 1 + x vanishes at 1 in U_3: the F_64 hits of the benchmark's query and
    # that one more take one oracle call per chunk, and the failing chunk is
    # halved down to the rooted hit, not re-checked hit by hit
    spec = build_field(2, 6)
    kernel, calls = search._kernel, []
    monkeypatch.setattr(search, "_kernel",
                        lambda *args: kernel(*args) + [((1, 1, 0), 1)])
    monkeypatch.setattr(search, "star_censuses",
                        lambda *args: calls.append(len(args[2]))
                        or star_censuses(*args))
    hits = search_forms(spec, 21, 2, 3)
    assert len(hits) == 64093
    assert [h for h in hits if not h["verified"]] == [
        {"r": 1, "h": "1,1", "m": 3, "m1": 1, "verified": False}]
    rows = search.CHUNK_CELLS // 63
    chunks = math.ceil(len(hits) / rows)
    assert calls[:chunks] == [rows] * (chunks - 1) + [len(hits) % rows]
    assert len(calls) <= chunks + 2 * math.ceil(math.log2(rows))


@pytest.mark.slow
def test_search_f29_finds_paper_h():
    spec = build_field(29)
    hits = search_forms(spec, 4, 5, 12)
    assert {"r": 2, "h": "1,0,0,15,1,1", "m": 12, "m1": 2,
            "verified": True} in hits
    assert all(h["verified"] for h in hits)
