"""Fiber histograms, m-to-1 verdicts, exceptional sets, and the counting
formula, with exhaustive oracles."""

import math
import random

import numpy as np
import pytest

from mto1.galois import build_field
from mto1.multiplicity import (FiniteMapping, IndexMapping, admissible_m_set,
                               check_m_to_1, count_by_enumeration,
                               count_formula, fiber_census, fiber_histogram,
                               fibers_verdict, verdict_from_histogram)


def paper_f5_mapping():
    # x^3 + x maps 0,1,2,3,4 to 0,2,0,0,3 in F_5
    return FiniteMapping((0, 1, 2, 3, 4), (0, 2, 0, 0, 3))


def test_fiber_histogram_constant():
    m = FiniteMapping("abcd", "xxxx")
    assert fiber_histogram(m) == (4,)


def test_fiber_histogram_paper_f5():
    assert fiber_histogram(paper_f5_mapping()) == (1, 1, 3)


def test_fiber_histogram_x4_on_f29_star():
    spec = build_field(29)
    dom = [i for i in range(1, 29)]
    m = FiniteMapping(dom, [pow(i, 4, 29) for i in dom])
    assert fiber_histogram(m) == (4,) * 7


def test_check_paper_f5():
    rep = check_m_to_1(paper_f5_mapping(), 3)
    assert rep.verdict
    assert set(rep.exceptional_set) == {1, 4}
    assert (rep.k, rep.r) == (1, 2)


def test_check_identity():
    m = FiniteMapping(range(6), range(6))
    rep = check_m_to_1(m, 1)
    assert rep.verdict and rep.exceptional_set == ()


def test_check_squares_f7_star():
    # oracle: squares of 1..6 mod 7 pair up as {1,2,4} each twice
    images = [pow(i, 2, 7) for i in range(1, 7)]
    assert sorted(images) == [1, 1, 2, 2, 4, 4]
    rep = check_m_to_1(FiniteMapping(range(1, 7), images), 2)
    assert rep.verdict and rep.exceptional_set == () and rep.k == 3


def test_check_m_out_of_range():
    m = paper_f5_mapping()
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            check_m_to_1(m, bad)


def test_check_verdict_matches_first_principles_definition():
    # oracle: direct Definition-style check on random small mappings
    rng = random.Random("definition")
    for _ in range(300):
        na = rng.randrange(1, 9)
        nb = rng.randrange(1, 9)
        dom = tuple(range(na))
        images = tuple(rng.randrange(nb) for _ in dom)
        mp = FiniteMapping(dom, images)
        for m in range(1, na + 1):
            k, r = divmod(na, m)
            count = sum(1 for b in set(images)
                        if images.count(b) == m)
            expected = count == k and na - k * m == r
            rep = check_m_to_1(mp, m)
            assert rep.verdict == expected
            if rep.verdict:
                assert len(rep.exceptional_set) == r
                assert all(images.count(images[a]) != m
                           for a in rep.exceptional_set)


def test_admissible_examples():
    assert admissible_m_set(FiniteMapping(range(5), [9] * 5)) == {5}
    assert admissible_m_set(paper_f5_mapping()) == {3}
    # fibers {2,1,1} on a 4-set: no m works
    assert admissible_m_set(FiniteMapping("abcd", (0, 0, 1, 2))) == frozenset()


def test_monomial_kernel_multiplicity():
    # x -> x^n on F_q^* is (n, q-1)-to-1 with empty exceptional set, and
    # nothing else
    for q, n in ((7, 2), (7, 3), (13, 4), (16, 3), (29, 4), (25, 6)):
        spec = build_field(*{4: (2, 2), 8: (2, 3), 16: (2, 4),
                             25: (5, 2), 27: (3, 3)}.get(q, (q, 1)))
        dom = list(range(1, spec.q))
        mp = FiniteMapping(dom, [spec.pow(i, n) for i in dom])
        d = math.gcd(n, spec.q - 1)
        assert admissible_m_set(mp) == {d}
        assert check_m_to_1(mp, d).exceptional_set == ()


def test_count_formula_fixtures():
    assert count_formula(2, 1) == 2
    assert count_formula(5, 5) == 5
    # q=3, m=2: frozen from exhaustive enumeration of all 27 self-maps
    assert count_by_enumeration(3)[2] == 18
    assert count_formula(3, 2) == 18


def test_count_formula_errors():
    with pytest.raises(ValueError):
        count_formula(5, 0)
    with pytest.raises(ValueError):
        count_formula(5, 6)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_count_formula_vs_enumeration(q):
    census = count_by_enumeration(q)
    for m in range(1, q + 1):
        assert count_formula(q, m) == census[m]


def test_count_m1_is_factorial():
    for q in range(1, 9):
        assert count_formula(q, 1) == math.factorial(q)


def test_composition_with_injection_preserves_admissible():
    # sigma o f is m-to-1 iff f is, for injective sigma
    rng = random.Random("thm-compose-2nd")
    for _ in range(120):
        na = rng.randrange(1, 13)
        nb = rng.randrange(1, 13)
        dom = tuple(range(na))
        f = FiniteMapping(dom, tuple(rng.randrange(nb) for _ in dom))
        targets = rng.sample(range(100, 150), nb)
        sigma = {b: targets[b] for b in range(nb)}
        composed = f.compose(sigma)
        assert admissible_m_set(composed) == admissible_m_set(f)


def test_composition_with_equifibered_first_map():
    # theta o lam is m-to-1 iff m1 | m and theta is (m/m1)-to-1, when lam is
    # m1-to-1 with #A = m1 * #B
    rng = random.Random("thm-compose-1st")
    for _ in range(120):
        m1 = rng.randrange(1, 4)
        nb = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        A = list(range(m1 * nb))
        rng.shuffle(A)
        lam_images = [b for b in range(nb) for _ in range(m1)]
        lam = FiniteMapping(tuple(A), tuple(lam_images))
        theta = {b: rng.randrange(nc) for b in range(nb)}
        composed = lam.compose(theta)
        theta_map = FiniteMapping(tuple(range(nb)),
                                  tuple(theta[b] for b in range(nb)))
        for m in range(1, len(A) + 1):
            expected = (m % m1 == 0 and m // m1 <= nb
                        and check_m_to_1(theta_map, m // m1).verdict)
            assert check_m_to_1(composed, m).verdict == expected


def test_sandwich_by_permutations():
    rng = random.Random("sandwich")
    for _ in range(80):
        na = rng.randrange(1, 8)
        dom = tuple(range(na))
        f = FiniteMapping(dom, tuple(rng.randrange(na) for _ in dom))
        s1 = list(dom)
        s2 = list(dom)
        rng.shuffle(s1)
        rng.shuffle(s2)
        inner = dict(zip(dom, s1))
        outer = dict(zip(dom, s2))
        table = f.as_table()
        sandwiched = FiniteMapping(dom, tuple(outer[table[inner[a]]]
                                              for a in dom))
        assert admissible_m_set(sandwiched) == admissible_m_set(f)


def test_permuted_monomial_keeps_multiplicity():
    # sigma(x^n) stays (n, q-1)-to-1 for any permutation sigma of F_q^*
    spec = build_field(13)
    rng = random.Random("perm-monomial")
    dom = list(range(1, 13))
    for n in (2, 3, 4, 6):
        sigma = dom[:]
        rng.shuffle(sigma)
        table = dict(zip(dom, sigma))
        mp = FiniteMapping(dom, [table[spec.pow(i, n)] for i in dom])
        assert admissible_m_set(mp) == {math.gcd(n, 12)}


def test_mapping_validation():
    with pytest.raises(ValueError):
        FiniteMapping((), ())
    with pytest.raises(ValueError):
        FiniteMapping((1, 2), (1,))
    with pytest.raises(ValueError):
        FiniteMapping((1, 1), (2, 2))


def test_report_json_shape():
    rep = check_m_to_1(paper_f5_mapping(), 3)
    js = rep.to_json()
    assert set(js.keys()) == {"m", "verdict", "k", "r", "exceptional_set",
                              "histogram"}
    assert js["histogram"] == [1, 1, 3]
    assert sorted(js["exceptional_set"]) == [1, 4]


def test_exceptional_set_in_domain_order():
    mp = FiniteMapping((9, 4, 7, 1, 5), (0, 1, 0, 0, 2))
    rep = check_m_to_1(mp, 3)
    assert rep.verdict
    assert rep.exceptional_set == (4, 5)  # domain order, not sorted values


def test_census_verdict_matches_check_m_to_1():
    rng = random.Random("census")
    for _ in range(300):
        size = rng.randrange(1, 25)
        images = [rng.randrange(rng.randrange(1, size + 1)) for _ in range(size)]
        mp = FiniteMapping(range(size), images)
        census = fiber_census(mp.fiber_sizes())
        assert sum(census.values()) == len(set(images))
        for m in range(1, size + 1):
            want = check_m_to_1(mp, m).verdict
            assert fibers_verdict(census[m], size, m) == want
            assert verdict_from_histogram(mp.fiber_sizes(), size, m) == want


def _definition_report(domain, images, m):
    """Every Mto1Report field at m, straight from the definition: f is
    m-to-1 when exactly floor(#A/m) image points have fibers of size m, and
    the points outside those fibers are the exceptional set."""
    size = len(domain)
    sizes = {b: list(images).count(b) for b in set(images)}
    k = sum(1 for b in sizes if sizes[b] == m)
    verdict = k == size // m
    exc = ()
    if verdict and size % m:
        exc = tuple(a for a, b in zip(domain, images) if sizes[b] != m)
    return (m, verdict, k, size % m, exc, tuple(sorted(sizes.values())))


def _random_mappings():
    rng = random.Random("census-views")
    yield ("a",), (0,)                             # size 1
    yield tuple("abcdefg"), (3,) * 7               # constant
    yield tuple(range(9)), tuple(range(8, -1, -1))  # all singletons
    yield tuple(range(7)), (0, 0, 0, 1, 1, 1, 2)   # 7 mod 3 = 1 left over
    for _ in range(220):
        size = rng.randrange(1, 21)
        codomain = rng.randrange(1, size + 2)
        images = tuple(rng.randrange(codomain) for _ in range(size))
        domain = tuple(rng.sample(range(100), size))
        yield domain, images


def _as_index(domain, images):
    # codes 0..size-1 name the points; point() maps a code back
    return IndexMapping(np.arange(len(domain)), np.array(images),
                        lambda c: domain[c])


@pytest.mark.parametrize("build", [FiniteMapping, _as_index])
def test_census_views_match_a_definition_level_scan(build):
    seen_leftover = False
    for domain, images in _random_mappings():
        mp = build(domain, images)
        size = len(domain)
        want = {m for m in range(1, size + 1)
                if _definition_report(domain, images, m)[1]}
        assert admissible_m_set(mp) == want
        assert fiber_histogram(mp) == _definition_report(domain, images, 1)[5]
        for m in range(1, size + 1):
            rep = check_m_to_1(mp, m)
            got = (rep.m, rep.verdict, rep.k, rep.r, rep.exceptional_set,
                   rep.histogram)
            assert got == _definition_report(domain, images, m)
            assert type(rep.k) is int and type(rep.verdict) is bool
            seen_leftover |= rep.verdict and rep.r > 0
        with pytest.raises(ValueError):
            check_m_to_1(mp, size + 1)
    assert seen_leftover
