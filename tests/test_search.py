"""Form search: hit correctness, completeness, budget and memory contract."""

import itertools
import tracemalloc

import pytest

from mto1.criteria import HypothesisError
from mto1.cyclotomic import CycloForm, brute_verdict_star
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
], ids=["F7", "F13", "F16", "F25"])
def test_search_completeness_against_plain_enumeration(field, s, deg, m):
    # every (r, h) the search reports, and nothing else, is m-to-1
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


@pytest.mark.slow
def test_search_f29_finds_paper_h():
    spec = build_field(29)
    hits = search_forms(spec, 4, 5, 12)
    assert {"r": 2, "h": "1,0,0,15,1,1", "m": 12, "m1": 2,
            "verified": True} in hits
    assert all(h["verified"] for h in hits)
