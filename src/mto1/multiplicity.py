"""Fiber analysis of finite mappings: m-to-1 verdicts, exceptional sets, counting.

A mapping f on a finite set A is m-to-1 when exactly floor(#A/m) image
points have fibers of size m; the remaining #A mod m domain points are the
exceptional set.  Everything here is decided from the fiber histogram.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class Mto1Report:
    """Verdict for one multiplicity m.

    k counts image points whose fiber has size exactly m; r = #A mod m.
    The exceptional set is reported only for true verdicts, in domain order.
    """

    m: int
    verdict: bool
    k: int
    r: int
    exceptional_set: tuple
    histogram: tuple

    def to_json(self):
        return {
            "m": self.m,
            "verdict": self.verdict,
            "k": self.k,
            "r": self.r,
            "exceptional_set": [_token(a) for a in self.exceptional_set],
            "histogram": list(self.histogram),
        }


def _token(point):
    return point if isinstance(point, (int, str)) else str(point)


class FiniteMapping:
    """Total map on an explicit nonempty finite domain (parallel tuples)."""

    __slots__ = ("domain", "images", "_fibers")

    def __init__(self, domain, images):
        domain = tuple(domain)
        images = tuple(images)
        if not domain:
            raise ValueError("mapping domain must be nonempty")
        if len(domain) != len(images):
            raise ValueError("domain and images differ in length")
        if len(set(domain)) != len(domain):
            raise ValueError("domain points must be distinct")
        self.domain = domain
        self.images = images
        self._fibers = None

    @classmethod
    def from_table(cls, table):
        return cls(tuple(table.keys()), tuple(table.values()))

    @classmethod
    def from_function(cls, domain, fn):
        domain = tuple(domain)
        return cls(domain, tuple(fn(a) for a in domain))

    def __len__(self):
        return len(self.domain)

    def as_table(self):
        return dict(zip(self.domain, self.images))

    def fiber_sizes(self):
        if self._fibers is None:
            self._fibers = Counter(self.images)
        return self._fibers

    def restrict(self, points):
        table = self.as_table()
        return FiniteMapping(tuple(points), tuple(table[a] for a in points))

    def compose(self, outer):
        """outer o self, where outer is a dict or FiniteMapping."""
        table = outer.as_table() if isinstance(outer, FiniteMapping) else outer
        return FiniteMapping(self.domain, tuple(table[b] for b in self.images))


def fiber_histogram(mapping):
    """Multiset of nonzero fiber sizes, as an ascending tuple."""
    return tuple(sorted(mapping.fiber_sizes().values()))


def check_m_to_1(mapping, m):
    """Definition-level verdict: are there floor(#A/m) fibers of size m?"""
    size = len(mapping)
    if not isinstance(m, int) or not 1 <= m <= size:
        raise ValueError(f"m must be an integer in [1, {size}], got {m}")
    fib = mapping.fiber_sizes()
    k = sum(1 for c in fib.values() if c == m)
    r = size % m
    verdict = k * m == size - r
    if verdict and r:
        exc = tuple(a for a, b in zip(mapping.domain, mapping.images)
                    if fib[b] != m)
    else:
        exc = ()
    return Mto1Report(m, verdict, k, r, exc, tuple(sorted(fib.values())))


def admissible_m_set(mapping):
    """All m in [1, #A] for which the mapping is m-to-1 (possibly empty)."""
    return frozenset(m for m in range(1, len(mapping) + 1)
                     if check_m_to_1(mapping, m).verdict)


def fiber_census(fib):
    """{fiber size: number of image points with a fiber of that size}, from a
    fiber Counter; one census answers every m in O(1)."""
    return Counter(fib.values())


def census_verdict(census, size, m):
    """The m-to-1 rule on a census of a mapping with size domain points:
    exactly floor(size/m) fibers have size m."""
    return fibers_verdict(census.get(m, 0), size, m)


def fibers_verdict(count, size, m):
    """The m-to-1 rule from the number of fibers of size m; elementwise on
    numpy arrays of counts and m."""
    return count * m == size - size % m


def verdict_from_histogram(fib, size, m):
    """check_m_to_1's verdict straight from a fiber Counter."""
    return census_verdict(fiber_census(fib), size, m)


def count_formula(q, m):
    """Number of m-to-1 self-maps of a q-set, as an exact integer."""
    if not 1 <= m <= q:
        raise ValueError(f"m must be in [1, {q}], got {m}")
    k, r = divmod(q, m)
    num = math.factorial(q) ** 2 * (q - k) ** r
    den = (math.factorial(k) * math.factorial(r)
           * math.factorial(m) ** k * math.factorial(q - k))
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"count formula not integral at q={q}, m={m}")
    return count


def count_by_enumeration(q):
    """Exhaustive census over all q**q self-maps: {m: number of m-to-1 maps}.

    Oracle for count_formula; practical for q <= 6 or so.
    """
    totals = {m: 0 for m in range(1, q + 1)}
    for images in product(range(q), repeat=q):
        fib = Counter(images)
        for m in totals:
            if verdict_from_histogram(fib, q, m):
                totals[m] += 1
    return totals
