"""Fiber analysis of finite mappings: m-to-1 verdicts, exceptional sets, counting.

A mapping f on a finite set A is m-to-1 when exactly floor(#A/m) image
points have fibers of size m; the remaining #A mod m domain points are the
exceptional set.  Everything here is decided from the fiber census
{fiber size: count}, which answers every m at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np


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

    __slots__ = ("domain", "images", "_fibers", "_census", "_table")

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
        self._fibers = self._census = self._table = None

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

    def census(self):
        if self._census is None:
            self._census = fiber_census(self.fiber_sizes())
        return self._census

    def exceptional(self, m):
        """Domain points whose fiber size is not m, in domain order."""
        fib = self.fiber_sizes()
        return tuple(a for a, b in zip(self.domain, self.images)
                     if fib[b] != m)

    def restrict(self, points):
        table = self._table = self._table or self.as_table()  # built once
        return FiniteMapping(tuple(points), tuple(table[a] for a in points))

    def compose(self, outer):
        """outer o self, where outer is a dict or FiniteMapping."""
        table = outer.as_table() if isinstance(outer, FiniteMapping) else outer
        return FiniteMapping(self.domain, tuple(table[b] for b in self.images))


class IndexMapping:
    """A mapping held as numpy arrays of codes >= 0 (element indices, say):
    domain[i] maps to images[i], and np.bincount gives the census.
    point(code) names an exceptional point in a report."""

    __slots__ = ("domain", "images", "point", "_fibers", "_census")

    def __init__(self, domain, images, point):
        self.domain, self.images = np.asarray(domain), np.asarray(images)
        self.point = point
        self._fibers = np.bincount(self.images)
        counts = np.bincount(self._fibers)
        sizes = np.flatnonzero(counts[1:]) + 1
        self._census = Counter(dict(zip(sizes.tolist(),
                                        counts[sizes].tolist())))

    def __len__(self):
        return len(self.domain)

    def census(self):
        return self._census

    def exceptional(self, m):
        codes = self.domain[self._fibers[self.images] != m]
        return tuple(map(self.point, codes.tolist()))


def fiber_histogram(mapping):
    """Multiset of nonzero fiber sizes, as an ascending tuple."""
    return tuple(sorted(mapping.census().elements()))


def check_m_to_1(mapping, m):
    """Definition-level verdict, read from the mapping's census: are there
    floor(#A/m) fibers of size m?"""
    size = len(mapping)
    if not isinstance(m, int) or not 1 <= m <= size:
        raise ValueError(f"m must be an integer in [1, {size}], got {m}")
    k = mapping.census().get(m, 0)
    r = size % m
    verdict = fibers_verdict(k, size, m)
    exc = mapping.exceptional(m) if verdict and r else ()
    return Mto1Report(m, verdict, k, r, exc, fiber_histogram(mapping))


def admissible_m_set(mapping):
    """All m in [1, #A] for which the mapping is m-to-1 (possibly empty);
    only a fiber size that occurs can be one, as floor(#A/m) >= 1."""
    census, size = mapping.census(), len(mapping)
    return frozenset(m for m in census if fibers_verdict(census[m], size, m))


def sorted_row_censuses(values):
    """census[i, c]: how many distinct values occur exactly c times in row i
    of a 2-D array.  Rows are sorted, so the cost does not depend on the
    range of the values."""
    values = np.sort(values, axis=1)
    rows, width = values.shape
    starts = np.ones(values.shape, dtype=bool)
    starts[:, 1:] = values[:, 1:] != values[:, :-1]
    starts = np.flatnonzero(starts)
    runs = np.append(starts[1:], values.size) - starts
    return np.bincount(starts // width * (width + 1) + runs,
                       minlength=rows * (width + 1)).reshape(rows, width + 1)


def fiber_census(fib):
    """{fiber size: number of image points with a fiber of that size}, from a
    fiber Counter; one census answers every m in O(1)."""
    return Counter(fib.values())


def fibers_verdict(count, size, m):
    """The m-to-1 rule: a map on size points with count fibers of size m
    (census[m] of its census Counter) is m-to-1 iff count = floor(size/m).
    Elementwise on numpy arrays of counts and m."""
    return count * m == size - size % m


def verdict_from_histogram(fib, size, m):
    """check_m_to_1's verdict straight from a fiber Counter."""
    return fibers_verdict(fiber_census(fib)[m], size, m)


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


# the largest q whose q**q self-maps count_by_enumeration is asked to walk
ENUMERATION_MAX_Q = 6


def count_by_enumeration(q):
    """Exhaustive census over all q**q self-maps: {m: number of m-to-1 maps}.

    Oracle for count_formula; callers refuse q > ENUMERATION_MAX_Q.
    """
    totals = {m: 0 for m in range(1, q + 1)}
    for images in product(range(q), repeat=q):
        for m in admissible_m_set(FiniteMapping(range(q), images)):
            totals[m] += 1
    return totals
