"""Deterministic search for x^r h(x^s) forms hitting a target multiplicity.

The space is h = 1 + c1 x + ... + cD x^D (constant term normalized to 1:
scaling h by a nonzero constant composes f with a permutation and cannot
change any verdict, and an h with h(0) = 0 is a smaller-degree form with a
bigger r).  As x^r h(w^s x^s) = w^-r f(w x), one h per orbit of
h -> h(zeta x), zeta in U_ell, is filtered for rootlessness on U_ell and
pushed through the subgroup prediction for every admissible r; each hit is
expanded through its orbit, and every expanded hit is re-verified by brute
force before it is reported: cyclotomic.star_censuses evaluates f over all
of F_q^* from h's coefficients, independently of the kernel, and finds any
root of h on U_ell.  Completeness rests on the symmetry; no hit does.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .criteria import HypothesisError
from .cyclotomic import conjunct_rule, star_censuses
from .galois import Poly
from .multiplicity import fibers_verdict


class BudgetError(RuntimeError):
    """The candidate space exceeds the configured budget."""


DEFAULT_BUDGET = 1 << 25

# (candidate, fiber slot) cells per enumeration chunk: a chunk holds
# CHUNK_CELLS // (ell * max m1) candidates, which bounds both the grid of h's
# values on U_ell and the per-row fiber table of the g-check; re-verification
# checks CHUNK_CELLS // (q-1) hits per oracle call
CHUNK_CELLS = 1 << 17


def admissible_r_values(q, s, m, r_values=None):
    """(r, m1, m2) for each r in [1, q-1] (or in r_values) that passes
    conjunct_rule at the target m, with g's conjunct read as m2 <= ell: the
    g-check remains per-h."""
    ell = (q - 1) // s
    out = []
    for r in (r_values if r_values is not None else range(1, q)):
        m1 = math.gcd(r, s)
        if not conjunct_rule(s, ell, m1, m, lambda m2: m2 <= ell):
            out.append((r, m1, m // m1))
    return out


def search_forms(spec, s, deg, m, r_values=None, budget=DEFAULT_BUDGET):
    """All (r, h) with h in the normalized degree-<=deg space such that
    x^r h(x^s) is m-to-1 on F_q^*; hits sorted by (h coefficients, r)."""
    q = spec.q
    if s < 1 or (q - 1) % s:
        raise ValueError(f"s = {s} must be a positive divisor of q-1 = {q - 1}")
    if deg < 0:
        raise ValueError(f"deg = {deg} must be >= 0")
    if m < 1:
        raise ValueError(f"m = {m} must be >= 1")
    bad_r = [r for r in r_values or () if not 1 <= r < q]
    if bad_r:
        raise ValueError(f"r = {bad_r[0]} is outside [1, q-1] = [1, {q - 1}]")
    repeated = [r for r, n in Counter(r_values or ()).items() if n > 1]
    if repeated:
        raise ValueError(f"r = {repeated[0]} is given more than once")
    space = q ** deg
    if space > budget:
        raise BudgetError(
            f"search space {q}^{deg} = {space} exceeds budget {budget}")
    rs = admissible_r_values(q, s, m, r_values)
    if not rs:
        return []
    found = _kernel(spec, s, deg, rs)
    # str(Poly)'s tokens as a list, which indexes faster than the memo
    tokens = [spec.tokens[i] for i in range(q if found else 0)]
    rows = max(1, CHUNK_CELLS // (q - 1))
    hits = []
    for lo in range(0, len(found), rows):
        chunk = [(Poly(spec, coeffs), r) for coeffs, r in found[lo:lo + rows]]
        hits += [{"r": r, "h": ",".join([tokens[c] for c in h.coeffs]), "m": m,
                  "m1": math.gcd(r, s), "verified": ok}
                 for (h, r), ok in zip(chunk, _reverify(spec, s, m, chunk))]
    return hits


def _reverify(spec, s, m, found):
    """The oracle's m-to-1 verdict for each (h, r) in found, in one call; if
    some h has a root on U_ell, hit by hit, and a hit with a root fails."""
    try:
        census = star_censuses(spec, s, [h for h, _ in found],
                               [[r] for _, r in found])[1]
    except HypothesisError:
        return [False] if len(found) == 1 else [
            ok for hit in found for ok in _reverify(spec, s, m, [hit])]
    return fibers_verdict(census[:, 0, m], spec.q - 1, m).tolist()


def _representatives(q, s, deg, rows, exp):
    """Rows (c1, ..., cD), at most rows per chunk, meeting every orbit: h = 1,
    then per leading index i0, c1..c(i0-1) = 0, c_i0 = g^a, a < s*gcd(i0,ell)
    (rotating by g^(s*t) adds i0*s*t to log c_i0, a multiple of that mod
    q-1), and the later c free.  An orbit whose stabiliser is smaller than
    gcd(i0, ell) is met more than once."""
    ell = (q - 1) // s
    yield np.zeros((1, deg), dtype=np.int64)
    for i0 in range(1, deg + 1):
        lead = s * math.gcd(i0, ell)
        qpow = q ** np.arange(deg - i0, dtype=np.int64)
        total = lead * q ** (deg - i0)
        for lo in range(0, total, rows):
            ks = np.arange(lo, min(lo + rows, total), dtype=np.int64)
            coeffs = np.zeros((len(ks), deg), dtype=np.int64)
            coeffs[:, i0 - 1] = exp[ks % lead]
            coeffs[:, i0:] = ks[:, None] // lead // qpow % q
            yield coeffs


def _kernel(spec, s, deg, rs):
    """Sorted (coeffs, r) for every h rootless on U_ell whose
    g = x^r1 h(x)^s1 has exactly ell - ell % m2 points of U_ell in fibers of
    size m2, for each admissible (r, m1, m2).

    Only the _representatives are scanned: h(g^(s*t) x) is h(u_(j+t)) at
    u_j, so each key below moves by -r*t and the check holds on a whole
    orbit or nowhere.  Hits are expanded through the ell rotations
    c_i -> c_i * g^(i*s*t), then deduped and sorted by one np.unique.

    Each term c * u_j^i is an exp/log lookup; terms are summed as base-p
    digit vectors mod p and recombined with the place values, so one path
    serves prime and extension fields.  g(u_j) lies in U_(ell*m1) at
    position (r*j + log h(u_j)) mod ell*m1, and one bincount over those
    positions, offset per row, gives every point's fiber size.
    """
    p, n, q = spec.p, spec.n, spec.q
    q1 = q - 1
    ell = q1 // s
    exp = np.array(spec.exp, dtype=np.int64)
    log = np.array(spec.log, dtype=np.int64)
    place = p ** np.arange(n, dtype=np.int64)
    dtype = np.min_scalar_type(2 * p - 2)  # one digit sum before the mod
    digits = (np.arange(q)[:, None] // place % p).astype(dtype)
    j = np.arange(ell, dtype=np.int64)
    unit_logs = np.arange(deg + 1)[:, None] * s * j % q1  # log u_j^i
    kq = q ** np.arange(deg, -1, -1, dtype=np.int64)  # base q: c1..cD, r
    rows = max(1, CHUNK_CELLS // (ell * max(m1 for _, m1, _ in rs)))
    keys = [np.zeros(0, dtype=np.int64)]
    for coeffs in _representatives(q, s, deg, rows, exp):
        acc = np.zeros((len(coeffs), ell, n), dtype=dtype)
        acc[:, :, 0] = 1  # the constant term
        for i in range(1, deg + 1):
            c = coeffs[:, i - 1]
            terms = exp[log[c][:, None] + unit_logs[i]]
            terms[c == 0] = 0  # log[0] = -1 looked up a stray entry
            acc += digits[terms]
            acc %= p
        vals = acc @ place
        ok = (vals != 0).all(axis=1)
        coeffs, hl = coeffs[ok], log[vals[ok]]
        for r, m1, m2 in rs:
            span = ell * m1
            key = (r * j + hl) % span + span * np.arange(len(hl))[:, None]
            sizes = np.bincount(key.ravel())[key]
            hit = coeffs[(sizes == m2).sum(axis=1) == ell - ell % m2]
            turned = np.where(hit[:, None] > 0,
                              exp[log[hit][:, None] + unit_logs[1:].T], 0)
            keys.append((turned @ kq[:-1]).ravel() + r)
    found = (np.unique(np.concatenate(keys))[:, None] // kq % q).T.tolist()
    return list(zip(zip(itertools.repeat(1), *found[:-1]), found[-1]))
