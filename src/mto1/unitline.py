"""Rational maps on the unit subgroup U_{q+1} of a quadratic extension and on
the projective line F_q + {infinity}: degree-one bijections, the a + 1/a
trace split, explicit 3-to-1 and 5-to-1 families with their polynomial
realizations, and the tower constructions that pull multiplicities back from
x^n acting on U_{q+1} or on F_q + {infinity}.

All code here lives inside F_{q^2}; the base field F_q is the subfield fixed
by the q-power Frobenius.  Every theorem hypothesis ("no roots in U",
"permutes U", "bijects onto the line") is scanned even when a lemma
guarantees it: the scan doubles as a test of the lemma.
"""

from __future__ import annotations

import math
from functools import partial, reduce

import numpy as np

from .criteria import HypothesisError
from .cyclotomic import CycloForm, star_verdicts
from .galois import (FieldElement, FieldError, Poly, eval_powers,
                     quadratic_base, relative_trace, subfield_indices)
from .multiplicity import fibers_verdict, sorted_row_censuses


class Infinity:
    """The extra point of the projective line; a singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __str__(self):
        return "inf"


INF = Infinity()


class RationalEvalError(ZeroDivisionError):
    """0/0 at a concrete point: the fixture is bad, there is no value."""


class RationalMap:
    """Quotient num/den of polynomials over one field, with the projective
    evaluation conventions (value at infinity by degree comparison)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if num.spec != den.spec:
            raise FieldError("num and den must share a field")
        if num.is_zero and den.is_zero:
            raise FieldError("num and den cannot both be zero")
        self.num = num
        self.den = den

    @property
    def spec(self):
        return self.num.spec

    @classmethod
    def from_string(cls, spec, text):
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise FieldError(f"bad rational map {text!r}; expected 'num/den'")
        return cls(Poly.from_string(spec, parts[0]),
                   Poly.from_string(spec, parts[1]))

    def __call__(self, x):
        return rat_eval(self, x)

    def __str__(self):
        return f"{self.num}/{self.den}"


def rat_eval(rmap, x):
    """Evaluate with the conventions: n/0 = infinity for n != 0; at infinity
    compare degrees, leading-coefficient ratio on a tie; 0/0 is an error."""
    spec = rmap.spec
    if x is INF:
        dn, dd = rmap.num.degree, rmap.den.degree
        if dn > dd:
            return INF
        if dn < dd:
            return spec.zero
        return (FieldElement(spec, rmap.num.leading_index())
                / FieldElement(spec, rmap.den.leading_index()))
    if not isinstance(x, FieldElement) or x.spec != spec:
        raise FieldError("point must be INF or an element of the map's field")
    nv = rmap.num.eval_index(x.index)
    dv = rmap.den.eval_index(x.index)
    if dv == 0:
        if nv == 0:
            raise RationalEvalError(f"0/0 at x = {x}")
        return INF
    return FieldElement(spec, spec.mul(nv, spec.inv(dv)))


class Deg1Map(RationalMap):
    """(a x + b)/(c x + d) with ad != bc, acting on the projective line."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d == b * c:
            raise FieldError("degenerate degree-one map: ad = bc")
        super().__init__(Poly.from_elements(a.spec, (b, a)),
                         Poly.from_elements(a.spec, (d, c)))
        self.a, self.b, self.c, self.d = a, b, c, d

    def compose(self, other):
        """self after other."""
        return Deg1Map(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self):
        return Deg1Map(self.d, -self.b, -self.c, self.a)

    def __repr__(self):
        return f"Deg1Map(({self.a})x + {self.b}) / (({self.c})x + {self.d})"


# -- base data of the quadratic extension --------------------------------------

def unit_subgroup_points(field):
    """U_{q+1} inside F_{q^2}, as element indices in dlog order."""
    q, _ = quadratic_base(field)
    q1 = field.q - 1
    step = q1 // (q + 1)
    return [field.exp_at(k * step) for k in range(q + 1)]


def base_trace(field, x, to_degree=1):
    """Trace from the subfield F_q of F_{q^2} down to GF(p^to_degree)."""
    _, half = quadratic_base(field)
    return relative_trace(x, half, to_degree)


def frob_q(field, x):
    """The q-power Frobenius of F_{q^2} (conjugation over F_q)."""
    _, half = quadratic_base(field)
    return FieldElement(field, field.frob(x.index, half))


# -- degree-one bijection lemmas -------------------------------------------------

def deg1_permutes_unit(dmap):
    """Shape test: (a x + b)/(c x + d) permutes U_{q+1} iff it is a scalar
    multiple of (beta^q x + alpha^q)/(alpha x + beta) with
    alpha^(q+1) != beta^(q+1)."""
    field = dmap.spec
    quadratic_base(field)  # raises unless field is a quadratic extension
    a, b, c, d = dmap.a, dmap.b, dmap.c, dmap.d
    conj = partial(frob_q, field)

    def norm_one(x):
        return (not x.is_zero) and (x * conj(x) == field.one)

    if not d.is_zero:
        if a.is_zero:
            return False
        # t*a = (t*d)^q and t*b = (t*c)^q for some t != 0
        ratio = a / conj(d)
        return (norm_one(ratio) and b * conj(d) == a * conj(c)
                and c * conj(c) != d * conj(d))
    if a.is_zero and not b.is_zero and not c.is_zero:
        return norm_one(b / conj(c))
    return False


def deg1_unit_to_line(dmap):
    """Shape test: the map carries U_{q+1} bijectively onto F_q + {INF} iff it
    is a scalar multiple of (beta x + beta^q)/(alpha x + alpha^q) with
    alpha, beta nonzero and alpha^(q-1) != beta^(q-1)."""
    field = dmap.spec
    quadratic_base(field)  # raises unless field is a quadratic extension
    a, b, c, d = dmap.a, dmap.b, dmap.c, dmap.d
    conj = partial(frob_q, field)
    if a.is_zero or c.is_zero:
        return False
    ratio = b / conj(a)
    if ratio.is_zero or ratio * conj(ratio) != field.one:
        return False
    if b * conj(c) != d * conj(a):
        return False
    return a * conj(c) != c * conj(a)


def _bijects(field, nums, dens, targets):
    """Do the values nums[i]/dens[i], element indices at the points of a
    scan, hit every one of targets (element indices, INF for infinity)
    exactly once?  A den of 0 gives INF and 0/0 raises RationalEvalError; the
    first miss or repeat, in point order, gives False."""
    mul, inv = field.mul, field.inv
    seen = set()
    for nv, dv in zip(nums, dens):
        if dv == 0:
            if nv == 0:
                raise RationalEvalError("0/0 in a bijection scan")
            key = INF
        else:
            key = mul(nv, inv(dv))
        if key not in targets or key in seen:
            return False
        seen.add(key)
    return len(seen) == len(targets)


def _values(points, *polys):
    """Each polynomial's values at the points (indices), a list per poly."""
    return [list(map(P.eval_index, points)) for P in polys]


def _line_values(rmap, line):
    """rmap's num and den values at the line's finite points, then at INF,
    where rat_eval's degree rule gives the value."""
    nums, dens = _values(line, rmap.num, rmap.den)
    at_inf = rat_eval(rmap, INF)
    if at_inf is INF:
        return nums + [1], dens + [0]
    return nums + [at_inf.index], dens + [1]


def permutes_unit_scan(rmap, field):
    """Exhaustive: does the rational map rmap permute U_{q+1}?"""
    units = unit_subgroup_points(field)
    return _bijects(field, *_values(units, rmap.num, rmap.den), set(units))


def unit_to_line_scan(rmap, field):
    """Exhaustive: does rmap map U_{q+1} bijectively onto F_q + {INF}?"""
    _, half = quadratic_base(field)
    units = unit_subgroup_points(field)
    return _bijects(field, *_values(units, rmap.num, rmap.den),
                    set(subfield_indices(field, half)) | {INF})


def line_to_unit_scan(rmap, field):
    """Exhaustive: does rmap map F_q + {INF} bijectively onto U_{q+1}?"""
    _, half = quadratic_base(field)
    return _bijects(field, *_line_values(rmap, subfield_indices(field, half)),
                    set(unit_subgroup_points(field)))


# -- the a + 1/a split in characteristic 2 ---------------------------------------

def halfplane_split(field):
    """For q = 2^n inside F_{q^2}: A_i = {c in F_q^* : Tr_{q/2}(1/c) = i}.

    Verifies a |-> a + 1/a is 2-to-1 from F_q - {0,1} onto A_0 and from
    U_{q+1} - {1} onto A_1, returning the sets and the fiber pairings.
    """
    if field.p != 2:
        raise HypothesisError("the a + 1/a split needs characteristic 2")
    q, half = quadratic_base(field)
    one = field.one
    a0, a1 = [], []
    for i in subfield_indices(field, half):
        if i == 0:
            continue
        c = FieldElement(field, i)
        t = base_trace(field, one / c)
        (a0 if t.is_zero else a1).append(c)

    def split_cover(points, target):
        pairs = {}
        for a in points:
            v = a + one / a
            pairs.setdefault(v.index, set()).add(a.index)
        if set(pairs.keys()) != {c.index for c in target}:
            return None
        if any(len(g) != 2 for g in pairs.values()):
            return None
        return pairs

    sub_pts = [FieldElement(field, i) for i in subfield_indices(field, half)
               if i != 0 and i != 1]
    unit_pts = [FieldElement(field, i) for i in unit_subgroup_points(field)
                if i != 1]
    pairs0 = split_cover(sub_pts, a0)
    pairs1 = split_cover(unit_pts, a1)
    ok = pairs0 is not None and pairs1 is not None
    return {"q": q, "A0": tuple(a0), "A1": tuple(a1),
            "pairs0": pairs0, "pairs1": pairs1, "two_to_one": ok}


# -- section-style rational families: 3-to-1 ------------------------------------
#
# The families below evaluate their polynomials on U_{q+1} as index arrays
# through eval_powers, one row per polynomial, and read every verdict from one
# census per row.  These values meet only closed-form predictions (traces,
# n mod 4), never another eval_powers result.

def _quotient_codes(field, num, den):
    """num/den as value codes, element indices with field.q for INF, from
    index arrays of num and den; 0/0 raises RationalEvalError."""
    if ((num == 0) & (den == 0)).any():
        raise RationalEvalError("0/0 on U_{q+1}")
    exp, log = field.arrays()
    codes = exp[(log[num] - log[den]) % (field.q - 1)]
    codes[num == 0] = 0
    codes[den == 0] = field.q
    return codes


def _traces(field, idx):
    """Tr_{q/2} of the F_q elements with indices idx, as 0/1."""
    _, n = quadratic_base(field)
    exp, log = field.arrays()
    logs = log[idx]
    tr = np.bitwise_xor.reduce(
        [exp[logs * 2 ** i % (field.q - 1)] for i in range(n)], axis=0)
    return np.where(idx == 0, 0, tr)


def _verdicts(census, size, ms):
    """fibers_verdict at ms[i] on row i of a census array."""
    ms = np.asarray(ms)
    return fibers_verdict(census[np.arange(len(ms)), ms], size, ms)


def g3_families(field, cs, trinomials=True):
    """The (c x^3 + x^2 + 1)/(x^3 + x + c) family on U_{q+1}, q = 2^n, for
    every c in cs: one record per c, as g3_family describes it.  num, den
    and g1 are index arrays with one row per c, each row gets one fiber
    census, and the trinomials of every c share their oracle calls."""
    if field.p != 2:
        raise HypothesisError("g3 family needs characteristic 2")
    q, n = quadratic_base(field)
    for c in cs:
        if c.spec != field or c.is_zero:
            raise HypothesisError("c must be a nonzero element of F_q")
        if frob_q(field, c) != c:
            raise HypothesisError("c must lie in the base field F_q")
    ci = np.array([c.index for c in cs])
    one, zero = np.ones_like(ci), np.zeros_like(ci)
    den, num = (eval_powers(field, np.stack(cols, axis=1), q - 1, q + 1)
                for cols in ((ci, one, zero, one), (one, zero, one, ci)))
    for c, row in zip(cs, den):
        if not row.all():
            raise HypothesisError(
                f"x^3 + x + c has a root in U_{q + 1} at c = {c}")

    exp, log = field.arrays()
    inv = exp[-log[ci] % (field.q - 1)]
    tr_shift = _traces(field, inv ^ 1)  # Tr(1 + 1/c)
    tr_inv = _traces(field, inv)
    g_m = np.where(tr_shift == 0, 1, 3)
    g_ok = _verdicts(sorted_row_censuses(_quotient_codes(field, num, den)),
                     q + 1, g_m)
    if n % 2 == 0:
        # companion g1 = x * (x^3+x+c)^((q-1)/3); 1-to-1 iff Tr(1/c)=0
        g1_logs = ((np.arange(q + 1) * (q - 1) + (q - 1) // 3 * log[den])
                   % (field.q - 1))
        g1_m = np.where(tr_inv == 0, 1, 3)
        g1_ok = _verdicts(sorted_row_censuses(g1_logs), q + 1, g1_m)
    if trinomials:
        # f_a = x^(3q)+x^(q+2)+cx^3 = x^3 (y^3+y+c)|y=x^(q-1),
        # f_b = cx^(3q)+x^(2q+1)+x^3 = x^3 (cy^3+y^2+1)|y=x^(q-1)
        forms = [CycloForm(field, 3, q - 1, Poly(field, coeffs))
                 for c in cs
                 for coeffs in ((c.index, 1, 0, 1), (1, 0, 1, c.index))]
        observed = star_verdicts(forms, [(1, 3)] * len(forms))

    records = []
    for i, c in enumerate(cs):
        rec = {"q": q, "n": n, "c": c, "tr_1_plus_inv": int(tr_shift[i]),
               "g_predicted_m": int(g_m[i]), "g_verdict": bool(g_ok[i]),
               "tr_inv": int(tr_inv[i])}
        if n % 2 == 0:
            rec["g1_predicted_m"] = int(g1_m[i])
            rec["g1_verdict"] = bool(g1_ok[i])
        if trinomials:
            one_pred = (n % 2 == 1) and rec["tr_inv"] == 1
            three_pred = rec["tr_inv"] == 0
            for name, (one_obs, three_obs) in (("f_a", observed[2 * i]),
                                               ("f_b", observed[2 * i + 1])):
                rec[f"{name}_1to1_predicted"] = one_pred
                rec[f"{name}_1to1_observed"] = one_obs
                rec[f"{name}_3to1_predicted"] = three_pred
                rec[f"{name}_3to1_observed"] = three_obs
        records.append(rec)
    return records


def g3_family(field, c, trinomials=True):
    """The (c x^3 + x^2 + 1)/(x^3 + x + c) family on U_{q+1}, q = 2^n.

    Predicted multiplicity from Tr_{q/2}(1 + 1/c): 0 -> 1-to-1, 1 -> 3-to-1.
    Also covers the companion g1 = x (x^3 + x + c)^((q-1)/3) for even n and,
    unless trinomials=False (full F_{q^2} scans get heavy for large n), the
    two trinomial realizations over F_{q^2}, each verified by scan.
    """
    return g3_families(field, [c], trinomials)[0]


# -- section-style rational families: 5-to-1 -------------------------------------

def quartic_rootless_lemma(field):
    """x^4 + x + 1 and x^4 + x^3 + 1 have no roots in U_{q+1} (char 2)."""
    if field.p != 2:
        raise HypothesisError("lemma lives in characteristic 2")
    q, _ = quadratic_base(field)
    return bool(eval_powers(field, [(1, 1, 0, 0, 1),    # x^4 + x + 1
                                    (1, 0, 0, 1, 1)],   # x^4 + x^3 + 1
                            q - 1, q + 1).all())


def g_permutation_lemma(field):
    """(x^5 + x^2 + x)/(x^4 + x^3 + 1) permutes U_{q+1} iff n is even; returns
    (predicted, observed) from the scan."""
    if field.p != 2:
        raise HypothesisError("lemma lives in characteristic 2")
    _, n = quadratic_base(field)
    num = Poly(field, (0, 1, 1, 0, 0, 1))  # x^5 + x^2 + x
    den = Poly(field, (1, 0, 0, 1, 1))     # x^4 + x^3 + 1
    g = RationalMap(num, den)
    predicted = n % 2 == 0
    observed = permutes_unit_scan(g, field)
    return predicted, observed


def g5_family(field):
    """The (x^4 + x + 1)/(x^5 + x^4 + x) family on U_{q+1}, q = 2^n:
    5-to-1 exactly when n = 2 mod 4, otherwise 1-to-1; plus the quintic
    polynomial realizations over F_{q^2}, all verified by scan."""
    if field.p != 2:
        raise HypothesisError("g5 family needs characteristic 2")
    q, n = quadratic_base(field)
    num = Poly(field, (1, 1, 0, 0, 1))       # x^4 + x + 1
    den = Poly(field, (0, 1, 0, 0, 1, 1))    # x^5 + x^4 + x
    predicted_m = 5 if n % 4 == 2 else 1
    values = eval_powers(field, [num.coeffs + (0,), den.coeffs], q - 1, q + 1)
    census = sorted_row_censuses(
        _quotient_codes(field, values[:1], values[1:]))
    record = {"q": q, "n": n, "g_predicted_m": predicted_m,
              "g_verdict": bool(_verdicts(census, q + 1, [predicted_m])[0])}

    h1 = Poly(field, (1, 0, 0, 1, 1))  # x^4 + x^3 + 1
    h2 = Poly(field, (0, 1, 1, 0, 0, 1))  # x^5 + x^2 + x
    checks = []  # (form, ((record key, m), ...)): one oracle pass for all
    if n % 2 == 0:
        # f1 = x^(4q+1)+x^(3q+2)+x^5 and f2 = x^(5q)+x^(2q+3)+x^(q+4)
        m_pred = math.gcd(5, q - 1)
        for name, h in (("f1", h1), ("f2", h2)):
            record[f"{name}_m"] = m_pred
            checks.append((CycloForm(field, 5, q - 1, h),
                           ((f"{name}_verdict", m_pred),)))
    if n >= 2:
        # f3 = x^(4q-1)+x^(3q)+x^3: 1-to-1 iff n odd, 3-to-1 iff n = 0 mod 4
        record["f3_1to1_predicted"] = n % 2 == 1
        record["f3_3to1_predicted"] = n % 4 == 0
        checks.append((CycloForm(field, 3, q - 1, h1),
                       (("f3_1to1_observed", 1), ("f3_3to1_observed", 3))))
    # f5a = x^(4q+1)+x^(q+4)+x^5 and f5b = x^(5q)+x^(4q+1)+x^(q+4):
    # 1-to-1 for odd n, 5-to-1 for even n
    pred_m5 = 1 if n % 2 else 5
    for name, h in (("f5a", num), ("f5b", den)):
        record[f"{name}_predicted_m"] = pred_m5
        checks.append((CycloForm(field, 5, q - 1, h),
                       ((f"{name}_verdict", pred_m5),)))
    verdicts = star_verdicts([form for form, _ in checks],
                             [[m for _, m in keys] for _, keys in checks])
    for (_, keys), row in zip(checks, verdicts):
        record.update(zip([key for key, _ in keys], row))
    return record


def transfer_families(field, base, c=None, d=3, k=1):
    """F = x^(k(d-1)) h_d(x^(q-1))^k f(x) for f from the 3-to-1 or 5-to-1
    quintic theorems; F inherits f's multiplicity when d is odd,
    (d, q+1) = 1 and (m0 + k(d-1), q-1) = 1 (m0 = 3 or 5).  Scan-verified."""
    q, n = quadratic_base(field)
    if d % 2 == 0 or math.gcd(d, q + 1) != 1:
        raise HypothesisError("need d odd with (d, q+1) = 1")
    hd = Poly(field, (1,) * d)
    if base == "f3":
        if n % 2 == 0 or n < 3:
            raise HypothesisError("F3 transfer needs odd n >= 3")
        m0 = 3
    elif base == "f5":
        if n % 4 != 2:
            raise HypothesisError("F5 transfer needs n = 2 mod 4")
        m0 = 5
    else:
        raise ValueError(f"unknown transfer base {base!r}")
    if math.gcd(m0 + k * (d - 1), q - 1) != 1:
        raise HypothesisError(f"({m0} + k(d-1), q-1) must be 1")
    if base == "f3":
        if c is None or c.is_zero or frob_q(field, c) != c:
            raise HypothesisError("need c in F_q^*")
        one = field.one
        h = Poly.from_elements(field, (c, one, field.zero, one))  # x^3+x+c
        predicted = base_trace(field, one / c).is_zero
    else:
        h = Poly(field, (1, 1, 0, 0, 1))  # x^4 + x + 1
        predicted = True
    form_f = CycloForm(field, m0, q - 1, h)
    form_big = CycloForm(field, m0 + k * (d - 1), q - 1, hd ** k * h)
    (observed,), (base_obs,) = star_verdicts([form_big, form_f],
                                             [[m0], [m0]])
    return {"base": base, "m": m0, "predicted": predicted,
            "observed": observed, "base_observed": base_obs,
            "agree": predicted == observed == base_obs}


# -- tower constructions ----------------------------------------------------------

def _pair_identity_scan(field, units, lvals, mvals, eps, t):
    """L(x) = eps * x^t * M(x)^q for all x in U_{q+1}?  lvals and mvals hold
    L and M at the points units."""
    _, half = quadratic_base(field)
    mul, pow_, frob = field.mul, field.pow, field.frob
    return all(lv == mul(eps.index, mul(pow_(i, t), frob(mv, half)))
               for i, lv, mv in zip(units, lvals, mvals))


def _clear_denominators(field, N, lv, mv, u=None):
    """M^u * N(L/M) = sum a_j L^j M^(u-j) at each point, from L's values lv
    and M's values mv there; u defaults to deg N and may exceed it (the unit
    tower clears with the pair's t, not the degree)."""
    if u is None:
        u = N.degree
    if u < N.degree:
        raise ValueError("clearing exponent below deg N")
    mul, pow_ = field.mul, field.pow
    return [reduce(field.add, [mul(a, mul(pow_(lj, j), pow_(mj, u - j)))
                               for j, a in enumerate(N.coeffs)], 0)
            for lj, mj in zip(lv, mv)]


def _tower_record(params, failed=None, predicted=None):
    """A tower record; "observed" and "agree" wait for observe_towers."""
    return {"params": params, "hypotheses_ok": failed is None,
            "failed": failed, "predicted": predicted, "observed": None,
            "agree": None}


def _tower_outcome(field, r, hvals, m1, m, params, predicted):
    """The record of f = x^r H(x^(q-1))^m1 with its predicted verdict at m,
    holding f's form and m for observe_towers, from H's values hvals at the
    unit_subgroup_points u_j; an H with roots in U fails the hypotheses
    instead.  h (deg <= q) interpolates H^m1 on U: c_i = sum_j h(u_j) u_j^-i,
    with no 1/(q+1) as q + 1 = 1 in F_q, is sum_j h(u_j) y^j at g^(i q(q-1))."""
    q, _ = quadratic_base(field)
    if not all(hvals):
        return _tower_record(params, "H has roots in U")
    values = [field.pow(v, m1) for v in hvals]
    h = Poly(field, eval_powers(field, [values], q * (q - 1), q + 1)[0].tolist())
    try:
        form = CycloForm(field, r, q - 1, h)
    except HypothesisError:
        form = None
    if form is None or form.hlogs != tuple(field.log[v] for v in values):
        raise RuntimeError("h does not interpolate H^m1 on U; arithmetic bug")
    rec = _tower_record(params, None, predicted)
    rec["form"], rec["m"] = form, m
    return rec


def observe_towers(records):
    """Fill in "observed" and "agree" of the tower records that hold a form
    (all over one field) from the F_{q^2}^* scan, in shared oracle calls;
    returns records."""
    pending = [rec for rec in records if "form" in rec]
    if pending:
        verdicts = star_verdicts([rec.pop("form") for rec in pending],
                                 [[rec.pop("m")] for rec in pending])
        for rec, (verdict,) in zip(pending, verdicts):
            rec["observed"] = verdict
            rec["agree"] = rec["predicted"] == verdict
    return records


def _line_tower_failure(field, half, pair, N, lv, mv):
    """The hypothesis scans shared by the towers through F_q + {INF}: deg N,
    t, the L/M pair identity and both bijections.  Returns the first failure
    string, or None when every scan passes.  lv and mv hold L and M on U,
    in unit_subgroup_points order; N and N^(q) are evaluated on the line."""
    L, M, eps, t = pair
    if N.degree < 1:
        return "deg N < 1"
    if t < max(L.degree, M.degree):
        return "t < max(deg L, deg M)"
    units, line = unit_subgroup_points(field), subfield_indices(field, half)
    # both polynomials must satisfy P = eps x^t P^q on U, with the same eps, t
    for name, vals in (("L", lv), ("M", mv)):
        if not _pair_identity_scan(field, units, vals, vals, eps, t):
            return f"{name} != eps x^t {name}^q on U"
    try:
        if not _bijects(field, lv, mv, set(line) | {INF}):
            return "L/M is not a bijection U -> line"
    except RationalEvalError:
        return "L/M hits 0/0 on U"
    nq = RationalMap(N.frobenius(half), N)
    try:
        if not _bijects(field, *_line_values(nq, line), set(units)):
            return "N^(q)/N is not a bijection line -> U"
    except RationalEvalError:
        return "N^(q)/N hits 0/0 on the line"
    return None


def tower_unit_predict(field, inner, outer, n, r, m):
    """Tower through U_{q+1}: with inner = (L1, M1, eps1, t1) and outer =
    (L2, M2, eps2, t2) both permuting U_{q+1} as L/M quotients, the form
    f = x^r H(x^(q-1))^m1 built from H = M1^(n t2) (M2 o x^n o L1/M1)
    is m-to-1 on F_{q^2}^* iff m1 | m and (n, q+1) = m/m1.

    Hypothesis failures are reported in the record, not raised: the scans are
    themselves the object under test.  A passing record holds f's form
    until observe_towers fills in the scan's verdict, as for the other two
    towers.
    """
    q, half = quadratic_base(field)
    L1, M1, eps1, t1 = inner
    L2, M2, eps2, t2 = outer
    m1 = math.gcd(r, q - 1)
    params = {"n": n, "r": r, "m": m, "m1": m1}

    units = unit_subgroup_points(field)
    values = {}
    for name, (L, M, eps, t) in (("inner", inner), ("outer", outer)):
        if t < M.degree:
            return _tower_record(params, f"{name}: t < deg M")
        lv, mv = values[name] = _values(units, L, M)
        if not all(mv):
            return _tower_record(params, f"{name}: M has roots in U")
        if not _pair_identity_scan(field, units, lv, mv, eps, t):
            return _tower_record(params, f"{name}: L != eps x^t M^q on U")
        if not _bijects(field, lv, mv, set(units)):
            return _tower_record(params, f"{name}: L/M does not permute U")
    if (r // m1) % (q + 1) != (n * t1 * t2) % (q + 1):
        return _tower_record(params, "congruence r/m1 = n t1 t2 mod q+1")
    if not 1 <= m <= m1 * (q + 1):
        return _tower_record(params, "m out of range")

    lv, mv = ([field.pow(v, n) for v in vals] for vals in values["inner"])
    H = _clear_denominators(field, M2, lv, mv, u=t2)
    predicted = m % m1 == 0 and math.gcd(n, q + 1) == m // m1
    return _tower_outcome(field, r, H, m1, m, params, predicted)


def tower_line_predict(field, pair, N, n, r, m):
    """Tower through F_q + {INF}: pair = (L, M, eps, t) with L/M a bijection
    U_{q+1} -> F_q + {INF} (both L and M conjugate-symmetric with the same
    eps, t), and N with N^(q)/N a bijection F_q + {INF} -> U_{q+1}.  Then
    f = x^r H(x^(q-1))^m1, H = M^(n u) (N o x^n o L/M), is m-to-1 on
    F_{q^2}^* iff m = m1 and (n, q-1) = 1, or (n, q-1) = m/m1 >= 3 with
    2(q-1) < m."""
    q, half = quadratic_base(field)
    L, M, eps, t = pair
    u = N.degree
    m1 = math.gcd(r, q - 1)
    params = {"n": n, "r": r, "m": m, "m1": m1, "u": u}

    lv, mv = _values(unit_subgroup_points(field), L, M)
    failed = _line_tower_failure(field, half, pair, N, lv, mv)
    if failed:
        return _tower_record(params, failed)
    if (r // m1) % (q + 1) != (n * t * u) % (q + 1):
        return _tower_record(params, "congruence r/m1 = n t u mod q+1")
    if not 1 <= m <= m1 * (q + 1):
        return _tower_record(params, "m out of range")

    H = _clear_denominators(field, N, [field.pow(v, n) for v in lv],
                            [field.pow(v, n) for v in mv])
    g = math.gcd(n, q - 1)
    predicted = (m == m1 and g == 1) or (
        m % m1 == 0 and g == m // m1 and g >= 3 and 2 * (q - 1) < m)
    return _tower_outcome(field, r, H, m1, m, params, predicted)


def tower_gbar_predict(field, pair, N, alpha, r):
    """The final tower: gbar = x + 1/(x + alpha) + 1/(x + alpha^q) replaces
    x^n on F_q + {INF} (q even, alpha outside F_q).  With H = h2^u (N o gbar
    o L/M), f = x^r H(x^(q-1))^m1 is m1-to-1 on F_{q^2}^* iff
    alpha + alpha^q = 1."""
    q, half = quadratic_base(field)
    if field.p != 2:
        return _tower_record({"r": r}, "q must be even")
    L, M, eps, t = pair
    u = N.degree
    m1 = math.gcd(r, q - 1)
    aq = frob_q(field, alpha)
    sigma = alpha + aq
    params = {"r": r, "m1": m1, "u": u, "sigma_is_one": sigma == field.one}
    if aq == alpha:
        return _tower_record(params, "alpha lies in F_q")
    lv, mv = _values(unit_subgroup_points(field), L, M)
    failed = _line_tower_failure(field, half, pair, N, lv, mv)
    if failed:
        return _tower_record(params, failed)
    if (r // m1) % (q + 1) != (3 * t * u) % (q + 1):
        return _tower_record(params, "congruence r/m1 = 3 t u mod q+1")

    si, pi = sigma.index, (alpha * aq).index
    # gbar o L/M = h1/h2: the cubics (sigma, pi, sigma, 1) and (pi, sigma, 1)
    # cleared in (L, M)
    h1, h2 = (_clear_denominators(field, Poly(field, cs), lv, mv, u=3)
              for cs in ((si, pi, si, 1), (pi, si, 1)))
    H = _clear_denominators(field, N, h1, h2)
    return _tower_outcome(field, r, H, m1, m1, params, sigma == field.one)


# -- ready-made (L, M, eps, t) pairs ----------------------------------------------

def unit_pair_deg1(field, gamma, delta):
    """(delta^q x + gamma^q, gamma x + delta, 1, 1): permutes U_{q+1} iff
    gamma^(q+1) != delta^(q+1)."""
    gq, dq = frob_q(field, gamma), frob_q(field, delta)
    L = Poly.from_elements(field, (gq, dq))
    M = Poly.from_elements(field, (delta, gamma))
    return L, M, field.one, 1


def unit_pair_g3(field, c):
    """(c x^3 + x^2 + 1, x^3 + x + c, 1, 3): permutes U_{q+1} iff
    Tr_{q/2}(1 + 1/c) = 0 (q even)."""
    one = field.one
    L = Poly.from_elements(field, (one, field.zero, one, c))
    M = Poly.from_elements(field, (c, one, field.zero, one))
    return L, M, field.one, 3


def line_pair_deg1(field, gamma, delta):
    """(gamma x + gamma^q, delta x + delta^q, 1, 1): bijects U_{q+1} onto
    F_q + {INF} iff gamma^(q-1) != delta^(q-1) (gamma, delta nonzero)."""
    L = Poly.from_elements(field, (frob_q(field, gamma), gamma))
    M = Poly.from_elements(field, (frob_q(field, delta), delta))
    return L, M, field.one, 1


def line_poly_deg1(field, alpha, beta):
    """N = alpha x + beta; N^(q)/N bijects the line onto U_{q+1} iff
    alpha^(q-1) != beta^(q-1) (both nonzero)."""
    return Poly.from_elements(field, (beta, alpha))


def line_poly_rk(field, alpha, beta, gamma, delta, k):
    """N = gamma (alpha x + beta)^k + delta (alpha^q x + beta^q)^k, the k-step
    tower poly; bijects when (k, q+1) = 1, alpha^(q-1) != beta^(q-1) and
    gamma^(q+1) != delta^(q+1)."""
    base1 = Poly.from_elements(field, (beta, alpha)) ** k
    base2 = Poly.from_elements(
        field, (frob_q(field, beta), frob_q(field, alpha))) ** k
    return base1.scale(gamma) + base2.scale(delta)
