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
from functools import partial
from typing import NamedTuple

import numpy as np

from .criteria import HypothesisError
from .cyclotomic import (CycloForm, coeff_rows, forms_from_logs,
                         star_verdicts, u_ell_logs, u_ell_values)
from .galois import (FieldElement, FieldError, FieldSpec, Poly, eval_powers,
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
    exp, log, q1 = field.exp, field.log, field.q - 1
    seen = set()
    for nv, dv in zip(nums, dens):
        if dv == 0:
            if nv == 0:
                raise RationalEvalError("0/0 in a bijection scan")
            key = INF
        else:
            key = exp[log[nv] - log[dv] + q1] if nv else 0
        if key not in targets or key in seen:
            return False
        seen.add(key)
    return len(seen) == len(targets)


def _index(x):
    """An element's index: the public functions take FieldElements or
    indices, the scans below work on indices."""
    return x.index if isinstance(x, FieldElement) else x


def _unit_values(field, *polys):
    """Each polynomial's values on U_{q+1}, in unit_subgroup_points order:
    one u_ell_values pass (s = q-1), a list per poly."""
    q, _ = quadratic_base(field)
    return u_ell_values(field, q - 1, coeff_rows(polys)).tolist()


def _line_values(field, num, den):
    """num's and den's values on the line: at the points of subfield_indices
    (0, then F_q^*, the u_ell_values points at s = q+1), then at INF, where
    rat_eval's degree rule gives num/den's value."""
    q, _ = quadratic_base(field)
    rows = u_ell_values(field, q + 1, coeff_rows([num, den])).tolist()
    nums, dens = ([P.coeffs[0] if P.coeffs else 0] + row
                  for P, row in zip((num, den), rows))
    if num.degree > den.degree:
        return nums + [1], dens + [0]
    at_inf = 0 if num.degree < den.degree else field.mul(
        num.leading_index(), field.inv(den.leading_index()))
    return nums + [at_inf], dens + [1]


def permutes_unit_scan(rmap, field):
    """Exhaustive: does the rational map rmap permute U_{q+1}?"""
    return _bijects(field, *_unit_values(field, rmap.num, rmap.den),
                    set(unit_subgroup_points(field)))


def unit_to_line_scan(rmap, field):
    """Exhaustive: does rmap map U_{q+1} bijectively onto F_q + {INF}?"""
    _, half = quadratic_base(field)
    return _bijects(field, *_unit_values(field, rmap.num, rmap.den),
                    set(subfield_indices(field, half)) | {INF})


def line_to_unit_scan(rmap, field):
    """Exhaustive: does rmap map F_q + {INF} bijectively onto U_{q+1}?"""
    return _bijects(field, *_line_values(field, rmap.num, rmap.den),
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
    # F's h is hd^k h: its value logs are k log h_d + log h on U
    hlogs, hdlogs = u_ell_logs(field, q - 1, u_ell_values(
        field, q - 1, coeff_rows([h, hd])))
    form_f = CycloForm(field, m0, q - 1, h, hlogs.tolist())
    form_big = forms_from_logs(field, m0 + k * (d - 1), q - 1,
                               [k * hdlogs + hlogs])[0]
    (observed,), (base_obs,) = star_verdicts([form_big, form_f],
                                             [[m0], [m0]])
    return {"base": base, "m": m0, "predicted": predicted,
            "observed": observed, "base_observed": base_obs,
            "agree": predicted == observed == base_obs}


# -- tower constructions ----------------------------------------------------------
#
# The towers work on element indices: a pair (L, M, eps, t) holds L and M as
# Polys and eps as an index (the public functions also take FieldElements),
# L, M and N are evaluated on U_{q+1} and on the line by u_ell_values, and
# the scans and H's denominator clearing are scalar passes over those values.

def _pair_identity_scan(field, lvals, mvals, eps, t):
    """L(x) = eps * x^t * M(x)^q for all x in U_{q+1}?  lvals and mvals hold
    L and M at the unit_subgroup_points u_j = g^(j(q-1)), eps is an index;
    on logs, log L(u_j) = log eps + t j (q-1) + q log M(u_j)."""
    if not eps:
        return not any(lvals)
    q, _ = quadratic_base(field)
    log, q1 = field.log, field.q - 1
    le = log[eps]
    return all(lv == 0 if mv == 0 else lv != 0 and (
        log[lv] - le - t * j * (q - 1) - q * log[mv]) % q1 == 0
        for j, (lv, mv) in enumerate(zip(lvals, mvals)))


def _clear_denominators(field, N, lv, mv, u=None):
    """M^u * N(L/M) = sum a_j L^j M^(u-j) at each point, from L's values lv
    and M's values mv there; u defaults to deg N and may exceed it (the unit
    tower clears with the pair's t, not the degree).  A scalar pass on logs:
    the points are few, so a numpy pass would cost more than it saves."""
    if u is None:
        u = N.degree
    if u < N.degree:
        raise ValueError("clearing exponent below deg N")
    exp, log, add, q1 = field.exp, field.log, field.add, field.q - 1
    terms = [(j, log[a]) for j, a in enumerate(N.coeffs) if a]
    out = []
    for lval, mval in zip(lv, mv):
        ll, lm, acc = log[lval], log[mval], 0
        for j, la in terms:  # a zero zeroes its positive powers; 0^0 = 1
            if (lval or not j) and (mval or j == u):
                acc = add(acc, exp[(la + j * ll + (u - j) * lm) % q1])
        out.append(acc)
    return out


class PendingForm(NamedTuple):
    """f = x^r h(x^(q-1)) over a field F_{q^2}, with h known by its value
    logs on U_(q+1) (unit_subgroup_points order) until tower_forms
    interpolates it."""

    field: FieldSpec
    r: int
    logs: list


def _tower_record(params, failed=None, predicted=None):
    """A tower record; "observed" and "agree" wait for observe_towers."""
    return {"params": params, "hypotheses_ok": failed is None,
            "failed": failed, "predicted": predicted, "observed": None,
            "agree": None}


def _tower_outcome(field, r, hvals, m1, m, params, predicted):
    """The record of f = x^r H(x^(q-1))^m1 with its predicted verdict at m,
    from H's values hvals (indices) at the unit_subgroup_points u_j; an H
    with roots in U fails the hypotheses instead.  A passing record holds
    f under "form" as a PendingForm with m1 log H, the logs of H^m1 on U
    (U = U_(q+1) is the form's U_ell), and m, both for observe_towers; no
    numpy call and no interpolation happen here."""
    if not all(hvals):
        return _tower_record(params, "H has roots in U")
    log = field.log
    rec = _tower_record(params, None, predicted)
    rec["form"] = PendingForm(field, r, [m1 * log[v] for v in hvals])
    rec["m"] = m
    return rec


def tower_forms(pending):
    """The CycloForms of PendingForms over one field: h is the interpolant
    on U of degree <= q of each one's logs, all from one forms_from_logs
    step, which checks every h there through u_ell_values (RuntimeError if
    one misses)."""
    q, _ = quadratic_base(pending[0].field)
    return forms_from_logs(pending[0].field, [p.r for p in pending], q - 1,
                           [p.logs for p in pending])


def observe_towers(records):
    """Fill in "observed" and "agree" of the tower records that hold a form
    (all over one field): one tower_forms step over every pending record,
    then the F_{q^2}^* scan in shared oracle calls; returns records."""
    pending = [rec for rec in records if "form" in rec]
    if pending:
        forms = tower_forms([rec["form"] for rec in pending])
        verdicts = star_verdicts(forms, [[rec.pop("m")] for rec in pending])
        for rec, (verdict,) in zip(pending, verdicts):
            del rec["form"]
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
        if not _pair_identity_scan(field, vals, vals, _index(eps), t):
            return f"{name} != eps x^t {name}^q on U"
    try:
        if not _bijects(field, lv, mv, set(line) | {INF}):
            return "L/M is not a bijection U -> line"
    except RationalEvalError:
        return "L/M hits 0/0 on U"
    try:
        if not _bijects(field, *_line_values(field, N.frobenius(half), N),
                        set(units)):
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
    lv1, mv1, lv2, mv2 = _unit_values(field, L1, M1, L2, M2)
    for name, (_, M, eps, t), lv, mv in (("inner", inner, lv1, mv1),
                                         ("outer", outer, lv2, mv2)):
        if t < M.degree:
            return _tower_record(params, f"{name}: t < deg M")
        if not all(mv):
            return _tower_record(params, f"{name}: M has roots in U")
        if not _pair_identity_scan(field, lv, mv, _index(eps), t):
            return _tower_record(params, f"{name}: L != eps x^t M^q on U")
        if not _bijects(field, lv, mv, set(units)):
            return _tower_record(params, f"{name}: L/M does not permute U")
    if (r // m1) % (q + 1) != (n * t1 * t2) % (q + 1):
        return _tower_record(params, "congruence r/m1 = n t1 t2 mod q+1")
    if not 1 <= m <= m1 * (q + 1):
        return _tower_record(params, "m out of range")

    H = _clear_denominators(field, M2, [field.pow(v, n) for v in lv1],
                            [field.pow(v, n) for v in mv1], u=t2)
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

    lv, mv = _unit_values(field, L, M)
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
    alpha = _index(alpha)
    aq = field.frob(alpha, half)
    si, pi = field.add(alpha, aq), field.mul(alpha, aq)
    params = {"r": r, "m1": m1, "u": u, "sigma_is_one": si == 1}
    if aq == alpha:
        return _tower_record(params, "alpha lies in F_q")
    lv, mv = _unit_values(field, L, M)
    failed = _line_tower_failure(field, half, pair, N, lv, mv)
    if failed:
        return _tower_record(params, failed)
    if (r // m1) % (q + 1) != (3 * t * u) % (q + 1):
        return _tower_record(params, "congruence r/m1 = 3 t u mod q+1")

    # gbar o L/M = h1/h2: the cubics (sigma, pi, sigma, 1) and (pi, sigma, 1)
    # cleared in (L, M)
    h1, h2 = (_clear_denominators(field, Poly(field, cs), lv, mv, u=3)
              for cs in ((si, pi, si, 1), (pi, si, 1)))
    H = _clear_denominators(field, N, h1, h2)
    return _tower_outcome(field, r, H, m1, m1, params, si == 1)


# -- ready-made (L, M, eps, t) pairs ----------------------------------------------

def unit_pair_deg1(field, gamma, delta):
    """(delta^q x + gamma^q, gamma x + delta, 1, 1): permutes U_{q+1} iff
    gamma^(q+1) != delta^(q+1).  gamma and delta are FieldElements or
    indices; the pair holds indices."""
    _, half = quadratic_base(field)
    gamma, delta = _index(gamma), _index(delta)
    L = Poly(field, (field.frob(gamma, half), field.frob(delta, half)))
    return L, Poly(field, (delta, gamma)), 1, 1


def unit_pair_g3(field, c):
    """(c x^3 + x^2 + 1, x^3 + x + c, 1, 3): permutes U_{q+1} iff
    Tr_{q/2}(1 + 1/c) = 0 (q even)."""
    c = _index(c)
    return Poly(field, (1, 0, 1, c)), Poly(field, (c, 1, 0, 1)), 1, 3


def line_pair_deg1(field, gamma, delta):
    """(gamma x + gamma^q, delta x + delta^q, 1, 1): bijects U_{q+1} onto
    F_q + {INF} iff gamma^(q-1) != delta^(q-1) (gamma, delta nonzero)."""
    _, half = quadratic_base(field)
    L, M = (Poly(field, (field.frob(x, half), x))
            for x in (_index(gamma), _index(delta)))
    return L, M, 1, 1


def line_poly_deg1(field, alpha, beta):
    """N = alpha x + beta; N^(q)/N bijects the line onto U_{q+1} iff
    alpha^(q-1) != beta^(q-1) (both nonzero)."""
    return Poly(field, (_index(beta), _index(alpha)))


def line_poly_rk(field, alpha, beta, gamma, delta, k):
    """N = gamma (alpha x + beta)^k + delta (alpha^q x + beta^q)^k, the k-step
    tower poly; bijects when (k, q+1) = 1, alpha^(q-1) != beta^(q-1) and
    gamma^(q+1) != delta^(q+1).  The second power is the first's conjugate."""
    _, half = quadratic_base(field)
    base = Poly(field, (_index(beta), _index(alpha))) ** k
    return (Poly(field, (_index(gamma),)) * base
            + Poly(field, (_index(delta),)) * base.frobenius(half))
