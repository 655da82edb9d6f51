"""The x^r * h(x^s) theory on F_q^*: reduction to the s-th power subgroup,
multiplicity predictions, monomial-like specializations, and lifts.

A CycloForm bundles (field, r, s, h) with s | q-1 and h rootless on the
subgroup U_ell, ell = (q-1)/s; that rootlessness is assumed by every
prediction, so it is checked eagerly at construction.  The companion map
g(x) = x^r1 * h(x)^s1 on U_ell (r1 = r/(r,s), s1 = s/(r,s)) drives all
verdicts; brute-force scans of f itself act as the oracle.

There is one oracle, `star_censuses`: it evaluates h(x^s) at every x in
F_q^* from h's coefficients, without reading `CycloForm.hlogs` (h on U_ell)
or the identity x^s = u_(i mod ell), so it checks the reduction from
outside.  Every family, the squares of `decompose` and `reduction_chunks`
(the one engine of the main, case-list and monomial grids), `permutes_field`
and search's re-verification read it; `star_verdicts` answers many forms at
once, and `star_fibers` and `brute_verdict_star` are its one-form views.
On U_ell, `u_ell_values` (Horner) is the one evaluator and `forms_from_logs`
the one step from h's value logs to forms (`coeffs_from_logs`, its checked
half, gives h's coefficient rows alone): f reads h only there, so each
product or power (M^k h, h_d(x^e)^t, (x^d - a)^(k m1), a tower's H^m1) is a
sum of its factors' value logs, taken from u_ell_values on their
coefficients, that the step interpolates.  `hlogs` comes from that step or
from a u_ell_values scan, and only the prediction side reads it: `with_r`,
`decompose`, `g_censuses`, `monomial_predict` and `infer_monomial_params`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .criteria import HypothesisError
from .galois import FieldElement, Poly, eval_powers
from .multiplicity import fiber_census, fibers_verdict, sorted_row_censuses


def _check_exponent(r):
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"exponent r must be a positive integer, got {r}")


class CycloForm:
    """f(x) = x^r * h(x^s) over one field, with its derived subgroup data."""

    __slots__ = ("spec", "r", "s", "h", "ell", "m1", "r1", "s1", "hlogs")

    def __init__(self, spec, r, s, h, hlogs=None):
        q1 = spec.q - 1
        _check_exponent(r)
        if not isinstance(s, int) or s < 1 or q1 % s:
            raise HypothesisError(f"s = {s} must divide q-1 = {q1}")
        if h.spec != spec:
            raise HypothesisError("h must live over the form's field")
        if h.is_zero:
            raise HypothesisError("h must be nonzero")
        ell = q1 // s
        if hlogs is None:  # h's dlogs at u_j = g^(j*s), unless a caller scanned
            hlogs = u_ell_logs(spec, s, u_ell_values(spec, s, [h.coeffs]))[0]
            hlogs = hlogs.tolist()
        self.spec = spec
        self.s = s
        self.h = h
        self.ell = ell
        self.hlogs = tuple(hlogs)
        self._set_r(r)

    def with_r(self, r):
        """The form x^r h(x^s) with this form's field, s and h.  h's values on
        U_ell do not depend on r, so they are reused, not scanned again."""
        _check_exponent(r)
        form = CycloForm.__new__(CycloForm)
        form.spec, form.s, form.h = self.spec, self.s, self.h
        form.ell, form.hlogs = self.ell, self.hlogs
        form._set_r(r)
        return form

    def _set_r(self, r):
        self.r = r
        self.m1 = math.gcd(r, self.s)
        self.r1 = r // self.m1
        self.s1 = self.s // self.m1

    def __repr__(self):
        return (f"CycloForm({self.spec!r}, r={self.r}, s={self.s}, "
                f"h=[{self.h}])")


@dataclass(frozen=True)
class CycloDecomposition:
    """Data of the reduction: g on U_ell, with the commuting square verified."""

    form: CycloForm
    m1: int
    r1: int
    s1: int
    ell: int
    g_logs: tuple  # dlog of g at g^(j*s), j = 0..ell-1
    # fiber_census of g on U_ell; derived from g_logs, so not compared
    g_census: dict = dc_field(compare=False, repr=False)

    def g_verdict(self, m2):
        if not 1 <= m2 <= self.ell:
            return False
        return fibers_verdict(self.g_census[m2], self.ell, m2)


def decompose(form):
    """Build g on U_ell and verify the commuting square exhaustively against
    the oracle's f; a failure raises RuntimeError, as it would mean an
    arithmetic bug, not a property of the input."""
    spec = form.spec
    q1 = spec.q - 1
    s, s1, r1, m1, ell = form.s, form.s1, form.r1, form.m1, form.ell
    g_logs = tuple((r1 * (j * s) + s1 * form.hlogs[j]) % q1 for j in range(ell))
    check_square(form, g_logs, star_census(form)[0])
    return CycloDecomposition(form, m1, r1, s1, ell, g_logs,
                              fiber_census(Counter(g_logs)))


def check_square(form, g_logs, flogs):
    """Raise RuntimeError unless g (dlogs g_logs on U_ell) lies in
    U_(ell*m1) and f(x)^s1 = g(x^s) at every x = g^i in F_q^*, with f given
    by its dlogs flogs; a failure means an arithmetic bug.  Both may carry
    leading axes over forms that share form's field, r and s."""
    q1 = form.spec.q - 1
    g_logs = np.asarray(g_logs)
    if (g_logs % (q1 // (form.ell * form.m1))).any():
        raise RuntimeError("g escaped U_(ell*m1); arithmetic bug")
    lhs = form.s1 * np.asarray(flogs) % q1  # x = g^(a*ell + j) maps to u_j
    if (lhs.reshape(lhs.shape[:-1] + (form.s, form.ell))
            != g_logs[..., None, :]).any():
        raise RuntimeError("commuting square failed; arithmetic bug")


def g_censuses(forms, rs):
    """g = x^r1 h(x)^s1 on U_ell for several forms of one field and s and
    each r in rs, from h's values on U_ell (the prediction side): (logs,
    census) with logs[i, k, j] = log g(u_j) for forms[i] and rs[k], and
    census[i, k, c] the number of values that g takes exactly c times, for
    c >= 1 only.  A row's ell values are sparse in [0, q-1), so the census
    comes from sorting the rows, not from the oracle's routine."""
    form = forms[0]
    q1 = form.spec.q - 1
    s = form.s
    r = np.asarray(rs)
    m1 = np.gcd(r, s)
    hlogs = np.array([f.hlogs for f in forms])
    logs = ((r // m1)[:, None] * (s * np.arange(form.ell))
            + (s // m1)[:, None] * hlogs[:, None, :]) % q1
    census = sorted_row_censuses(logs.reshape(-1, form.ell))
    return logs, census.reshape(logs.shape[:-1] + (form.ell + 1,))


def _row_censuses(logs, q1):
    """census[..., c]: how many values in [0, q1) occur exactly c times in
    each row (last axis) of logs, defined for c >= 1 only; one offset
    bincount counts the fibers, a second one their sizes.  The oracle's
    rows fill [0, q1), where this is faster and leaner than sorting."""
    width = logs.shape[-1]
    flat = logs.reshape(-1, width)
    row = np.arange(len(flat))
    fibers = np.bincount((flat + q1 * row[:, None]).ravel(),
                         minlength=len(flat) * q1)
    census = np.bincount(fibers + (width + 1) * np.repeat(row, q1),
                         minlength=len(flat) * (width + 1))
    return census.reshape(logs.shape[:-1] + (width + 1,))


# -- brute-force oracle --------------------------------------------------------

# (form, point) cells per star_verdicts oracle call: bounds its arrays
ORACLE_CELLS = 1 << 14


def star_censuses(spec, s, hs, rs):
    """f = x^r h(x^s) on F_q^* for each h in hs and each r in rs, from h's
    coefficient indices at each x = g^k (the independent oracle: it reads
    neither CycloForm.hlogs nor the identity x^s = u_(k mod ell)); h(g^(k*s))
    comes from galois.eval_powers and log f(g^k) = r*k + log h(g^(k*s)).
    hs is a list of Polys (padded here) or a 2-D array of coefficient rows.
    rs broadcasts against hs: a list gives every h every r, a column (one
    row [r] per h) gives each h its own r.  Returns (logs, census):
    logs[i, j, k] = log f(g^k) for hs[i] and the j-th r of its row, and
    census[i, j, c] the number of image points with a fiber of size c
    (c >= 1).  Raises HypothesisError if some h(x^s) vanishes on F_q^*."""
    q1 = spec.q - 1
    if not isinstance(hs, np.ndarray):
        hs = coeff_rows(hs)
    values = eval_powers(spec, hs, s)
    if not values.all():
        i, k0 = np.argwhere(values == 0)[0]
        root = FieldElement(spec, spec.exp_at(int(k0) * s))
        raise HypothesisError(f"h = {Poly(spec, hs[i].tolist())} has the "
                              f"root {root} in U_{q1 // s}")
    logs = (np.asarray(rs)[..., None] * np.arange(q1)
            + spec.arrays()[1][values][:, None, :])
    logs -= logs // q1 * q1  # numpy's % by a scalar is ~3x slower than //
    return logs, _row_censuses(logs, q1)


def rootless_censuses(spec, s, hs, rs):
    """star_censuses for h rootless on U_ell by construction or by a scan: a
    root found here is an arithmetic bug, so it raises RuntimeError (exit 6),
    never a HypothesisError that a verify run would count as a skip."""
    try:
        return star_censuses(spec, s, hs, rs)
    except HypothesisError as err:
        raise RuntimeError(f"the oracle disagrees with the U_ell scan: "
                           f"{err}") from err


def star_census(form):
    """The oracle's (logs, census) rows for one form: logs[k] = log f(g^k)
    and census[c] the number of image points with a fiber of size c."""
    logs, census = rootless_censuses(form.spec, form.s, [form.h], [form.r])
    return logs[0, 0], census[0, 0]


def star_verdicts(forms, ms):
    """The oracle's verdicts "forms[i] is m-to-1 on F_q^*" for each m in
    ms[i], as lists of bools, for forms that share one field and s, each
    with its own r.  One oracle call covers ORACLE_CELLS (form, point)
    cells, so a large field takes one form per call, and only the verdicts
    outlive a call."""
    spec, s = forms[0].spec, forms[0].s
    q1 = spec.q - 1
    if any(f.spec != spec or f.s != s for f in forms):
        raise ValueError("forms must share one field and s")
    if not all(1 <= m <= q1 for row in ms for m in row):
        raise ValueError(f"m out of range [1, {q1}]: {ms}")
    step = max(1, ORACLE_CELLS // q1)
    out = []
    for i in range(0, len(forms), step):
        chunk = forms[i:i + step]
        census = rootless_censuses(spec, s, [f.h for f in chunk],
                                   [[f.r] for f in chunk])[1][:, 0]
        out += [[bool(fibers_verdict(row[m], q1, m)) for m in row_ms]
                for row, row_ms in zip(census, ms[i:i + step])]
    return out


def star_fibers(form):
    """Fiber Counter of f on F_q^* (keyed by dlog), from the oracle."""
    return Counter(star_census(form)[0].tolist())


def brute_verdict_star(form, m):
    return star_verdicts([form], [[m]])[0][0]


# -- the main reduction --------------------------------------------------------

@dataclass(frozen=True)
class MainPrediction:
    m: int
    verdict: bool
    failed: str | None  # first failed conjunct, None when verdict holds
    decomposition: CycloDecomposition

    def to_json(self):
        return {"m": self.m, "verdict": self.verdict, "failed": self.failed}


def conjunct_rule(s, ell, m1, m, g_verdict):
    """The main reduction's verdict at m: 0 when f is predicted m-to-1, else
    the number of the first conjunct that fails, in the order 1: m1 | m,
    2: g is (m/m1)-to-1 on U_ell (g_verdict(m2) answers it, called at most
    once), 3: s*(ell mod m2) < m."""
    if m % m1:
        return 1
    m2 = m // m1
    if not g_verdict(m2):
        return 2
    if not s * (ell % m2) < m:
        return 3
    return 0


def conjunct_text(failed, m2, ell):
    """The name of conjunct number failed, as MainPrediction.failed gives
    it; None for 0."""
    return (None, "m1 divides m", f"g is {m2}-to-1 on U_{ell}",
            "s*(ell mod m2) < m")[failed]


# (form, r, x) cells per reduction_chunks chunk: bounds the f and g fiber
# tables whatever the field and s
REDUCTION_CELLS = 1 << 17


class Reduction(NamedTuple):
    """One form's row of reduction_chunks, in lists: at pairs[i], codes[i]
    is conjunct_rule's code (0: f is predicted m-to-1), observed[i] the
    oracle's verdict and misses the i where they differ; g's rows (logs and
    census arrays) are at rs[k]."""

    form: CycloForm
    rs: list
    g_logs: np.ndarray
    g_census: np.ndarray
    codes: list
    observed: list
    misses: list

    def decompositions(self):
        """{r: the form's decomposition at r} for each r in rs, from g's rows
        (no second scan of h); the chunk's commuting square stands for
        theirs."""
        out = {}
        for r, logs, census in zip(self.rs, self.g_logs.tolist(),
                                   self.g_census.tolist()):
            form = self.form.with_r(r)
            out[r] = CycloDecomposition(
                form, form.m1, form.r1, form.s1, form.ell, tuple(logs),
                Counter({c: n for c, n in enumerate(census) if c and n}))
        return out


def reduction_chunks(spec, s, forms, pairs):
    """The main reduction against the oracle for forms over spec with this
    s (their own r unread) at each (r, m) in pairs, m in [1, ell*m1]: yields
    one Reduction per form, in order.  A chunk of forms makes one g_censuses
    and one rootless_censuses call over the distinct r and checks one
    commuting square at the least r; it holds at most REDUCTION_CELLS
    (form, r, x) cells, or one form when its r do not fit.  conjunct_rule
    runs once per pair for each answer of conjunct 2 (g is (m/m1)-to-1), and
    g's census picks the answer per form."""
    q1 = spec.q - 1
    ell = q1 // s
    rs = sorted({r for r, _ in pairs})
    # r and r + q-1 give one f on F_q^*: the oracle takes each class once
    least = {r % q1: r for r in reversed(rs)}
    oracle_rs = sorted(least.values())
    r_at, ms = np.array(pairs).T
    k = np.searchsorted(rs, r_at)
    ko = np.searchsorted(oracle_rs, [least[r % q1] for r in rs])[k]
    # m2 = 0 only where m < m1: conjunct 1 fails there whatever g's census
    m2s = np.maximum(ms // np.gcd(r_at, s), 1)
    if_g, if_not = (np.array([conjunct_rule(s, ell, math.gcd(r, s), m,
                                            lambda _: ok) for r, m in pairs])
                    for ok in (True, False))
    per_chunk = max(1, REDUCTION_CELLS // (len(rs) * q1))
    for lo in range(0, len(forms), per_chunk):
        chunk = forms[lo:lo + per_chunk]
        g_logs, g_census = g_censuses(chunk, rs)
        f_logs, f_census = rootless_censuses(spec, s, [f.h for f in chunk],
                                             oracle_rs)
        check_square(chunk[0].with_r(rs[0]), g_logs[:, 0], f_logs[:, 0])
        observed = fibers_verdict(f_census[:, ko, ms], q1, ms)
        del f_logs, f_census  # only the verdicts outlive the oracle call
        codes = np.where(fibers_verdict(g_census[:, k, m2s], ell, m2s),
                         if_g, if_not)
        misses = [[] for _ in chunk]
        for i, j in np.argwhere((codes == 0) != observed).tolist():
            misses[i].append(j)
        yield from map(Reduction, chunk, [rs] * len(chunk), g_logs, g_census,
                       codes.tolist(), observed.tolist(), misses)


def predict_from(decomp, m):
    """Prediction at multiplicity m from an existing decomposition."""
    if not 1 <= m <= decomp.ell * decomp.m1:
        raise ValueError(
            f"m must be in [1, ell*m1] = [1, {decomp.ell * decomp.m1}], got {m}")
    failed = conjunct_rule(decomp.form.s, decomp.ell, decomp.m1, m,
                           decomp.g_verdict)
    text = conjunct_text(failed, m // decomp.m1, decomp.ell)
    return MainPrediction(m, not failed, text, decomp)


def main_predict(form, m):
    """Predicted m-to-1 verdict for f on F_q^* via the subgroup reduction:
    m1 | m, g is (m/m1)-to-1 on U_ell, and s*(ell mod (m/m1)) < m."""
    return predict_from(decompose(form), m)


def fq_bridge(form, m):
    """Transfer the F_q^* verdict to all of F_q for f with only the root 0.

    m = 1: the verdicts coincide.  m >= 2: f is m-to-1 on F_q iff m does not
    divide q and f is m-to-1 on F_q^*.
    """
    q = form.spec.q
    if not 1 <= m <= q:
        raise ValueError(f"m out of range [1, {q}]: {m}")
    # f has only the root 0: the form's own scan found h rootless on U_ell
    star = brute_verdict_star(form, m) if m <= q - 1 else False
    if m == 1:
        verdict = star
    else:
        verdict = (q % m != 0) and star
    return {"m": m, "verdict_fq": verdict, "verdict_star": star,
            "m_divides_q": q % m == 0}


# -- small multiplicities m = 2, 3 ----------------------------------------------

def small_m_predict(form, m, dec=None):
    """Case-list verdicts for m in {2, 3} (s >= 2 required, ell >= m); dec is
    form's decomposition when the caller holds one, else it is built and
    verified here."""
    if m not in (2, 3):
        raise ValueError(f"small_m_predict handles m in {{2, 3}}, got {m}")
    if form.s < 2:
        raise HypothesisError(f"case list needs s >= 2, got s = {form.s}")
    if form.ell < m:
        raise HypothesisError(f"case list needs ell >= m, got ell = {form.ell}")
    d = decompose(form) if dec is None else dec
    if m == 2:
        if d.m1 == 1 and form.ell % 2 == 0 and d.g_verdict(2):
            return True, "m1=1, ell even, g 2-to-1"
        if d.m1 == 2 and d.g_verdict(1):
            return True, "m1=2, g 1-to-1"
        return False, None
    if d.m1 == 1 and form.ell % 3 == 0 and d.g_verdict(3):
        return True, "m1=1, ell=0 mod 3, g 3-to-1"
    if d.m1 == 1 and form.ell % 3 == 1 and form.s == 2 and d.g_verdict(3):
        return True, "m1=1, ell=1 mod 3, s=2, g 3-to-1"
    if d.m1 == 3 and d.g_verdict(1):
        return True, "m1=3, g 1-to-1"
    return False, None


# -- small subgroups ell = 2, 3 --------------------------------------------------

def small_ell_predict(form, m, dec=None):
    """Finite case analysis on g's values when U_ell has 2 or 3 points; dec
    as for small_m_predict."""
    ell = form.ell
    if ell not in (2, 3):
        raise HypothesisError(f"small_ell_predict needs ell in {{2, 3}}, got {ell}")
    d = decompose(form) if dec is None else dec
    if not 1 <= m <= ell * d.m1:
        raise ValueError(f"m out of range [1, {ell * d.m1}]: {m}")
    if ell == 2:
        g1, gm1 = d.g_logs  # values at 1 and -1
        if m == d.m1 and g1 != gm1:
            return True, "m=m1, g(1) != g(-1)"
        if m == 2 * d.m1 and g1 == gm1:
            return True, "m=2*m1, g(1) = g(-1)"
        return False, None
    if m == d.m1 and d.g_verdict(1):
        return True, "m=m1, g 1-to-1 on U_3"
    if m == 2 * d.m1 and d.g_verdict(2) and form.r % form.s == 0:
        return True, "m=2*m1, g 2-to-1 on U_3, s | r"
    if m == 3 * d.m1 and d.g_verdict(3):
        return True, "m=3*m1, g 3-to-1 on U_3"
    return False, None


# -- monomial-like forms ---------------------------------------------------------

def monomial_predict(form, beta, t):
    """When h(a)^s1 = beta * a^t on all of U_ell, f is m-to-1 exactly at
    m = m1 * gcd(r1 + t, ell), returned as "m".  The hypothesis is scanned
    exhaustively; a failure raises with the witness point."""
    spec = form.spec
    q1 = spec.q - 1
    if not isinstance(beta, FieldElement) or beta.spec != spec:
        raise HypothesisError("beta must be an element of the form's field")
    if beta.is_zero:
        raise HypothesisError("beta must be nonzero")
    blog = spec.log[beta.index]
    for j in range(form.ell):
        if (form.s1 * form.hlogs[j]) % q1 != (blog + t * (j * form.s)) % q1:
            witness = FieldElement(spec, spec.exp_at(j * form.s))
            raise HypothesisError(
                f"h(a)^s1 != beta*a^t at a = {witness}")
    g = math.gcd(form.r1 + t, form.ell)
    return {"m": form.m1 * g, "beta": beta, "t": t, "gcd": g}


def infer_monomial_params(form):
    """Try to recover (beta, t) with h(a)^s1 = beta*a^t on U_ell; None when h
    is not monomial-like.  Inference failure is not an error of the predicate."""
    spec = form.spec
    q1 = spec.q - 1
    ell, s, s1 = form.ell, form.s, form.s1
    beta_log = (s1 * form.hlogs[0]) % q1
    if ell == 1:
        t = 0
    else:
        # solve at the subgroup generator g^s: beta * (g^s)^t = h(g^s)^s1
        diff = ((s1 * form.hlogs[1]) - beta_log) % q1
        if diff % s:
            return None
        t = diff // s
    beta = FieldElement(spec, spec.exp_at(beta_log))
    try:
        monomial_predict(form, beta, t)
    except HypothesisError:
        return None
    return beta, t


# -- the h_d = 1 + x + ... + x^(d-1) families over extension towers ---------------

def hd_poly(spec, d):
    if d < 1:
        raise ValueError("h_d needs d >= 1")
    return Poly(spec, (1,) * d)


def hd_rootless_gcd(d, e, ell, base_q):
    """gcd criterion for h_d(x^e) having no roots in U_ell over an extension
    of F_base_q: gcd(d, base_q * ell / gcd(e, ell)) = 1."""
    return math.gcd(d, base_q * ell // math.gcd(e, ell)) == 1


def hd_rootless_scan(field, d, e, ell):
    """Exhaustive cross-check of the gcd criterion inside a concrete field."""
    q1 = field.q - 1
    if q1 % ell:
        raise HypothesisError(f"ell = {ell} does not divide q-1 = {q1}")
    return bool(_hd_row(field, q1 // ell, d)[np.arange(ell) * e % ell].all())


@lru_cache(maxsize=256)
def _hd_row(field, s, d):
    """h_d on U_ell as indices, scanned once for every e, t and r (read-only,
    as callers share it); h_d(x^e) reads it at j*e mod ell, as u_j^e =
    u_(j*e mod ell)."""
    row = u_ell_values(field, s, [hd_poly(field, d).coeffs])[0]
    row.setflags(write=False)
    return row


def hd_family_predict(field, base_degree, r, s, d, e, t):
    """The multiplicity m at which f = x^r * h(x^s) is m-to-1 over
    F_(q0^n0), q0 = p^base_degree, h = h_d(x^e)^t.

    Two regimes: ell*m1 | gcd(q0-1, n0) gives m = m1; n0 even with
    ell*m1 | q0+1 gives m = gcd(ell*m1, r + (1-d)*e*s*t/(q0-1)).
    Divisibility hypotheses outside both regimes raise HypothesisError.
    """
    if field.n % base_degree:
        raise HypothesisError(
            f"base degree {base_degree} does not divide {field.n}")
    q0 = field.p ** base_degree
    n0 = field.n // base_degree
    big_q1 = field.q - 1
    if big_q1 % s:
        raise HypothesisError(f"s = {s} does not divide q^n-1 = {big_q1}")
    ell = big_q1 // s
    m1 = math.gcd(r, s)

    # the regime depends on the parameters alone: decide it before building
    # h and scanning it on U_ell
    if math.gcd(q0 - 1, n0) % (ell * m1) == 0:
        case = "q-1"
        m = m1
    elif n0 % 2 == 0 and (q0 + 1) % (ell * m1) == 0:
        case = "q+1"
        # ell*m1 | q0+1 and n0 even make s/(q0-1) =
        # ((q0+1)/ell) (q0^n0-1)/(q0^2-1) a multiple of m1, so m1 divides
        # the shift and r, hence m: m1 | m always holds here, and the shift
        # is always integral (its check stays, as a hypothesis scan)
        shift_num = (1 - d) * e * s * t
        if shift_num % (q0 - 1):
            raise HypothesisError("(1-d)est/(q0-1) is not integral")
        m = math.gcd(ell * m1, r + shift_num // (q0 - 1))
    else:
        raise HypothesisError(
            f"neither ell*m1 | (q0-1, n0) nor (n0 even and ell*m1 | q0+1) holds")

    # h = h_d(x^e)^t from h_d's values; a root of h_d(x^e) on U_ell raises,
    # so the gcd criterion must say rootless
    hdx = _hd_row(field, s, d)[None, np.arange(ell) * e % ell]
    form = forms_from_logs(field, r, s, t * u_ell_logs(field, s, hdx))[0]
    return {"case": case, "m": m, "form": form,
            "hd_rootless_gcd": hd_rootless_gcd(d, e, ell, q0),
            "q0": q0, "n0": n0, "ell": ell, "m1": m1}


# -- lifting permutations and the transfer equivalence ----------------------------

def permutes_field(form):
    """Does f = x^r h(x^s) permute all of F_q?  Decided by the oracle: every
    fiber on F_q^* has one point (0 -> 0 is automatic)."""
    return bool(star_census(form)[1][1] == form.spec.q - 1)


def _twist_identity_scan(form, M, eps, t, e, text):
    """Raise unless eps * x^t * M(x)^e = 1 at every x in U_ell; text names
    the identity in the error, which carries the first failing point.
    Returns the value logs of M and of form's h on U_ell, both from
    u_ell_values on their coefficients."""
    spec, s = form.spec, form.s
    mv, hv = u_ell_values(spec, s, coeff_rows([M, form.h]))
    mlogs = spec.arrays()[1][mv].astype(np.int64)
    bad = (mv == 0) | ((spec.log[eps.index] + t * s * np.arange(form.ell)
                        + e * mlogs) % (spec.q - 1) != 0)
    if bad.any():
        witness = FieldElement(spec, spec.exp_at(int(bad.argmax()) * s))
        raise HypothesisError(f"{text} != 1 at x = {witness}")
    return mlogs, u_ell_logs(spec, s, hv[None])[0]


def lift_from_permutation(form, M, eps, t, k):
    """From f permuting F_q and eps * x^t * M(x)^s = 1 on U_ell, build
    F = x^(kt) M(x^s)^k f(x) and record its predicted multiplicity
    (r + kt, s), verified by brute force."""
    spec = form.spec
    if not permutes_field(form):
        raise HypothesisError("f does not permute F_q")
    if eps.spec != spec or eps.is_zero:
        raise HypothesisError("eps must be a nonzero field element")
    mlogs, hlogs = _twist_identity_scan(form, M, eps, t, form.s,
                                        "eps*x^t*M(x)^s")
    if k < 1:
        raise HypothesisError(f"k must be a positive integer, got {k}")
    lifted = forms_from_logs(spec, form.r + k * t, form.s,
                             [k * mlogs + hlogs])[0]
    m_pred = math.gcd(form.r + k * t, form.s)
    verified = brute_verdict_star(lifted, m_pred)
    return {"form": lifted, "m": m_pred, "verified": verified}


def transfer_equivalence(form, M, eps, t, k):
    """The F = x^(kt) M(x^s)^k f(x) equivalence: F is m-to-1 on F_q^* iff f is,
    under (r,s) | t, (r+kt, s) = (r,s), and eps * x^(t/m1) * M(x)^(s/m1) = 1
    on U_ell with eps in U_(ell*m1).  Both sides come from one oracle call:
    "lifted" and "base" are the m in [1, ell*m1] at which F and f are m-to-1
    (None when there is no such m; there is at most one, as ell*m1 <= q-1)."""
    spec = form.spec
    q1 = spec.q - 1
    m1 = form.m1
    if t % m1:
        raise HypothesisError(f"(r, s) = {m1} must divide t = {t}")
    if math.gcd(form.r + k * t, form.s) != m1:
        raise HypothesisError("(r + kt, s) must equal (r, s)")
    if eps.spec != spec or eps.is_zero:
        raise HypothesisError("eps must be a nonzero field element")
    if spec.pow(eps.index, form.ell * m1) != 1:
        raise HypothesisError("eps must lie in U_(ell*m1)")
    mlogs, hlogs = _twist_identity_scan(form, M, eps, t // m1, form.s1,
                                        "eps*x^(t/m1)*M(x)^(s/m1)")
    lifted = forms_from_logs(spec, form.r + k * t, form.s,
                             [k * mlogs + hlogs])[0]
    census = rootless_censuses(spec, form.s, [lifted.h, form.h],
                               [[lifted.r], [form.r]])[1][:, 0]
    ms = np.arange(1, form.ell * m1 + 1)
    at = [ms[fibers_verdict(row[ms], q1, ms)] for row in census]
    lhs, rhs = (int(a[0]) if len(a) else None for a in at)
    return {"lifted": lhs, "base": rhs, "agree": lhs == rhs,
            "form_F": lifted}


# -- h on U_ell: the evaluator, values to forms, random rootless h ------------

def u_ell_values(spec, s, coeffs):
    """values[i, j] = h_i(g^(j*s)), j < ell, as indices, for the rows of
    coeffs (h_i's coefficient indices, low to high): one numpy Horner pass by
    exp/log lookups and FieldSpec.add_arrays, never the oracle's routine."""
    q1, coeffs = spec.q - 1, np.asarray(coeffs)
    exp, log, _ = spec.zero_log_zech()  # log 0 looks up 0, so 0 * u = 0
    ulogs = np.arange(0, q1, s)
    values = np.repeat(coeffs[:, -1:], len(ulogs), axis=1)
    for c in coeffs.T[-2::-1]:
        values = spec.add_arrays(exp[log[values] + ulogs], c[:, None])
    return values


def coeff_rows(polys):
    """The polys' coefficient indices as one zero-padded 2-D array."""
    width = max(len(P.coeffs) for P in polys) or 1
    return np.array([P.coeffs + (0,) * (width - len(P.coeffs))
                     for P in polys], dtype=np.int64)


def u_ell_logs(spec, s, values):
    """The logs of values (rows of h's values on U_ell, as indices); a zero
    raises HypothesisError naming the first root, row by row."""
    if not values.all():
        j = int(np.argwhere(values == 0)[0][1])
        root = FieldElement(spec, spec.exp_at(j * s))
        raise HypothesisError(f"h has the root {root} in U_{values.shape[1]}")
    return spec.arrays()[1][values].astype(np.int64)


def coeffs_from_logs(spec, s, logs):
    """The checked half of forms_from_logs: (coeffs, logs mod q-1), with
    coeffs[i] the coefficient indices of the interpolant h of degree < ell
    of row i of logs (log h(u_j), j < ell, any ints): c_i = ell^-1 sum_j
    h(u_j) u_j^-i, one eval_powers pass at step -s.  Every h must give back
    its values through u_ell_values, else RuntimeError (an arithmetic bug)."""
    q1, p = spec.q - 1, spec.p
    exp, log = spec.arrays()
    logs = np.asarray(logs) % q1
    ell = logs.shape[1]
    coeffs = eval_powers(spec, exp[(logs - log[ell % p]) % q1], -s % q1, ell)
    if (u_ell_values(spec, s, coeffs) != exp[logs]).any():
        raise RuntimeError("the interpolant misses its values on U_ell; "
                           "arithmetic bug")
    return coeffs, logs


def forms_from_logs(spec, r, s, logs):
    """x^r h(x^s) for each row of logs, h the checked interpolant of
    coeffs_from_logs and the logs its hlogs; r is one exponent for every
    row or a list of one per row."""
    coeffs, logs = coeffs_from_logs(spec, s, logs)
    rs = [r] * len(logs) if isinstance(r, int) else r
    return [CycloForm(spec, ri, s, Poly(spec, c), hlogs)
            for ri, c, hlogs in zip(rs, coeffs.tolist(), logs.tolist())]


def random_rootless_form(spec, s, max_degree, rng):
    """The form x * h(x^s) for a random h of degree <= max_degree with no
    roots in U_((q-1)/s)."""
    return random_rootless_forms(spec, s, max_degree, rng, 1)[0]


def random_rootless_forms(spec, s, max_degree, rng, count):
    """count forms x * h(x^s), h of degree <= max_degree drawn in turn and
    redrawn on a root in U_((q-1)/s); a pass draws no more candidates than
    are still needed, at most REDUCTION_CELLS (candidate, point) cells."""
    q1, width, log = spec.q - 1, max_degree + 1, spec.arrays()[1]
    if not isinstance(s, int) or s < 1 or q1 % s:
        raise ValueError(f"s = {s} must divide q-1 = {q1}")
    if max_degree < 0:  # h = 0 alone, which no form takes
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    forms = []
    while len(forms) < count:
        n = min(count - len(forms), max(1, REDUCTION_CELLS * s // q1))
        drawn = np.array([rng.randrange(spec.q) for _ in range(n * width)],
                         dtype=np.int64).reshape(n, width)
        values = u_ell_values(spec, s, drawn)
        ok = values.all(axis=1)
        forms += [CycloForm(spec, 1, s, Poly(spec, c), hlogs) for c, hlogs
                  in zip(drawn[ok].tolist(), log[values[ok]].tolist())]
    return forms


def count_rootless(spec, s, max_degree):
    """The number of h of degree <= max_degree with no root on U_ell: every
    coefficient vector through u_ell_values, REDUCTION_CELLS cells a pass."""
    q, place = spec.q, spec.q ** np.arange(max_degree + 1, dtype=np.int64)
    rows, total = max(1, REDUCTION_CELLS * s // (q - 1)), q ** (max_degree + 1)
    return sum(int(u_ell_values(spec, s, np.arange(
        lo, min(lo + rows, total))[:, None] // place % q).all(axis=1).sum())
        for lo in range(0, total, rows))


def random_rootless_poly(spec, s, max_degree, rng):
    """Random h of degree <= max_degree with no roots in U_((q-1)/s)."""
    return random_rootless_form(spec, s, max_degree, rng).h
