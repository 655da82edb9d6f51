"""Exact arithmetic in GF(p^n), cyclotomic subgroups, traces, and polynomials.

Elements are encoded as integers in [0, q): the coefficient vector
(c0, c1, ..., c_{n-1}) of an element in the polynomial basis maps to
c0 + c1*p + ... + c_{n-1}*p^{n-1}.  On construction a field precomputes
exp/log tables for its canonical primitive element, so multiplication,
inversion, powers and discrete logs are table lookups; so is addition in an
odd-characteristic extension field, through a Zech logarithm table.  Fields are capped
at q <= 2**16 because every downstream check is an exhaustive sweep.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

MAX_FIELD_SIZE = 1 << 16


class FieldError(ValueError):
    """Invalid field data: non-prime characteristic, bad modulus, mixed specs."""


class ScaleError(FieldError):
    """A request beyond an exhaustive-computation cap, such as q <= 2**16."""


def is_prime(m):
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_factors(m):
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _idx_to_coeffs(idx, p, n):
    cs = []
    for _ in range(n):
        idx, c = divmod(idx, p)
        cs.append(c)
    return tuple(cs)


def _coeffs_to_idx(cs, p):
    idx = 0
    for c in reversed(cs):
        idx = idx * p + (c % p)
    return idx


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient lists a, b reduced by a monic modulus over GF(p)."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1 if n > 1 else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(n):
                prod[k - n + j] = (prod[k - n + j] - c * modulus[j]) % p
    return prod[:n]


def _poly_divides(div, poly, p):
    """True when the monic coefficient list div divides poly over GF(p)."""
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - lead * div[j]) % p
        rem.pop()
    return all(c == 0 for c in rem)


def _is_irreducible(coeffs, p):
    """Trial factorization of a monic coefficient list over GF(p)."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[0] == 0 and n > 1:
        # x divides whenever the constant term vanishes (degree-1 factors aside)
        return n == 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for low in range(p ** d):
            div = _idx_to_coeffs(low, p, d) + (1,)
            if _poly_divides(div, coeffs, p):
                return False
    return True


def _default_modulus(p, n):
    """First monic irreducible of degree n in element-encoding order."""
    if n == 1:
        return (0, 1)
    for low in range(p ** n):
        cand = _idx_to_coeffs(low, p, n) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible of degree {n} over GF({p})")  # unreachable


class FieldSpec:
    """GF(p^n) with a fixed monic degree-n irreducible modulus (low-to-high coeffs).

    Immutable after construction; safe to share across threads and processes.
    """

    __slots__ = ("p", "n", "q", "modulus", "exp", "log", "tokens", "_gen",
                 "_modmask", "_arrays", "_zech", "_zech_array", "__weakref__")

    def __init__(self, p, n=1, modulus=None):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if n < 1:
            raise FieldError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q > MAX_FIELD_SIZE:
            raise ScaleError(
                f"q = {p}^{n} = {q} exceeds the supported scale {MAX_FIELD_SIZE}")
        self.p = p
        self.n = n
        self.q = q
        if modulus is None:
            modulus = _default_modulus(p, n)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {n}")
            if not _is_irreducible(modulus, p):
                raise FieldError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = modulus
        self._modmask = _coeffs_to_idx(modulus, p)  # the modulus as an index
        self._arrays = self._zech = self._zech_array = None
        self.tokens = _Tokens()  # format_element's token by index, on demand
        self.tokens.spec = self
        self._build_tables()

    # -- raw arithmetic used only while bootstrapping the tables --

    def _raw_mul(self, a, b):
        p, n = self.p, self.n
        if n == 1:
            return a * b % p
        if p == 2:
            modmask = self._modmask
            top = 1 << n
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= modmask
            return r
        ca = _idx_to_coeffs(a, p, n)
        cb = _idx_to_coeffs(b, p, n)
        return _coeffs_to_idx(_poly_mul_mod(ca, cb, self.modulus, p), p)

    def _raw_pow(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _times_table(self, c):
        """T[e] = e*c for every index e.  Multiplying by c is F_p-linear on
        base-p digit vectors, so digits(e*c) = digits(e) @ M (mod p), where
        row i of M holds the digits of p^i * c; the digit arrays take the
        narrowest dtype that holds n*(p-1)^2."""
        p, n, q = self.p, self.n, self.q
        powers = p ** np.arange(n)
        dtype = np.min_scalar_type(n * (p - 1) ** 2)
        mat = np.array([_idx_to_coeffs(self._raw_mul(int(b), c), p, n)
                        for b in powers], dtype=dtype)
        idx = np.arange(q)
        digits = np.empty((q, n), dtype=dtype)
        for i, b in enumerate(powers):
            digits[:, i] = idx // b % p
        prod = digits @ mat % p
        return sum(prod[:, i] * b for i, b in enumerate(powers)).tolist()

    def _build_tables(self):
        q1 = self.q - 1
        fac = prime_factors(q1)
        gen = None
        for a in range(1, self.q):
            if all(self._raw_pow(a, q1 // f) != 1 for f in fac):
                gen = a
                break
        if gen is None:
            raise FieldError("no primitive element found")  # unreachable
        # the table pays off where _raw_mul runs its Python digit loop
        table = self._times_table(gen) if self.p > 2 and self.n > 1 else None
        exp = [0] * (2 * q1)
        log = [-1] * self.q
        e = 1
        for k in range(q1):
            exp[k] = e
            exp[k + q1] = e
            log[e] = k
            e = table[e] if table else self._raw_mul(e, gen)
        if e != 1:
            raise FieldError("exp table did not close")  # unreachable
        self._gen = gen
        self.exp = exp
        self.log = log

    # -- index-level operations (hot paths work on these directly) --

    def add(self, i, j):
        p = self.p
        if p == 2:
            return i ^ j
        if self.n == 1:
            return (i + j) % p
        # g^a + g^b = g^a (1 + g^(b-a)): one Zech-table lookup
        if not i or not j:
            return i or j
        log = self.log
        li = log[i]
        z = (self._zech or self._build_zech())[(log[j] - li) % (self.q - 1)]
        return 0 if z < 0 else self.exp[li + z]

    def add_arrays(self, a, b):
        """add on numpy index arrays a and b, broadcast together."""
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        exp, log = self.arrays()
        self._zech or self._build_zech()
        la, lb = log[a], log[b]
        z = self._zech_array[(lb - la) % (self.q - 1)]
        out = np.where(z < 0, 0, exp[la + z])  # stray entries where a or b = 0
        return np.where(la < 0, b, np.where(lb < 0, a, out))

    def _build_zech(self):
        """Z[k] = log(1 + g^k), -1 where 1 + g^k = 0, as an array and as a
        list.  Adding 1 changes only the lowest base-p digit of an index."""
        q1, p = self.q - 1, self.p
        exp, log = self.arrays()
        low = exp[:q1] % p
        self._zech_array = log[exp[:q1] - low + (low + 1) % p]
        self._zech = self._zech_array.tolist()
        return self._zech

    def neg(self, i):
        if self.n == 1:
            return -i % self.p
        return i if self.p == 2 else self.mul(i, self.p - 1)  # -1 is p - 1

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def mul(self, i, j):
        if i == 0 or j == 0:
            return 0
        return self.exp[self.log[i] + self.log[j]]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of 0")
        q1 = self.q - 1
        return self.exp[(q1 - self.log[i]) % q1] if q1 else 1

    def pow(self, i, e):
        if i == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 to a negative power")
        return self.exp[self.log[i] * e % (self.q - 1)]

    def exp_at(self, k):
        """Index of g^k for the canonical primitive element g."""
        q1 = self.q - 1
        return self.exp[k % q1] if q1 else 1

    def frob(self, i, d=1):
        """Index of i to the p^d (the d-fold Frobenius)."""
        return self.pow(i, self.p ** d)

    # -- element-level API --

    def element(self, c):
        """Embed the integer c via the prime subfield (c mod p)."""
        return FieldElement(self, c % self.p)

    def arrays(self):
        """exp and log as int32 numpy arrays, converted once, on first use."""
        if self._arrays is None:
            self._arrays = (np.asarray(self.exp, dtype=np.int32),
                            np.asarray(self.log, dtype=np.int32))
        return self._arrays

    def from_index(self, idx):
        if not 0 <= idx < self.q:
            raise FieldError(f"element index {idx} out of range for q={self.q}")
        return FieldElement(self, idx)

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    def generator(self):
        """Canonical primitive element: the smallest element index of order q-1."""
        return FieldElement(self, self._gen)

    def elements(self):
        """All field elements, zero first, then by discrete log."""
        q1 = self.q - 1
        return [self.zero] + [FieldElement(self, self.exp[k]) for k in range(q1)]

    def star_elements(self):
        """F_q^* ordered by discrete log."""
        return [FieldElement(self, self.exp[k]) for k in range(self.q - 1)]

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"


def _binary(op):
    """FieldElement operator: op(spec, i, j) on the operands' indices."""
    def method(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, op(self.spec, self.index, j))
    return method


class FieldElement:
    """Immutable element of one FieldSpec, stored by its encoding index."""

    __slots__ = ("spec", "index")

    def __init__(self, spec, index):
        self.spec = spec
        self.index = index

    @property
    def coeffs(self):
        return _idx_to_coeffs(self.index, self.spec.p, self.spec.n)

    @property
    def is_zero(self):
        return self.index == 0

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is self.spec or other.spec == self.spec:
                return other.index
            raise FieldError(f"field mismatch: {self.spec!r} vs {other.spec!r}")
        if isinstance(other, int):
            return other % self.spec.p
        return None

    __add__ = __radd__ = _binary(FieldSpec.add)
    __sub__ = _binary(FieldSpec.sub)
    __rsub__ = _binary(lambda spec, i, j: spec.sub(j, i))
    __mul__ = __rmul__ = _binary(FieldSpec.mul)
    __truediv__ = _binary(lambda spec, i, j: spec.mul(i, spec.inv(j)))
    __rtruediv__ = _binary(lambda spec, i, j: spec.mul(j, spec.inv(i)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.index))

    def __pow__(self, e):
        return FieldElement(self.spec, self.spec.pow(self.index, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.index == other.index and (
                self.spec is other.spec or self.spec == other.spec)
        if isinstance(other, int):
            # only n in [0, p) names an element, so equal objects hash equal
            return 0 <= other < self.spec.p and self.index == other
        return NotImplemented

    def __hash__(self):
        # a prime-subfield element equals the int index (see __eq__), so it
        # must hash as that int
        if self.index < self.spec.p:
            return hash(self.index)
        return hash((self.index, self.spec.p, self.spec.n))

    def __bool__(self):
        return self.index != 0

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.spec!r}>"


# -- construction and parsing ------------------------------------------------

@lru_cache(maxsize=None)
def _cached_field(p, n, modulus):
    return FieldSpec(p, n, modulus)


def build_field(p, n=1, modulus=None):
    """Validated GF(p^n); the default modulus is the smallest irreducible in
    element-encoding order.  Instances are cached, so equal arguments return
    the same object."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _cached_field(p, n, modulus)


_FIELD_RE = re.compile(r"^(\d+)\^(\d+)(?:/(-?\d+(?:,-?\d+)*))?$")


def parse_field(text):
    """Field spec string: 'p^n' or 'p^n/c0,c1,...,cn' (modulus low-to-high)."""
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise FieldError(
            f"bad field spec {text!r}; expected 'p^n' or 'p^n/c0,c1,...,cn'")
    p, n = int(m.group(1)), int(m.group(2))
    modulus = None
    if m.group(3) is not None:
        modulus = tuple(int(t) for t in m.group(3).split(","))
    return build_field(p, n, modulus)


_GPOW_RE = re.compile(r"^g\^(-?\d+)$")


def parse_element(spec, token):
    """Element token: base-10 integer (prime-subfield value) or 'g^k'."""
    token = token.strip()
    m = _GPOW_RE.match(token)
    if m:
        return spec.from_index(spec.exp_at(int(m.group(1))))
    try:
        c = int(token)
    except ValueError:
        raise FieldError(f"bad element token {token!r}") from None
    return spec.element(c)


class _Tokens(dict):
    def __missing__(self, index):
        token = self[index] = format_element(FieldElement(self.spec, index))
        return token


def format_element(x):
    """Canonical token: '0', a decimal for prime-subfield values, else 'g^k'."""
    if x.index == 0:
        return "0"
    if x.index < x.spec.p:
        return str(x.index)
    return f"g^{x.spec.log[x.index]}"


# -- named operations from the module contract --------------------------------

def primitive_element(spec):
    """Canonical primitive element (deterministic: smallest element index)."""
    return spec.generator()


def unity_subgroup(spec, ell):
    """The ell-th roots of unity, sorted by discrete log; requires ell | q-1."""
    q1 = spec.q - 1
    if ell < 1 or q1 % ell:
        raise FieldError(f"ell = {ell} does not divide q-1 = {q1}")
    step = q1 // ell if ell else 0
    return [spec.from_index(spec.exp_at(k * step)) for k in range(ell)]


def trace(x, sub_degree=1):
    """Relative trace of x into GF(p^sub_degree); sub_degree must divide n."""
    return relative_trace(x, x.spec.n, sub_degree)


def relative_trace(x, from_degree, sub_degree=1):
    """Trace from GF(p^from_degree) down to GF(p^sub_degree), computed inside
    x's ambient field.  x must lie in GF(p^from_degree)."""
    spec = x.spec
    if spec.n % from_degree or from_degree % sub_degree:
        raise FieldError(
            f"degree chain {sub_degree} | {from_degree} | {spec.n} violated")
    if spec.frob(x.index, from_degree) != x.index:
        raise FieldError(f"{x!r} is not in GF({spec.p}^{from_degree})")
    acc = 0
    for i in range(from_degree // sub_degree):
        acc = spec.add(acc, spec.frob(x.index, sub_degree * i))
    return FieldElement(spec, acc)


def poly_eval(f, x):
    """Horner evaluation; the zero polynomial evaluates to 0."""
    if not isinstance(x, FieldElement):
        raise FieldError("poly_eval needs a FieldElement point")
    if f.spec != x.spec:
        raise FieldError("field mismatch between polynomial and point")
    return FieldElement(x.spec, f.eval_index(x.index))


def eval_powers(spec, coeffs, step, count=None):
    """out[i, k] = h_i(g^(k*step)), k < count (default q-1), as indices; row i
    of coeffs holds h_i's coefficient indices low to high.  Terms are exp/log
    lookups: log c plus the small (power, k) table of log u^(j*k) mod q-1
    stays below 2(q-1), inside the doubled exp table, so no multiply or mod
    touches the (h, power, k) array; the sum is digit by digit in base p."""
    q1, p = spec.q - 1, spec.p
    exp, log = spec.arrays()
    coeffs = np.asarray(coeffs, dtype=np.int64)
    j = np.flatnonzero(coeffs.any(axis=0))  # powers with a nonzero term
    coeffs = coeffs[:, j]
    unit_logs = ((j * step % q1)[:, None]
                 * np.arange(q1 if count is None else count) % q1)
    terms = exp.take(log[coeffs][..., None] + unit_logs.astype(np.int32))
    terms[coeffs == 0] = 0  # log[0] = -1 looked up a stray entry
    if p == 2:
        return np.bitwise_xor.reduce(terms, axis=1)
    return sum((terms // d % p).sum(axis=1) % p * d
               for d in p ** np.arange(spec.n))


def subfield_indices(spec, d):
    """Indices of the subfield GF(p^d) inside spec, zero first then by dlog."""
    if spec.n % d:
        raise FieldError(f"GF({spec.p}^{d}) is not a subfield of {spec!r}")
    q1 = spec.q - 1
    sub1 = spec.p ** d - 1
    step = q1 // sub1 if sub1 else 0
    return [0] + [spec.exp_at(k * step) for k in range(sub1)]


def quadratic_base(spec):
    """(q, d) with q = p^d and q^2 = spec.q; errors when n is odd."""
    if spec.n % 2:
        raise FieldError(f"{spec!r} is not a quadratic extension")
    d = spec.n // 2
    return spec.p ** d, d


# -- polynomials ---------------------------------------------------------------

class Poly:
    """Polynomial over one field; coefficient indices low-to-high, trimmed."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def from_elements(cls, spec, elems):
        idx = []
        for e in elems:
            if isinstance(e, FieldElement):
                if e.spec != spec:
                    raise FieldError("mixed fields in coefficient list")
                idx.append(e.index)
            else:
                idx.append(int(e) % spec.p)
        return cls(spec, idx)

    @classmethod
    def from_string(cls, spec, text):
        """Coefficients low-to-high, comma separated; tokens per parse_element."""
        toks = [t for t in text.strip().split(",")]
        if toks == [""]:
            raise FieldError("empty polynomial string")
        return cls(spec, [parse_element(spec, t).index for t in toks])

    @classmethod
    def x(cls, spec):
        return cls(spec, (0, 1))

    @classmethod
    def constant(cls, spec, c):
        if isinstance(c, FieldElement):
            return cls(spec, (c.index,))
        return cls(spec, (int(c) % spec.p,))

    @classmethod
    def monomial(cls, spec, k, coeff=None):
        c = 1 if coeff is None else (
            coeff.index if isinstance(coeff, FieldElement) else int(coeff) % spec.p)
        return cls(spec, (0,) * k + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def leading_index(self):
        if not self.coeffs:
            raise FieldError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval_index(self, xi):
        spec = self.spec
        if xi == 0:
            return self.coeffs[0] if self.coeffs else 0
        exp, log, add = spec.exp, spec.log, spec.add
        lx = log[xi]
        acc = 0
        for c in reversed(self.coeffs):  # Horner, multiplying by logs
            acc = add(exp[log[acc] + lx] if acc else 0, c)
        return acc

    def __call__(self, x):
        return poly_eval(self, x)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        spec = self.spec
        out = list(a)
        for i, c in enumerate(b):
            out[i] = spec.add(out[i], c)
        return Poly(spec, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        spec = self.spec
        return Poly(spec, [spec.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        spec = self.spec
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(spec, ())
        exp, log, add = spec.exp, spec.log, spec.add
        blogs = [(j, log[bj]) for j, bj in enumerate(b) if bj]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                la = log[ai]
                for j, lb in blogs:
                    out[i + j] = add(out[i + j], exp[la + lb])
        return Poly(spec, out)

    def __pow__(self, e):
        if e < 0:
            raise FieldError("negative polynomial power")
        r = Poly.constant(self.spec, 1)
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

    def scale(self, c):
        ci = c.index if isinstance(c, FieldElement) else int(c) % self.spec.p
        spec = self.spec
        return Poly(spec, [spec.mul(ci, a) for a in self.coeffs])

    def of_power(self, k):
        """self(x^k)."""
        if k < 1:
            raise FieldError("of_power needs k >= 1")
        if self.is_zero:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(self.spec, out)

    def frobenius(self, d=1):
        """Coefficient-wise p^d power (the conjugate polynomial)."""
        spec = self.spec
        return Poly(spec, [spec.frob(c, d) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.spec.p, self.spec.n))

    def __str__(self):
        if not self.coeffs:
            return "0"
        tokens = self.spec.tokens
        return ",".join([tokens[c] for c in self.coeffs])

    def __repr__(self):
        return f"Poly({self.spec!r}, [{self}])"
