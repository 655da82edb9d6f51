"""Executable commutative-square machinery: the local criterion and the three
construction-style equivalences for m-to-1 mappings.

Each verdict function computes both sides of its equivalence independently
(never deriving one from the other) and reports whether they agree.  Violated
hypotheses raise HypothesisError rather than returning a false verdict: the
equivalences are conditional, and a silent False would conflate "hypothesis
fails" with "conclusion fails".
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass, field

from .multiplicity import FiniteMapping, check_m_to_1, fibers_verdict


class HypothesisError(ValueError):
    """A stated precondition of a criterion or theorem does not hold."""


@dataclass(frozen=True)
class CriterionReport:
    lhs: bool
    rhs: bool
    detail: dict = field(default_factory=dict)

    @property
    def agree(self):
        return self.lhs == self.rhs

    def to_json(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "agree": self.agree,
                "detail": {k: str(v) for k, v in self.detail.items()}}


def _as_table(mapping):
    if isinstance(mapping, FiniteMapping):
        return mapping.as_table()
    return dict(mapping)


def _fibers_of(table, domain):
    fibers = defaultdict(list)
    for a in domain:
        fibers[table[a]].append(a)
    return fibers


class CommutativeSquare:
    """Explicit model (A, Abar, S, Sbar, f, fbar, lam, lambar) with
    lambar o f = fbar o lam checked pointwise on construction."""

    __slots__ = ("a_points", "abar_points", "s_points", "sbar_points",
                 "f", "fbar", "lam", "lambar")

    def __init__(self, a_points, abar_points, s_points, sbar_points,
                 f, fbar, lam, lambar):
        self.a_points = tuple(a_points)
        self.abar_points = tuple(abar_points)
        self.s_points = tuple(s_points)
        self.sbar_points = tuple(sbar_points)
        self.f = dict(f)
        self.fbar = dict(fbar)
        self.lam = dict(lam)
        self.lambar = dict(lambar)
        self._validate()

    def _validate(self):
        if not self.a_points:
            raise HypothesisError("A must be nonempty")
        for name, m, dom, cod in (
                ("f", self.f, self.a_points, self.abar_points),
                ("fbar", self.fbar, self.s_points, self.sbar_points),
                ("lam", self.lam, self.a_points, self.s_points),
                ("lambar", self.lambar, self.abar_points, self.sbar_points)):
            dom_set, cod_set = set(dom), set(cod)
            if set(m.keys()) != dom_set:
                raise HypothesisError(f"{name} is not total on its domain")
            if not set(m.values()) <= cod_set:
                raise HypothesisError(f"{name} maps outside its codomain")
        for a in self.a_points:
            if self.lambar[self.f[a]] != self.fbar[self.lam[a]]:
                raise HypothesisError(
                    f"square does not commute at point {a!r}")

    def f_mapping(self):
        return FiniteMapping(self.a_points, tuple(self.f[a] for a in self.a_points))

    def fbar_mapping(self):
        return FiniteMapping(self.s_points, tuple(self.fbar[s] for s in self.s_points))

    @classmethod
    def from_json(cls, obj):
        """Fixture schema: point sets as string lists, maps as objects."""
        if isinstance(obj, str):
            with open(obj) as fh:
                obj = json.load(fh)
        return cls(obj["A"], obj["Abar"], obj["S"], obj["Sbar"],
                   obj["f"], obj["fbar"], obj["lambda"], obj["lambdabar"])


class GroupModel:
    """Finite group given by element list, operation, identity, and inverses.

    op may be a dict keyed by (a, b) pairs or a callable; it is read once into
    the operation table of every (a, b), and all five group laws are checked
    on that table: identity, inverses, a total table, a closed table, and
    associativity.  Models hold at most MAX_ELEMENTS elements, so the O(n^3)
    associativity check stays exhaustive.  A model is read-only once built;
    cyclic(n) hands out one shared model per n.
    """

    __slots__ = ("elements", "table", "identity", "inverse")

    MAX_ELEMENTS = 64

    def __init__(self, elements, op, identity, inverse):
        self.elements = tuple(elements)
        if len(self.elements) > self.MAX_ELEMENTS:
            raise HypothesisError(
                f"group model limited to {self.MAX_ELEMENTS} elements")
        read = op if callable(op) else lambda a, b: op[(a, b)]
        try:
            self.table = {(a, b): read(a, b)
                          for a in self.elements for b in self.elements}
        except KeyError as err:
            raise HypothesisError(
                f"operation table has no entry for {err.args[0]!r}") from None
        self.identity = identity
        self.inverse = dict(inverse)
        self._check_axioms()

    def op(self, a, b):
        return self.table[(a, b)]

    def _check_axioms(self):
        elts, op = self.elements, self.op
        index = {a: i for i, a in enumerate(elts)}
        if self.identity not in index:
            raise HypothesisError("identity not in element list")
        for a in elts:
            if op(a, self.identity) != a or op(self.identity, a) != a:
                raise HypothesisError(f"identity law fails at {a!r}")
            ia = self.inverse.get(a)
            if ia not in index or op(a, ia) != self.identity:
                raise HypothesisError(f"inverse law fails at {a!r}")
        if not all(ab in index for ab in self.table.values()):
            raise HypothesisError("operation not closed")
        # rows[a][b] = index of a*b; (a*b)*c = a*(b*c) for every c says row
        # a*b equals row a read through row b
        rows = [[index[op(a, b)] for b in elts] for a in elts]
        for row_a in rows:
            for ab, row_b in zip(row_a, rows):
                if rows[ab] != [row_a[bc] for bc in row_b]:
                    raise HypothesisError("operation not associative")

    @classmethod
    @functools.cache
    def cyclic(cls, n):
        elts = tuple(range(n))
        return cls(elts, lambda a, b: (a + b) % n, 0,
                   {a: (-a) % n for a in elts})

    @classmethod
    def from_json(cls, obj):
        """Fixture schema: elements as a string list, op as nested objects."""
        if isinstance(obj, str):
            with open(obj) as fh:
                obj = json.load(fh)
        return cls(obj["elements"], lambda a, b: obj["op"][a][b],
                   obj["identity"], obj["inverse"])


def _per_class_side(f, classes, m):
    """The per-class side shared by the local criterion and construction 1:
    f is m-to-1 on every class of size >= m, and the exceptional points of
    those classes plus the points of the smaller classes number #A mod m."""
    tally = 0
    for pts in classes:
        if len(pts) >= m:
            rep = check_m_to_1(f.restrict(pts), m)
            if not rep.verdict:
                return False
            tally += len(rep.exceptional_set)
        else:
            tally += len(pts)
    return tally == len(f) % m


def _fiber_size_scan(sq, m1, maps):
    """The construction-2 fiber hypotheses: lam is onto S, #lam^-1(s) =
    m1 * #lambar^-1(fbar(s)), and each (name, mapping) in maps is m1-to-1 on
    every lam fiber.  Returns the lam fibers."""
    lam_fibers = _fibers_of(sq.lam, sq.a_points)
    if set(lam_fibers.keys()) != set(sq.s_points):
        raise HypothesisError("lam is not surjective onto S")
    lambar_fibers = _fibers_of(sq.lambar, sq.abar_points)
    for s in sq.s_points:
        down = len(lambar_fibers.get(sq.fbar[s], ()))
        pts = lam_fibers[s]
        if len(pts) != m1 * down:
            raise HypothesisError(
                f"fiber size mismatch at s={s!r}: {len(pts)} != {m1}*{down}")
        for name, mapping in maps:
            sub = mapping.restrict(pts)
            if not fibers_verdict(sub.census()[m1], len(sub), m1):
                raise HypothesisError(
                    f"{name} is not {m1}-to-1 on lam^-1({s!r})")
    return lam_fibers


# -- the generalized local criterion ------------------------------------------

def local_criterion_check(f, psi, m):
    """Both sides of the local criterion for phi = psi o f.

    lhs: f is m-to-1 on A.  rhs: f is m-to-1 on every class phi^-1(c) of
    size >= m, and the exceptional/small-class point count equals #A mod m.
    When no class reaches size m the first conjunct is vacuously true and
    the sum identity alone decides.
    """
    if not isinstance(f, FiniteMapping):
        f = FiniteMapping.from_table(_as_table(f))
    size = len(f)
    if not 1 <= m <= size:
        raise ValueError(f"m must be in [1, {size}], got {m}")
    psi_t = _as_table(psi)
    phi = {a: psi_t[b] for a, b in zip(f.domain, f.images)}
    classes = _fibers_of(phi, f.domain)

    lhs = fibers_verdict(f.census()[m], size, m)
    rhs = _per_class_side(f, classes.values(), m)
    return CriterionReport(lhs, rhs, {"m": m, "classes": len(classes)})


# -- construction 1: injective bottom map --------------------------------------

def construction1_verdict(sq, m):
    """Requires fbar 1-to-1 on S.  rhs: per-fiber m-to-1 over lam(A) plus the
    exceptional-set sum identity; lhs: direct check of f."""
    fbar_map = sq.fbar_mapping()
    if not fibers_verdict(fbar_map.census()[1], len(fbar_map), 1):
        raise HypothesisError("fbar is not 1-to-1 on S")
    f = sq.f_mapping()
    size = len(f)
    if not 1 <= m <= size:
        raise ValueError(f"m must be in [1, {size}], got {m}")

    lhs = fibers_verdict(f.census()[m], size, m)
    rhs = _per_class_side(f, _fibers_of(sq.lam, sq.a_points).values(), m)
    return CriterionReport(lhs, rhs, {"m": m})


# -- construction 2: equifibered lambda ----------------------------------------

def construction2_verdict(sq, m1, m):
    """Requires lam surjective, #lam^-1(s) = m1 * #lambar^-1(fbar(s)), and f
    m1-to-1 on every lam fiber.  rhs: m1 | m, fbar (m/m1)-to-1 on S, and the
    lam-fiber sum over E_fbar(S) equals #A mod m."""
    f = sq.f_mapping()
    size = len(f)
    lam_fibers = _fiber_size_scan(sq, m1, (("f", f),))
    if not 1 <= m <= m1 * len(sq.s_points):
        raise HypothesisError(
            f"m must be in [1, m1*#S] = [1, {m1 * len(sq.s_points)}], got {m}")

    lhs = fibers_verdict(f.census()[m], size, m)

    if m % m1:
        rhs = False
        detail = {"m1_divides_m": False}
    else:
        rep = check_m_to_1(sq.fbar_mapping(), m // m1)
        ident = (sum(len(lam_fibers[s]) for s in rep.exceptional_set)
                 == size % m) if rep.verdict else False
        rhs = rep.verdict and ident
        detail = {"fbar_verdict": rep.verdict, "sum_identity": ident}
    detail["m"] = m
    detail["m1"] = m1
    return CriterionReport(lhs, rhs, detail)


# -- construction 3: twisting by u inside a group -------------------------------

def construction3_verdict(group, sq, u, variant, m, m1=None):
    """Compares f*u against f, where (f*u)(a) = f(a) * u(a) in the group.

    Requires lambar to be a homomorphism of the group onto Sbar and
    lambar(u(a)) constant.  Variant 1 needs fbar injective and u factoring
    through lam; variant 2 needs construction-2 fiber hypotheses for both
    f and f*u.  Under the hypotheses the two verdicts must agree.
    """
    elts = set(group.elements)
    if set(sq.a_points) != elts or set(sq.abar_points) != elts:
        raise HypothesisError("square must live on the group's element set")
    u_t = _as_table(u)
    if set(u_t.keys()) != elts or not set(u_t.values()) <= elts:
        raise HypothesisError("u must map the group to itself")
    sbar = set(sq.sbar_points)
    if set(sq.lambar.values()) != sbar:
        raise HypothesisError("lambar is not onto Sbar")
    for a in group.elements:
        for b in group.elements:
            if sq.lambar[group.op(a, b)] != group.op(sq.lambar[a], sq.lambar[b]):
                raise HypothesisError("lambar is not a homomorphism")
    consts = {sq.lambar[u_t[a]] for a in group.elements}
    if len(consts) != 1:
        raise HypothesisError("lambar o u is not constant")

    f_map = sq.f_mapping()
    fu = FiniteMapping(sq.a_points,
                       tuple(group.op(sq.f[a], u_t[a]) for a in sq.a_points))

    if variant == 1:
        fbar_map = sq.fbar_mapping()
        if not fibers_verdict(fbar_map.census()[1], len(fbar_map), 1):
            raise HypothesisError("variant 1 needs fbar 1-to-1 on S")
        seen = {}
        for a in sq.a_points:
            s = sq.lam[a]
            if s in seen and seen[s] != u_t[a]:
                raise HypothesisError("variant 1 needs u to factor through lam")
            seen[s] = u_t[a]
        if not 1 <= m <= len(f_map):
            raise ValueError(f"m out of range: {m}")
    elif variant == 2:
        if m1 is None:
            raise HypothesisError("variant 2 needs m1")
        _fiber_size_scan(sq, m1, (("f", f_map), ("f*u", fu)))
        if not 1 <= m <= m1 * len(sq.s_points):
            raise HypothesisError(f"m out of range: {m}")
    else:
        raise ValueError(f"variant must be 1 or 2, got {variant}")

    lhs = fibers_verdict(fu.census()[m], len(fu), m)
    rhs = fibers_verdict(f_map.census()[m], len(f_map), m)
    return CriterionReport(lhs, rhs, {"variant": variant, "m": m})
