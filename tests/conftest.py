"""Shared fixtures."""

import pytest

from mto1.criteria import CommutativeSquare
from mto1.cyclotomic import CycloForm, decompose, star_census
from mto1.galois import Poly, build_field


@pytest.fixture
def paper_square_f29():
    """The F_29 instance as an explicit construction-2 square:
    A = Abar = F_29^*, S = U_7, Sbar = U_14, lam = x^4, lambar = x^2,
    f = x^2 h(x^4), fbar = g = x h(x)^2 with h = x^5 + x^4 + 15x^3 + 1."""
    spec = build_field(29)
    h = Poly.from_string(spec, "1,0,0,15,1,1")
    form = CycloForm(spec, 2, 4, h)
    dec = decompose(form)
    star = [spec.exp_at(i) for i in range(28)]
    u7 = [spec.exp_at(4 * j) for j in range(7)]
    u14 = [spec.exp_at(2 * j) for j in range(14)]
    f = dict(zip(star, map(spec.exp_at, star_census(form)[0].tolist())))
    lam = {x: spec.pow(x, 4) for x in star}
    lambar = {x: spec.pow(x, 2) for x in star}
    g = {spec.exp_at(4 * j): spec.exp_at(dec.g_logs[j]) for j in range(7)}
    return CommutativeSquare(star, star, u7, u14, f, g, lam, lambar)


def _fold(poly, period):
    """poly mod x^period - 1: the coefficient of x^k moves to x^(k mod
    period), so the two agree wherever x^period = 1."""
    if len(poly.coeffs) <= period:
        return poly
    spec = poly.spec
    out = list(poly.coeffs[:period])
    for k in range(period, len(poly.coeffs)):
        out[k % period] = spec.add(out[k % period], poly.coeffs[k])
    return Poly(spec, out)


@pytest.fixture
def fold():
    """The reduction mod x^period - 1 as a reference: fold(poly, period)."""
    return _fold
