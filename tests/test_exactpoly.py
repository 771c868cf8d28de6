"""Property tests of :class:`egtan.exactpoly.SparsePoly` against sympy's
expansion over QQ.

Polynomials in three variables are drawn with mixed ``int`` and ``Fraction``
coefficients.  Every ring operation, ``substitute``, ``divide_exact``,
``evaluate`` and ``coefficient_map`` must agree with sympy exactly, no float
may appear in a term map or a result, and integer inputs must give ``int``
coefficients.  A polynomial and its copy with every coefficient a ``Fraction``
are equal and hash alike.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from egtan.exactpoly import SparsePoly

VARS = ("x", "y", "z")
SYMS = sympy.symbols(VARS)

integers = st.integers(-20, 20)
fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
coefficients = st.one_of(integers, fractions)
exponents = st.tuples(*[st.integers(0, 3)] * len(VARS))


def polys(coeffs=coefficients, max_terms=5):
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(lambda t: SparsePoly(VARS, t))


int_polys = polys(integers)


def to_sympy(p: SparsePoly) -> sympy.Expr:
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(SYMS, exp)])
        for exp, c in p.terms.items()
    ])


def as_fraction(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def sympy_terms(expr) -> dict:
    """``{exponent: Fraction}`` of ``expr`` expanded over QQ, zero terms dropped."""
    poly = sympy.Poly(expr, *SYMS, domain=sympy.QQ)
    return {exp: as_fraction(c) for exp, c in poly.terms() if c != 0}


def assert_exact(p: SparsePoly) -> None:
    """Every coefficient is a nonzero ``int`` or ``Fraction``; never a float or a bool."""
    assert all(type(c) in (int, Fraction) and c != 0 for c in p.terms.values())


def assert_matches(p: SparsePoly, expr) -> None:
    assert_exact(p)
    assert p.terms == sympy_terms(expr)


def as_fractions(p: SparsePoly) -> SparsePoly:
    """``p`` with every coefficient stored as a ``Fraction`` (the constructor would make it int)."""
    out = SparsePoly(p.vars)
    out.terms = {exp: Fraction(c) for exp, c in p.terms.items()}
    return out


@given(polys(), polys())
def test_ring_operations_match_sympy(p, q):
    P, Q = to_sympy(p), to_sympy(q)
    assert_matches(p, P)
    assert_matches(p + q, P + Q)
    assert_matches(p - q, P - Q)
    assert_matches(-p, -P)
    assert_matches(p * q, P * Q)
    assert_matches(3 * p - Fraction(1, 2), 3 * P - sympy.Rational(1, 2))


@given(polys(max_terms=3), st.integers(0, 3))
def test_powers_match_sympy(p, k):
    assert_matches(p**k, to_sympy(p) ** k)


@given(polys(), st.dictionaries(st.sampled_from(VARS), polys(max_terms=3), max_size=2))
def test_substitute_matches_sympy(p, mapping):
    expected = to_sympy(p).subs({SYMS[VARS.index(v)]: to_sympy(q) for v, q in mapping.items()},
                                simultaneous=True)
    assert_matches(p.substitute(mapping), expected)


@given(polys(), polys().filter(bool), polys(max_terms=2))
def test_divide_exact_matches_sympy(p, d, r):
    quotient = (p * d).divide_exact(d)
    assert_matches(quotient, to_sympy(p))
    # any dividend: exact division iff sympy leaves no remainder
    dividend = p * d + r
    expected, remainder = sympy.div(to_sympy(dividend), to_sympy(d), *SYMS, domain=sympy.QQ)
    if remainder == 0:
        assert_matches(dividend.divide_exact(d), expected)
    else:
        with pytest.raises(ValueError, match="not exact"):
            dividend.divide_exact(d)


@given(polys(), st.tuples(*[coefficients] * len(VARS)))
def test_evaluate_matches_sympy(p, point):
    value = p.evaluate(dict(zip(VARS, point)))
    assert type(value) in (int, Fraction)
    expected = to_sympy(p).subs({s: sympy.Rational(v.numerator, v.denominator)
                                 for s, v in zip(SYMS, point)})
    assert value == as_fraction(expected)


@given(polys(), st.sets(st.sampled_from(VARS), min_size=1, max_size=2))
def test_coefficient_map_matches_sympy(p, names):
    names = tuple(v for v in VARS if v in names)
    groups = p.coefficient_map(names)
    expected = sympy.Poly(to_sympy(p), *[SYMS[VARS.index(v)] for v in names]).as_dict()
    assert set(groups) == set(expected)
    for key, coeff in groups.items():
        assert all(exp[VARS.index(v)] == 0 for exp in coeff.terms for v in names)
        assert_matches(coeff, expected[key])


@given(int_polys, int_polys, st.integers(0, 3), st.tuples(*[integers] * len(VARS)))
def test_integer_inputs_give_int_coefficients(p, q, k, point):
    """The fast path: integral data never falls back to ``Fraction``."""
    results = [p + q, p - q, p * q, 5 * p, p**k, p.substitute({"x": q, "z": p})]
    if q:
        results.append((p * q).divide_exact(q))
    for result in results:
        assert all(type(c) is int for c in result.terms.values())
    assert type(p.evaluate(dict(zip(VARS, point)))) is int


@given(polys(), polys())
def test_a_fraction_copy_is_equal_and_hashes_alike(p, q):
    pf, qf = as_fractions(p), as_fractions(q)
    assert pf == p and hash(pf) == hash(p)
    assert pf * qf == p * q and hash(pf * qf) == hash(p * q)
    assert pf + qf == p + q and repr(pf) == repr(p)
