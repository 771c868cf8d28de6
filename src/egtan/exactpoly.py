"""Exact rational arithmetic and sparse multivariate polynomials.

The identity checks in :mod:`egtan.certificates` must produce proofs, not
floating-point evidence, so every coefficient here is exact, never a float: a
Python ``int``, several times cheaper than a ``Fraction``, wherever the data
are integers, and a :class:`fractions.Fraction` (``Rational``) otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]


def _as_rational(x: RationalLike) -> int | Rational:
    """``x`` exactly, as an ``int`` when it is integral and a ``Fraction`` otherwise."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact polynomials; pass Fraction/int/str")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _add_into(out: dict[tuple, Rational], terms) -> None:
    """Add each ``(exponent, coefficient)`` pair of ``terms`` into ``out``, dropping zeros."""
    for exp, c in terms:
        nc = out.get(exp, 0) + c
        if nc == 0:
            out.pop(exp, None)
        else:
            out[exp] = nc


class SparsePoly:
    """Sparse polynomial over a fixed, ordered tuple of variable names.

    Terms are stored as ``{exponent_tuple: coefficient}`` with no zero
    coefficients.  Integers given stay ``int`` and ring operations keep them
    so; arithmetic with a ``Fraction`` may leave one of denominator 1, which
    compares and hashes as its ``int``.  Two polynomials are equal iff they
    share the variable tuple and have identical term maps.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, RationalLike] | None = None):
        self.vars = tuple(vars)
        self.terms: dict[tuple, Rational] = {}
        if terms:
            n, exps = len(self.vars), [tuple(exp) for exp in terms]
            for exp in exps:
                if len(exp) != n:
                    raise ValueError(f"exponent tuple {exp} does not match {n} variables")
            _add_into(self.terms, zip(exps, map(_as_rational, terms.values())))

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, vars: Sequence[str], c: RationalLike) -> "SparsePoly":
        vars = tuple(vars)
        c = _as_rational(c)
        if c == 0:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "SparsePoly":
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): 1})

    def _like(self, terms: dict[tuple, Rational]) -> "SparsePoly":
        """A polynomial over ``self.vars`` holding ``terms``, which has no zero coefficient."""
        res = SparsePoly(self.vars)
        res.terms = terms
        return res

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials are over different variable tuples")

    def __add__(self, other: "SparsePoly | RationalLike") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return self._like(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return self._like({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly | RationalLike") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "SparsePoly":
        return SparsePoly.constant(self.vars, other) - self

    def __mul__(self, other: "SparsePoly | RationalLike") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            c = _as_rational(other)
            return self._like({exp: coeff * c for exp, coeff in self.terms.items()} if c else {})
        self._check(other)
        out: dict[tuple, Rational] = {}
        # _add_into, inlined: this loop is the hot path of verify-certificates
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                nc = out.get(exp, 0) + c1 * c2
                if nc == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = nc
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SparsePoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def monomial_count(self) -> int:
        return len(self.terms)

    def coefficient_map(self, names: Sequence[str]) -> dict[tuple, "SparsePoly"]:
        """Group terms by their exponents on ``names``.

        Returns ``{restricted_exponent: polynomial in the remaining
        variables}`` with the remaining variables keeping the full tuple (the
        ``names`` exponents are zeroed out).
        """
        idx = [self.vars.index(n) for n in names]
        groups: dict[tuple, dict[tuple, Rational]] = {}
        for exp, c in self.terms.items():
            key = tuple(exp[i] for i in idx)
            rest = list(exp)
            for i in idx:
                rest[i] = 0
            groups.setdefault(key, {})[tuple(rest)] = c
        return {key: self._like(terms) for key, terms in groups.items()}

    # -- substitution, evaluation, division --------------------------------

    def substitute(self, mapping: Mapping[str, "SparsePoly"]) -> "SparsePoly":
        """Replace each named variable by a polynomial (exact composition).

        Each power ``base**p`` is computed once, and every term's expansion is
        added into one map.
        """
        gens = generators(self.vars)
        bases = [gens[v] if mapping.get(v) is None else mapping[v] for v in self.vars]
        powers: dict[tuple[int, int], SparsePoly] = {}
        out: dict[tuple, Rational] = {}
        for exp, c in self.terms.items():
            term = SparsePoly.constant(self.vars, c)
            for i, p in enumerate(exp):
                if p:
                    if (i, p) not in powers:
                        powers[i, p] = bases[i] ** p
                    term = term * powers[i, p]
            _add_into(out, term.terms.items())
        return self._like(out)

    def evaluate(self, values: Mapping[str, RationalLike]) -> int | Rational:
        vals = [_as_rational(values[name]) for name in self.vars]
        total = 0
        for exp, c in self.terms.items():
            t = c
            for v, p in zip(vals, exp):
                if p:
                    t *= v**p
            total += t
        return total

    def _leading(self) -> tuple[tuple, Rational]:
        # graded-lex order; any multiplicative order works for exact division
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return exp, self.terms[exp]

    def divide_exact(self, divisor: "SparsePoly") -> "SparsePoly":
        """Return ``self / divisor`` when the division is exact, else raise."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = self
        quo = SparsePoly(self.vars)
        d_exp, d_coeff = divisor._leading()
        while not rem.is_zero():
            r_exp, r_coeff = rem._leading()
            q_exp = tuple(a - b for a, b in zip(r_exp, d_exp))
            if any(p < 0 for p in q_exp):
                raise ValueError("division is not exact")
            t = SparsePoly(self.vars, {q_exp: Fraction(r_coeff, d_coeff)})  # int / int is a float
            quo = quo + t
            rem = rem - t * divisor
        return quo

    # -- formatting ----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-p for p in e))):
            c = self.terms[exp]
            factors = [
                f"{self.vars[i]}^{p}" if p > 1 else self.vars[i]
                for i, p in enumerate(exp)
                if p
            ]
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def generators(names: Sequence[str]) -> dict[str, SparsePoly]:
    """Polynomial generators for each name, all over the same variable tuple."""
    names = tuple(names)
    return {n: SparsePoly.variable(names, n) for n in names}
