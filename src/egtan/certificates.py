"""Exact verification of the algebraic identities behind the convergence proofs.

The monotonicity of the tangent residual along extragradient steps reduces to
one polynomial identity in 15 free scalars: after rotating the three active
hyperplane normals into the canonical frame ``(1,0,0)``, ``(alpha,1,0)``,
``(beta1,beta2,1)`` and eliminating six dependent coordinates, a weighted sum
of nine constraint products (the "lhs terms" below) must equal a sum of five
squares with positive rational-function multipliers (the "rhs terms").  The
indicator on the sign of the first component of the final operator value
splits the identity into two branches.

The fourteen terms of a branch are built once and cached.  Each side is a sum
read from that table; a mutation (one term dropped, to confirm that the check
bites) skips the cached term and never edits the table.

Everything in this module is exact: every coefficient of the fourteen terms
is an integer, kept as a Python ``int`` (a ``Fraction`` enters only with
non-integral input), and every identity is proved by a zero test on a
``SparsePoly``, never by sampling.
Nothing here imports numpy, so the proofs run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .exactpoly import Rational, SparsePoly, generators

# Free variables of the constrained identity.  zk*/zh1 are the surviving
# iterate coordinates, f<i><l> is eta*F at iterate i (k, half, next) component
# l, and al/b1/b2 parameterize the rotated normals.
CONSTRAINED_VARS = (
    "zk1", "zk2", "zh1",
    "fk1", "fk2", "fk3",
    "fh1", "fh2", "fh3",
    "fn1", "fn2", "fn3",
    "al", "b1", "b2",
)

VECTOR_VARS = CONSTRAINED_VARS[:12]

LHS_TERM_NAMES = tuple(f"cons-{i}" for i in range(1, 10))
RHS_TERM_NAMES = tuple(f"sos-{i}" for i in range(1, 6))
ALL_TERM_NAMES = LHS_TERM_NAMES + RHS_TERM_NAMES

BRANCHES = ("nonneg", "neg")


_G = generators(CONSTRAINED_VARS)
_ONE = SparsePoly.constant(CONSTRAINED_VARS, 1)
_ZERO = SparsePoly(CONSTRAINED_VARS)
_DEN_AL = _ONE + _G["al"] ** 2                      # 1 + alpha^2
_DEN_BB = _ONE + _G["b1"] ** 2 + _G["b2"] ** 2      # 1 + beta1^2 + beta2^2
_DEN_ALL = _DEN_AL * _DEN_BB


def _require_branch(branch: str) -> None:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")


@cache
def _terms(branch: str) -> dict[str, SparsePoly]:
    """The fourteen named terms of one branch, each cleared to ``_DEN_ALL``.

    Left side: ``cons-1`` is the tangent-residual difference itself (with the
    normal-component correction and the branch indicator), ``cons-2``/``cons-3``
    come from monotonicity and Lipschitzness, ``cons-4``..``cons-9`` are the
    six hyperplane constraint products with their multipliers.  Right side:
    the five squares ``sos-1``..``sos-5``.  A term over ``1 + alpha^2``
    is multiplied by ``_DEN_BB``, one over ``1 + beta1^2 + beta2^2`` by
    ``_DEN_AL``.  Built once per branch; callers must not modify the result.
    """
    _require_branch(branch)
    zk1, zk2, zh1, fk1, fk2, fk3, fh1, fh2, fh3, fn1, fn2, fn3, al, b1, b2 = _G.values()
    ind_pos = _ONE if branch == "nonneg" else _ZERO
    ind_neg = _ONE if branch == "neg" else _ZERO

    # halfplane factor shared by cons-4/5: <(1,-alpha), z_half - z_k + eta F_k>
    # with z_half[2] already eliminated.
    bracket = zh1 - zk1 + fk1 + al * (al * zh1 + zk2 - fk2)
    normal = b1 * fk1 + b2 * fk2 + fk3
    u = zk1 - fk1 - zh1
    v = zk2 - fk2 + al * zh1
    return {
        "cons-1": (
            (fk1**2 + fk2**2 + fk3**2 - fn1**2 - fn2**2 - fn3**2 + fn1**2 * ind_pos) * _DEN_ALL
            - normal**2 * _DEN_AL
        ),
        "cons-2": 2 * (zk1 * (fn1 - fk1) + fh2 * (fn2 - fk2) + fh3 * (fn3 - fk3)) * _DEN_ALL,
        "cons-3": (
            (fn1 - fh1) ** 2 + (fn2 - fh2) ** 2 + (fn3 - fh3) ** 2
            - zh1**2
            - (zk2 - fh2 + al * zh1) ** 2
            - (fk3 - fh3) ** 2
        ) * _DEN_ALL,
        "cons-4": 2 * zh1 * bracket * _DEN_ALL,
        "cons-5": 2 * al * (zk2 - fh2) * bracket * _DEN_BB,
        "cons-6": 2 * (al * (zk1 - fk1) + (zk2 - fk2)) * (zk2 - fh2) * _DEN_BB,
        "cons-7": -2 * normal * ((b1 - al * b2) * zh1 - b1 * zk1 - b2 * zk2 - fk3) * _DEN_AL,
        "cons-8": 2 * zk1 * (zk1 - fh1) * _DEN_ALL,
        "cons-9": -2 * (fn1 * ind_neg) * (zk1 - fh1) * _DEN_ALL,
        "sos-1": (zk1 - fh1 + fn1 * ind_pos) ** 2 * _DEN_ALL,
        "sos-2": u**2 * _DEN_AL,
        "sos-3": (fk3 + b1 * zk1 + b2 * zk2 + (al * b2 - b1) * zh1) ** 2 * _DEN_AL,
        "sos-4": v**2 * _DEN_AL,
        "sos-5": (b1 * v - b2 * u) ** 2 * _DEN_AL,
    }


def _sum(branch: str, names: tuple[str, ...], mutate: str | None) -> SparsePoly:
    if mutate is not None and mutate not in ALL_TERM_NAMES:
        raise ValueError(f"mutate must be one of {', '.join(ALL_TERM_NAMES)}; got {mutate!r}")
    terms = _terms(branch)
    total = _ZERO
    for name in names:
        if name != mutate:
            total = total + terms[name]
    return total


def build_constrained_lhs(branch: str, mutate: str | None = None) -> SparsePoly:
    """Sum of the nine left-side terms (optionally dropping one by name)."""
    return _sum(branch, LHS_TERM_NAMES, mutate)


def build_constrained_rhs(branch: str, mutate: str | None = None) -> SparsePoly:
    """Sum of the five right-side squares (optionally dropping one by name)."""
    return _sum(branch, RHS_TERM_NAMES, mutate)


def _monomial_name(exp: Sequence[int]) -> str:
    factors = [f"{v}^{p}" if p > 1 else v for v, p in zip(CONSTRAINED_VARS, exp) if p]
    return "*".join(factors) if factors else "1"


def _lowest_monomial(diff: SparsePoly) -> str | None:
    """Name of the graded-lex lowest monomial of ``diff``; ``None`` when it is 0."""
    if diff.is_zero():
        return None
    return _monomial_name(min(diff.terms, key=lambda e: (sum(e), e)))


def constrained_identity_difference(
    branch: str, mutate: str | None = None
) -> SparsePoly:
    """Cleared left side minus right side, without the term named ``mutate``."""
    return build_constrained_lhs(branch, mutate) - build_constrained_rhs(branch, mutate)


def check_constrained_identity(branch: str, mutate: str | None = None) -> bool:
    """True iff the cleared left and right sides agree as exact polynomials."""
    return constrained_identity_difference(branch, mutate).is_zero()


# ---------------------------------------------------------------------------
# Derivation cross-check: rebuild the left side from the raw constraint
# products, taken at the eliminated coordinates.
# ---------------------------------------------------------------------------


def build_lhs_from_derivation(branch: str) -> SparsePoly:
    """Left side built the long way: raw constraint products at the eliminated point.

    The products are written in the full coordinates of ``z_k``, ``z_half``
    and ``z_next`` and evaluated where the six dependent coordinates are ring
    expressions in the free variables.  ``z_k[3]`` and ``z_half[2]`` come from
    lying on their own hyperplanes, ``z_next[1] = 0`` likewise, and the
    remaining three coordinates follow the unconstrained update along
    directions orthogonal to the active normals.  Serves as an independent
    route to :func:`build_constrained_lhs`; the two must agree exactly.
    """
    _require_branch(branch)
    zk1, zk2, zh1, *f, al, b1, b2 = _G.values()
    fk, fh, fn = f[:3], f[3:6], f[6:]
    zk3 = -(b1 * zk1) - b2 * zk2
    zk = [zk1, zk2, zk3]
    zh = [zh1, -(al * zh1), zk3 - fk[2]]
    zn = [_ZERO, zk2 - fh[1], zk3 - fh[2]]
    ind_pos = _ONE if branch == "nonneg" else _ZERO
    ind_neg = _ONE if branch == "neg" else _ZERO

    # residual difference + monotonicity + Lipschitz, restricted to the first
    # three coordinates (the rest cancels identically).
    core = _ZERO
    for i in range(3):
        core = core + fk[i] ** 2 - fn[i] ** 2
        core = core + 2 * (fn[i] - fk[i]) * (zk[i] - zn[i])
        core = core + (fn[i] - fh[i]) ** 2 - (zn[i] - zh[i]) ** 2
    normal_sq = (b1 * fk[0] + b2 * fk[1] + fk[2]) ** 2
    indicator_sq = fn[0] ** 2 * ind_pos

    halfplane = zh[0] - zk[0] + fk[0] - al * (zh[1] - zk[1] + fk[1])
    cons1 = zh[0] * halfplane
    cons2 = zn[1] * halfplane
    cons3 = (al * (zk[0] - fk[0]) + (zk[1] - fk[1])) * (al * zn[0] + zn[1])
    cons4 = -(b1 * fk[0] + b2 * fk[1] + fk[2]) * (b1 * zh[0] + b2 * zh[1] + zh[2])
    cons5 = zk[0] * (zk[0] - fh[0])
    cons6 = -(fn[0] * ind_neg) * (zk[0] - fh[0])

    # multiply through by (1+al^2)(1+b1^2+b2^2)
    total = (core + indicator_sq) * _DEN_ALL
    total = total - normal_sq * _DEN_AL
    total = total + 2 * (cons1 + cons5 + cons6) * _DEN_ALL
    total = total + 2 * al * cons2 * _DEN_BB
    total = total + 2 * cons3 * _DEN_BB
    return total + 2 * cons4 * _DEN_AL


# ---------------------------------------------------------------------------
# The per-monomial expansion table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    monomial: str
    lhs: str
    rhs: str
    equal: bool


def _as_fraction_string(coeff_poly: SparsePoly) -> str:
    """Render a coefficient polynomial over the cleared denominator.

    Cancels the factors ``(1+al^2)`` and ``(1+b1^2+b2^2)`` where the division
    is exact, so constant sums print as plain numbers.
    """
    num = coeff_poly
    denoms = []
    for factor, label in ((_DEN_AL, "(1+al^2)"), (_DEN_BB, "(1+b1^2+b2^2)")):
        try:
            num = num.divide_exact(factor)
        except ValueError:
            denoms.append(label)
    if not denoms:
        return repr(num)
    return f"({num!r}) / ({'*'.join(denoms)})"


def constrained_expansion_table(branch: str = "nonneg") -> list[TableRow]:
    """Per-monomial sums of both sides of the constrained identity.

    Each row reports, for one monomial in the twelve iterate/operator
    variables, the total coefficient of the left and of the right side as a
    rational function of ``al``, ``b1``, ``b2``.  The identity holds iff every
    row agrees.
    """
    lhs = build_constrained_lhs(branch).coefficient_map(VECTOR_VARS)
    rhs = build_constrained_rhs(branch).coefficient_map(VECTOR_VARS)
    rows = []
    idx = [CONSTRAINED_VARS.index(v) for v in VECTOR_VARS]
    for key in sorted(set(lhs) | set(rhs), key=lambda e: (sum(e), e)):
        exp = [0] * len(CONSTRAINED_VARS)
        for i, p in zip(idx, key):
            exp[i] = p
        lpoly = lhs.get(key, SparsePoly(CONSTRAINED_VARS))
        rpoly = rhs.get(key, SparsePoly(CONSTRAINED_VARS))
        rows.append(
            TableRow(
                monomial=_monomial_name(exp),
                lhs=_as_fraction_string(lpoly),
                rhs=_as_fraction_string(rpoly),
                equal=(lpoly - rpoly).is_zero(),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Unconstrained identity and the representative-coordinate block.
# ---------------------------------------------------------------------------


def _unconstrained_terms(fk: Sequence, fh: Sequence, fn: Sequence) -> list:
    """The five summands in ring operations only, over ``Fraction`` or ``SparsePoly``."""
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    sq = lambda a: dot(a, a)
    return [
        sq(fk),
        -sq(fn),
        2 * dot([x - y for x, y in zip(fn, fk)], fh),
        sq([x - y for x, y in zip(fh, fn)]),
        -sq([x - y for x, y in zip(fh, fk)]),
    ]


def check_unconstrained_identity(
    f_k: Sequence[Rational], f_half: Sequence[Rational], f_next: Sequence[Rational]
) -> bool:
    """Exact zero test of the unconstrained norm-monotonicity identity."""
    if not (len(f_k) == len(f_half) == len(f_next)):
        raise ValueError("operator value vectors must share a dimension")
    vectors = ([Fraction(x) for x in f] for f in (f_k, f_half, f_next))
    return sum(_unconstrained_terms(*vectors)) == 0


def prove_unconstrained_identity() -> bool:
    """Zero test of the unconstrained identity in every dimension: each summand
    sums one scalar term over coordinates, so one coordinate of generators suffices."""
    g = generators(("fk", "fh", "fn"))
    return sum(_unconstrained_terms([g["fk"]], [g["fh"]], [g["fn"]])).is_zero()


_P2_VARS = ("x0", "x1", "x2", "y0", "y1", "y2")


def p2_block_polynomial() -> SparsePoly:
    """The representative-coordinate block of the constrained proof.

    One scalar coordinate stands in for every coordinate beyond the third;
    with the update relations ``x1 = x0 - y0`` and ``x2 = x0 - y1`` the block
    collapses to zero (see :func:`check_p2_block_identity`).
    """
    g = generators(_P2_VARS)
    x0, x1, x2 = g["x0"], g["x1"], g["x2"]
    y0, y1, y2 = g["y0"], g["y1"], g["y2"]
    return (
        y0**2
        - y2**2
        + 2 * (y2 - y0) * (x0 - x2)
        + (y2 - y1) ** 2
        - (x2 - x1) ** 2
    )


def check_p2_block_identity() -> bool:
    """Zero test of the block after the update relations ``x1 = x0 - y0``, ``x2 = x0 - y1``."""
    g = generators(_P2_VARS)
    relations = {"x1": g["x0"] - g["y0"], "x2": g["x0"] - g["y1"]}
    return p2_block_polynomial().substitute(relations).is_zero()


# ---------------------------------------------------------------------------
# Coefficient-table expansion identities and the regrouped right side.
# ---------------------------------------------------------------------------


def check_expansion_identities(
    alpha: Rational, beta1: Rational, beta2: Rational
) -> bool:
    """The three rational-function equalities behind the expansion table.

    Verified exactly at the given rational point, cleared of the denominator
    ``(1+beta2^2)(1+beta1^2+beta2^2)``, which is positive for every input.
    """
    sides = _expansion_sides(Fraction(alpha), Fraction(beta1), Fraction(beta2))
    return all(lhs == rhs for lhs, rhs in sides)


def _expansion_sides(a, b1, b2) -> list[tuple]:
    """Both sides of each expansion equality times ``d2 * dbb``, in ring
    operations only, so ``a, b1, b2`` may be ``Fraction`` or ``SparsePoly``."""
    d2 = 1 + b2**2
    dbb = 1 + b1**2 + b2**2
    w = b2**2 + a * b1 * b2 + 1
    return [
        (-2 * a * dbb - 2 * b1 * b2 * w, -2 * (a * (b1**2 + 1) + b1 * b2) * d2),
        (2 * a * dbb - 2 * b2 * (b1 - a * b2) * d2 + 2 * b1 * b2 * w, 2 * a * d2 * dbb),
        (a**2 * dbb + (b1 - a * b2) ** 2 * d2 + w**2, (a**2 + 1) * d2 * dbb),
    ]


def prove_expansion_identities() -> bool:
    """The three cleared expansion equalities as polynomial identities in ``a, b1, b2``."""
    g = generators(("a", "b1", "b2"))
    return all((lhs - rhs).is_zero() for lhs, rhs in _expansion_sides(g["a"], g["b1"], g["b2"]))


def check_newsos_claim() -> bool:
    """Regrouping of two right-side squares into three same-denominator ones.

    With ``a`` and ``b`` abbreviating the two linear forms, the claim is
    ``a^2/(1+b2^2) + ((1+b2^2) b + b1 b2 a)^2 / ((1+b2^2)(1+b1^2+b2^2))
    = (a^2 + b^2 + (b1 a + b2 b)^2) / (1+b1^2+b2^2)``, cleared of
    denominators and checked as a polynomial identity in ``a, b, b1, b2``.
    """
    vars = ("a", "b", "b1", "b2")
    g = generators(vars)
    one = SparsePoly.constant(vars, 1)
    a, b, b1, b2 = g["a"], g["b"], g["b1"], g["b2"]
    d2 = one + b2**2
    dbb = one + b1**2 + b2**2
    lhs = a**2 * dbb + (d2 * b + b1 * b2 * a) ** 2
    rhs = d2 * (a**2 + b**2 + (b1 * a + b2 * b) ** 2)
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# Certificate assignments: exact rational points for the constrained identity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateAssignment:
    """One exact rational point for the constrained identity.

    Free data: the surviving iterate coordinates, the nine operator values
    (already scaled by the step size), the frame parameters and the indicator
    branch.  The six dependent coordinates are eliminated in the identity
    itself, so a point needs only these fifteen values.
    """

    zk1: Rational
    zk2: Rational
    zh1: Rational
    fk: tuple[Rational, Rational, Rational]
    fh: tuple[Rational, Rational, Rational]
    fn: tuple[Rational, Rational, Rational]
    alpha: Rational
    beta1: Rational
    beta2: Rational
    branch: str = "nonneg"

    def __post_init__(self):
        _require_branch(self.branch)
        if self.branch == "nonneg" and self.fn[0] < 0:
            raise ValueError("nonneg branch requires fn[0] >= 0")
        if self.branch == "neg" and self.fn[0] > 0:
            raise ValueError("neg branch requires fn[0] <= 0")

    def values(self) -> dict[str, Rational]:
        """The fifteen values by name, in :data:`CONSTRAINED_VARS` order."""
        point = (self.zk1, self.zk2, self.zh1, *self.fk, *self.fh, *self.fn,
                 self.alpha, self.beta1, self.beta2)
        return dict(zip(CONSTRAINED_VARS, point))

    @staticmethod
    def random(rng, branch: str = "nonneg") -> "CertificateAssignment":
        """Random small-integer-ratio assignment honoring the branch sign.

        ``rng`` is any generator with ``integers(lo, hi)``, such as numpy's.
        """

        def q() -> Fraction:
            return Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))

        fn1 = abs(q()) if branch == "nonneg" else -abs(q())
        return CertificateAssignment(
            zk1=q(), zk2=q(), zh1=q(),
            fk=(q(), q(), q()),
            fh=(q(), q(), q()),
            fn=(fn1, q(), q()),
            alpha=q(), beta1=q(), beta2=q(),
            branch=branch,
        )


# ---------------------------------------------------------------------------
# Batched verification used by the command line.
# ---------------------------------------------------------------------------


def verification_report(seed: int = 0, mutate: str | None = None) -> dict:
    """Run every identity check (each an exact polynomial zero test) and summarize.

    ``seed`` has no effect, as no check samples points; it is kept for callers."""
    status = lambda ok: {"status": "pass" if ok else "fail"}
    results = {"unconstrained": status(prove_unconstrained_identity())}

    derived = True
    for branch in BRANCHES:
        lhs, rhs = build_constrained_lhs(branch), build_constrained_rhs(branch)
        diff = lhs - rhs if mutate is None else constrained_identity_difference(branch, mutate)
        entry = {
            "identity_name": "constrained-tangent-residual-monotonicity",
            "branch": branch,
            **status(diff.is_zero()),
            "monomial_count_lhs": lhs.monomial_count(),
            "monomial_count_rhs": rhs.monomial_count(),
            "max_degree": max(lhs.degree(), rhs.degree()),
        }
        if not diff.is_zero():
            entry["first_differing_monomial"] = _lowest_monomial(diff)
        results[f"constrained-{branch}"] = entry
        derived = derived and (build_lhs_from_derivation(branch) - lhs).is_zero()

    results["derivation-route"] = status(derived)
    results["p2-block"] = status(check_p2_block_identity())
    results["expansion"] = status(prove_expansion_identities())
    results["regrouped-rhs"] = status(check_newsos_claim())
    results["all_pass"] = all(v["status"] == "pass" for v in results.values())
    return results
