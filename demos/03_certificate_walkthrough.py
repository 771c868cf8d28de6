"""Walk through the exact algebraic certificate for residual monotonicity.

The decrease of the tangent residual along one extragradient step reduces to
a polynomial identity: nine constraint products on the left, five squares on
the right, in fifteen variables, degree eight, one version per sign branch of
the last operator component.  This script verifies the identity exactly over
the rationals, shows a few rows of the monomial expansion, evaluates both
sides at a random exact assignment, and demonstrates that dropping any single
term breaks the identity.  The smaller identities are proved the same way, as
polynomial zero tests; the expansion equalities are also shown at one point.
"""

from fractions import Fraction

import numpy as np

from egtan.certificates import (
    ALL_TERM_NAMES,
    CertificateAssignment,
    build_constrained_lhs,
    check_constrained_identity,
    check_expansion_identities,
    check_newsos_claim,
    check_p2_block_identity,
    constrained_expansion_table,
    prove_expansion_identities,
    prove_unconstrained_identity,
    verification_report,
)

for branch in ("nonneg", "neg"):
    lhs = build_constrained_lhs(branch)
    print(f"branch {branch:>6}: identity holds = {check_constrained_identity(branch)} "
          f"({lhs.monomial_count()} monomials, degree {lhs.degree()})")

print("\na few rows of the per-monomial expansion (both sides agree):")
for row in constrained_expansion_table("nonneg")[:6]:
    print(f"  {row.monomial:<14} {row.lhs}")

print("\nexact spot evaluation at a random rational assignment:")
rng = np.random.default_rng(0)
point = CertificateAssignment.random(rng, "nonneg")
print(f"  lhs = rhs = {build_constrained_lhs('nonneg').evaluate(point.values())} (exact rational)")

print("\nmutation sweep: dropping any one of the 14 terms must fail the check")
for term in ALL_TERM_NAMES:
    branch = "neg" if term == "cons-9" else "nonneg"
    broken = not check_constrained_identity(branch, mutate=term)
    entry = verification_report(mutate=term)[f"constrained-{branch}"]
    monomial = entry["first_differing_monomial"]
    print(f"  drop {term:<7} -> broken: {broken} (first differing monomial {monomial})")

print(f"\nunconstrained identity, every dimension: {prove_unconstrained_identity()}")
print(f"representative-coordinate block collapses to zero: {check_p2_block_identity()}")
print(f"regrouped right side matches: {check_newsos_claim()}")
print(f"coefficient expansions hold as polynomial identities: {prove_expansion_identities()}")
print(f"coefficient expansions hold at (1, 1/2, -2/3): "
      f"{check_expansion_identities(Fraction(1), Fraction(1, 2), Fraction(-2, 3))}")
