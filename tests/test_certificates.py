import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from egtan import certificates as cert
from egtan.certificates import (
    ALL_TERM_NAMES,
    BRANCHES,
    CONSTRAINED_VARS,
    LHS_TERM_NAMES,
    CertificateAssignment,
    build_constrained_lhs,
    build_constrained_rhs,
    build_lhs_from_derivation,
    check_constrained_identity,
    check_expansion_identities,
    check_newsos_claim,
    check_p2_block_identity,
    check_unconstrained_identity,
    constrained_expansion_table,
    p2_block_polynomial,
    prove_expansion_identities,
    prove_unconstrained_identity,
    verification_report,
)
from egtan.exactpoly import SparsePoly, generators
from tests.oracles import substitute_term_by_term, unconstrained_identity_terms


def rational_vector(rng, dim):
    return [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 10))) for _ in range(dim)]


class TestSparsePoly:
    def test_ring_axioms_on_random_polys(self):
        rng = np.random.default_rng(0)
        vars = ("x", "y", "z")
        for _ in range(30):
            def rand_poly():
                terms = {}
                for _ in range(int(rng.integers(1, 6))):
                    exp = tuple(int(e) for e in rng.integers(0, 4, 3))
                    terms[exp] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                return SparsePoly(vars, terms)

            p, q = rand_poly(), rand_poly()
            assert (p + q) - q == p
            assert p * SparsePoly.constant(vars, 1) == p
            assert (p * q) - (q * p) == SparsePoly(vars)

    def test_no_zero_coefficients_stored(self):
        vars = ("x",)
        p = SparsePoly(vars, {(1,): 1}) - SparsePoly(vars, {(1,): 1})
        assert p.terms == {}
        assert p.is_zero()

    def test_exact_division(self):
        g = generators(("x", "y"))
        p = (g["x"] + g["y"]) ** 3
        q = p.divide_exact(g["x"] + g["y"])
        assert q == (g["x"] + g["y"]) ** 2
        with pytest.raises(ValueError, match="not exact"):
            (g["x"] ** 2 + 1).divide_exact(g["x"] + 1)

    def test_substitute_and_evaluate(self):
        g = generators(("x", "y"))
        p = g["x"] ** 2 + g["y"]
        assert p.substitute({"x": g["y"]}) == g["y"] ** 2 + g["y"]
        assert p.evaluate({"x": Fraction(2), "y": Fraction(1, 3)}) == Fraction(13, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            SparsePoly.constant(("x",), 0.5)

    def test_an_exponent_of_the_wrong_length_is_named(self):
        message = r"exponent tuple \(1, 0, 2\) does not match 2 variables"
        with pytest.raises(ValueError, match=message):
            SparsePoly(("x", "y"), {(1, 0): 1, (1, 0, 2): 3})

    def test_construction_drops_zeros_and_keeps_integers_as_int(self):
        terms = {(1, 0): 0, (0, 1): Fraction(4, 2), (1, 1): "3/2", (2, 0): "-6/3"}
        p = SparsePoly(("x", "y"), terms)
        assert p.terms == {(0, 1): 2, (1, 1): Fraction(3, 2), (2, 0): -2}
        assert [type(c) for c in p.terms.values()] == [int, Fraction, int]


class TestUnconstrainedIdentity:
    def test_equal_vectors_cancel(self):
        v = [Fraction(3, 7), Fraction(-2), Fraction(5, 2)]
        assert check_unconstrained_identity(v, v, v)

    def test_random_rational_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            assert check_unconstrained_identity(
                rational_vector(rng, dim), rational_vector(rng, dim), rational_vector(rng, dim)
            )

    def test_inconsistent_term_breaks_the_cancellation(self):
        rng = np.random.default_rng(2)
        f_k = rational_vector(rng, 4)
        f_half = rational_vector(rng, 4)
        f_next = rational_vector(rng, 4)
        terms = unconstrained_identity_terms(f_k, f_half, f_next)
        perturbed = list(f_half)
        perturbed[0] += 1
        mutated = unconstrained_identity_terms(f_k, perturbed, f_next)
        # splice the perturbed monotonicity term into an otherwise clean sum
        assert sum(terms[:2]) + mutated[2] + sum(terms[3:]) != 0

    def test_symbolic_zero_for_small_dimensions(self):
        for dim in (1, 2, 3):
            names = tuple(
                f"{base}{i}" for base in ("k", "h", "n") for i in range(dim)
            )
            g = generators(names)
            fk = [g[f"k{i}"] for i in range(dim)]
            fh = [g[f"h{i}"] for i in range(dim)]
            fn = [g[f"n{i}"] for i in range(dim)]
            total = SparsePoly(names)
            for i in range(dim):
                total = total + fk[i] ** 2 - fn[i] ** 2
                total = total + 2 * (fn[i] - fk[i]) * fh[i]
                total = total + (fh[i] - fn[i]) ** 2 - (fh[i] - fk[i]) ** 2
            assert total.is_zero()

    def test_symbolic_proof_holds(self):
        assert prove_unconstrained_identity()

    @pytest.mark.parametrize("i", range(5))
    def test_perturbed_summand_fails_the_proof(self, monkeypatch, i):
        summands = cert._unconstrained_terms

        def perturbed(*vectors):
            terms = summands(*vectors)
            terms[i] = 2 * terms[i]
            return terms

        monkeypatch.setattr(cert, "_unconstrained_terms", perturbed)
        assert not prove_unconstrained_identity()
        assert verification_report()["unconstrained"] == {"status": "fail"}


class TestConstrainedIdentity:
    def test_both_branches_hold_exactly(self):
        report = verification_report()
        for branch in BRANCHES:
            assert check_constrained_identity(branch)
            assert "first_differing_monomial" not in report[f"constrained-{branch}"]

    def test_lhs_matches_its_derivation(self):
        for branch in BRANCHES:
            assert (build_lhs_from_derivation(branch) - build_constrained_lhs(branch)).is_zero()

    @pytest.mark.parametrize("term", LHS_TERM_NAMES)
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_derivation_route_detects_a_dropped_term(self, branch, term):
        diff = build_lhs_from_derivation(branch) - build_constrained_lhs(branch, mutate=term)
        # cons-9 carries the negative-branch indicator: identically zero on nonneg
        assert diff.is_zero() == (branch == "nonneg" and term == "cons-9")

    def test_degree_and_size(self):
        lhs = build_constrained_lhs("nonneg")
        assert lhs.degree() == 8
        assert lhs.monomial_count() == build_constrained_rhs("nonneg").monomial_count()

    @pytest.mark.parametrize("term", ALL_TERM_NAMES)
    def test_dropping_any_term_breaks_the_identity(self, term):
        # cons-9 vanishes on the nonneg branch, so test each term on the
        # branches where it actually contributes
        branches = ("neg",) if term == "cons-9" else BRANCHES
        report = verification_report(mutate=term)
        for branch in branches:
            assert not check_constrained_identity(branch, mutate=term)
            assert report[f"constrained-{branch}"]["first_differing_monomial"]

    def test_published_table_coefficients(self):
        g = dict(zip(cert.CONSTRAINED_VARS, range(len(cert.CONSTRAINED_VARS))))

        def coeff(poly, **powers):
            groups = poly.coefficient_map(cert.VECTOR_VARS)
            key = [0] * len(cert.VECTOR_VARS)
            for name, p in powers.items():
                key[cert.VECTOR_VARS.index(name)] = p
            return groups.get(tuple(key), SparsePoly(cert.CONSTRAINED_VARS))

        den_all = cert._DEN_ALL
        lhs = build_constrained_lhs("nonneg")
        rhs = build_constrained_rhs("nonneg")
        # row eta F(z_half)[1] * z_k[1]: sum is -2 on both sides
        for side in (lhs, rhs):
            c = coeff(side, fh1=1, zk1=1)
            assert c == -2 * den_all
        # row (eta F(z_half)[1])^2: sum is +1 on both sides
        for side in (lhs, rhs):
            assert coeff(side, fh1=2) == den_all
        # row eta F(z_k)[3] * eta F(z_half)[3]: sum is 0 on both sides
        for side in (lhs, rhs):
            assert coeff(side, fk3=1, fh3=1).is_zero()

    def test_expansion_table_rows_all_agree(self):
        rows = constrained_expansion_table("nonneg")
        assert rows and all(r.equal for r in rows)
        by_name = {r.monomial: r for r in rows}
        assert by_name["zk1*fh1"].lhs == "-2"
        assert by_name["fh1^2"].lhs == "1"
        assert by_name["zh1^2"].lhs == "al^2 + 1"

    def test_spot_evaluation_agrees_with_symbolic_result(self):
        rng = np.random.default_rng(3)
        for i in range(100):
            branch = "nonneg" if i % 2 == 0 else "neg"
            values = CertificateAssignment.random(rng, branch).values()
            lhs = build_constrained_lhs(branch).evaluate(values)
            assert lhs == build_constrained_rhs(branch).evaluate(values)

    def test_rhs_nonnegative_at_random_points(self):
        rng = np.random.default_rng(4)
        for i in range(100):
            branch = "nonneg" if i % 2 == 0 else "neg"
            values = CertificateAssignment.random(rng, branch).values()
            assert build_constrained_rhs(branch).evaluate(values) >= 0

    @pytest.mark.parametrize("build", [
        cert._terms,
        build_lhs_from_derivation,
        lambda branch: CertificateAssignment(0, 0, 0, (0,) * 3, (0,) * 3, (0,) * 3, 0, 0, 0,
                                             branch),
    ])
    def test_an_unknown_branch_is_rejected(self, build):
        with pytest.raises(ValueError, match=r"branch must be one of \('nonneg', 'neg'\)"):
            build("both")

    def test_assignment_values_follow_the_constrained_variables(self):
        point = CertificateAssignment(1, 2, 3, (4, 5, 6), (7, 8, 9), (10, 11, 12), 13, 14, 15)
        assert list(point.values().items()) == list(zip(CONSTRAINED_VARS, range(1, 16)))

    def test_branch_sign_enforced(self):
        with pytest.raises(ValueError, match="nonneg branch"):
            CertificateAssignment(
                zk1=Fraction(0), zk2=Fraction(0), zh1=Fraction(0),
                fk=(Fraction(0),) * 3, fh=(Fraction(0),) * 3,
                fn=(Fraction(-1), Fraction(0), Fraction(0)),
                alpha=Fraction(0), beta1=Fraction(0), beta2=Fraction(0),
                branch="nonneg",
            )


class TestP2Block:
    def test_zero_after_substitution(self):
        assert check_p2_block_identity()

    def test_nonzero_without_substitution(self):
        assert not p2_block_polynomial().is_zero()

    def test_spot_evaluation_at_consistent_assignments(self):
        rng = np.random.default_rng(6)
        block = p2_block_polynomial()
        for _ in range(50):
            x0, y0, y1, y2 = (Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 8))) for _ in range(4))
            value = block.evaluate(
                {"x0": x0, "x1": x0 - y0, "x2": x0 - y1, "y0": y0, "y1": y1, "y2": y2}
            )
            assert value == 0

    def test_substitute_matches_the_term_by_term_composition(self):
        g = generators(("x0", "x1", "x2", "y0", "y1", "y2"))
        block = p2_block_polynomial()
        for relations in ({"x1": g["x0"] - g["y0"], "x2": g["x0"] - g["y1"]},
                          {"x1": g["x0"] - g["y0"]}, {"y2": g["x1"] * g["y0"] + 3}):
            want = substitute_term_by_term(block, relations)
            assert block.substitute(relations).terms == want.terms
        for branch in BRANCHES:
            lhs = build_constrained_lhs(branch)
            point = CertificateAssignment.random(np.random.default_rng(5), branch).values()
            frame = {v: SparsePoly.constant(lhs.vars, point[v]) for v in ("al", "b1", "b2")}
            assert lhs.substitute(frame).terms == substitute_term_by_term(lhs, frame).terms

    def test_partial_substitution_is_not_zero(self):
        g = generators(("x0", "x1", "x2", "y0", "y1", "y2"))
        block = p2_block_polynomial().substitute({"x1": g["x0"] - g["y0"]})
        assert not block.is_zero()


class TestExpansionIdentities:
    def test_hand_checked_points(self):
        assert check_expansion_identities(Fraction(1), Fraction(0), Fraction(0))
        assert check_expansion_identities(Fraction(0), Fraction(0), Fraction(0))

    def test_random_rational_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            vals = [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 12))) for _ in range(3)]
            assert check_expansion_identities(*vals)

    def test_symbolic_proof_holds(self):
        assert prove_expansion_identities()

    @pytest.mark.parametrize("j", range(3))
    def test_perturbed_equality_fails_the_proof(self, monkeypatch, j):
        cleared = cert._expansion_sides

        def perturbed(*point):
            sides = cleared(*point)
            sides[j] = (2 * sides[j][0], sides[j][1])
            return sides

        monkeypatch.setattr(cert, "_expansion_sides", perturbed)
        assert not prove_expansion_identities()
        assert verification_report()["expansion"] == {"status": "fail"}


class TestNewSosClaim:
    def test_polynomial_identity(self):
        assert check_newsos_claim()

    def test_specialization_without_betas(self):
        # with beta1 = beta2 = 0 both sides collapse to a^2 + b^2
        g = generators(("a", "b", "b1", "b2"))
        one = SparsePoly.constant(g["a"].vars, 1)
        lhs = g["a"] ** 2 * (one + g["b1"] ** 2 + g["b2"] ** 2) + (
            (one + g["b2"] ** 2) * g["b"] + g["b1"] * g["b2"] * g["a"]
        ) ** 2
        collapsed = lhs.substitute({"b1": SparsePoly(g["a"].vars), "b2": SparsePoly(g["a"].vars)})
        assert collapsed == g["a"] ** 2 + g["b"] ** 2

    def test_random_spot_checks(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b, b1, b2 = (Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 9))) for _ in range(4))
            lhs = a * a / (1 + b2 * b2) + ((1 + b2 * b2) * b + b1 * b2 * a) ** 2 / (
                (1 + b2 * b2) * (1 + b1 * b1 + b2 * b2)
            )
            rhs = (a * a + b * b + (b1 * a + b2 * b) ** 2) / (1 + b1 * b1 + b2 * b2)
            assert lhs == rhs


class TestVerificationReport:
    def test_clean_report_passes(self):
        report = verification_report(seed=0)
        assert report["all_pass"]
        assert report["constrained-nonneg"]["max_degree"] == 8

    def test_mutated_report_fails_and_names_monomial(self):
        report = verification_report(seed=0, mutate="sos-5")
        assert not report["all_pass"]
        assert report["constrained-nonneg"]["status"] == "fail"
        assert report["constrained-nonneg"]["first_differing_monomial"]

    def test_mutations_leave_the_cached_terms_intact(self):
        # each branch's terms are built once and shared by every later call, so
        # a mutated report or check must drop its term without editing that table
        clean = verification_report(seed=0)
        for term in ALL_TERM_NAMES:
            assert not verification_report(seed=0, mutate=term)["all_pass"]
            assert not check_constrained_identity("neg", mutate=term)
            again = verification_report(seed=0)
            assert again["all_pass"] and again == clean  # same statuses and monomial counts

    def test_report_draws_nothing_from_the_seed(self):
        report = verification_report(seed=0)
        assert report == verification_report(seed=12345)
        assert report["unconstrained"] == report["expansion"] == {"status": "pass"}
        assert not any("trials" in entry for entry in report.values() if isinstance(entry, dict))

    @pytest.mark.parametrize("mutate", ["bogus", "", "sos-6"])
    def test_unknown_mutation_is_rejected(self, mutate):
        for check in (lambda: verification_report(mutate=mutate),
                      lambda: check_constrained_identity("nonneg", mutate=mutate)):
            with pytest.raises(ValueError, match="mutate must be one of cons-1, .*sos-5"):
                check()


def test_certificates_run_without_numpy():
    # a bare package in place of egtan/__init__, which imports the numeric modules
    code = textwrap.dedent(f"""
        import sys, types
        package = types.ModuleType("egtan")
        package.__path__ = [{str(Path(cert.__file__).parent)!r}]
        sys.modules["egtan"] = package
        from egtan.certificates import verification_report
        assert verification_report()["all_pass"]
        assert "numpy" not in sys.modules, "numpy was loaded"
    """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("branch", BRANCHES)
def test_certificate_coefficients_stay_ints(branch):
    # integer arithmetic is the fast path; a Fraction here would still be
    # exact, and would silently cost several times the time
    polys = [*cert._terms(branch).values(), build_lhs_from_derivation(branch)]
    assert all(type(c) is int for p in polys for c in p.terms.values())
