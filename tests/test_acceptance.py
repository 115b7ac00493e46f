"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

All checks are exact (integer and rational arithmetic); there are no numeric
tolerances to calibrate.  Criterion 9 checks the census at the two pinned
weight vectors over the lengths where each is generic, (-1,-3) through
length 3 and (-2,-5) through length 6, and the genericity refusal beyond
them through length 8, with the witness characters (3,-1) and (5,-2) that
the vectors are orthogonal to.  The companion census check runs the same
anchors and invariance with vectors that stay generic through length 8.
"""

import contextlib

import pytest

from hilbcells import (
    GRLEX_XY,
    LEX_YX,
    BivariatePolynomial,
    Comparison,
    GenericityError,
    Weight,
    buchberger,
    build_chart_family,
    clefts,
    compare_staircases,
    construct_staircase,
    descend_to_minimal,
    enumerate_staircases,
    hilbert_function,
    hom_tangent_oracle,
    initial_staircase,
    is_groebner,
    minimal_staircase,
    parse_ideal,
    poincare_polynomial,
    specialize_family,
    standard_monomials,
    tangent_basis,
    verify_flatness,
    weight_initial_ideal,
)
from hilbcells.charts import default_sample_points

W11 = Weight(1, -1)
CONSTANCY_WEIGHTS = (Weight(1, -1), Weight(2, -1), Weight(3, -2), Weight(1, -3))


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def monomial_generators(E):
    return [BivariatePolynomial.of_monomial(c, 1) for c in clefts(E)]


def test_criterion_1_pinned_groebner_anchor():
    with criterion(1, "pinned anchor: self-Groebner basis of colength 7"):
        gens = parse_ideal("x*y^2+y^3; x^2*y+x*y^2; x^3+x^2*y-x*y-y^2; y^4-y^3")
        assert is_groebner(gens, GRLEX_XY), "the stated basis must be its own Groebner basis"
        gb = buchberger(gens, GRLEX_XY)
        assert len(standard_monomials(gb)) == 7

        E = construct_staircase([3, 1, 1, 1])
        assert {str(c) for c in clefts(E)} == {"y^3", "x*y", "x^4"}
        assert len(E) == 6


def test_criterion_2_origin_fibers():
    with criterion(2, "origin fiber of both chart modes is the monomial ideal"):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                for mode, w in (("invariant", W11), ("general", None)):
                    fam = build_chart_family(E, mode, w)
                    assert specialize_family(fam, {}) == monomial_generators(E), (
                        E.columns, mode,
                    )


def test_criterion_3_tangent_oracle_equivalence():
    with criterion(3, "tangent oracle equivalence up to length 8"):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                combinatorial = tuple(sorted(c.char for c in tangent_basis(E).significant))
                oracle = hom_tangent_oracle(E)
                assert combinatorial == oracle, E.columns
                assert len(combinatorial) == 2 * l == len(oracle), E.columns


def test_criterion_4_dimension_constancy():
    with criterion(4, "invariant tangent dimension constant per class, length <= 12"):
        for w in CONSTANCY_WEIGHTS:
            for l in range(1, 13):
                groups = {}
                for E in enumerate_staircases(l):
                    groups.setdefault(hilbert_function(E, w), []).append(E)
                for H, members in groups.items():
                    dims = {tangent_basis(E, w).dimension for E in members}
                    assert len(dims) == 1, (w, H.as_dict(), dims)


def test_criterion_5_minimal_stratum_uniqueness_and_minimality():
    with criterion(5, "unique minimal stratum equals the bottom-row recursion"):
        for w in CONSTANCY_WEIGHTS:
            for l in range(1, 13):
                groups = {}
                for E in enumerate_staircases(l):
                    groups.setdefault(hilbert_function(E, w), []).append(E)
                for H, members in groups.items():
                    empty = [E for E in members if not tangent_basis(E, w).positive]
                    assert len(empty) == 1, (w, H.as_dict())
                    least = empty[0]
                    for other in members:
                        if other != least:
                            assert (
                                compare_staircases(least, other, w) is Comparison.LESS
                            ), (w, least.columns, other.columns)
                    assert minimal_staircase(H) == least, (w, H.as_dict())


def test_criterion_6_descent_convergence():
    with criterion(6, "descent strictly decreases and converges, length <= 10"):
        w = W11
        for l in range(1, 11):
            for E in enumerate_staircases(l):
                H = hilbert_function(E, w)
                target = minimal_staircase(H)
                for policy in ("first", "last", "random"):
                    current = E
                    steps = descend_to_minimal(E, w, policy=policy, seed=7)
                    for step in steps:
                        assert (
                            compare_staircases(step.target, current, w) is Comparison.LESS
                        ), (E.columns, policy)
                        assert hilbert_function(step.target, w) == H, (E.columns, policy)
                        current = step.target
                    assert current == target, (E.columns, policy)


def test_criterion_7_flatness_certificates():
    with criterion(7, "flatness certificates for both modes, length <= 8"):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                expected = monomial_generators(E)
                for mode, w in (("invariant", W11), ("general", None)):
                    fam = build_chart_family(E, mode, w)
                    cert = verify_flatness(fam, extra_samples=3, seed=7)
                    assert cert.valid, (E.columns, mode, cert.witness)
                    assert cert.leading_ok and cert.origin_ok
                    assert len(cert.samples) >= 3
                    assert all(s.colength == l for s in cert.samples)
                # Invariant members stay in the attracting cell of E.
                fam = build_chart_family(E, "invariant", W11)
                for point in default_sample_points(fam, extra=3, seed=7):
                    gens = specialize_family(fam, point)
                    assert initial_staircase(gens, LEX_YX) == E, (E.columns, point)
                    limit = weight_initial_ideal(gens, (2, 1), "min")
                    assert sorted(p.to_text() for p in limit) == sorted(
                        p.to_text() for p in expected
                    ), (E.columns, point)


def test_criterion_8_positive_product_collapse():
    with criterion(8, "positive-product collapse: point classes, zero tangent"):
        for w in (Weight(-1, -2), Weight(-2, -3)):
            for l in range(1, 13):
                groups = {}
                for E in enumerate_staircases(l):
                    groups.setdefault(hilbert_function(E, w), []).append(E)
                for H, members in groups.items():
                    assert len(members) == 1, (w, H.as_dict())
                for E in enumerate_staircases(l):
                    assert tangent_basis(E, w).dimension == 0, (w, E.columns)


def test_criterion_9_poincare_with_pinned_vectors():
    # A census exists only while the vector is generic: (-1,-3) through
    # length 3, (-2,-5) through length 6.  From length 4 on, (-1,-3) is
    # orthogonal to the significant character (3,-1) of the couple (y, x^3)
    # on [1,1,1,1]; from length 7 on, (-2,-5) is orthogonal to (5,-2) of
    # (y^2, x^5).  There the census must be refused, naming such a couple.
    with criterion(9, "pinned (-1,-3), (-2,-5): census while generic, named witness beyond"):
        assert poincare_polynomial(1, (-1, -3)) == {2: 1}
        assert poincare_polynomial(2, (-1, -3)) == {3: 1, 4: 1}
        for l in range(1, 4):
            first = poincare_polynomial(l, (-1, -3))
            second = poincare_polynomial(l, (-2, -5))
            assert sum(first.values()) == len(enumerate_staircases(l)), l
            assert first == second, l
        for l in range(4, 7):
            second = poincare_polynomial(l, (-2, -5))
            assert sum(second.values()) == len(enumerate_staircases(l)), l
            assert second == poincare_polynomial(l, (-2, -9)), l
        for vector, threshold, witness in (
            ((-1, -3), 4, ((3, -1), "y", "x^3")),
            ((-2, -5), 7, ((5, -2), "y^2", "x^5")),
        ):
            for l in range(threshold, 9):
                with pytest.raises(GenericityError) as err:
                    poincare_polynomial(l, vector)
                couple = err.value.couple
                f, g = couple.char
                assert vector[0] * f + vector[1] * g == 0, (vector, l, couple.char)
                if l == threshold:
                    assert (couple.char, str(couple.c), str(couple.m)) == witness, (vector, l)


def test_criterion_9_census_substance_with_generic_vectors():
    # The mathematical content of the census criterion, run with weight
    # vectors that remain generic through length 8: no character (f, g) with
    # |f| + |g| > 8 occurs on a staircase of at most 8 cells.
    with criterion("9*", "census anchors, partition sum and invariance (generic vectors)"):
        assert poincare_polynomial(1, (-2, -9)) == {2: 1}
        assert poincare_polynomial(2, (-2, -9)) == {3: 1, 4: 1}
        for l in range(1, 9):
            first = poincare_polynomial(l, (-2, -9))
            second = poincare_polynomial(l, (-3, -10))
            assert sum(first.values()) == len(enumerate_staircases(l))
            assert first == second, l
