from fractions import Fraction

import pytest

from hilbcells import (
    LEX_YX,
    BivariatePolynomial,
    ChartCoefficient,
    CleftCouple,
    DomainError,
    Monomial,
    RegimeError,
    Weight,
    buchberger,
    build_chart_family,
    clefts,
    construct_staircase,
    enumerate_staircases,
    initial_staircase,
    specialize_family,
    standard_monomials,
    tangent_basis,
    verify_flatness,
    weight_initial_ideal,
)
from hilbcells.charts import _chart_basis, cleft_plan, default_sample_points
from hilbcells.polynomials import _complete, _Divisor, _StepGuard

W11 = Weight(1, -1)

X_YX = ((0, 1), (1, 0))  # the variable for couple (y, x)
X_Y1 = ((0, 1), (0, 0))  # the variable for couple (y, 1)


def corrupted_families(fam):
    """Two corruptions of a family with chart variables, none without.

    In the first, the last-but-one generator gains the constant term X, X
    its first variable: the leading monomials stay the clefts, but the
    generators stop being a Groebner basis, so completing a sample adds
    records.  In the second, the last generator is multiplied by X, so it
    is zero at every sample where X is.
    """
    if not fam.variables:
        return []
    x = ChartCoefficient.variable(fam.variables[0])
    gens = list(fam.generators)
    shifted = list(gens)
    shifted[-2] += BivariatePolynomial({Monomial(0, 0): x})
    vanishing = gens[:-1] + [gens[-1].scale(x)]
    return [fam._replace(generators=tuple(g)) for g in (shifted, vanishing)]


def check_sample_colengths(lengths) -> tuple[int, int, int]:
    """Check every sample colength of ``verify_flatness`` against the reduced basis.

    Every staircase of the given lengths is certified in both modes, as
    built and as ``corrupted_families`` makes it, at the
    ``default_sample_points`` of seeds 1 and 7 with three extra points.
    Each sample's colength must be ``len(standard_monomials(buchberger(gens,
    LEX_YX)))`` of its specialized generators, or -1 where that raises.
    Returns the number of samples, of samples whose completion added
    records, and of samples with a zero generator (those must give -1).
    """
    samples = completed = zero = 0
    for l in lengths:
        for E in enumerate_staircases(l):
            for mode, w in (("invariant", W11), ("general", None)):
                fam = build_chart_family(E, mode, w)
                for f in [fam] + corrupted_families(fam):
                    for seed in (1, 7):
                        points = default_sample_points(f, extra=3, seed=seed)
                        cert = verify_flatness(f, extra_samples=3, seed=seed)
                        for point, check in zip(points, cert.samples, strict=True):
                            frozen = tuple(sorted((k, str(v)) for k, v in point.items()))
                            assert check.point == frozen
                            gens = specialize_family(f, point)
                            try:
                                expected = len(standard_monomials(buchberger(gens, LEX_YX)))
                            except DomainError:
                                expected = -1
                            assert check.colength == expected, (E.columns, mode, point)
                            samples += 1
                            if any(not p for p in gens):
                                assert expected == -1
                                zero += 1
                                continue
                            records = [_Divisor(p, LEX_YX) for p in gens]
                            grown = _complete(list(records), LEX_YX, _StepGuard(None))
                            completed += len(grown) > len(records)
    return samples, completed, zero


def largest_dividing_cleft(E, m):
    """The 1-based index of the last cleft of E that divides m; 0 if none does."""
    return max((i for i, c in enumerate(clefts(E), start=1) if c.divides(m)), default=0)


def landing_sector(E, landing):
    """The 1-based index of the cleft ``cleft_plan`` finds for a landing of the first cleft.

    The plan is read from a basis whose one positive couple (c_1, m) moves
    m to the landing: m * lcm(c_1, c_2) / c_1 = landing.
    """
    c1, c2 = clefts(E)[:2]
    m = Monomial(landing.alpha - c2.alpha + c1.alpha, landing.beta)
    basis = tangent_basis(E)._replace(positive=(CleftCouple(c1, m),))
    (_, _, ((_, target, _),)), = [row for row in cleft_plan(basis).rows if row[0] == 0]
    return target + 1


def check_landings(lengths) -> int:
    """Every positive couple lands past its own cleft, in the largest cleft dividing it.

    Reads the ``cleft_plan`` of the general basis and of three invariant
    bases of every staircase of the given lengths; each row's target must
    be ``largest_dividing_cleft`` of the couple's landing, and lie past
    cleft i+1 (1-based).  Returns the number of plans read.  CI calls it
    beyond the Tier-1 lengths.
    """
    plans = 0
    for l in lengths:
        for E in enumerate_staircases(l):
            cs = clefts(E)
            for w in (None, W11, Weight(2, -1), Weight(1, -2)):
                for i, _, couples in cleft_plan(tangent_basis(E, w)).rows:
                    (ca, _), (na, _) = cs[i], cs[i + 1]
                    for (_, (ma, mb)), target, _ in couples:
                        landing = Monomial(ma + na - ca, mb)
                        assert target + 1 == largest_dividing_cleft(E, landing) > i + 1, (
                            E.columns, w, landing)
                plans += 1
    return plans


class TestSectors:
    """``cleft_plan`` takes each landing to the largest cleft dividing it."""

    def test_domino(self):
        E = construct_staircase([1, 1])
        assert landing_sector(E, Monomial(3, 0)) == 2

    def test_single_box(self):
        assert landing_sector(construct_staircase([1]), Monomial(1, 1)) == 2

    def test_cleft_sector_is_its_index(self):
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                cs = clefts(E)
                for i, c in enumerate(cs[1:], start=2):
                    assert landing_sector(E, c) == i

    def test_partition_of_complement(self):
        # Every landing the plan can reach, and every positive couple's.
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                cs = clefts(E)
                for a in range(cs[1].alpha, E.width + 3):
                    for b in range(E.height + 3):
                        m = Monomial(a, b)
                        if m not in E:
                            assert landing_sector(E, m) == largest_dividing_cleft(E, m) >= 2
        assert check_landings(range(1, 7)) > 0


class TestBuildFamily:
    def test_domino_invariant(self):
        fam = build_chart_family(construct_staircase([1, 1]), "invariant", W11)
        assert fam.variables == (X_YX,)
        texts = [p.to_text() for p in fam.generators]
        assert texts == ["+1/1·X[0,1;1,0]^1·x^1*y^0 +1/1·x^0*y^1", "+1/1·x^2*y^0"]
        assert dict(fam.q_polynomials)[X_YX].to_text() == "+1/1·x^1*y^0"

    def test_domino_general(self):
        fam = build_chart_family(construct_staircase([1, 1]), "general")
        assert fam.variables == (X_Y1, X_YX)
        p_y = fam.generators[0].to_text()
        assert p_y == (
            "+1/1·X[0,1;1,0]^1·x^1*y^0 +1/1·x^0*y^1 +1/1·X[0,1;0,0]^1·x^0*y^0"
        )

    def test_single_box_invariant_is_constant(self):
        fam = build_chart_family(construct_staircase([1]), "invariant", W11)
        assert fam.variables == ()
        assert [p.to_text() for p in fam.generators] == ["+1/1·x^0*y^1", "+1/1·x^1*y^0"]

    def test_mode_weight_mismatch(self):
        E = construct_staircase([1, 1])
        with pytest.raises(RegimeError):
            build_chart_family(E, "invariant")
        with pytest.raises(RegimeError):
            build_chart_family(E, "invariant", Weight(-1, -2))
        with pytest.raises(RegimeError):
            build_chart_family(E, "general", W11)
        with pytest.raises(DomainError):
            build_chart_family(E, "projective")

    def test_variable_count_matches_tangent(self):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                inv = build_chart_family(E, "invariant", W11)
                assert len(inv.variables) == len(tangent_basis(E, W11).positive)
                gen = build_chart_family(E, "general")
                assert len(gen.variables) == len(tangent_basis(E).positive)


class TestSpecialize:
    def test_unit_point(self):
        fam = build_chart_family(construct_staircase([1, 1]), "invariant", W11)
        gens = specialize_family(fam, {X_YX: Fraction(1)})
        assert sorted(p.to_text() for p in gens) == [
            "+1/1·x^1*y^0 +1/1·x^0*y^1",
            "+1/1·x^2*y^0",
        ]

    def test_origin_gives_monomial_generators(self):
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                for mode, w in (("invariant", W11), ("general", None)):
                    fam = build_chart_family(E, mode, w)
                    origin = specialize_family(fam, {})
                    assert origin == [
                        BivariatePolynomial.of_monomial(c, 1) for c in fam.clefts
                    ]

    def test_general_off_origin_fiber(self):
        fam = build_chart_family(construct_staircase([1, 1]), "general")
        gens = specialize_family(fam, {X_Y1: Fraction(1)})
        assert sorted(p.to_text() for p in gens) == [
            "+1/1·x^0*y^1 +1/1·x^0*y^0",
            "+1/1·x^2*y^0",
        ]
        assert len(standard_monomials(buchberger(gens, LEX_YX))) == 2

    def test_unknown_variable_rejected(self):
        fam = build_chart_family(construct_staircase([1, 1]), "invariant", W11)
        with pytest.raises(DomainError):
            specialize_family(fam, {X_Y1: Fraction(1)})


class TestCleftPlan:
    """The cleft recursion evaluated over Q equals substitution into the family."""

    @pytest.mark.parametrize("mode, w", [
        ("invariant", W11), ("invariant", Weight(2, -1)), ("invariant", Weight(1, -2)),
        ("general", None),
    ], ids=str)
    def test_rational_evaluation_equals_specialize_family(self, mode, w):
        # Every unit point, which is what a degeneration step evaluates,
        # then two seeded points with every variable set.
        for l in range(1, 10):
            for E in enumerate_staircases(l):
                fam = build_chart_family(E, mode, w)
                plan = cleft_plan(_chart_basis(E, mode, w))
                for point in default_sample_points(fam, extra=2, seed=3):
                    generators, _ = plan.evaluate(point)
                    assert generators == specialize_family(fam, point), (E.columns, point)


class TestFlatness:
    def test_domino_invariant_certificate(self):
        cert = verify_flatness(build_chart_family(construct_staircase([1, 1]), "invariant", W11))
        assert cert.valid and cert.leading_ok and cert.origin_ok
        assert all(ok for _, _, ok, _ in cert.spairs)
        assert all(s.colength == 2 for s in cert.samples)

    def test_hook_staircase_general_with_five_random_points(self):
        fam = build_chart_family(construct_staircase([3, 1, 1, 1]), "general")
        cert = verify_flatness(fam, extra_samples=5, seed=20010610)
        assert cert.valid
        assert all(s.colength == 6 for s in cert.samples)

    def test_corrupted_family_is_rejected(self):
        fam = build_chart_family(construct_staircase([1, 1]), "invariant", W11)
        bad_generator = BivariatePolynomial.of_monomial(Monomial(0, 1)) + (
            BivariatePolynomial.of_monomial(Monomial(0, 2)).scale(
                ChartCoefficient.variable(X_YX)
            )
        )
        corrupted = fam._replace(generators=(bad_generator, fam.generators[1]))
        cert = verify_flatness(corrupted)
        assert not cert.valid
        assert cert.witness is not None

    def test_family_failing_only_at_the_origin_is_rejected(self):
        # y + X + 1 still leads with y, its S-pair with x reduces to zero and
        # every sample has colength 1; only the origin fiber y + 1 is wrong.
        fam = build_chart_family(construct_staircase([1]), "general")
        one = BivariatePolynomial.of_monomial(Monomial(0, 0))
        shifted = fam._replace(generators=(fam.generators[0] + one, *fam.generators[1:]))
        cert = verify_flatness(shifted)
        assert cert.leading_ok and [p.remainder_zero for p in cert.spairs] == [True]
        assert cert.samples and all(s.colength == 1 and s.ok for s in cert.samples)
        assert not cert.origin_ok and not cert.valid
        assert cert.witness == "origin fiber differs from the monomial ideal"

    def test_sample_colengths_equal_the_reduced_basis_up_to_length_7(self):
        assert check_sample_colengths(range(1, 8)) == (3030, 331, 468)

    def test_all_staircases_both_modes(self):
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                for mode, w in (("invariant", W11), ("general", None)):
                    cert = verify_flatness(build_chart_family(E, mode, w))
                    assert cert.valid, (E.columns, mode, cert.witness)

    def test_sample_specializations_have_initial_staircase_E(self):
        for l in range(1, 6):
            for E in enumerate_staircases(l):
                for mode, w in (("invariant", W11), ("general", None)):
                    fam = build_chart_family(E, mode, w)
                    for point in default_sample_points(fam, extra=2, seed=5):
                        gens = specialize_family(fam, point)
                        assert initial_staircase(gens, LEX_YX) == E

    def test_invariant_mode_is_quasi_homogeneous(self):
        # Every generator P is concentrated in one degree of the grading once
        # the chart variables count for zero.
        for l in range(1, 8):
            for E in enumerate_staircases(l):
                fam = build_chart_family(E, "invariant", W11)
                for c, p in zip(fam.clefts, fam.generators):
                    assert {W11.degree(m) for m in p.terms} == {W11.degree(c)}

    def test_invariant_mode_min_weight_limit_recovers_the_ideal(self):
        # For torus exponents pairing positively with the direction, the
        # small-parameter limit of every member is the monomial ideal.
        for l in range(1, 6):
            for E in enumerate_staircases(l):
                fam = build_chart_family(E, "invariant", W11)
                expected = [BivariatePolynomial.of_monomial(c, 1) for c in fam.clefts]
                for point in default_sample_points(fam, extra=2, seed=9):
                    gens = specialize_family(fam, point)
                    for vector in ((2, 1), (3, 1)):
                        limit = weight_initial_ideal(gens, vector, "min")
                        assert initial_staircase(limit, LEX_YX) == E
                        assert sorted(p.to_text() for p in limit) == sorted(
                            p.to_text() for p in expected
                        )
