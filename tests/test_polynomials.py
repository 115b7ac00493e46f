import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbcells import (
    GRLEX_XY,
    LEX_XY,
    LEX_YX,
    BivariatePolynomial,
    BoundExceededError,
    ChartCoefficient,
    DomainError,
    Monomial,
    NonPolynomialError,
    NotZeroDimensionalError,
    StepLimitExceeded,
    Weight,
    buchberger,
    cell_order,
    clefts,
    construct_staircase,
    enumerate_staircases,
    initial_staircase,
    is_groebner,
    parse_ideal,
    poly_from_expr,
    standard_monomials,
    weight_initial_ideal,
    weight_order,
)
import hilbcells.polynomials as polynomials_module
from hilbcells.charts import build_chart_family, default_sample_points, specialize_family
from hilbcells.polynomials import exact_rational

W11 = Weight(1, -1)

LENGTH_SEVEN_IDEAL = "x*y^2+y^3; x^2*y+x*y^2; x^3+x^2*y-x*y-y^2; y^4-y^3"


def cleft_generators(E):
    return [BivariatePolynomial.of_monomial(c, 1) for c in clefts(E)]


def compare(order, m1, m2):
    """-1, 0 or 1 as m1 is below, equal to, or above m2: an order is its key."""
    k1, k2 = order.key(m1), order.key(m2)
    return (k1 > k2) - (k1 < k2)


class TestOrders:
    def test_compare_examples(self):
        x, y = Monomial(1, 0), Monomial(0, 1)
        assert compare(LEX_XY, x, y) == 1
        assert compare(LEX_YX, x, y) == -1
        assert compare(cell_order(W11), x, y) == -1

    def test_cell_order_regime(self):
        with pytest.raises(DomainError):
            cell_order(Weight(-1, -2))
        with pytest.raises(DomainError):
            cell_order(Weight(0, -1))

    def test_weight_order_validation(self):
        with pytest.raises(DomainError):
            weight_order((1, 0), "towards")

    def test_globality(self):
        assert weight_order((1, 0), "max").is_global
        assert not weight_order((2, 1), "min").is_global


ORDER_GRID = [Monomial(a, b) for a in range(6) for b in range(6)]
ORDER_SHIFTS = (Monomial(1, 0), Monomial(0, 1), Monomial(2, 3))
NAMED_ORDERS = (LEX_XY, LEX_YX, GRLEX_XY)

cell_orders = st.tuples(st.integers(1, 7), st.integers(-7, -1)).filter(
    lambda ab: math.gcd(*ab) == 1
).map(lambda ab: cell_order(Weight(*ab)))
weight_orders = st.builds(
    weight_order,
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from(("max", "min")),
)
monomial_orders = st.one_of(st.sampled_from(NAMED_ORDERS), cell_orders, weight_orders)


class TestOrderAxioms:
    """Every constructible order is a total multiplicative order, with 1 < m when global."""

    @given(order=monomial_orders)
    @settings(max_examples=120, deadline=None)
    def test_total_multiplicative_and_global(self, order):
        one = Monomial(0, 0)
        for m1 in ORDER_GRID:
            for m2 in ORDER_GRID:
                c = compare(order, m1, m2)
                assert (c == 0) == (m1 == m2), (order, m1, m2)
                for t in ORDER_SHIFTS:
                    assert compare(order, m1.mul(t), m2.mul(t)) == c, (order, m1, m2, t)
            if order.is_global and m1 != one:
                assert compare(order, one, m1) == -1, (order, m1)


class TestWeightOrderRecords:
    """``weight_order`` against a reference key, the sign rule, equality and repr."""

    def test_every_small_vector(self):
        for v1 in range(-3, 4):
            for v2 in range(-3, 4):
                if (v1, v2) == (0, 0):
                    continue
                for extremum, sign in (("max", 1), ("min", -1)):
                    order = weight_order((v1, v2), extremum)

                    def reference(m):  # the weight, then y-lex
                        return (sign * (v1 * m.alpha + v2 * m.beta), m.beta, m.alpha)

                    case = (v1, v2, extremum)
                    assert (sorted(ORDER_GRID, key=order.key)
                            == sorted(ORDER_GRID, key=reference)), case
                    assert order.is_global == (sign * v1 >= 0 and sign * v2 >= 0), case
                    assert order.name == f"{extremum}({v1},{v2});lex_yx", case
                    again = weight_order([v1, v2], extremum)
                    assert again == order and hash(again) == hash(order), case
                    assert " at 0x" not in repr(order), case

    def test_distinct_arguments_give_distinct_orders(self):
        orders = [LEX_XY, LEX_YX, GRLEX_XY, cell_order(W11), cell_order(Weight(2, -1)),
                  weight_order((1, 0), "max"), weight_order((-1, 0), "min"),
                  weight_order((0, 1), "max")]
        assert len(set(orders)) == len(orders)
        assert cell_order(W11) == cell_order(Weight(1, -1))

    def test_an_order_equals_hashes_and_shows_as_its_name(self):
        order, again = weight_order((1, 0), "max"), weight_order((1, 0), "max")
        assert order == again and order.key is not again.key
        assert hash(order) == hash(again) == hash(("max(1,0);lex_yx",))
        assert repr(order) == "MonomialOrder(name='max(1,0);lex_yx')"


class TestParsing:
    def test_expr(self):
        p = poly_from_expr("x*y^2 + y^3")
        assert p.terms == {Monomial(1, 2): Fraction(1), Monomial(0, 3): Fraction(1)}
        q = poly_from_expr("2/3*x - y + 1")
        assert q.terms == {
            Monomial(1, 0): Fraction(2, 3),
            Monomial(0, 1): Fraction(-1),
            Monomial(0, 0): Fraction(1),
        }

    def test_expr_rejects_garbage(self):
        with pytest.raises(DomainError):
            poly_from_expr("x + + y")
        with pytest.raises(DomainError):
            poly_from_expr("z^2")
        with pytest.raises(DomainError, match="^empty polynomial expression$"):
            poly_from_expr("  ")

    def test_laurent_shift_must_stay_polynomial(self):
        with pytest.raises(NonPolynomialError, match=re.escape(
                "shifting +1/1·x^0*y^0 by x^-1*y^0 leaves the polynomial ring")):
            poly_from_expr("1").mul_laurent(-1, 0)

    @pytest.mark.parametrize("expr", ["1" * 5000 + "*x", "x^" + "1" * 5000, "1/" + "1" * 5000,
                                      "1/0*x", "0/0"])
    def test_expr_refuses_unreadable_numbers(self, expr):
        with pytest.raises(DomainError):
            poly_from_expr(expr)

    def test_expr_reads_integer_and_rational_coefficients_alike(self):
        p = poly_from_expr("007*x + 4/2*y - 10/4")
        assert p.terms == {Monomial(1, 0): 7, Monomial(0, 1): 2, Monomial(0, 0): Fraction(-5, 2)}
        assert type(p.terms[Monomial(0, 1)]) is int

    def test_ideal(self):
        gens = parse_ideal(LENGTH_SEVEN_IDEAL)
        assert len(gens) == 4


def reference_divide(f, divisors, order):
    """Textbook division: quotients q_i and remainder r with f = sum(q_i * d_i) + r.

    Written apart from ``polynomials._reduce``, with the public arithmetic
    only (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, section
    2.3): the first divisor whose leading monomial divides the leading term
    of what is left takes that term, and otherwise the term moves to the
    remainder.  Every leading coefficient must be a nonzero constant.
    """
    leaders = []
    for d in divisors:
        lm = d.leading_monomial(order)
        lc = d.terms[lm]
        leaders.append((lm, 1 / Fraction(lc.terms[()] if isinstance(lc, ChartCoefficient) else lc)))
    quotients = [BivariatePolynomial.zero() for _ in divisors]
    r = BivariatePolynomial.zero()
    p = f
    while p:
        m = p.leading_monomial(order)
        c = p.terms[m]
        for k, (lm, inverse) in enumerate(leaders):
            if lm.divides(m):
                t = BivariatePolynomial({m.div(lm): c * inverse})
                quotients[k] = quotients[k] + t
                p = p - t * divisors[k]
                break
        else:
            lead = BivariatePolynomial({m: c})
            r, p = r + lead, p - lead
    return quotients, r


def remainder(f, divisors, order, step_limit=None):
    """``_reduce``'s remainder of f modulo the divisors' records."""
    records = [polynomials_module._Divisor(d, order) for d in divisors]
    return polynomials_module._reduce(f, records, order, polynomials_module._StepGuard(step_limit))


def checked_division(f, divisors, order):
    """The reference's quotients and remainder, with ``_reduce`` giving the same remainder.

    f must equal sum(q_i * d_i) + r, no term of r may be divisible by a
    divisor's leading monomial, and ``_reduce`` must return r: f itself
    exactly when no term reduced, that is when every quotient is zero.
    """
    quotients, r = reference_divide(f, divisors, order)
    recombined = r
    for q, d in zip(quotients, divisors):
        recombined = recombined + q * d
    assert recombined == f, (f, divisors, order)
    leaders = [d.leading_monomial(order) for d in divisors]
    assert not any(lm.divides(m) for m in r.terms for lm in leaders), (f, divisors, order)
    mine = remainder(f, divisors, order)
    assert mine == r, (f, divisors, order)
    assert (mine is f) == (not any(quotients)), (f, divisors, order)
    return quotients, r


class TestDivision:
    def test_monomial_quotient(self):
        q, r = checked_division(poly_from_expr("x^2*y"), [poly_from_expr("x^2")], LEX_YX)
        assert q[0] == poly_from_expr("y") and not r

    def test_self_division(self):
        f = poly_from_expr("y+x")
        q, r = checked_division(f, [f, poly_from_expr("x^2")], LEX_YX)
        assert q[0] == poly_from_expr("1") and not q[1] and not r

    def test_skips_to_matching_divisor(self):
        q, r = checked_division(poly_from_expr("x^3"), parse_ideal("y+x; x^2"), LEX_YX)
        assert not q[0] and q[1] == poly_from_expr("x") and not r

    def test_non_invertible_leading_coefficient(self):
        x = BivariatePolynomial.of_monomial(Monomial(1, 0))
        bad = x.scale(ChartCoefficient.variable(((0, 1), (1, 0))))
        with pytest.raises(DomainError):
            remainder(x, [bad], LEX_YX)

    def test_is_groebner_checks_a_lone_generator(self):
        # One generator forms no S-pair but is still checked as a divisor, so
        # it fails exactly as it does next to a second generator.
        x = BivariatePolynomial.of_monomial(Monomial(1, 0))
        bad = x.scale(ChartCoefficient.variable(((0, 1), (1, 0))))
        for gens in ([bad], [bad, x], [x, bad]):
            with pytest.raises(DomainError, match="is not an invertible constant"):
                is_groebner(gens, LEX_YX)

    def test_is_groebner_reduces_every_pair(self):
        # Under lex_xy the first S-pair, of y^2+x and x*y, leaves a nonzero
        # remainder within one step; the next, of y^2+x and x^8, takes eight
        # more.  The check goes on past the first remainder, and one step
        # limit bounds all the pairs together, so a limit of 8 trips.
        gens = parse_ideal("y^2+x; x*y; x^8")
        assert is_groebner(gens[:2], LEX_XY, step_limit=1) is False
        assert is_groebner(gens, LEX_XY, step_limit=9) is False
        for limit in (1, 8):
            with pytest.raises(StepLimitExceeded, match=f"step limit {limit} exceeded"):
                is_groebner(gens, LEX_XY, step_limit=limit)
        # Six pairs of 2, 5, 4, 5, 4 and 5 steps: 5 covers any one, not all.
        gens = parse_ideal("x^3+y; x^2*y+x; x*y^2+y^2; y^3+x^2")
        assert is_groebner(gens, LEX_YX, step_limit=25) is False
        for limit in (5, 24):
            with pytest.raises(StepLimitExceeded, match=f"step limit {limit} exceeded"):
                is_groebner(gens, LEX_YX, step_limit=limit)

    def test_step_guard(self):
        with pytest.raises(StepLimitExceeded):
            remainder(poly_from_expr("x^5"), [poly_from_expr("x-1")], LEX_XY, step_limit=2)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=0,
    max_size=5,
).map(lambda d: BivariatePolynomial({Monomial(*k): v for k, v in d.items()}))

nonzero_polys = small_polys.filter(bool)


class TestDivisionInvariant:
    @given(f=small_polys, divisors=st.lists(nonzero_polys, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_exact_identity(self, f, divisors):
        for order in (LEX_XY, LEX_YX, GRLEX_XY):
            checked_division(f, divisors, order)


class TestChartDivisionInvariant:
    def test_exact_identity_over_the_chart_ring(self):
        # Symbolic division against the monic chart generators satisfies the
        # same exact identity as over the rationals.
        x_poly = BivariatePolynomial.of_monomial(Monomial(1, 0))
        for columns in ((3, 1, 1, 1), (2, 2), (4, 2)):
            fam = build_chart_family(construct_staircase(list(columns)), "general")
            gens = list(fam.generators)
            extra = ChartCoefficient.variable(fam.variables[0])
            f = gens[0] * gens[-1] + gens[0].mul_laurent(1, 2).scale(extra) + x_poly
            # The generators are monic in their clefts only under the y-lex
            # order; any other order may hit a variable leading coefficient.
            checked_division(f, gens, LEX_YX)


class TestBuchberger:
    def test_line_and_square(self):
        gb = buchberger(parse_ideal("y+x; x^2"), LEX_YX)
        assert set(gb.leading_monomials) == {Monomial(0, 1), Monomial(2, 0)}
        E = standard_monomials(gb)
        assert E.columns == (1, 1) and len(E) == 2

    def test_length_seven_basis_is_groebner(self):
        gens = parse_ideal(LENGTH_SEVEN_IDEAL)
        assert is_groebner(gens, GRLEX_XY) is True

    def test_length_seven_colength(self):
        gb = buchberger(parse_ideal(LENGTH_SEVEN_IDEAL), GRLEX_XY)
        E = standard_monomials(gb)
        assert E.columns == (4, 2, 1) and len(E) == 7

    def test_single_monomial(self):
        gb = buchberger([poly_from_expr("x")], LEX_XY)
        assert [g.to_text() for g in gb.generators] == ["+1/1·x^1*y^0"]

    def test_idempotent(self):
        gb = buchberger(parse_ideal(LENGTH_SEVEN_IDEAL), GRLEX_XY)
        again = buchberger(list(gb.generators), GRLEX_XY)
        assert again.generators == gb.generators
        assert standard_monomials(again) == standard_monomials(gb)

    def test_zero_generator_rejected(self):
        with pytest.raises(DomainError):
            buchberger([BivariatePolynomial.zero()], LEX_XY)

    def test_interreduction_keeps_the_ideal(self):
        # {x, x+y} generates (x, y); a naive leading-term filter would lose y.
        gb = buchberger(parse_ideal("x; x+y"), LEX_XY)
        assert standard_monomials(gb).columns == (1,)

    def test_standard_monomials_refuse_more_columns_than_the_bound(self):
        bound = polynomials_module.STANDARD_COLUMNS_BOUND
        gb = buchberger(parse_ideal(f"x^{bound}; y^2"), LEX_YX)
        assert standard_monomials(gb).columns == (2,) * bound
        gb = buchberger(parse_ideal(f"x^{10**40}; y"), LEX_YX)
        with pytest.raises(BoundExceededError, match="exceeded by 10000000000"):
            standard_monomials(gb)
        # No pure power of y: infinite colength comes first, as before.
        gb = buchberger(parse_ideal(f"x^{10**40}; x*y"), LEX_YX)
        with pytest.raises(NotZeroDimensionalError):
            standard_monomials(gb)

    def test_square_plus_y_instance(self):
        # The S-polynomial of x^2+y and y^2 is y^3, which reduces to zero, so
        # the pair is already a basis; the check agrees with the fixpoint.
        gens = parse_ideal("x^2+y; y^2")
        assert is_groebner(gens, LEX_XY) is True
        basis = buchberger(gens, LEX_XY).generators
        assert sorted(g.to_text() for g in basis) == sorted(g.to_text() for g in gens)

    def test_output_passes_is_groebner(self):
        rng = random.Random(3)
        for _ in range(15):
            gens = []
            for _k in range(rng.randint(1, 3)):
                terms = {
                    Monomial(rng.randint(0, 3), rng.randint(0, 3)): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _t in range(rng.randint(1, 4))
                }
                p = BivariatePolynomial(terms)
                if p:
                    gens.append(p)
            if not gens:
                continue
            for order in (LEX_XY, LEX_YX, GRLEX_XY):
                gb = buchberger(gens, order)
                assert is_groebner(list(gb.generators), order) is True


def random_zero_dimensional_ideal(rng):
    """Random bivariate polynomials, plus a monic binomial in x alone and one in y alone."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        p = BivariatePolynomial({
            Monomial(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-2, 2))
            for _t in range(rng.randint(2, 4))
        })
        if p:
            gens.append(p)
    a, b = rng.randint(2, 5), rng.randint(2, 5)
    gens.append(BivariatePolynomial(
        {Monomial(a, 0): 1, Monomial(rng.randint(0, a - 1), 0): Fraction(rng.randint(-2, 2))}
    ))
    gens.append(BivariatePolynomial(
        {Monomial(0, b): 1, Monomial(0, rng.randint(0, b - 1)): Fraction(rng.randint(-2, 2))}
    ))
    return gens


def unit_specializations():
    """The general family of (3, 2, 1), of length 6, at each of its unit points."""
    fam = build_chart_family(construct_staircase([3, 2, 1]), "general")
    return [specialize_family(fam, point) for point in default_sample_points(fam, extra=0)]


def sympy_oracle_ideals():
    """110 seeded ideals: random ones, specialized general chart families, unit points."""
    rng = random.Random(5)
    ideals = [random_zero_dimensional_ideal(rng) for _ in range(100)]
    for l in (3, 4, 5, 6):
        E = rng.choice(enumerate_staircases(l))
        fam = build_chart_family(E, "general")
        point = {v: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for v in fam.variables}
        ideals.append(specialize_family(fam, point))
    return ideals + unit_specializations()


class TestSympyOracle:
    """Reduced bases equal those of sympy.groebner, an implementation outside this library.

    So does each ``initial_staircase``, laid out here from the leading
    monomials of sympy's basis: column i is as high as the least y-exponent
    among those of x-exponent at most i.
    """

    ORDERS = ((LEX_XY, "lex", "xy"), (LEX_YX, "lex", "yx"), (GRLEX_XY, "grlex", "xy"))
    # Weight first, then y-lex: x-degree then y is lex on (x, y); y-degree
    # then x is lex on (y, x); total degree then y then x is grlex on (y, x).
    WEIGHTED = ((weight_order((1, 0), "max"), "lex", "xy"),
                (weight_order((0, 1), "max"), "lex", "yx"),
                (weight_order((1, 1), "max"), "grlex", "yx"))

    def test_reduced_bases_agree_term_for_term(self):
        self.check_against_sympy(self.ORDERS)

    def test_weighted_orders_agree_term_for_term(self):
        self.check_against_sympy(self.WEIGHTED)

    def check_against_sympy(self, orders):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        symbol = {"x": x, "y": y}

        def to_expr(p):
            return sum(
                sympy.Rational(c.numerator, c.denominator) * x**m.alpha * y**m.beta
                for m, c in p.terms.items()
            )

        def from_expr(e):
            return tuple(sorted(
                (Monomial(*m), Fraction(int(c.p), int(c.q)))
                for m, c in sympy.Poly(e, x, y, domain="QQ").terms()
            ))

        for gens in sympy_oracle_ideals():
            exprs = [to_expr(g) for g in gens]
            for order, name, variables in orders:
                gb = buchberger(gens, order)
                mine = sorted(tuple(sorted(g.terms.items())) for g in gb.generators)
                theirs = sympy.groebner(
                    exprs, *(symbol[v] for v in variables), order=name, domain="QQ"
                )
                assert mine == sorted(from_expr(e) for e in theirs.exprs), (gens, order)
                leads = [g.monoms(order=name)[0] for g in theirs.polys]
                leads = [lead[::-1] if variables == "yx" else lead for lead in leads]
                columns = []
                while (height := min(b for a, b in leads if a <= len(columns))) > 0:
                    columns.append(height)
                assert initial_staircase(gens, order).columns == tuple(columns), (gens, order)


def with_coefficients(gens, kind):
    """The same polynomials with every coefficient converted by kind."""
    return [BivariatePolynomial({m: kind(c) for m, c in g.terms.items()}) for g in gens]


class TestIntegerPath:
    """Integral coefficients stay int, and give the answers and bytes of Fractions."""

    def test_unit_points_stay_integral(self):
        specializations = unit_specializations()
        assert len(specializations) == 6
        for gens in specializations:
            gb = buchberger(gens, LEX_YX)
            assert standard_monomials(gb).columns == (3, 2, 1)
            for p in gens + list(gb.generators):
                assert all(type(c) is int for c in p.terms.values()), p

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_int_and_fraction_coefficients_agree(self, seed):
        rng = random.Random(seed)
        ideal = random_zero_dimensional_ideal(rng)
        noise = BivariatePolynomial({
            Monomial(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-3, 3) for _ in range(4)
        })
        ints = with_coefficients(ideal + [ideal[0] * ideal[-1] + noise], int)
        fractions = with_coefficients(ints, Fraction)
        assert all(type(c) is int for g in ints for c in g.terms.values())

        def same(a, b):
            assert a == b
            assert a.to_text() == b.to_text()

        for order in (LEX_XY, LEX_YX, GRLEX_XY):
            by_int, by_fraction = buchberger(ints[:-1], order), buchberger(fractions[:-1], order)
            assert ([g.to_text() for g in by_int.generators]
                    == [g.to_text() for g in by_fraction.generators])
            for a, b in zip(by_int.generators, by_fraction.generators, strict=True):
                same(a, b)
            same(remainder(ints[-1], ints[:-1], order),
                 remainder(fractions[-1], fractions[:-1], order))
        vector = (rng.randint(0, 3), rng.randint(0, 3))
        limits = zip(weight_initial_ideal(ints[:-1], vector, "max"),
                     weight_initial_ideal(fractions[:-1], vector, "max"), strict=True)
        for a, b in limits:
            same(a, b)


class TestRemainderOnly:
    """The reduction loop gives the reference division's remainder."""

    def test_equals_the_reference_on_the_oracle_ideals(self):
        rng = random.Random(11)
        for gens in sympy_oracle_ideals():
            products = [g * h for g in gens for h in gens[:2]]
            noise = BivariatePolynomial({
                Monomial(rng.randint(0, 6), rng.randint(0, 6)): Fraction(rng.randint(-3, 3))
                for _ in range(5)
            })
            for order, _name, _variables in TestSympyOracle.ORDERS:
                records = [polynomials_module._Divisor(g, order) for g in gens]
                spolys = [polynomials_module._s_poly(a, b)
                          for i, a in enumerate(records) for b in records[i + 1:]]
                for f in products + spolys + [noise, noise + gens[0]]:
                    checked_division(f, gens, order)


class TestBuchbergerWork:
    """On a basis that already is one, only neighbouring clefts give S-pairs."""

    @pytest.mark.parametrize("columns", [[3, 2, 1], [4, 3, 3, 1], [5, 4, 2, 2, 1]])
    def test_specialized_family(self, monkeypatch, columns):
        # The chain criterion skips every pair of distant clefts, since the
        # clefts between them divide their lcm, and no S-pair adds an
        # element; the completed basis is interreduced once, in one pass.
        E = construct_staircase(columns)
        fam = build_chart_family(E, "general")
        gens = specialize_family(fam, default_sample_points(fam, extra=1, seed=5)[-1])
        counts = dict.fromkeys(("_s_poly", "_interreduce"), 0)
        for name in counts:
            original = getattr(polynomials_module, name)

            def wrapper(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(polynomials_module, name, wrapper)
        gb = buchberger(gens, LEX_YX)
        assert standard_monomials(gb) == E
        r = len(clefts(E))
        assert (counts["_s_poly"], counts["_interreduce"]) == (r - 1, 1)


class TestStandardMonomials:
    def test_examples(self):
        assert standard_monomials(buchberger(parse_ideal("y; x^2"), LEX_YX)).columns == (1, 1)
        assert standard_monomials(
            buchberger(parse_ideal("y^3; x*y; x^4"), LEX_YX)
        ).columns == (3, 1, 1, 1)

    def test_unit_ideal(self):
        gb = buchberger(parse_ideal("x; x+1"), LEX_XY)
        assert standard_monomials(gb).columns == ()

    def test_not_zero_dimensional(self):
        gb = buchberger([poly_from_expr("x")], LEX_XY)
        with pytest.raises(NotZeroDimensionalError):
            standard_monomials(gb)


class TestInitialStaircase:
    def test_examples(self):
        assert initial_staircase(parse_ideal("y+x; x^2"), cell_order(W11)).columns == (1, 1)
        assert initial_staircase(parse_ideal("x-1; y-2"), LEX_XY).columns == (1,)
        assert initial_staircase(parse_ideal(LENGTH_SEVEN_IDEAL), GRLEX_XY).columns == (4, 2, 1)

    def test_monomial_ideal_is_fixed(self):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                gens = cleft_generators(E)
                for order in (LEX_XY, LEX_YX, GRLEX_XY, cell_order(W11)):
                    assert initial_staircase(gens, order) == E


class TestWeightInitial:
    def test_max_limit(self):
        limit = weight_initial_ideal(parse_ideal("y+x; x^2"), (1, 0), "max")
        assert sorted(p.to_text() for p in limit) == ["+1/1·x^0*y^2", "+1/1·x^1*y^0"]
        assert initial_staircase(limit, LEX_YX).columns == (2,)

    def test_min_limit(self):
        limit = weight_initial_ideal(parse_ideal("y+x; x^2"), (2, 1), "min")
        assert initial_staircase(limit, LEX_YX).columns == (1, 1)
        assert sorted(p.to_text() for p in limit) == ["+1/1·x^0*y^1", "+1/1·x^2*y^0"]

    def test_monomial_ideal_fixed(self):
        gens = parse_ideal("y^3; x*y; x^4")
        limit = weight_initial_ideal(gens, (1, 0), "max")
        assert initial_staircase(limit, LEX_YX).columns == (3, 1, 1, 1)

    def test_colength_preserved_max_on_random_ideals(self):
        rng = random.Random(11)
        for _ in range(10):
            l = rng.randint(1, 8)
            E = rng.choice(enumerate_staircases(l))
            fam = build_chart_family(E, "general")
            point = {
                v: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for v in fam.variables
            }
            gens = specialize_family(fam, point)
            vector = (rng.randint(0, 3), rng.randint(0, 3))
            limit = weight_initial_ideal(gens, vector, "max")
            assert len(initial_staircase(limit, LEX_YX)) == l

    def test_colength_preserved_min_on_graded_ideals(self):
        rng = random.Random(13)
        for _ in range(10):
            l = rng.randint(1, 8)
            E = rng.choice(enumerate_staircases(l))
            fam = build_chart_family(E, "invariant", W11)
            point = {
                v: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for v in fam.variables
            }
            gens = specialize_family(fam, point)
            limit = weight_initial_ideal(gens, (2, 1), "min")
            assert len(initial_staircase(limit, LEX_YX)) == l


class TestLocalOrders:
    """Under an order where a variable sorts below 1, nilpotence is checked first."""

    def test_positive_dimensional_ideal_is_refused(self):
        with pytest.raises(NotZeroDimensionalError, match="^x sorts below 1"):
            weight_initial_ideal(parse_ideal("y"), (1, 0), "min")

    def test_check_has_its_own_step_budget(self, monkeypatch):
        guards = []

        class RecordingGuard(polynomials_module._StepGuard):
            def __init__(self, limit):
                super().__init__(limit)
                guards.append(self)

        monkeypatch.setattr(polynomials_module, "_StepGuard", RecordingGuard)
        gens = parse_ideal("y+x^2; x^3")
        order = weight_order((2, 1), "min")
        expected = buchberger(gens, order)
        main, check = guards[0], guards[1]
        assert main.steps > 0 and check.steps > 0
        # One limit covers each computation on its own, not their sum.
        limit = max(main.steps, check.steps)
        assert buchberger(gens, order, step_limit=limit) == expected
        with pytest.raises(StepLimitExceeded):
            buchberger(gens, order, step_limit=limit - 1)


_TEXT_TERM = re.compile(r"([+-])(\d+)/(\d+)·(?:([^·]+)·)?x\^(\d+)\*y\^(\d+)")
_TEXT_FACTOR = re.compile(r"X\[(-?\d+),(-?\d+);(-?\d+),(-?\d+)\]\^(\d+)")


def read_back(text):
    """The polynomial whose ``to_text`` string is ``text``.

    Written apart from ``hilbcells.polynomials``, which reads no polynomial
    text: each term becomes (monomial, chart monomial or None, rational),
    and the terms are summed.  A term with chart factors has a chart
    coefficient; any other term is rational.  A malformed term raises
    ``ValueError``.
    """
    terms = [] if text == "0" else [_text_term(chunk) for chunk in text.split(" ")]
    out = {}
    for m, mono, q in terms:
        c = q if mono is None else ChartCoefficient({mono: q})
        out[m] = out[m] + c if m in out else c
    return BivariatePolynomial(out)


def _text_term(chunk):
    match = _TEXT_TERM.fullmatch(chunk)
    if not match:
        raise ValueError(f"malformed term {chunk!r}")
    sign, num, den, chart, x, y = match.groups()
    q = Fraction(int(num), int(den)) * (-1 if sign == "-" else 1)
    mono = None
    if chart is not None:
        factors = [_TEXT_FACTOR.fullmatch(factor) for factor in chart.split("*")]
        if not all(factors):
            raise ValueError(f"malformed chart monomial {chart!r}")
        mono = tuple(sorted((((int(f[1]), int(f[2])), (int(f[3]), int(f[4]))), int(f[5]))
                            for f in factors))
    return Monomial(int(x), int(y)), mono, q


class TestSerialization:
    @given(p=small_polys)
    @settings(max_examples=100, deadline=None)
    def test_text_round_trip(self, p):
        assert read_back(p.to_text()) == p

    def test_chart_round_trip(self):
        E = construct_staircase([3, 1, 1, 1])
        fam = build_chart_family(E, "general")
        for p in fam.generators:
            assert read_back(p.to_text()) == p
            assert read_back(p.to_text()).to_text() == p.to_text()

    def test_chart_families_read_back_to_length_6(self):
        assert check_text_round_trip(range(1, 7)) == 305

    def test_chart_coefficient_times_rational(self):
        a = ChartCoefficient.variable(((0, 1), (1, 0)))
        assert a * Fraction(3, 2) == a * ChartCoefficient.from_fraction(Fraction(3, 2))
        assert not a * 0

    def test_chart_coefficient_algebra(self):
        a = ChartCoefficient.variable(((0, 1), (1, 0)))
        b = ChartCoefficient.variable(((0, 1), (0, 0)))
        two = ChartCoefficient.from_fraction(2)
        assert (a + b) - b == a
        assert (a * b).terms == {((CHART_B, 1), (CHART_A, 1)): 1}
        assert (a * two).substitute({((0, 1), (1, 0)): Fraction(3)}) == 6
        assert not (a - a)
        assert two.is_constant and two == 2
        assert not a.is_constant



def check_text_round_trip(lengths) -> int:
    """Read back every chart-family polynomial's text with ``read_back``.

    Every staircase of the given lengths gets its general family and its
    invariant family at (1,-1); each generator and each Q-polynomial must
    read back equal to itself, and to the same text.  Returns the
    number of polynomials; CI runs it up to length 10.
    """
    checked = 0
    for l in lengths:
        for E in enumerate_staircases(l):
            for fam in (build_chart_family(E, "general"), build_chart_family(E, "invariant", W11)):
                for p in fam.generators + tuple(q for _, q in fam.q_polynomials):
                    text = p.to_text()
                    assert read_back(text) == p and read_back(text).to_text() == text, text
                    checked += 1
    return checked

BIG = 10**4300  # the coefficient bound


class TestCoefficientBound:
    """Remainders and divisor records refuse a numerator or denominator of BIG or more."""

    X, Y, ONE = Monomial(1, 0), Monomial(0, 1), Monomial(0, 0)

    @pytest.mark.parametrize("q", [
        BIG, -BIG, Fraction(1, BIG), Fraction(-BIG - 1, 3),
        ChartCoefficient({(): 5, ((((0, 1), (1, 0)), 1),): BIG}),
    ], ids=["numerator", "negative", "denominator", "fraction", "chart"])
    def test_refused(self, q):
        big = BivariatePolynomial({self.X: q})
        with pytest.raises(BoundExceededError, match=r"coefficient bound 10\*\*4300"):
            remainder(big, [BivariatePolynomial({self.Y: 1})], LEX_YX)   # the remainder
        with pytest.raises(BoundExceededError, match=r"coefficient bound 10\*\*4300"):
            remainder(BivariatePolynomial({self.Y: 1}), [big], LEX_YX)   # a divisor

    def test_just_below_is_kept(self):
        for q in (BIG - 1, -BIG + 1, Fraction(BIG - 1, BIG - 2)):
            p = BivariatePolynomial({self.X: q})
            assert remainder(p, [BivariatePolynomial({self.Y: 1})], LEX_YX) == p
            assert p.to_text()

    def test_monic_scaling_is_checked(self):
        # Each coefficient is below the bound; made monic, the tail's
        # denominator is (BIG - 1)**2.
        p = BivariatePolynomial({self.X: BIG - 1, self.ONE: Fraction(1, BIG - 1)})
        with pytest.raises(BoundExceededError):
            buchberger([p, BivariatePolynomial({self.Y: 1})], LEX_YX)


CHART_A, CHART_B = ((0, 1), (1, 0)), ((0, 1), (0, 0))
CHART_MONOMIALS = ((), ((CHART_A, 1),), ((CHART_A, 2),), ((CHART_B, 1),),
                   tuple(sorted(((CHART_A, 1), (CHART_B, 1)))))
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(exact_rational)
chart_coefficients = st.dictionaries(
    st.sampled_from(CHART_MONOMIALS), small_rationals, max_size=3).map(ChartCoefficient)
mixed_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.one_of(small_rationals, chart_coefficients),
    max_size=5,
).map(lambda d: BivariatePolynomial({Monomial(*k): v for k, v in d.items()}))


def lifted(p):
    """p with every rational coefficient made a constant chart coefficient."""
    return BivariatePolynomial({m: c if isinstance(c, ChartCoefficient)
                                else ChartCoefficient.from_fraction(c)
                                for m, c in p.terms.items()})


class TestOneCoefficientProtocol:
    """Rationals are the constants of the chart ring: they mix, compare and render alike."""

    @given(q=small_rationals, c=chart_coefficients)
    @settings(max_examples=150, deadline=None)
    def test_rational_is_a_chart_constant(self, q, c):
        lq = ChartCoefficient.from_fraction(q)
        assert lq == q and q == lq and hash(lq) == hash(q)
        assert q + c == c + q == lq + c
        assert q - c == lq - c and c - q == c - lq
        assert q * c == c * q == lq * c

    @given(p=mixed_polys, q=mixed_polys)
    @settings(max_examples=150, deadline=None)
    def test_mixed_sums_equal_the_lifted_sums(self, p, q):
        assert p + q == lifted(p) + lifted(q) == lifted(p + q)
        assert p * q == lifted(p) * lifted(q)
        assert p - p == BivariatePolynomial.zero()

    @given(p=mixed_polys)
    @settings(max_examples=150, deadline=None)
    def test_round_trips_are_exact(self, p):
        assert read_back(p.to_text()) == p

    @given(p=small_polys, a=small_rationals)
    @settings(max_examples=100, deadline=None)
    def test_a_rational_polynomial_substitutes_to_itself(self, p, a):
        assert p.substitute_chart({CHART_A: a}) == p
        assert lifted(p).substitute_chart({CHART_A: a}) == p
