"""Exact bivariate polynomial arithmetic with one coefficient protocol.

A coefficient is an exact rational or a ``ChartCoefficient``, an element of
the polynomial ring in chart variables over the rationals, and a rational
is a constant of that ring: the two mix freely.  A rational is a Python
``int`` while it is integral and becomes a ``Fraction`` only after a true
division, so chart recursions, unit-point samples and the reduction of
integral polynomials by monic divisors stay in the integers; ``int`` and
``Fraction`` compare, hash and print alike, so no result depends on which
one a value is.  Arithmetic, division and the Buchberger algorithm run over
either ring; rendering reads every coefficient as (chart monomial,
rational) pairs, a rational being the single pair with the empty chart
monomial, so no output depends on whether a constant is stored as an
``int``, a ``Fraction`` or a ``ChartCoefficient``.  On top of the arithmetic
live monomial orders, each a name with its sort key, remainders of
multivariate division, the Buchberger algorithm with a hard resource guard,
standard monomials of zero-dimensional ideals, and extremal-weight initial
ideals (flat limits of one-parameter orbits).

A weight-refined order under which a variable sorts below 1 is local
(``MonomialOrder.is_global`` is false) and not a well-order.  ``buchberger``
accepts one only when every such variable v has v^n in the ideal, n the
colength read from a ``GRLEX_XY`` basis, and otherwise raises ``DomainError``
naming v at once: the flat limit leaves the plane.  It then completes modulo
those powers, the highest corner of standard bases (Greuel-Pfister, A Singular
Introduction to Commutative Algebra, 1.6-1.7): a division kills each term a
power divides, and the order well-orders the other terms, of v-exponent below
n, so every division ends under every order.  The step guard turns a long
computation into a hard error, never a silent truncation; it counts steps.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    BoundExceededError,
    DomainError,
    NonPolynomialError,
    NotZeroDimensionalError,
    RegimeError,
    StepLimitExceeded,
)
from .staircases import ONE, X, Y, Monomial, Staircase, Weight

DEFAULT_STEP_LIMIT = 500_000

# Numerators and denominators stay below 10**4300, so they print under the
# interpreter's default limit of 4,300 digits; every number an argv gives is
# below it.  Division remainders and divisor records are checked as wholes.
_COEFFICIENT_BOUND = 10**4300


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Total multiplicative order on grid monomials: m1 < m2 iff key(m1) < key(m2).

    ``is_global``: the unit monomial is minimal, so division terminates.
    Only the name, equal for equal arguments, is compared, hashed and shown.
    """

    __slots__ = ("name", "key", "is_global")

    def __init__(self, name: str, key: Callable[[Monomial], tuple], is_global: bool = True):
        self.name, self.key, self.is_global = name, key, is_global

    def __eq__(self, other) -> bool:
        return self.name == other.name if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"MonomialOrder(name={self.name!r})"


# Every key is a lexicographic tuple of integer linear forms in the
# exponents, so every order built here is multiplicative by construction.
LEX_XY = MonomialOrder("lex_xy", itemgetter(0, 1))
LEX_YX = MonomialOrder("lex_yx", itemgetter(1, 0))
GRLEX_XY = MonomialOrder("grlex_xy", lambda m: (m.alpha + m.beta, m.alpha))


def cell_order(w: Weight) -> MonomialOrder:
    """The (degree, y-exponent) order; a monomial order only when a*b < 0."""
    if w.product >= 0:
        raise RegimeError(f"cell order needs a*b < 0, got ({w.a}, {w.b})")
    deg = w.degree
    return MonomialOrder(f"cell({w.a},{w.b})", lambda m: (deg(m), m.beta))


def weight_order(vector: tuple[int, int], extremum: str) -> MonomialOrder:
    """Compare by extremal weight first, then by ``LEX_YX``; one positive weight alone is lex."""
    if extremum not in ("max", "min"):
        raise DomainError(f"extremum must be 'max' or 'min', got {extremum!r}")
    v1, v2 = int(vector[0]), int(vector[1])
    p, q = (v1, v2) if extremum == "max" else (-v1, -v2)
    key = (itemgetter(0, 1) if q == 0 < p else itemgetter(1, 0) if p == 0 < q
           else lambda m: (p * m[0] + q * m[1], m[1], m[0]))
    return MonomialOrder(f"{extremum}({v1},{v2});{LEX_YX.name}", key, p >= 0 and q >= 0)


# ---------------------------------------------------------------------------
# Chart-ring coefficients
# ---------------------------------------------------------------------------

VarKey = tuple[tuple[int, int], tuple[int, int]]  # ((cx, cy), (mx, my))
ChartMonomial = tuple[tuple[VarKey, int], ...]    # sorted, exponents > 0


def exact_rational(q) -> int | Fraction:
    """q as a coefficient: an ``int`` when integral, otherwise a ``Fraction``."""
    if type(q) is int:
        return q
    q = q if type(q) is Fraction else Fraction(q)
    return q.numerator if q.denominator == 1 else q


def variable_name(key: VarKey) -> str:
    (cx, cy), (mx, my) = key
    return f"X[{cx},{cy};{mx},{my}]"


class ChartCoefficient:
    """Finite rational combination of monomials in chart variables.

    A rational is a constant: it mixes with chart coefficients from either
    side, and equals and hashes as the constant coefficient it is.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ChartMonomial, int | Fraction]):
        self.terms = {
            k: v if type(v) is int or type(v) is Fraction else exact_rational(v)
            for k, v in terms.items()
            if v != 0
        }

    @classmethod
    def from_fraction(cls, q) -> "ChartCoefficient":
        return cls({(): exact_rational(q)})

    @classmethod
    def variable(cls, key: VarKey) -> "ChartCoefficient":
        return cls({((key, 1),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ChartCoefficient.from_fraction(other)
        return isinstance(other, ChartCoefficient) and self.terms == other.terms

    def __hash__(self):
        if self.is_constant:
            return hash(self.terms.get((), 0))
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other) -> "ChartCoefficient":
        """Sum with another chart coefficient or with a rational."""
        out = dict(self.terms)
        if isinstance(other, ChartCoefficient):
            for k, v in other.terms.items():
                out[k] = out.get(k, 0) + v
        else:
            out[()] = out.get((), 0) + other
        return ChartCoefficient(out)

    __radd__ = __add__

    def __neg__(self) -> "ChartCoefficient":
        return ChartCoefficient({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "ChartCoefficient":
        return self + (-other)

    def __rsub__(self, other) -> "ChartCoefficient":
        return -self + other

    @staticmethod
    def _mul_mono(m1: ChartMonomial, m2: ChartMonomial) -> ChartMonomial:
        exps: dict[VarKey, int] = dict(m1)
        for key, e in m2:
            exps[key] = exps.get(key, 0) + e
        return tuple(sorted(exps.items()))

    def __mul__(self, other) -> "ChartCoefficient":
        """Product with another chart coefficient or with a rational scalar."""
        if not isinstance(other, ChartCoefficient):
            q = exact_rational(other)
            return ChartCoefficient({k: v * q for k, v in self.terms.items()})
        out: dict[ChartMonomial, int | Fraction] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = self._mul_mono(k1, k2) if k1 and k2 else k1 or k2
                out[k] = out.get(k, 0) + v1 * v2
        return ChartCoefficient(out)

    __rmul__ = __mul__

    @property
    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def substitute(self, point: Mapping[VarKey, int | Fraction]) -> int | Fraction:
        """Value at the point; a variable the point does not assign is zero.

        The values must be ``int`` or ``Fraction``, as ``exact_rational``
        gives them.
        """
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for key, e in mono:
                x = point.get(key)
                if not x:
                    break
                value *= x if e == 1 else x ** e
            else:
                total += value
        return total


def _coefficient_terms(c) -> list[tuple[ChartMonomial, int | Fraction]]:
    """A coefficient as sorted (chart monomial, rational) pairs."""
    if isinstance(c, ChartCoefficient):
        return sorted(c.terms.items())
    return [((), c)]


def _check_coefficients(p: BivariatePolynomial) -> BivariatePolynomial:
    """p, or ``BoundExceededError`` if a numerator or denominator reaches ``_COEFFICIENT_BOUND``."""
    for c in p.terms.values():
        for q in c.terms.values() if isinstance(c, ChartCoefficient) else (c,):
            if abs(q.numerator) >= _COEFFICIENT_BOUND or q.denominator >= _COEFFICIENT_BOUND:
                raise BoundExceededError(
                    "coefficient bound 10**4300 exceeded by a numerator or denominator")
    return p


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class BivariatePolynomial:
    """Polynomial in x, y with exact coefficients and no stored zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object]):
        self.terms = {
            m if isinstance(m, Monomial) else Monomial(*m): c for m, c in terms.items() if c
        }

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls({})

    @classmethod
    def _of(cls, terms: dict[Monomial, object]) -> "BivariatePolynomial":
        """A polynomial on ``Monomial``-keyed terms that hold no zero, taken as they are."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def of_monomial(cls, m: Monomial, coeff=1):
        if not isinstance(coeff, ChartCoefficient):
            coeff = exact_rational(coeff)
        return cls({Monomial(*m): coeff})

    # -- simple queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.to_text()!r})"

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise DomainError("the zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return BivariatePolynomial(out)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m, c = m1.mul(m2), c1 * c2
                out[m] = out[m] + c if m in out else c
        return BivariatePolynomial(out)

    def scale(self, coeff) -> "BivariatePolynomial":
        """Multiply by a rational or by a chart coefficient."""
        if not isinstance(coeff, ChartCoefficient):
            coeff = exact_rational(coeff)
        return BivariatePolynomial({m: c * coeff for m, c in self.terms.items()})

    def mul_laurent(self, da: int, db: int) -> "BivariatePolynomial":
        """Shift all exponents by (da, db); the result must stay polynomial."""
        out = {}
        for (a, b), c in self.terms.items():
            a, b = a + da, b + db
            if a < 0 or b < 0:
                raise NonPolynomialError(
                    f"shifting {self.to_text()} by x^{da}*y^{db} leaves the polynomial ring"
                )
            out[tuple.__new__(Monomial, (a, b))] = c
        return BivariatePolynomial._of(out)

    # -- weight structure ------------------------------------------------------

    def initial_part(self, vector: tuple[int, int], extremum: str) -> "BivariatePolynomial":
        """Extremal-weight homogeneous part of the polynomial."""
        if not self.terms:
            return self
        v1, v2 = vector
        weights = {m: v1 * m.alpha + v2 * m.beta for m in self.terms}
        target = max(weights.values()) if extremum == "max" else min(weights.values())
        return BivariatePolynomial._of(
            {m: c for m, c in self.terms.items() if weights[m] == target})

    # -- chart specialization ---------------------------------------------------

    def substitute_chart(self, point: Mapping[VarKey, int | Fraction]) -> "BivariatePolynomial":
        """Values at the point; a rational coefficient substitutes to itself."""
        out: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            value = c.substitute(point) if isinstance(c, ChartCoefficient) else c
            if value:
                out[m] = value
        return BivariatePolynomial._of(out)

    # -- serialization -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: signed terms ±p/q·[chart·]x^a*y^b joined by spaces."""
        if not self.terms:
            return "0"
        names: dict[VarKey, str] = {}  # each chart variable's name, rendered once
        return " ".join(
            _render_term(q, mono, m, names)
            for m, c in sorted(self.terms.items(), key=lambda kv: GRLEX_XY.key(kv[0]), reverse=True)
            for mono, q in _coefficient_terms(c)
        )


def _render_fraction(q: int | Fraction) -> str:
    sign = "+" if q >= 0 else "-"
    q = abs(q)
    return f"{sign}{q.numerator}/{q.denominator}"


def _render_term(q: int | Fraction, chart_mono: ChartMonomial, m: Monomial,
                 names: dict[VarKey, str]) -> str:
    body = f"x^{m.alpha}*y^{m.beta}"
    if chart_mono:
        chart = "*".join(
            f"{names.get(k) or names.setdefault(k, variable_name(k))}^{e}" for k, e in chart_mono)
        return f"{_render_fraction(q)}·{chart}·{body}"
    return f"{_render_fraction(q)}·{body}"


_EXPR_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?(?P<body>(?:\*?[xy](?:\^\d+)?)*)$"
)
_EXPR_PIECE_RE = re.compile(r"[+-][^+-]+")
_EXPR_FACTOR_RE = re.compile(r"([xy])(?:\^(\d+))?")


def poly_from_expr(expr: str) -> BivariatePolynomial:
    """Parse a human-typed expression like ``x*y^2 + y^3 - 2/3*x``."""
    s = expr.replace(" ", "")
    if not s:
        raise DomainError("empty polynomial expression")
    if s[0] not in "+-":
        s = "+" + s
    out: dict[Monomial, int | Fraction] = {}
    pieces = _EXPR_PIECE_RE.findall(s)
    if "".join(pieces) != s:
        raise DomainError(f"malformed polynomial expression {expr!r}")
    for piece in pieces:
        sign = -1 if piece[0] == "-" else 1
        body = piece[1:]
        match = _EXPR_TERM_RE.match(body)
        if not match or (not match["coeff"] and not match["body"]):
            raise DomainError(f"malformed term {piece!r} in {expr!r}")
        alpha = beta = 0
        coeff = match["coeff"] or "1"
        try:
            coeff = exact_rational(coeff) if "/" in coeff else int(coeff)
            for var, exp in _EXPR_FACTOR_RE.findall(match["body"]):
                e = int(exp) if exp else 1
                if var == "x":
                    alpha += e
                else:
                    beta += e
        except ValueError as exc:  # a number past the interpreter's digit limit
            raise DomainError("a number in the polynomial expression has too many digits "
                              "to read") from exc
        except ZeroDivisionError as exc:
            raise DomainError(f"zero denominator in term {piece!r} of {expr!r}") from exc
        m = Monomial(alpha, beta)
        out[m] = out.get(m, 0) + sign * coeff
    return BivariatePolynomial(out)


def parse_ideal(text: str) -> list[BivariatePolynomial]:
    """Parse a semicolon-separated list of polynomial expressions."""
    gens = [poly_from_expr(chunk) for chunk in text.split(";") if chunk.strip()]
    if not gens:
        raise DomainError("empty ideal description")
    return gens


# ---------------------------------------------------------------------------
# Division and Groebner bases
# ---------------------------------------------------------------------------

class _StepGuard:
    """Counts reduction steps; trips a hard error at the limit."""

    __slots__ = ("limit", "steps")

    def __init__(self, limit: Optional[int]):
        self.limit = DEFAULT_STEP_LIMIT if limit is None else limit
        self.steps = 0

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.limit:
            raise StepLimitExceeded(
                f"step limit {self.limit} exceeded; raise step_limit to continue"
            )


class _Divisor:
    """A polynomial with its leading monomial and inverse leading coefficient.

    Built once per basis element and checked when built, so no division
    recomputes or re-checks them: a leading coefficient that is not an
    invertible constant raises ``DomainError`` here, and a coefficient past
    the bound ``BoundExceededError``.  ``inv_lc`` is an
    ``int`` when the leading coefficient is 1 or -1, so reducing an integral
    polynomial by such a divisor never divides.  ``tail`` holds the terms
    below the leading one as (alpha, beta, coefficient) triples.
    """

    __slots__ = ("poly", "lm", "inv_lc", "monic", "tail")

    def __init__(self, poly: BivariatePolynomial, order: MonomialOrder):
        self.poly = _check_coefficients(poly)
        self.lm = poly.leading_monomial(order)
        lc = poly.terms[self.lm]
        if isinstance(lc, ChartCoefficient):
            lc = lc.terms.get(()) if len(lc.terms) == 1 else None
        if lc is None:
            raise DomainError(
                f"leading coefficient of {poly.to_text()} is not an invertible constant"
            )
        self.inv_lc = int(lc) if lc == 1 or lc == -1 else 1 / Fraction(lc)
        self.monic = self.inv_lc == 1
        self.tail = [(t.alpha, t.beta, c) for t, c in poly.terms.items() if t != self.lm]

    def made_monic(self, order: MonomialOrder) -> "_Divisor":
        return self if self.monic else _Divisor(self.poly.scale(self.inv_lc), order)


def _add_multiple(work: dict, tail: list, sa: int, sb: int, coeff) -> None:
    """Add coeff * x^sa*y^sb * tail to the term dict, dropping cancelled terms."""
    new = tuple.__new__  # skips the named tuple's Python-level __new__
    for ta, tb, tc in tail:
        m = new(Monomial, (ta + sa, tb + sb))
        value = work.get(m)
        if value is None:
            work[m] = tc * coeff
        else:
            value = value + tc * coeff
            if value:
                work[m] = value
            else:
                del work[m]


def _reduce(
    f: BivariatePolynomial,
    divisors: Sequence[_Divisor],
    order: MonomialOrder,
    guard: _StepGuard,
) -> BivariatePolynomial:
    """Remainder of f modulo the divisor records; the first matching divisor wins.

    Returns f itself when no term reduced.  The work dict never holds a
    zero, so the remainder is taken as it is, once its coefficients are
    checked against the bound.
    """
    key = order.key
    remainder: dict[Monomial, object] = {}
    work = dict(f.terms)
    reduced = False
    while work:
        guard.tick()
        m = max(work, key=key)
        c = work.pop(m)
        ma, mb = m
        for d in divisors:
            la, lb = d.lm
            if la <= ma and lb <= mb:
                qc = c if d.monic else c * d.inv_lc
                _add_multiple(work, d.tail, ma - la, mb - lb, -qc)
                reduced = True
                break
        else:
            remainder[m] = c
    return _check_coefficients(BivariatePolynomial._of(remainder) if reduced else f)


def _interreduce(
    basis: list[_Divisor], order: MonomialOrder, guard: _StepGuard
) -> list[_Divisor]:
    """The reduced basis of a Groebner basis, in one pass.

    Keeps each record whose leading monomial no other leading monomial
    divides, the first of equal ones, and reduces each kept record modulo
    every record with another leading monomial; records that a power of a
    variable below 1 leads come first, so that pass ends under a local order
    too.  The result is monic and sorted by leading monomial.
    """
    kept: dict[Monomial, _Divisor] = {}
    for d in basis:
        a, b = d.lm
        if not any(e.lm != d.lm and e.lm[0] <= a and e.lm[1] <= b for e in basis):
            kept.setdefault(d.lm, d)
    out = []
    for lm, d in sorted(kept.items(), key=lambda item: order.key(item[0])):
        r = _reduce(d.poly, [e for e in basis if e.lm != lm], order, guard)
        out.append((d if r is d.poly else _Divisor(r, order)).made_monic(order))
    return out


def _s_poly(df: _Divisor, dg: _Divisor) -> BivariatePolynomial:
    """Monic multiples of df and dg whose leading terms cancel, subtracted."""
    (fa, fb), (ga, gb) = df.lm, dg.lm
    la, lb = max(fa, ga), max(fb, gb)
    work: dict[Monomial, object] = {}
    _add_multiple(work, df.tail, la - fa, lb - fb, df.inv_lc)
    _add_multiple(work, dg.tail, la - ga, lb - gb, -dg.inv_lc)
    return BivariatePolynomial._of(work)


def _s_pair_remainder(
    records: Sequence[_Divisor], i: int, j: int, order: MonomialOrder,
    step_limit: Optional[int],
) -> BivariatePolynomial:
    """Remainder of the S-polynomial of records i and j modulo all records, under its own guard."""
    return _reduce(_s_poly(records[i], records[j]), records, order, _StepGuard(step_limit))


class GroebnerBasis(NamedTuple):
    generators: tuple[BivariatePolynomial, ...]
    order: MonomialOrder

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.generators)


def buchberger(
    gens: Sequence[BivariatePolynomial],
    order: MonomialOrder,
    step_limit: Optional[int] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis by the Buchberger algorithm.

    Deterministic: pairs leave a heap ordered by lcm degree then index pair.
    A pair is skipped when its leading monomials are coprime, or by the
    chain criterion (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    section 2.10): some third element's leading monomial divides their lcm
    and neither of its pairs with the two is still pending.  That pair loop
    (``_complete``), which ``initial_staircase`` runs alone, completes the
    generators; one interreduction pass then makes the basis reduced, monic
    and sorted by leading monomial.  Idempotent on already reduced bases.

    A local order (see ``MonomialOrder.is_global``) is accepted only when
    every variable below 1 is nilpotent modulo the ideal; otherwise the
    flat limit leaves the plane and a ``DomainError`` names the variable.
    That check runs first, under its own step guard with the same limit, so
    it does not use up the budget of the computation under the order; an
    ideal of infinite colength fails it with ``NotZeroDimensionalError``.
    The powers it proves complete the basis (see the module docstring).
    """
    if not gens or any(not g for g in gens):
        raise DomainError("generators must be nonzero")
    guard = _StepGuard(step_limit)
    basis = _interreduce(_leading_basis(gens, order, guard), order, guard)
    return GroebnerBasis(tuple(d.poly for d in basis), order)


def _leading_basis(gens: Sequence[BivariatePolynomial], order: MonomialOrder,
                   guard: _StepGuard) -> list[_Divisor]:
    """A Groebner basis of gens, not interreduced: enough for a leading ideal or membership.

    Under a local order the powers that the nilpotence check proves come first.
    """
    powers = [] if order.is_global else _require_local_variables_nilpotent(
        gens, order, _StepGuard(guard.limit))
    return _complete([_Divisor(p, order) for p in [*powers, *gens]], order, guard)


def _complete(basis: list[_Divisor], order: MonomialOrder, guard: _StepGuard) -> list[_Divisor]:
    """Append S-pair remainders to the records until they form a Groebner basis.

    The pair loop of ``buchberger``, run on any records: the criteria it
    skips pairs by hold for every generating set, so the records need not
    be interreduced.  The appended records are monic; ``basis`` is returned.
    """
    def pair_entry(i: int, j: int):
        (ia, ib), (ja, jb) = basis[i].lm, basis[j].lm
        la, lb = ia if ia > ja else ja, ib if ib > jb else jb
        return (la + lb, (i, j), la, lb, ia + ib + ja + jb)

    pairs = [pair_entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapq.heapify(pairs)
    pending = {entry[1] for entry in pairs}
    while pairs:
        degree, (i, j), la, lb, product = heapq.heappop(pairs)
        pending.remove((i, j))
        guard.tick()
        # the lcm is the product exactly when their degrees agree
        if degree == product or _chain_criterion(basis, i, j, la, lb, pending):
            continue
        rem = _reduce(_s_poly(basis[i], basis[j]), basis, order, guard)
        if rem:
            basis.append(_Divisor(rem, order).made_monic(order))
            new = len(basis) - 1
            for k in range(new):
                heapq.heappush(pairs, pair_entry(k, new))
                pending.add((k, new))
    return basis


def _chain_criterion(
    basis: Sequence[_Divisor], i: int, j: int, la: int, lb: int, pending: set
) -> bool:
    """Some k has lm_k dividing lcm x^la*y^lb, and neither (i, k) nor (j, k) is pending."""
    for k, d in enumerate(basis):
        ka, kb = d.lm
        if k == i or k == j or ka > la or kb > lb:
            continue
        if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
            return True
    return False


def _require_local_variables_nilpotent(
    gens: Sequence[BivariatePolynomial], order: MonomialOrder, guard: _StepGuard
) -> list[BivariatePolynomial]:
    """The powers v^n in the ideal, one for each variable v below 1 under the order.

    n is the colength, read from a GRLEX_XY basis, and a variable nilpotent
    modulo the ideal has v^n in it.  A variable below 1 without it raises
    ``DomainError``, since the flat limit leaves the plane; an ideal of
    infinite colength gives no n and raises ``NotZeroDimensionalError``.
    """
    below = [(name, v) for name, v in (("x", X), ("y", Y)) if order.key(v) < order.key(ONE)]
    basis = _leading_basis(gens, GRLEX_XY, guard)
    try:
        n = sum(_standard_columns([d.lm for d in basis]))
    except NotZeroDimensionalError:
        raise NotZeroDimensionalError(
            f"{below[0][0]} sorts below 1 in the order but the ideal has infinite "
            "colength: a local order needs a zero-dimensional ideal"
        ) from None
    powers = []
    for name, v in below:
        power = BivariatePolynomial.of_monomial(Monomial(n * v.alpha, n * v.beta))
        if _reduce(power, basis, GRLEX_XY, guard):
            raise DomainError(
                f"{name} sorts below 1 in the order but {name}^{n} is not in the ideal "
                f"of colength {n}: the flat limit leaves the plane"
            )
        powers.append(power)
    return powers


class PairStatus(NamedTuple):
    """An S-pair (i, j), whether it reduces to zero, and the remainder's text."""

    i: int
    j: int
    remainder_zero: bool
    remainder: str


def is_groebner(
    gens: Sequence[BivariatePolynomial],
    order: MonomialOrder,
    step_limit: Optional[int] = None,
) -> bool:
    """Whether every S-polynomial remainder is zero; works symbolically over chart rings.

    Every generator, a lone one included, is checked as a divisor first, so
    a leading coefficient that is not an invertible constant raises
    ``DomainError`` however many generators there are.  Every pair is
    reduced, in order, even after a nonzero remainder, so a pair past it
    still raises its ``StepLimitExceeded`` or ``BoundExceededError``; one
    step guard bounds all the pairs together.
    """
    if not gens or any(not g for g in gens):
        raise DomainError("generators must be nonzero")
    records = [_Divisor(g, order) for g in gens]
    guard = _StepGuard(step_limit)
    ok = True
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            ok = not _reduce(_s_poly(records[i], records[j]), records, order, guard) and ok
    return ok


def standard_monomials(gb: GroebnerBasis) -> Staircase:
    """Staircase of monomials outside the leading ideal; errors if infinite."""
    return Staircase(_standard_columns(gb.leading_monomials))


# Largest number of columns ``standard_monomials`` lays out, one per unit of
# the least pure power of x in the leading ideal.  A flatness sample of a
# family whose generators lead with the clefts holds x^w for the last cleft
# (w, 0), so it lays out at most w <= |E| columns.  At 10**5 columns the
# JSON staircase is about 200 KB.
STANDARD_COLUMNS_BOUND = 10**5


def _standard_columns(lms: Sequence[Monomial]) -> tuple[int, ...]:
    """Column heights outside the ideal the monomials generate, in one pass over them sorted.

    Raises ``BoundExceededError`` before laying out any column when there
    would be more than ``STANDARD_COLUMNS_BOUND`` of them.
    """
    width = min((a for a, b in lms if not b), default=0)
    if width > STANDARD_COLUMNS_BOUND and any(not a for a, _ in lms):
        raise BoundExceededError(
            f"standard monomial bound {STANDARD_COLUMNS_BOUND} exceeded by {width} columns"
        )
    columns, height = [], None
    for a, b in sorted(lms):
        if height is None and a:
            break  # no pure power of y
        if height is None or b < height:
            columns += [height] * (a - len(columns))
            height = b
        if not height:
            return tuple(columns)
    raise NotZeroDimensionalError(
        "leading ideal contains no pure power of x or of y; colength is infinite"
    )


def colength(gb: GroebnerBasis) -> int:
    return len(standard_monomials(gb))


def initial_staircase(
    gens: Sequence[BivariatePolynomial],
    order: MonomialOrder,
    step_limit: Optional[int] = None,
) -> Staircase:
    """Staircase of the initial ideal of the span of gens; local orders as in ``buchberger``."""
    if not gens or not all(gens):
        raise DomainError("generators must be nonzero")
    basis = _leading_basis(gens, order, _StepGuard(step_limit))
    return Staircase._of(_standard_columns([d.lm for d in basis]))  # the columns decrease


def weight_initial_ideal(
    gens: Sequence[BivariatePolynomial],
    vector: tuple[int, int],
    extremum: str,
    step_limit: Optional[int] = None,
) -> list[BivariatePolynomial]:
    """Generators of the extremal-weight initial ideal (the flat limit).

    Computes a Groebner basis under the weight-refined order and keeps the
    extremal-weight homogeneous part of each basis element; the result has
    the same colength as the input ideal.  Under a local order, a variable
    below 1 that is not nilpotent modulo the ideal raises ``DomainError``
    (see ``buchberger``).
    """
    order = weight_order(vector, extremum)
    gb = buchberger(gens, order, step_limit)
    return [g.initial_part(vector, extremum) for g in gb.generators]
