"""Staircase combinatorics on the monomial grid.

A staircase is a finite subset of the grid whose complement is closed under
addition, i.e. the exponent diagram of the standard monomials of a monomial
ideal.  It is stored as its column heights (a partition), which makes the
divisor-closure automatic.  This module also provides degree gradings by a
primitive weight, Hilbert functions, exhaustive enumeration, cumulative
S-profiles along the global monomial sequence, and the induced partial order
on staircases of equal cardinality.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .errors import BoundExceededError, DomainError, RegimeError, ShapeError


class Monomial(NamedTuple):
    """A monomial x^alpha * y^beta, identified with the grid point (alpha, beta)."""

    alpha: int
    beta: int

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self.alpha + other.alpha, self.beta + other.beta)

    def divides(self, other: "Monomial") -> bool:
        return self.alpha <= other.alpha and self.beta <= other.beta

    def div(self, other: "Monomial") -> "Monomial":
        """Exact quotient self/other; other must divide self."""
        if not other.divides(self):
            raise DomainError(f"{other} does not divide {self}")
        return Monomial(self.alpha - other.alpha, self.beta - other.beta)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(self.alpha, other.alpha), max(self.beta, other.beta))

    def __str__(self) -> str:
        if self.alpha == 0 and self.beta == 0:
            return "1"
        parts = []
        if self.alpha:
            parts.append("x" if self.alpha == 1 else f"x^{self.alpha}")
        if self.beta:
            parts.append("y" if self.beta == 1 else f"y^{self.beta}")
        return "*".join(parts)


ONE = Monomial(0, 0)
X = Monomial(1, 0)
Y = Monomial(0, 1)


class Weight(NamedTuple("Weight", [("a", int), ("b", int)])):
    """A primitive direction (a, b), normalized so that b < 0.

    The associated grading of a monomial x^alpha*y^beta is
    ``-b*alpha + a*beta``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if (a, b) == (0, 0):
            raise DomainError("weight (0, 0) is not a direction")
        if math.gcd(abs(a), abs(b)) != 1:
            raise DomainError(f"weight ({a}, {b}) is not primitive")
        if b >= 0:
            raise DomainError(f"weight ({a}, {b}) must have b < 0")
        if isinstance(a, bool) or isinstance(b, bool):
            raise DomainError(f"weight entries must be integers, not bool: ({a}, {b})")
        return tuple.__new__(cls, (a, b))

    def degree(self, m: Monomial) -> int:
        return -self.b * m.alpha + self.a * m.beta

    @property
    def product(self) -> int:
        return self.a * self.b

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b}


class Staircase(NamedTuple("Staircase", [("columns", tuple[int, ...])])):
    """Finite divisor-closed set of monomials, stored as column heights.

    ``columns[i]`` is the number of cells (i, 0), ..., (i, columns[i]-1);
    heights must be positive and weakly decreasing.  ``len`` is the cell
    count, so the tuple's ``_make`` and ``_replace`` do not apply.
    """

    __slots__ = ()

    def __new__(cls, columns: tuple[int, ...]):
        if any(not isinstance(c, int) or isinstance(c, bool) or c <= 0 for c in columns):
            raise ShapeError(f"column heights must be positive integers: {list(columns)}")
        if any(columns[i] < columns[i + 1] for i in range(len(columns) - 1)):
            raise ShapeError(f"column heights must be weakly decreasing: {list(columns)}")
        return tuple.__new__(cls, (columns,))

    def __len__(self) -> int:
        return sum(self.columns)

    def __contains__(self, m: Monomial) -> bool:
        a, b = m
        return a >= 0 and b >= 0 and a < len(self.columns) and b < self.columns[a]

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def height(self) -> int:
        return self.columns[0] if self.columns else 0

    def cells(self) -> tuple[Monomial, ...]:
        return tuple(
            Monomial(i, j) for i in range(len(self.columns)) for j in range(self.columns[i])
        )

    def to_json(self) -> dict:
        return {"columns": list(self.columns)}

    @classmethod
    def _of(cls, columns: tuple[int, ...]) -> "Staircase":
        """A staircase on column heights known to be a partition, taken as they are."""
        return tuple.__new__(cls, (columns,))


def construct_staircase(columns: Iterable[int]) -> Staircase:
    """Build a staircase from column heights, trimming trailing zeros."""
    cols = list(columns)
    while cols and cols[-1] == 0:
        cols.pop()
    return Staircase(tuple(int(c) for c in cols))


def clefts(E: Staircase) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the complement ideal, sorted by >_+.

    Sorted ascending under the (alpha, beta)-lexicographic order; reversing
    the tuple gives the ascending view under the (beta, alpha)-lexicographic
    order, since consecutive clefts trade x-exponent against y-exponent.
    """
    if not E.columns:
        raise DomainError("the empty staircase has complement ideal (1); no clefts")
    cols = E.columns
    out = [Monomial(0, cols[0])]
    for i in range(1, len(cols)):
        if cols[i] < cols[i - 1]:
            out.append(Monomial(i, cols[i]))
    out.append(Monomial(len(cols), 0))
    return tuple(out)


class HilbertFunction(NamedTuple("HilbertFunction", [
        ("weight", Weight),
        ("values", tuple[tuple[int, int], ...]),  # sorted (degree, count), counts >= 1
])):
    """Count of staircase cells per degree, for a fixed weight."""

    __slots__ = ()

    def __new__(cls, weight: Weight, values: tuple[tuple[int, int], ...]):
        degs = [d for d, _ in values]
        if degs != sorted(degs) or len(set(degs)) != len(degs):
            raise DomainError("Hilbert function support must be sorted and duplicate-free")
        if any(c <= 0 for _, c in values):
            raise DomainError("Hilbert function counts must be positive")
        if any(isinstance(d, bool) or isinstance(c, bool) for d, c in values):
            raise DomainError("Hilbert function degrees and counts must be integers, not bool")
        return tuple.__new__(cls, (weight, values))

    @classmethod
    def from_counts(cls, weight: Weight, counts: dict[int, int]) -> "HilbertFunction":
        items = tuple(sorted((int(d), int(c)) for d, c in counts.items() if c != 0))
        return cls(weight, items)

    def as_dict(self) -> dict[int, int]:
        return dict(self.values)

    def total(self) -> int:
        return sum(c for _, c in self.values)

    def to_json(self) -> dict:
        return {
            "a": self.weight.a,
            "b": self.weight.b,
            "values": {str(d): c for d, c in self.values},
        }


def hilbert_function(E: Staircase, w: Weight) -> HilbertFunction:
    """Number of cells of E in each degree of the w-grading, counted from the column heights."""
    # sorted positive counts: nothing to validate
    return tuple.__new__(HilbertFunction, (w, _degree_counts(E, w)))


def _degree_counts(E: Staircase, w: Weight) -> tuple[tuple[int, int], ...]:
    """``hilbert_function(E, w).values``: sorted (degree, count) pairs."""
    step, a = -w.b, w.a
    counts: dict[int, int] = {}
    for i, h in enumerate(E.columns):
        for d in range(step * i, step * i + a * h, a) if a else (step * i,) * h:
            counts[d] = counts.get(d, 0) + 1
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def _partitions(total: int) -> tuple[tuple[int, ...], ...]:
    """All weakly decreasing positive tuples with the given sum, lex sorted."""
    if total == 0:
        return ((),)

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(total, total)))


def enumerate_staircases(cardinality: int) -> tuple[Staircase, ...]:
    """All staircases with the given number of cells, lex-ordered by columns."""
    if cardinality < 0:
        raise DomainError("cardinality must be nonnegative")
    return tuple(map(Staircase._of, _partitions(cardinality)))


# Largest mass ``compatible_staircases`` filters: ``compatible`` on the 37338
# staircases of mass 40 takes 0.5 to 0.9 s as a child process on a shared
# 2-vCPU VM, and their count grows tenfold every 14 cells.
COMPATIBLE_BOUND = 40


def compatible_staircases(H: HilbertFunction) -> tuple[Staircase, ...]:
    """All staircases whose Hilbert function equals H, by exhaustive filtering.

    Raises ``BoundExceededError`` when the mass of H exceeds ``COMPATIBLE_BOUND``.
    """
    _require_mass(H, COMPATIBLE_BOUND, "compatible")
    w, values = H.weight, H.values
    return tuple(E for E in enumerate_staircases(H.total()) if _degree_counts(E, w) == values)


def _require_mass(H: HilbertFunction, bound: int, name: str) -> None:
    """Raise ``BoundExceededError`` when the mass of H exceeds the named bound."""
    mass = H.total()
    if mass > bound:
        # Counts of up to 4,300 digits each can sum past the digit limit.
        shown = mass if mass < 10**4300 else "past the digit limit"
        raise BoundExceededError(f"{name} bound {bound} exceeded by mass {shown}")


# Largest grid rectangle up to the top degree D, (D//a + 1) * (D//-b + 1),
# that ``s_profile`` lays out.  It holds every position; at 10**6 that is
# about half a million positions and 40 MB: one profile takes about 0.2 s,
# and ``compare_staircases``, which lays out both staircases' grids, about
# 0.35 s on a 2-vCPU VM.  A large weight is refused at once, not after a walk.
S_PROFILE_BOUND = 10**6


def s_profile(E: Staircase, w: Weight) -> tuple[int, ...]:
    """The cumulative profile of E along the (degree, y-exponent) sequence.

    Entry k counts the cells of E at positions <= k.  The profile stops at
    the end of the degree block holding the largest cell, beyond which it
    stays at |E|, so staircases with equal Hilbert functions share this
    horizon.  Raises ``BoundExceededError`` before laying out any position
    when the grid rectangle up to the top degree exceeds ``S_PROFILE_BOUND``.
    """
    if w.a <= 0:
        raise RegimeError(
            f"weight ({w.a}, {w.b}) rejected: the global monomial sequence needs a > 0, b < 0"
        )
    if not E.columns:
        raise DomainError("s_profile of the empty staircase is undefined")
    a, step = w.a, -w.b
    top = max(step * i + a * (h - 1) for i, h in enumerate(E.columns))
    rows, cols = top // a + 1, top // step + 1
    if rows * cols > S_PROFILE_BOUND:
        raise BoundExceededError(
            f"S-profile bound {S_PROFILE_BOUND} exceeded by the {cols} x {rows} grid "
            f"up to degree {top} of weight ({w.a}, {w.b})"
        )
    # A position's key orders it by (degree, y-exponent), as the sequence does.
    keys = sorted((step * i + a * j) * rows + j
                  for j in range(rows) for i in range((top - a * j) // step + 1))
    cells = {(step * i + a * j) * rows + j for i, h in enumerate(E.columns) for j in range(h)}
    return tuple(accumulate(map(cells.__contains__, keys), initial=0))[1:]


class Comparison(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def compare_staircases(E: Staircase, F: Staircase, w: Weight) -> Comparison:
    """Partial order on equal-cardinality staircases via pointwise S-profiles.

    E is greater than F when its profile dominates F's everywhere with at
    least one strict inequality.  Identical profiles force E == F, so the
    dominance test below is automatically strict somewhere when E != F.
    """
    if len(E) != len(F):
        raise DomainError(f"cardinality mismatch: {len(E)} vs {len(F)}")
    if E == F:
        return Comparison.EQUAL
    return _compare_profiles(s_profile(E, w), s_profile(F, w))


def _compare_profiles(pe: tuple[int, ...], pf: tuple[int, ...]) -> Comparison:
    """``compare_staircases`` of two distinct staircases of equal size, by their profiles."""
    n = max(len(pe), len(pf))
    ce = pe + pe[-1:] * (n - len(pe))
    cf = pf + pf[-1:] * (n - len(pf))
    ge = all(x >= y for x, y in zip(ce, cf))
    le = all(x <= y for x, y in zip(ce, cf))
    if ge:
        return Comparison.GREATER
    if le:
        return Comparison.LESS
    return Comparison.INCOMPARABLE
