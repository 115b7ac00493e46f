"""Cleft couples and the combinatorial tangent space at a monomial subscheme.

A cleft couple pairs a minimal generator of the complement ideal with a cell
of the staircase; the significant couples (those surviving the successor-lcm
test) index a basis of the tangent space to the Hilbert scheme at the
monomial point.  An independent oracle recomputes the same data as the
solution space of an exact linear system on module homomorphisms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import GenericityError
from .staircases import Monomial, Staircase, Weight, clefts


def _positive(f: int, g: int) -> bool:
    """Whether the character (f, g) has positive half-direction: f > 0, or f = 0 and g < 0."""
    return f > 0 or (f == 0 and g < 0)


class CleftCouple(NamedTuple):
    """A cleft c paired with a cell m; character m - c, chart variable X[c;m].

    A couple equals, hashes and sorts as its key ((cx, cy), (mx, my)).
    """

    c: Monomial
    m: Monomial

    @property
    def char(self) -> tuple[int, int]:
        return (self.m.alpha - self.c.alpha, self.m.beta - self.c.beta)

    def to_json(self, significant: bool | None = None) -> dict:
        (ca, cb), (ma, mb) = self.c, self.m
        data = {
            "c": [ca, cb],
            "m": [ma, mb],
            "halfdir": "positive" if _positive(ma - ca, mb - cb) else "negative",
        }
        if significant is not None:
            data["significant"] = significant
        return data


def cleft_couples(E: Staircase, direction: Weight | None = None) -> tuple[CleftCouple, ...]:
    """All (cleft, cell) pairs of E, optionally filtered to one direction.

    A couple with positive half-direction always has strictly negative
    y-increment: the complement is an ideal, so moving a cleft by a
    nonnegative vector cannot land inside E.

    With a direction (a, b), which is primitive, a couple's character is a
    multiple t*(a, b), so its cells lie on the lattice line through each
    cleft c: only the t with c.beta + t*b in [0, height) are visited.  Either
    way the couples run in sorted order: the clefts ascend in alpha, and the
    cells of one cleft come in (alpha, beta) order.
    """
    if direction is None:
        cells = E.cells()
        return tuple(CleftCouple(c, m) for c in clefts(E) for m in cells)
    a, b = direction.a, direction.b              # b < 0
    cols, width = E.columns, E.width
    out = []
    for c in clefts(E):
        lo = (E.height - c.beta) // b + 1        # least t with c.beta + t*b < height
        hi = c.beta // -b                        # greatest t with c.beta + t*b >= 0
        ts = range(lo, hi + 1) if a > 0 else range(hi, lo - 1, -1)
        for t in ts:
            ma, mb = c.alpha + t * a, c.beta + t * b
            if 0 <= ma < width and mb < cols[ma]:  # the cell (ma, mb) lies in E
                out.append(CleftCouple(c, Monomial(ma, mb)))
    return tuple(out)


class TangentBasis(NamedTuple):
    """Significant couples of a staircase, split by half-direction.

    Unfiltered, the significant couples form a basis of the tangent space to
    the Hilbert scheme at the monomial subscheme; filtered by a direction
    (a, b), of the invariant tangent space.
    """

    staircase: Staircase
    direction: Weight | None
    couples: tuple[CleftCouple, ...]      # every couple considered, flags below
    flags: tuple[bool, ...]               # significance per couple
    positive: tuple[CleftCouple, ...]     # significant with positive half-direction
    negative: tuple[CleftCouple, ...]

    @property
    def significant(self) -> tuple[CleftCouple, ...]:
        return tuple(c for c, ok in zip(self.couples, self.flags) if ok)

    @property
    def dimension(self) -> int:
        return len(self.positive) + len(self.negative)

    def to_json(self) -> dict:
        return {
            "staircase": self.staircase.to_json(),
            "direction": self.direction.to_json() if self.direction else None,
            "couples": [c.to_json(significant=ok) for c, ok in zip(self.couples, self.flags)],
            "split": {"pos": len(self.positive), "neg": len(self.negative)},
            "dimension": self.dimension,
        }


def _one_pass(E: Staircase, couples: tuple[CleftCouple, ...]):
    """Significance flags of the couples, and the significant ones split by sign.

    The successor-lcm test: the clefts are computed once, each couple's
    sign is read from its character, and its successor cleft is taken by
    index (the next cleft if positive, the previous one otherwise).  The
    couple is significant iff m*(s/c) escapes E, s = lcm(c, successor).  A
    cleft without successor carries no couple of that sign, so False there
    is vacuous.
    """
    cs = clefts(E)
    index = {c: i for i, c in enumerate(cs)}
    flags: list[bool] = []
    pos: list[CleftCouple] = []
    neg: list[CleftCouple] = []
    for couple in couples:
        c, m = couple.c, couple.m
        positive = _positive(m.alpha - c.alpha, m.beta - c.beta)
        i = index[c] + 1 if positive else index[c] - 1
        ok = 0 <= i < len(cs) and m.mul(c.lcm(cs[i]).div(c)) not in E
        flags.append(ok)
        if ok:
            (pos if positive else neg).append(couple)
    return tuple(flags), tuple(pos), tuple(neg)


def tangent_basis(E: Staircase, direction: Weight | None = None) -> TangentBasis:
    """Basis of the (optionally direction-filtered) tangent space at Z(E).

    The couples of ``cleft_couples(E, direction)`` are flagged in one pass
    that computes the clefts once and finds each successor by index.
    """
    couples = cleft_couples(E, direction)
    return TangentBasis(E, direction, couples, *_one_pass(E, couples))


def cell_dimension(E: Staircase, weight_vector: tuple[int, int]) -> int:
    """Number of significant couples pairing positively with the weight vector.

    This is the dimension of the attracting cell of Z(E) for the torus action
    with the given coordinate weights; the vector must be generic, i.e.
    orthogonal to no significant character.
    """
    w1, w2 = weight_vector
    count = 0
    for couple in tangent_basis(E).significant:
        f, g = couple.char
        pairing = w1 * f + w2 * g
        if pairing == 0:
            raise GenericityError(
                f"weight vector {weight_vector} is orthogonal to the character "
                f"{couple.char} of couple ({couple.c}, {couple.m})",
                couple=couple,
            )
        if pairing > 0:
            count += 1
    return count


def arm_leg_characters(E: Staircase) -> tuple[tuple[int, int], ...]:
    """Characters of the significant couples of E, read off arms and legs.

    A cell (i, j) with arm a (cells right of it in its row) and leg l
    (cells above it in its column) contributes (-(a+1), l) and
    (a, -(l+1)) (Ellingsrud-Stromme, Invent. Math. 91, 1988; Haiman,
    Discrete Math. 193, 1998).  The multiset equals that of
    ``tangent_basis(E).significant``; this reads it in O(|E|) from the
    column heights and their conjugate, in cell order, two per cell.
    """
    cols = E.columns
    rows, r = [], len(cols)            # rows[j]: number of columns taller than j
    for j in range(E.height):
        while cols[r - 1] <= j:
            r -= 1
        rows.append(r)
    chars = []
    for i, h in enumerate(cols):
        for j in range(h):
            r = rows[j]                # arm r - i - 1, leg h - j - 1
            chars += ((i - r, h - j - 1), (r - i - 1, j - h))
    return tuple(chars)


class SignificanceGraph(NamedTuple):
    """Chain graph on the direction-(a, b) couples of a staircase.

    Every node ends at most one arrow and originates at most one; components
    are chains, or isolated self-loops.  The dimension counts chain
    components free of self-loops.
    """

    staircase: Staircase
    direction: Weight
    nodes: tuple[CleftCouple, ...]
    arrows: tuple[tuple[int, int], ...]
    dimension: int

    def to_json(self) -> dict:
        return {
            "staircase": self.staircase.to_json(),
            "direction": self.direction.to_json(),
            "nodes": [n.to_json() for n in self.nodes],
            "arrows": [list(a) for a in self.arrows],
            "dimension": self.dimension,
        }


def significance_graph(E: Staircase, w: Weight) -> SignificanceGraph:
    """Arrows encode the relations forced between couples of direction (a, b).

    Each non-significant couple receives one arrow: from the couple obtained
    by sliding along the successor cleft when that stays on the grid, from
    itself otherwise.  The nodes and their flags are those of
    ``tangent_basis(E, w)``.
    """
    return _graph(tangent_basis(E, w))


def _graph(basis: TangentBasis) -> SignificanceGraph:
    """The significance graph of a direction-filtered tangent basis.

    A couple hashes as its (cleft, cell) key, so an arrow's source is looked
    up without building it.  A non-significant couple has a successor cleft,
    and its slid cell, if on the grid, lies in E on its character line.
    """
    E, nodes = basis.staircase, basis.couples
    index = {n: i for i, n in enumerate(nodes)}
    cs = clefts(E)
    cleft_index = {c: i for i, c in enumerate(cs)}
    arrows: list[tuple[int, int]] = []
    for j, (node, ok) in enumerate(zip(nodes, basis.flags)):
        if ok:
            continue
        c = node.c
        (ca, cb), (ma, mb) = c, node.m
        succ = cs[cleft_index[c] + (1 if _positive(ma - ca, mb - cb) else -1)]
        sa, sb = ma + succ.alpha - ca, mb + succ.beta - cb
        if sa >= 0 and sb >= 0:
            arrows.append((index[succ, (sa, sb)], j))
        else:
            arrows.append((j, j))

    # Union-find over nodes; a self-loop kills its whole component.
    parent = list(range(len(nodes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    dead = set()
    for s, t in arrows:
        if s == t:
            dead.add(find(s))
        else:
            rs, rt = find(s), find(t)
            parent[rs] = rt
    components = {find(i) for i in range(len(nodes))}
    dead = {find(d) for d in dead}
    dimension = len(components - dead)
    return SignificanceGraph(E, basis.direction, nodes, tuple(arrows), dimension)


def _free_chars(columns, rows) -> list[tuple[int, int]]:
    """Sparse Gaussian elimination over the rationals.

    ``columns`` fixes the pivot-search order; each row is a dict from column
    position to coefficient.  Returns the characters of the free (non-pivot)
    columns, one per dimension of the solution space.  Integer entries stay
    ``int`` while every pivot is 1 or -1, as in the Hom relations, whose
    entries are 1 and -1.
    """
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r.keys())
            if lead not in pivots:
                lc = r[lead]
                inv = lc if lc == 1 or lc == -1 else 1 / Fraction(lc)
                pivots[lead] = {k: v * inv for k, v in r.items()}
                break
            factor = r[lead]
            for k, v in pivots[lead].items():
                nv = r.get(k, 0) - factor * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return [char for j, (char, _var) in enumerate(columns) if j not in pivots]


def hom_tangent_oracle(E: Staircase) -> tuple[tuple[int, int], ...]:
    """Tangent space via module homomorphisms, as exact linear algebra.

    Unknowns are the coefficients sending each cleft to each cell; the
    lcm-compatibility relations between consecutive clefts (under the x-lex
    order) are imposed as linear equations, with products reduced modulo the
    complement ideal by projecting escaped monomials to zero.  Returns the
    sorted characters of a basis of the solution space, whose count is its
    dimension.  Relations for non-consecutive cleft pairs follow from the
    consecutive ones.

    There is one unknown per cleft couple, so like ``tangent_basis`` the
    oracle has no size limit of its own; ``hom-oracle`` refuses a staircase
    past the command line's couple bound.
    """
    cs = clefts(E)
    cols, width = E.columns, E.width
    cells = [(a, b) for a in range(width) for b in range(cols[a])]

    variables = [((ma - ca, mb - cb), (i, ma, mb))
                 for i, (ca, cb) in enumerate(cs) for ma, mb in cells]
    variables.sort()
    position = {var: j for j, (_char, var) in enumerate(variables)}

    rows = []
    for i in range(len(cs) - 1):
        (a0, b0), (a1, b1) = cs[i], cs[i + 1]
        sa, sb = max(a0, a1), max(b0, b1)
        shifts = ((i, sa - a0, sb - b0, 1), (i + 1, sa - a1, sb - b1, -1))
        for ta, tb in cells:
            row = {}
            for k, da, db, sign in shifts:
                ba, bb = ta - da, tb - db
                if 0 <= ba < width and 0 <= bb < cols[ba]:  # target / shift lies in E
                    row[position[k, ba, bb]] = sign
            if row:
                rows.append(row)
    return tuple(sorted(_free_chars(variables, rows)))
