import json

import pytest

from hilbcells import (
    CleftCouple,
    GenericityError,
    Monomial,
    Weight,
    arm_leg_characters,
    cell_dimension,
    cleft_couples,
    construct_staircase,
    enumerate_staircases,
    hilbert_function,
    hom_tangent_oracle,
    significance_graph,
    tangent_basis,
)
from hilbcells import tangent as tangent_module

W11 = Weight(1, -1)


def couple(c, m):
    return CleftCouple(Monomial(*c), Monomial(*m))


def sign(c):
    """The sign of a couple's half-direction, as its JSON writes it."""
    return "positive" if tangent_module._positive(*c.char) else "negative"


class TestHalfDirection:
    def test_signs(self):
        assert tangent_module._positive(1, -1) and tangent_module._positive(0, -1)
        assert tangent_module._positive(3, -3) and tangent_module._positive(2, 5)
        assert not tangent_module._positive(-1, 0) and not tangent_module._positive(0, 1)
        assert not tangent_module._positive(-2, -2)


class TestCleftCouples:
    def test_single_box(self):
        found = cleft_couples(construct_staircase([1]))
        data = {(c.c, c.m): (c.char, sign(c)) for c in found}
        assert data == {
            (Monomial(0, 1), Monomial(0, 0)): ((0, -1), "positive"),
            (Monomial(1, 0), Monomial(0, 0)): ((-1, 0), "negative"),
        }

    def test_domino(self):
        chars = sorted(c.char for c in cleft_couples(construct_staircase([1, 1])))
        assert chars == [(-2, 0), (-1, 0), (0, -1), (1, -1)]

    def test_direction_filter(self):
        found = cleft_couples(construct_staircase([3, 1, 1, 1]), direction=W11)
        data = {(str(c.c), str(c.m), sign(c)) for c in found}
        assert data == {
            ("x*y", "x^2", "positive"),
            ("y^3", "x^3", "positive"),
            ("x*y", "y^2", "negative"),
        }

    def test_count(self):
        from hilbcells import clefts

        for l in range(1, 9):
            for E in enumerate_staircases(l):
                assert len(cleft_couples(E)) == len(clefts(E)) * len(E)

    def test_couples_come_in_sorted_order(self):
        for l in range(1, 13):
            for E in enumerate_staircases(l):
                for w in (None, W11, Weight(2, -1), Weight(0, -1), Weight(-1, -2)):
                    found = cleft_couples(E, w)
                    assert found == tuple(sorted(found)), (E, w)

    def test_positive_couples_have_negative_y_increment(self):
        for l in range(1, 13):
            for E in enumerate_staircases(l):
                for c in cleft_couples(E):
                    if tangent_module._positive(*c.char):
                        assert c.char[1] < 0 and c.char[0] >= 0


# Directions of every sign pattern, steep and shallow, for the lattice-line test.
LATTICE_WEIGHTS = tuple(Weight(a, b) for a, b in (
    (1, -1), (2, -1), (1, -2), (3, -2), (5, -3), (1, -7), (0, -1), (-1, -1), (-2, -1), (-3, -7),
))


def parallel(c, w):
    """Whether the couple's character is a multiple of the direction w."""
    f, g = c.char
    return f * w.b - g * w.a == 0


def filtered_couples(E, direction):
    """Every (cleft, cell) couple of E whose character is parallel to the direction."""
    return tuple(c for c in cleft_couples(E) if parallel(c, direction))


class TestLatticeLineCouples:
    """The direction-filtered couples, enumerated on lattice lines, against the filter."""

    CASES = [(E, w) for l in range(1, 13) for E in enumerate_staircases(l)
             for w in LATTICE_WEIGHTS]

    def test_equals_the_filtered_couples_up_to_length_12(self):
        for E, w in self.CASES:
            assert cleft_couples(E, w) == filtered_couples(E, w), (E.columns, w)

    def test_graph_and_basis_equal_the_filtered_construction(self, monkeypatch):
        def documents():
            return [(significance_graph(E, w).to_json(), tangent_basis(E, w).to_json())
                    for E, w in self.CASES]

        mine = documents()
        monkeypatch.setattr(tangent_module, "cleft_couples", filtered_couples)
        assert documents() == mine


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class ReferenceBasis:
    """The significant couples of a staircase, from its column heights alone.

    Written apart from ``hilbcells.tangent``: couples are (cleft, cell)
    pairs of integer tuples, the successor of a cleft is its neighbour in
    the x-sorted list (right for a positive character, left otherwise), and
    a couple is significant when its cell, moved by lcm(cleft, successor) /
    cleft, leaves the staircase.
    """

    def __init__(self, columns, direction=None):
        self.columns, self.direction = list(columns), direction
        heights = self.columns + [0]
        self.clefts = [(i, h) for i, h in enumerate(heights) if i == 0 or h < heights[i - 1]]
        cells = [(i, j) for i, h in enumerate(self.columns) for j in range(h)]
        pairs = sorted((c, m) for c in self.clefts for m in cells)
        if direction is not None:
            a, b = direction
            pairs = [(c, m) for c, m in pairs if (m[0] - c[0]) * b == (m[1] - c[1]) * a]
        self.couples = pairs
        self.flags = [self.successor(c, m) is not None and self.significant(c, m)
                      for c, m in pairs]

    def contains(self, i, j):
        return 0 <= i < len(self.columns) and 0 <= j < self.columns[i]

    @staticmethod
    def positive(c, m):
        f, g = m[0] - c[0], m[1] - c[1]
        return f > 0 or (f == 0 and g < 0)

    def successor(self, c, m):
        k = self.clefts.index(c) + (1 if self.positive(c, m) else -1)
        return self.clefts[k] if 0 <= k < len(self.clefts) else None

    def significant(self, c, m):
        s = self.successor(c, m)
        lcm = (max(c[0], s[0]), max(c[1], s[1]))
        return not self.contains(m[0] + lcm[0] - c[0], m[1] + lcm[1] - c[1])

    def split(self, positive):
        return [(c, m) for (c, m), ok in zip(self.couples, self.flags)
                if ok and self.positive(c, m) == positive]

    def couple_json(self, c, m):
        return {"c": list(c), "m": list(m),
                "halfdir": "positive" if self.positive(c, m) else "negative"}

    def direction_json(self):
        return None if self.direction is None else dict(zip("ab", self.direction))

    def basis_json(self):
        pos, neg = len(self.split(True)), len(self.split(False))
        return {
            "staircase": {"columns": self.columns},
            "direction": self.direction_json(),
            "couples": [dict(self.couple_json(c, m), significant=ok)
                        for (c, m), ok in zip(self.couples, self.flags)],
            "split": {"pos": pos, "neg": neg},
            "dimension": pos + neg,
        }

    def graph_json(self):
        index = {couple: k for k, couple in enumerate(self.couples)}
        arrows = []
        for k, ((c, m), ok) in enumerate(zip(self.couples, self.flags)):
            if ok:
                continue
            s = self.successor(c, m)
            source = (s, (m[0] + s[0] - c[0], m[1] + s[1] - c[1]))
            arrows.append([index[source] if min(source[1]) >= 0 else k, k])
        # Components of the undirected arrow graph; a self-loop kills its own.
        neighbours = {k: set() for k in index.values()}
        for s, t in arrows:
            neighbours[s].add(t)
            neighbours[t].add(s)
        looped = {s for s, t in arrows if s == t}
        seen, dimension = set(), 0
        for start in neighbours:
            if start in seen:
                continue
            component, stack = set(), [start]
            while stack:
                k = stack.pop()
                if k not in component:
                    component.add(k)
                    stack.extend(neighbours[k])
            seen |= component
            dimension += not component & looped
        return {
            "staircase": {"columns": self.columns},
            "direction": self.direction_json(),
            "nodes": [self.couple_json(c, m) for c, m in self.couples],
            "arrows": arrows,
            "dimension": dimension,
        }


def pairs_of(couples):
    return [(tuple(x.c), tuple(x.m)) for x in couples]


class TestOnePassBasis:
    """The one-pass tangent basis and graph against ``ReferenceBasis``."""

    CASES = [(E, w) for l in range(1, 13) for E in enumerate_staircases(l)
             for w in (None,) + LATTICE_WEIGHTS]

    def test_basis_equals_the_reference_up_to_length_12(self):
        for E, w in self.CASES:
            ref = ReferenceBasis(E.columns, w and (w.a, w.b))
            tb = tangent_basis(E, w)
            assert pairs_of(tb.couples) == ref.couples, (E.columns, w)
            assert list(tb.flags) == ref.flags, (E.columns, w)
            assert pairs_of(tb.positive) == ref.split(True), (E.columns, w)
            assert pairs_of(tb.negative) == ref.split(False), (E.columns, w)

    def test_graph_equals_the_reference_up_to_length_12(self):
        # Basis and graph JSON bytes: 271 staircases, each unfiltered and
        # at the ten lattice weights.
        assert check_reference_agreement(range(1, 13)) == 2981


def check_reference_agreement(lengths) -> int:
    """Check tangent-basis and graph JSON bytes against ``ReferenceBasis``.

    Every staircase of the given lengths is checked unfiltered (basis only)
    and at each of ``LATTICE_WEIGHTS`` (basis and graph).  Returns the
    number of (staircase, direction) cases; CI runs it up to length 16.
    """
    checked = 0
    for l in lengths:
        for E in enumerate_staircases(l):
            for w in (None,) + LATTICE_WEIGHTS:
                ref = ReferenceBasis(E.columns, w and (w.a, w.b))
                tb = tangent_basis(E, w)
                assert _dumps(tb.to_json()) == _dumps(ref.basis_json()), (E.columns, w)
                if w is not None:
                    got = _dumps(significance_graph(E, w).to_json())
                    assert got == _dumps(ref.graph_json()), (E.columns, w)
                checked += 1
    return checked


def significant(columns, c, m) -> bool:
    """The flag of couple (c, m) in the unfiltered tangent basis of the staircase."""
    tb = tangent_basis(construct_staircase(columns))
    return tb.flags[tb.couples.index(couple(c, m))]


class TestSignificance:
    def test_examples(self):
        assert significant([1, 1], (0, 1), (1, 0))
        assert significant([3, 1, 1, 1], (1, 1), (0, 2))
        assert significant([1], (0, 1), (0, 0))

    def test_non_significant_case(self):
        # (y^3, 1) in [3,1,1,1]: 1 * (x y^3 / y^3) = x stays inside.
        assert not significant([3, 1, 1, 1], (0, 3), (0, 0))


class TestTangentBasis:
    def test_domino_filtered(self):
        tb = tangent_basis(construct_staircase([1, 1]), W11)
        assert [(str(c.c), str(c.m)) for c in tb.significant] == [("y", "x")]
        assert len(tb.positive) == 1 and len(tb.negative) == 0

    def test_column_filtered(self):
        tb = tangent_basis(construct_staircase([2]), W11)
        assert [(str(c.c), str(c.m)) for c in tb.significant] == [("x", "y")]
        assert len(tb.positive) == 0 and len(tb.negative) == 1

    def test_positive_product_direction_is_empty(self):
        for w in (Weight(-1, -2), Weight(-2, -3)):
            for l in range(1, 7):
                for E in enumerate_staircases(l):
                    assert tangent_basis(E, w).dimension == 0

    def test_size_twice_cardinality(self):
        for l in range(1, 11):
            for E in enumerate_staircases(l):
                assert tangent_basis(E).dimension == 2 * l

    def test_dimension_constancy_small(self):
        for w in (W11, Weight(2, -1)):
            for l in range(1, 9):
                groups = {}
                for E in enumerate_staircases(l):
                    groups.setdefault(hilbert_function(E, w), []).append(E)
                for members in groups.values():
                    assert len({tangent_basis(E, w).dimension for E in members}) == 1


class TestCellDimension:
    def test_single_box(self):
        E = construct_staircase([1])
        assert cell_dimension(E, (-1, -3)) == 2
        assert cell_dimension(E, (1, 2)) == 0

    def test_length_two(self):
        assert cell_dimension(construct_staircase([1, 1]), (-1, -3)) == 4
        assert cell_dimension(construct_staircase([2]), (-1, -3)) == 3

    def test_genericity_violation_names_couple(self):
        with pytest.raises(GenericityError) as err:
            cell_dimension(construct_staircase([1, 1, 1, 1]), (-1, -3))
        assert err.value.couple == couple((0, 1), (3, 0))

    def test_scaling_invariance(self):
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                assert cell_dimension(E, (-2, -9)) == cell_dimension(E, (-6, -27))

    def test_census_invariance(self):
        # The multiset of cell dimensions is weight-independent even though
        # individual staircases move between dimensions.
        for l in range(1, 9):
            census1 = sorted(cell_dimension(E, (-2, -9)) for E in enumerate_staircases(l))
            census2 = sorted(cell_dimension(E, (-3, -10)) for E in enumerate_staircases(l))
            assert census1 == census2


class TestArmLegCharacters:
    def test_single_box_and_domino(self):
        assert arm_leg_characters(construct_staircase([1])) == ((-1, 0), (0, -1))
        assert arm_leg_characters(construct_staircase([1, 1])) == (
            (-2, 0), (1, -1), (-1, 0), (0, -1))

    def test_equals_significant_characters_up_to_length_16(self):
        assert check_arm_leg_agreement(range(1, 17)) == 914


def check_arm_leg_agreement(lengths) -> int:
    """Check ``arm_leg_characters`` against the one-pass tangent basis.

    The tangent basis is the oracle: its significant couples carry exactly
    the arm-leg characters, with multiplicity.  Returns the number of
    staircases checked; CI runs it up to ``POINCARE_BOUND``.
    """
    checked = 0
    for l in lengths:
        for E in enumerate_staircases(l):
            expected = sorted(c.char for c in tangent_basis(E).significant)
            assert sorted(arm_leg_characters(E)) == expected, E.columns
            checked += 1
    return checked


class TestSignificanceGraph:
    def test_empty(self):
        g = significance_graph(construct_staircase([1]), W11)
        assert g.nodes == () and g.arrows == () and g.dimension == 0

    def test_single_node(self):
        g = significance_graph(construct_staircase([1, 1]), W11)
        assert len(g.nodes) == 1 and g.arrows == () and g.dimension == 1

    def test_three_significant(self):
        g = significance_graph(construct_staircase([3, 1, 1, 1]), W11)
        assert g.dimension == 3 == len(g.nodes)

    def test_self_loop(self):
        # (y^3, 1) in [3,1,1,1] is non-significant for direction (0,-1) and
        # its slide leaves the grid.
        g = significance_graph(construct_staircase([3, 1, 1, 1]), Weight(0, -1))
        loops = [(s, t) for s, t in g.arrows if s == t]
        assert len(loops) == 1
        assert g.nodes[loops[0][0]] == couple((0, 3), (0, 0))
        assert g.dimension == 3

    def test_chain_arrow(self):
        # In [3,2] with direction (0,-1) the couple (y^3, y) is
        # non-significant and slides to the on-grid couple (x*y^2, x).
        g = significance_graph(construct_staircase([3, 2]), Weight(0, -1))
        assert len(g.nodes) == 5
        chain = [(s, t) for s, t in g.arrows if s != t]
        loops = [(s, t) for s, t in g.arrows if s == t]
        assert len(chain) == 1 and len(loops) == 1
        s, t = chain[0]
        assert g.nodes[s] == couple((1, 2), (1, 0))
        assert g.nodes[t] == couple((0, 3), (0, 1))
        assert g.nodes[loops[0][0]] == couple((0, 3), (0, 0))
        assert g.dimension == 3

    def test_self_loop_node_can_also_source_a_chain_arrow(self):
        # In [3,2,1] with direction (0,-1) the couple (x*y^2, x) carries a
        # self-loop and feeds (y^3, y); both coefficients are forced to zero
        # and the dimension still counts the significant couples.
        g = significance_graph(construct_staircase([3, 2, 1]), Weight(0, -1))
        outgoing = [s for s, _ in g.arrows]
        doubled = {s for s in outgoing if outgoing.count(s) > 1}
        assert doubled and all(g.nodes[s] == couple((1, 2), (1, 0)) for s in doubled)
        assert g.dimension == 3 == tangent_basis(
            construct_staircase([3, 2, 1]), Weight(0, -1)
        ).dimension

    def test_structure_and_dimension_matches_tangent(self):
        weights = (W11, Weight(0, -1), Weight(2, -1), Weight(1, -2), Weight(-1, -2))
        for w in weights:
            for l in range(1, 9):
                for E in enumerate_staircases(l):
                    g = significance_graph(E, w)
                    incoming = [t for _, t in g.arrows]
                    chain_sources = [s for s, t in g.arrows if s != t]
                    assert len(set(incoming)) == len(incoming)
                    assert len(set(chain_sources)) == len(chain_sources)
                    tb = tangent_basis(E, w)
                    significant = set(tb.significant)
                    assert all(g.nodes[t] not in significant for _, t in g.arrows)
                    assert g.dimension == tb.dimension
                    if w.product > 0:
                        assert g.dimension == 0


class TestHomOracle:
    def test_single_box(self):
        assert hom_tangent_oracle(construct_staircase([1])) == ((-1, 0), (0, -1))

    def test_domino(self):
        chars = hom_tangent_oracle(construct_staircase([1, 1]))
        assert chars == ((-2, 0), (-1, 0), (0, -1), (1, -1))

    def test_bound(self):
        # No size limit of its own: 11 cells used to pass the default bound of 10.
        E = construct_staircase([6, 5])
        assert hom_tangent_oracle(E) == tuple(sorted(arm_leg_characters(E)))

    # On three columns of characters (j, 0).  The Hom relations of every
    # staircase tried cancel each row that meets a pivot completely, so
    # these rows reach the elimination's other branches.
    THREE = [((j, 0), f"v{j}") for j in range(3)]

    @pytest.mark.parametrize("rows, free", [
        ([{0: 1, 1: 1}, {0: 1, 2: 1}], [(2, 0)]),  # fill-in at column 1
        ([{0: 1, 1: 1}, {0: 1, 1: 3}], [(2, 0)]),  # the non-unit pivot 2
        ([{0: 1, 1: 1}, {0: 1, 1: 1}], [(1, 0), (2, 0)]),  # a repeated row
    ])
    def test_elimination(self, rows, free):
        assert tangent_module._free_chars(self.THREE, rows) == free

    def test_equivalence_small(self):
        for l in range(1, 7):
            for E in enumerate_staircases(l):
                expected = tuple(sorted(c.char for c in tangent_basis(E).significant))
                chars = hom_tangent_oracle(E)
                assert chars == expected
                assert len(chars) == 2 * l

    def test_consecutive_pairs_give_the_all_pairs_nullity_up_to_length_10(self):
        # The oracle imposes the lcm relations of consecutive clefts only;
        # the relations of every cleft pair, built here from the column
        # heights and ranked by sympy, leave the same solution space.
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        for l in range(1, 11):
            for E in enumerate_staircases(l):
                unknowns, rows = all_pairs_relations(E.columns)
                rank = DomainMatrix.from_list(rows, sympy.ZZ).rank() if rows else 0
                assert unknowns - rank == len(hom_tangent_oracle(E)), E.columns


def all_pairs_relations(columns) -> tuple[int, list[list[int]]]:
    """The number of unknowns and the lcm relations between every pair of clefts.

    The unknown (k, m) is the coefficient of cell m in the image phi(k) of
    cleft k.  For clefts p < q with s = lcm(p, q), each cell t gives the
    relation: the coefficient of t in (s/p)*phi(p) - (s/q)*phi(q) is zero,
    where products that leave the staircase vanish.
    """
    heights = list(columns) + [0]
    cleft_list = [(i, h) for i, h in enumerate(heights) if i == 0 or h < heights[i - 1]]
    cells = [(i, j) for i, h in enumerate(columns) for j in range(h)]
    unknown = {(k, m): n for n, (k, m) in enumerate(
        (k, m) for k in range(len(cleft_list)) for m in cells)}
    rows = []
    for p in range(len(cleft_list)):
        for q in range(p + 1, len(cleft_list)):
            s = tuple(map(max, cleft_list[p], cleft_list[q]))
            for t in cells:
                row = [0] * len(unknown)
                for k, sign in ((p, 1), (q, -1)):
                    back = (t[0] - s[0] + cleft_list[k][0], t[1] - s[1] + cleft_list[k][1])
                    if (k, back) in unknown:
                        row[unknown[k, back]] += sign
                if any(row):
                    rows.append(row)
    return len(unknown), rows


class TestSerializedSigns:
    def test_couple_json_sign_is_the_half_direction_sign_to_length_12(self):
        checked = 0
        for l in range(1, 13):
            for E in enumerate_staircases(l):
                for c in cleft_couples(E):
                    data = c.to_json(significant=True)
                    assert data == {"c": list(c.c), "m": list(c.m),
                                    "halfdir": sign(c), "significant": True}
                    checked += 1
        assert checked == 8877


def check_hom_agreement(lengths) -> int:
    """Check ``hom_tangent_oracle`` against ``arm_leg_characters``.

    The arm-leg characters share no code with the oracle's linear algebra;
    the dimension must be 2n.  Returns the number of staircases checked; CI
    runs it up to ``POINCARE_BOUND``.
    """
    checked = 0
    for l in lengths:
        for E in enumerate_staircases(l):
            chars = hom_tangent_oracle(E)
            assert chars == tuple(sorted(arm_leg_characters(E))), E.columns
            assert len(chars) == 2 * l, E.columns
            checked += 1
    return checked


class TestHomOracleAgreement:
    def test_characters_and_dimension_to_length_16(self):
        assert check_hom_agreement(range(1, 17)) == sum(
            len(enumerate_staircases(l)) for l in range(1, 17))
