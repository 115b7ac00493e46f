import pytest

from hilbcells import (
    BoundExceededError,
    Comparison,
    DomainError,
    HilbertFunction,
    Monomial,
    ShapeError,
    Staircase,
    Weight,
    clefts,
    compare_staircases,
    compatible_staircases,
    construct_staircase,
    enumerate_staircases,
    hilbert_function,
    s_profile,
)

from hilbcells.staircases import S_PROFILE_BOUND

W11 = Weight(1, -1)


def monomial_sequence(w):
    """All grid monomials in increasing (degree, y-exponent) order; needs a > 0 and b < 0.

    Each degree then holds finitely many monomials, so the walk is a
    well-ordering of the whole grid: the reference ``s_profile`` counts
    along.
    """
    delta = 0
    while True:
        for beta in range(delta // w.a + 1):
            rem = delta - w.a * beta
            if rem % (-w.b) == 0:
                yield Monomial(rem // (-w.b), beta)
        delta += 1


def value(profile, k):
    """The profile's count at position k; past its last entry it stays constant."""
    return profile[min(k, len(profile) - 1)]


class TestWeight:
    def test_normalization(self):
        with pytest.raises(DomainError):
            Weight(0, 0)
        with pytest.raises(DomainError):
            Weight(2, -2)
        with pytest.raises(DomainError):
            Weight(1, 1)
        with pytest.raises(DomainError):
            Weight(1, 0)
        assert Weight(0, -1).a == 0
        assert Weight(-3, -2).product == 6

    def test_bool_entries_are_refused(self):
        # A bool passes every other check and would print as JSON true.
        for a in (True, False):
            with pytest.raises(DomainError, match="not bool"):
                Weight(a, -1)

    def test_degree_examples(self):
        assert W11.degree(Monomial(0, 0)) == 0
        assert W11.degree(Monomial(2, 3)) == 5
        assert Weight(2, -3).degree(Monomial(4, 0)) == 12


class TestConstruction:
    def test_single_box(self):
        E = construct_staircase([1])
        assert len(E) == 1 and E.cells() == (Monomial(0, 0),)

    def test_hook_staircase(self):
        E = construct_staircase([3, 1, 1, 1])
        assert len(E) == 6
        assert set(E.cells()) == {
            Monomial(0, 0), Monomial(1, 0), Monomial(2, 0), Monomial(3, 0),
            Monomial(0, 1), Monomial(0, 2),
        }
        assert clefts(E) == (Monomial(0, 3), Monomial(1, 1), Monomial(4, 0))

    def test_rejects_increasing_columns(self):
        with pytest.raises(ShapeError):
            construct_staircase([2, 3])
        with pytest.raises(ShapeError):
            construct_staircase([1, -1])

    def test_trailing_zeros_trimmed(self):
        assert construct_staircase([2, 1, 0, 0]).columns == (2, 1)

    def test_bool_columns_are_refused(self):
        for columns in ((True, True), (2, True), (True,)):
            with pytest.raises(ShapeError, match="column heights must be positive integers"):
                Staircase(columns)


class TestClefts:
    def test_examples(self):
        assert set(clefts(construct_staircase([1]))) == {Monomial(1, 0), Monomial(0, 1)}
        assert clefts(construct_staircase([1, 1])) == (Monomial(0, 1), Monomial(2, 0))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            clefts(Staircase(()))

    def test_count_is_distinct_heights_plus_one(self):
        for l in range(1, 11):
            for E in enumerate_staircases(l):
                assert len(clefts(E)) == len(set(E.columns)) + 1

    def test_minimality_and_coverage(self):
        # Clefts are pairwise indivisible and every complement monomial in a
        # bounding box one past the staircase is divisible by some cleft.
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                cs = clefts(E)
                for c in cs:
                    for d in cs:
                        assert c == d or not c.divides(d)
                for a in range(E.width + 2):
                    for b in range(E.height + 2):
                        m = Monomial(a, b)
                        if m not in E:
                            assert any(c.divides(m) for c in cs)


class TestHilbertFunction:
    def test_bool_degrees_and_counts_are_refused(self):
        for values in (((0, True),), ((True, 1),), ((0, 1), (1, True))):
            with pytest.raises(DomainError, match="not bool"):
                HilbertFunction(W11, values)
        assert HilbertFunction.from_counts(W11, {True: True}).values == ((1, 1),)

    def test_examples(self):
        assert hilbert_function(construct_staircase([1]), W11).as_dict() == {0: 1}
        assert hilbert_function(construct_staircase([3, 1, 1, 1]), W11).as_dict() == {
            0: 1, 1: 2, 2: 2, 3: 1,
        }
        assert hilbert_function(construct_staircase([1, 1]), W11).as_dict() == {0: 1, 1: 1}

    def test_total_mass(self):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                assert hilbert_function(E, W11).total() == l

    def test_equals_the_count_over_cells_for_every_sign(self):
        weights = (W11, Weight(3, -2), Weight(0, -1), Weight(-1, -1), Weight(-2, -5))
        for w in weights:
            for l in range(1, 9):
                for E in enumerate_staircases(l):
                    counts = {}
                    for m in E.cells():
                        counts[w.degree(m)] = counts.get(w.degree(m), 0) + 1
                    assert hilbert_function(E, w).as_dict() == counts, (E.columns, w)


class TestCompatible:
    def test_three_staircases(self):
        H = HilbertFunction.from_counts(W11, {0: 1, 1: 2, 2: 1})
        found = compatible_staircases(H)
        assert {E.columns for E in found} == {(2, 1, 1), (2, 2), (3, 1)}

    def test_point(self):
        H = HilbertFunction.from_counts(W11, {0: 1})
        assert [E.columns for E in compatible_staircases(H)] == [(1,)]

    def test_negative_diagonal_weight_separates(self):
        # For a*b > 0 any Hilbert function admits at most one staircase.
        w = Weight(-1, -1)
        for E in enumerate_staircases(3):
            H = hilbert_function(E, w)
            assert compatible_staircases(H) == (E,)

    def test_partition_of_enumeration(self):
        for w in (W11, Weight(2, -1), Weight(-1, -2)):
            for l in range(1, 13):
                groups = {}
                for E in enumerate_staircases(l):
                    groups.setdefault(hilbert_function(E, w), []).append(E)
                assert sum(len(v) for v in groups.values()) == len(enumerate_staircases(l))
                for H, members in groups.items():
                    assert list(compatible_staircases(H)) == sorted(
                        members, key=lambda E: E.columns
                    )

    def test_positive_product_classes_are_points(self):
        for w in (Weight(-1, -2), Weight(-2, -3)):
            for l in range(1, 13):
                groups = {}
                for E in enumerate_staircases(l):
                    groups.setdefault(hilbert_function(E, w), []).append(E)
                assert all(len(v) == 1 for v in groups.values())


class TestSProfile:
    def test_examples(self):
        assert s_profile(construct_staircase([1, 1]), W11) == (1, 2, 2)
        assert s_profile(construct_staircase([2]), W11) == (1, 1, 2)
        assert s_profile(construct_staircase([1]), W11) == (1,)

    def test_regime_rejected(self):
        with pytest.raises(DomainError):
            s_profile(construct_staircase([1]), Weight(0, -1))
        with pytest.raises(DomainError):
            s_profile(construct_staircase([1]), Weight(-1, -2))

    def test_equals_the_walk_along_the_sequence(self):
        # The walk is the definition: count cells along monomial_sequence up
        # to the end of the top degree's block.
        for w in (W11, Weight(2, -1), Weight(1, -3), Weight(3, -2), Weight(5, -7)):
            for l in range(1, 10):
                for E in enumerate_staircases(l):
                    top = max(w.degree(m) for m in E.cells())
                    walk, running = [], 0
                    for m in monomial_sequence(w):
                        if w.degree(m) > top:
                            break
                        running += m in E
                        walk.append(running)
                    assert s_profile(E, w) == tuple(walk), (E.columns, w)

    def test_horizon_above_the_bound_is_refused(self):
        # (2, 1) at (a, -1) reaches degree a: a 2 x (a + 1) grid of positions.
        a = S_PROFILE_BOUND // 2
        assert len(s_profile(construct_staircase([2, 1]), Weight(a - 1, -1))) == a + 1
        with pytest.raises(BoundExceededError, match="S-profile bound"):
            s_profile(construct_staircase([2, 1]), Weight(a, -1))

    def test_sequence_is_sorted(self):
        w = Weight(2, -3)
        seq = []
        gen = monomial_sequence(w)
        for _ in range(40):
            seq.append(next(gen))
        keys = [(w.degree(m), m.beta) for m in seq]
        assert keys == sorted(keys)
        assert len(set(seq)) == len(seq)

    def test_monotone_under_cell_insertion(self):
        # Adding one cell changes every cumulative count by 0 or 1.
        for l in range(1, 8):
            for E in enumerate_staircases(l):
                for F in enumerate_staircases(l + 1):
                    if not set(E.cells()) <= set(F.cells()):
                        continue
                    pe, pf = s_profile(E, W11), s_profile(F, W11)
                    horizon = max(len(pe), len(pf))
                    assert all(
                        value(pf, k) - value(pe, k) in (0, 1) for k in range(horizon)
                    )


class TestCompare:
    def test_examples(self):
        E, F = construct_staircase([1, 1]), construct_staircase([2])
        assert compare_staircases(E, F, W11) is Comparison.GREATER
        assert compare_staircases(F, E, W11) is Comparison.LESS
        assert compare_staircases(E, E, W11) is Comparison.EQUAL
        big = compare_staircases(
            construct_staircase([2, 1, 1]), construct_staircase([3, 1]), W11
        )
        assert big is Comparison.GREATER

    def test_cardinality_mismatch(self):
        with pytest.raises(DomainError):
            compare_staircases(construct_staircase([1]), construct_staircase([2]), W11)

    def test_partial_order_axioms(self):
        for l in range(2, 9):
            all_E = enumerate_staircases(l)
            table = {
                (E, F): compare_staircases(E, F, W11) for E in all_E for F in all_E
            }
            flipped = {
                Comparison.GREATER: Comparison.LESS,
                Comparison.LESS: Comparison.GREATER,
                Comparison.EQUAL: Comparison.EQUAL,
                Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
            }
            for (E, F), value in table.items():
                assert table[(F, E)] is flipped[value]
                if value is Comparison.EQUAL:
                    assert E == F
            for E in all_E:
                for F in all_E:
                    if table[(E, F)] is not Comparison.GREATER:
                        continue
                    for G in all_E:
                        if table[(F, G)] is Comparison.GREATER:
                            assert table[(E, G)] is Comparison.GREATER


COMPARE_WEIGHTS = (Weight(1, -1), Weight(2, -1), Weight(1, -2), Weight(3, -2))


def profile_order(E, F, w):
    """The S-profile order of two staircases, from their public ``s_profile``s."""
    if E == F:
        return Comparison.EQUAL
    pe, pf = s_profile(E, w), s_profile(F, w)
    horizon = max(len(pe), len(pf))
    diffs = [value(pe, k) - value(pf, k) for k in range(horizon)]
    if min(diffs) >= 0:
        return Comparison.GREATER
    if max(diffs) <= 0:
        return Comparison.LESS
    return Comparison.INCOMPARABLE


def check_compare_agreement(lengths) -> int:
    """``compare_staircases`` against the order of the public S-profiles.

    Every ordered pair of staircases of each length is compared at each of
    ``COMPARE_WEIGHTS``.  Standard library only; returns the number of
    pairs.  CI runs it up to length 12.
    """
    checked = 0
    for w in COMPARE_WEIGHTS:
        for l in lengths:
            staircases = enumerate_staircases(l)
            for E in staircases:
                for F in staircases:
                    assert compare_staircases(E, F, w) is profile_order(E, F, w), (E, F, w)
                    checked += 1
    return checked


class TestCompareAgreement:
    def test_every_pair_to_length_9_agrees_with_the_profiles(self):
        assert check_compare_agreement(range(1, 10)) == 4 * 1818

    def test_bound_is_checked_on_the_first_staircase_first(self):
        # Both grids exceed the bound; the error names the first staircase's
        # top degree, as s_profile on it would.
        w = Weight(10**6, -1)
        low, high = construct_staircase([2, 2]), construct_staircase([3, 1])
        for E, F in ((low, high), (high, low)):
            with pytest.raises(BoundExceededError) as expected:
                s_profile(E, w)
            with pytest.raises(BoundExceededError) as got:
                compare_staircases(E, F, w)
            assert str(got.value) == str(expected.value)

    def test_one_grid_exceeding_the_bound_is_refused(self):
        w = Weight(10**6, -1)
        wide, tall = construct_staircase([1, 1]), construct_staircase([2])
        for E, F in ((wide, tall), (tall, wide)):
            with pytest.raises(BoundExceededError, match="up to degree 1000000 "):
                compare_staircases(E, F, w)


class TestEnumeratedStaircases:
    def test_equal_to_validated_staircases(self):
        for l in range(13):
            for E in enumerate_staircases(l):
                built = Staircase(E.columns)
                assert E == built and hash(E) == hash(built)
                assert type(E.columns) is tuple and E.columns == built.columns

    def test_still_frozen(self):
        E = enumerate_staircases(4)[0]
        with pytest.raises(AttributeError):
            E.columns = (1,)


class TestRefusals:
    @pytest.mark.parametrize("call, text", [
        (lambda: s_profile(Staircase(()), W11), "s_profile of the empty staircase is undefined"),
        (lambda: Monomial(1, 0).div(Monomial(0, 1)), "y does not divide x"),
        (lambda: HilbertFunction(W11, ((1, 1), (0, 1))),
         "Hilbert function support must be sorted and duplicate-free"),
        (lambda: enumerate_staircases(-1), "cardinality must be nonnegative"),
    ])
    def test_refused(self, call, text):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == text


class TestRecords:
    """A record hashes as the tuple of its fields and shows them by name."""

    def test_hashes(self):
        E = Staircase((2, 1))
        H = hilbert_function(E, W11)
        assert hash(E) == hash(((2, 1),))
        assert hash(W11) == hash((1, -1))
        assert hash(H) == hash((W11, ((0, 1), (1, 2))))

    def test_reprs(self):
        E = Staircase((2, 1))
        assert repr(E) == "Staircase(columns=(2, 1))"
        assert repr(W11) == "Weight(a=1, b=-1)"
        assert (repr(hilbert_function(E, W11))
                == "HilbertFunction(weight=Weight(a=1, b=-1), values=((0, 1), (1, 2)))")
