import importlib
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from hilbcells import (
    BoundExceededError,
    Comparison,
    ConsistencyError,
    DomainError,
    GenericityError,
    HilbertFunction,
    Monomial,
    RegimeError,
    UnrealizableError,
    Weight,
    cell_dimension,
    compare_staircases,
    compatible_staircases,
    component_report,
    construct_staircase,
    degenerate_once,
    descend_to_minimal,
    enumerate_staircases,
    hilbert_function,
    minimal_staircase,
    minimal_staircase_oracle,
    poincare_polynomial,
    s_profile,
    strata,
    tangent_basis,
)
from hilbcells.cli import main
from hilbcells.staircases import COMPATIBLE_BOUND
from hilbcells.strata import (
    POINCARE_BOUND, _chain, _class_statement, _classes, _degenerate, _descend,
    _least_compatible,
)

W11 = Weight(1, -1)


def hf(counts, w=W11):
    return HilbertFunction.from_counts(w, counts)


class TestDegenerateOnce:
    def test_domino_full_evidence(self):
        step = degenerate_once(construct_staircase([1, 1]), W11)
        assert step.target.columns == (2,)
        assert sorted(p.to_text() for p in step.specialized) == [
            "+1/1·x^1*y^0 +1/1·x^0*y^1",
            "+1/1·x^2*y^0",
        ]
        assert sorted(p.to_text() for p in step.limit) == [
            "+1/1·x^0*y^2",
            "+1/1·x^1*y^0",
        ]
        assert step.source_profile == (1, 2, 2)
        assert step.target_profile == (1, 1, 2)

    def test_square_hook(self):
        step = degenerate_once(construct_staircase([2, 1, 1]), W11)
        assert step.target.columns in {(2, 2), (3, 1)}
        assert compare_staircases(step.target, step.source, W11) is Comparison.LESS

    def test_empty_positive_space(self):
        with pytest.raises(DomainError):
            degenerate_once(construct_staircase([2]), W11)

    def test_regime(self):
        with pytest.raises(RegimeError):
            degenerate_once(construct_staircase([1, 1]), Weight(-1, -2))

    def test_explicit_couple_must_be_significant_positive(self):
        from hilbcells import CleftCouple

        bad = CleftCouple(Monomial(2, 0), Monomial(0, 1))
        with pytest.raises(DomainError):
            degenerate_once(construct_staircase([1, 1]), W11, bad)


class TestDescend:
    def test_domino(self):
        steps = descend_to_minimal(construct_staircase([1, 1]), W11)
        assert [s.target.columns for s in steps] == [(2,)]

    def test_already_minimal(self):
        assert descend_to_minimal(construct_staircase([2]), W11) == ()

    def test_hook_staircase_all_policies(self):
        E = construct_staircase([3, 1, 1, 1])
        for policy in ("first", "last", "random"):
            steps = descend_to_minimal(E, W11, policy=policy, seed=3)
            assert steps and steps[-1].target.columns == (4, 2)

    def test_only_the_random_policy_seeds_a_generator(self, monkeypatch):
        counts = counting(monkeypatch, "random.Random")
        E = construct_staircase([3, 1, 1, 1])
        for policy in ("first", "last", "random"):
            descend_to_minimal(E, W11, policy=policy, seed=3)
        assert counts["random.Random"] == 1

    def test_strict_decrease_and_h_preservation(self):
        for l in range(1, 9):
            for E in enumerate_staircases(l):
                H = hilbert_function(E, W11)
                current = E
                for step in descend_to_minimal(E, W11):
                    assert compare_staircases(step.target, current, W11) is Comparison.LESS
                    assert hilbert_function(step.target, W11) == H
                    current = step.target

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            descend_to_minimal(construct_staircase([1, 1]), W11, policy="middle")

    @pytest.mark.parametrize("w", [W11, Weight(2, -1), Weight(3, -2)], ids=str)
    def test_shared_state_does_not_change_a_descent(self, w):
        # The descents of a class, under every policy, share its bases,
        # profiles and steps; each still takes the steps of a fresh descent,
        # evidence included.
        for l in range(1, 9):
            for H, bases in _classes(l, w).items():
                profiles, steps = {}, {}
                for E in bases:
                    for policy in ("first", "last", "random"):
                        shared = _descend(E, w, policy, 5, None, bases, profiles, steps, H)
                        fresh = descend_to_minimal(E, w, policy, 5)
                        assert [s.to_json() for s in shared] == [s.to_json() for s in fresh], E


def counting(monkeypatch, *targets):
    """Wrap each dotted function in a call counter; the counts are keyed by target."""
    counts = dict.fromkeys(targets, 0)
    for target in targets:
        module, name = target.rsplit(".", 1)
        original = getattr(importlib.import_module(module), name)

        def wrapper(*args, _target=target, _original=original, **kwargs):
            counts[_target] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(target, wrapper)
    return counts


# Every S-profile is laid out by s_profile, which strata calls by its own name.
PROFILE = ("hilbcells.strata.s_profile", "hilbcells.staircases.s_profile")
HILBERT = ("hilbcells.strata.hilbert_function", "hilbcells.staircases.hilbert_function")


class TestOneFamilyPerStep:
    # Steps evaluate the cleft recursion over Q and build no chart family.
    FAMILY = "hilbcells.charts.ChartFamily"
    TANGENT = ("hilbcells.charts.tangent_basis", "hilbcells.strata.tangent_basis")
    INITIAL = "hilbcells.strata.initial_staircase"
    DESCENTS = [([2], 0), ([1, 1, 1, 1], 1), ([2, 2, 2], 2), ([2, 2, 1, 1, 1], 2)]

    @pytest.mark.parametrize("columns, k", DESCENTS)
    def test_descent_work_per_step(self, monkeypatch, columns, k):
        counts = counting(monkeypatch, self.FAMILY, *self.TANGENT, self.INITIAL)
        steps = descend_to_minimal(construct_staircase(columns), W11)
        assert len(steps) == k
        tangent_bases = sum(counts[t] for t in self.TANGENT)
        assert (counts[self.FAMILY], tangent_bases, counts[self.INITIAL]) == (0, k + 1, k)

    @pytest.mark.parametrize("columns, k", DESCENTS)
    def test_descent_hilbert_functions_per_step(self, monkeypatch, columns, k):
        # The source's Hilbert function serves every step; each target's is
        # checked against it.  A descent that takes no step computes none.
        counts = counting(monkeypatch, *HILBERT)
        steps = descend_to_minimal(construct_staircase(columns), W11)
        assert len(steps) == k
        assert sum(counts.values()) == (k + 1 if k else 0)

    @pytest.mark.parametrize("columns, k", DESCENTS)
    def test_descent_profiles_per_step(self, monkeypatch, columns, k):
        # Each target's profile is carried into the next step; a descent
        # that takes no step compares nothing.
        counts = counting(monkeypatch, *PROFILE)
        steps = descend_to_minimal(construct_staircase(columns), W11)
        assert len(steps) == k
        assert sum(counts.values()) == (k + 1 if k else 0)

    def test_single_step_work(self, monkeypatch):
        counts = counting(monkeypatch, self.FAMILY, *self.TANGENT, self.INITIAL)
        degenerate_once(construct_staircase([1, 1]), W11)
        tangent_bases = sum(counts[t] for t in self.TANGENT)
        assert (counts[self.FAMILY], tangent_bases, counts[self.INITIAL]) == (0, 1, 1)


STEP_WEIGHTS = (W11, Weight(2, -1), Weight(1, -2), Weight(3, -2))


def cell_degrees(E, w):
    """The Hilbert function of E at w as a count per degree: x has degree -b, y degree a."""
    return Counter(-w.b * i + w.a * j for i, h in enumerate(E.columns) for j in range(h))


def every_step(lengths):
    """(w, step) for every step ``_degenerate`` takes from a staircase of the given lengths.

    Each staircase is degenerated at every positive couple of its invariant
    basis, at each of ``STEP_WEIGHTS``.
    """
    for w in STEP_WEIGHTS:
        profiles = {}
        for l in lengths:
            for E in enumerate_staircases(l):
                basis, H = tangent_basis(E, w), hilbert_function(E, w)
                for couple in basis.positive:
                    yield w, _degenerate(basis, couple, H, profiles, None)


def check_step_limits(lengths) -> int:
    """Every degeneration step's limit is monomial, moves, and keeps the Hilbert function.

    Over ``every_step(lengths)``, each limit generator must have one term,
    the target must differ from the source, and both must have the same
    ``cell_degrees``.  Returns the number of steps.  CI calls it beyond the
    Tier-1 lengths.
    """
    steps = 0
    for w, step in every_step(lengths):
        E, where = step.source, (step.source.columns, w, step.couple)
        assert all(len(p.terms) == 1 for p in step.limit), where
        assert step.target != E, where
        assert cell_degrees(step.target, w) == cell_degrees(E, w), where
        steps += 1
    return steps


def lex_oracle(generators):
    """Columns and x-top parts of sympy's reduced lex (x > y) basis of ``generators``.

    The limit of a step is the initial ideal for the x-degree, a monomial
    ideal, so it is the lex leading ideal.  Column i is as high as the
    least y-exponent among the leading monomials of x-exponent at most i.
    The x-top part of a basis element is its terms of largest x-exponent,
    given as sorted ((x-exponent, y-exponent), coefficient) pairs.
    """
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    exprs = [sum(sympy.Rational(c.numerator, c.denominator) * x**m.alpha * y**m.beta
                 for m, c in p.terms.items()) for p in generators]
    leads, tops = [], []
    for g in sympy.groebner(exprs, x, y, order="lex").polys:
        terms = g.terms(order="lex")  # leading term first
        (a, b), _ = terms[0]
        leads.append((a, b))
        tops.append(tuple(sorted((m, Fraction(str(c))) for m, c in terms if m[0] == a)))
    columns = []
    while (height := min(b for a, b in leads if a <= len(columns))) > 0:
        columns.append(height)
    return tuple(columns), sorted(tops)


def check_step_targets(lengths) -> int:
    """Every degeneration step's target and limit equal ``lex_oracle`` of its specialization.

    Over ``every_step(lengths)``, the target's columns must be the oracle's
    and the limit generators its x-top parts.  Returns the number of steps.
    CI calls it beyond the Tier-1 lengths.
    """
    steps = 0
    for w, step in every_step(lengths):
        columns, tops = lex_oracle(step.specialized)
        where = (step.source.columns, w, step.couple)
        assert step.target.columns == columns, where
        assert sorted(tuple(sorted(((m.alpha, m.beta), c) for m, c in p.terms.items()))
                      for p in step.limit) == tops, where
        steps += 1
    return steps


class TestStepLimits:
    def test_every_step_to_length_12(self):
        assert check_step_limits(range(1, 13)) > 0

    def test_every_target_to_length_10_equals_the_lex_oracle(self):
        assert check_step_targets(range(1, 11)) > 0


class TestOneReportWork:
    """A component report works on each staircase of a class once."""

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("w", [W11, Weight(2, -1), Weight(1, -2)], ids=str)
    def test_report_work(self, monkeypatch, n, w):
        counts = counting(monkeypatch, TestOneFamilyPerStep.FAMILY, *TestOneFamilyPerStep.TANGENT,
                          TestOneFamilyPerStep.INITIAL, *PROFILE, *HILBERT, "random.Random")
        reports = component_report(n, w)
        p = len(enumerate_staircases(n))
        tangent_bases = sum(counts[t] for t in TestOneFamilyPerStep.TANGENT)
        profiles = sum(counts[t] for t in PROFILE)
        assert (tangent_bases, counts[TestOneFamilyPerStep.FAMILY], profiles) == (p, 0, p)
        assert counts["random.Random"] == 0  # every descent takes policy "first"
        assert counts[TestOneFamilyPerStep.INITIAL] == p - len(reports)
        # p to group and one per target; the minimal staircase needs none
        assert sum(counts[t] for t in HILBERT) == 2 * p - len(reports)


class TestMinimalStaircase:
    def test_examples(self):
        assert minimal_staircase(hf({0: 1, 1: 2, 2: 1})).columns == (3, 1)
        assert minimal_staircase(hf({0: 1, 1: 2, 2: 2, 3: 1})).columns == (4, 2)
        assert minimal_staircase(hf({0: 1})).columns == (1,)

    def test_unrealizable(self):
        with pytest.raises(UnrealizableError):
            minimal_staircase(hf({0: 2}))
        with pytest.raises(UnrealizableError):
            minimal_staircase(hf({0: 1, 5: 1}))
        with pytest.raises(UnrealizableError):
            minimal_staircase(hf({1: 1}))

    def test_regime(self):
        with pytest.raises(RegimeError):
            minimal_staircase(hf({0: 1}, Weight(0, -1)))

    def test_more_rows_than_the_recursion_limit(self):
        # One row per pass: a column of 1,100 cells used to raise RecursionError.
        assert minimal_staircase(hf({d: 1 for d in range(1100)})).columns == (1100,)

    def test_large_degrees_are_not_enumerated(self):
        # A pass reads the degrees present, not every multiple of -b up to
        # them; listing the 10**6 + 1 bottom-row degrees took about 0.5 s.
        start = time.perf_counter()
        with pytest.raises(UnrealizableError, match="bottom row exceeds a count"):
            minimal_staircase(hf({0: 1, 10**6: 1}))
        assert minimal_staircase(hf({0: 1, 10**6: 1}, Weight(10**6, -1))).columns == (2,)
        assert time.perf_counter() - start < 0.2

    def test_oracle_examples(self):
        assert minimal_staircase_oracle(hf({0: 1, 1: 2, 2: 1})).columns == (3, 1)
        with pytest.raises(UnrealizableError):
            minimal_staircase_oracle(hf({0: 2}))

    def test_oracle_bound(self):
        # The oracle takes the bound of the enumeration it runs; its own stopped it past mass 14.
        H = hilbert_function(construct_staircase([5, 4, 3, 2, 1]), W11)
        assert minimal_staircase_oracle(H) == minimal_staircase(H)
        n = COMPATIBLE_BOUND
        column = construct_staircase([n + 1])
        with pytest.raises(BoundExceededError,
                           match=f"compatible bound {n} exceeded by mass {n + 1}"):
            minimal_staircase_oracle(hilbert_function(column, W11))
        with pytest.raises(RegimeError, match="oracle needs a > 0"):  # before any bound
            minimal_staircase_oracle(hilbert_function(column, Weight(-1, -2)))

    def test_agreement_sweep(self):
        for w in (W11, Weight(2, -1), Weight(1, -2)):
            seen = set()
            for l in range(1, 9):
                for E in enumerate_staircases(l):
                    H = hilbert_function(E, w)
                    if H in seen:
                        continue
                    seen.add(H)
                    assert minimal_staircase(H) == minimal_staircase_oracle(H)

    def test_bottom_row_length_formula(self):
        for w in (W11, Weight(2, -1)):
            for l in range(1, 9):
                for E in enumerate_staircases(l):
                    H = hilbert_function(E, w)
                    Em = minimal_staircase(H)
                    k = max(
                        j
                        for j in range(l + 1)
                        if H.as_dict().get(-w.b * j - w.a, 0) < H.as_dict().get(-w.b * j, 0)
                    )
                    assert Em.width == k + 1


class TestCertificates:
    """Each class and step certificate fires on a corrupted input, with its text."""

    DOMINO = ("source (1, 1), couple (y, x), specialized "
              "[+1/1·x^1*y^0 +1/1·x^0*y^1; +1/1·x^2*y^0], ")
    TO_A_POINT = ("degeneration changed the Hilbert function: " + DOMINO
                  + "limit [+1/1·x^0*y^1; +1/1·x^1*y^0], target (1,)")

    @staticmethod
    def limit_of(monkeypatch, *columns):
        """Make every step read the staircase of these columns; the limit is its clefts."""
        monkeypatch.setattr(strata, "initial_staircase",
                            lambda *args: construct_staircase(list(columns)))

    def test_a_limit_of_another_hilbert_function_is_refused(self, monkeypatch):
        self.limit_of(monkeypatch, 1)
        with pytest.raises(ConsistencyError) as caught:
            degenerate_once(construct_staircase([1, 1]), W11)
        assert str(caught.value) == self.TO_A_POINT

    def test_the_cli_reports_the_refused_limit(self, monkeypatch, capsys):
        self.limit_of(monkeypatch, 1)
        assert main(["components", "--length", "3", "--a", "1", "--b", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: degeneration changed the Hilbert function: source (1, 1, 1), couple (y, x), "
            "specialized [+1/1·x^1*y^0 +1/1·x^0*y^1; +1/1·x^3*y^0], "
            "limit [+1/1·x^0*y^1; +1/1·x^1*y^0], target (1,)\n")
        assert main(["run-suite", "verify-all", "--max-length", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_ok"] is False
        failed = [item for item in data["items"] if not item["ok"]]
        assert failed == [{"name": "descent-convergence", "ok": False, "witness": self.TO_A_POINT}]

    def test_a_limit_not_below_the_source_is_refused(self, monkeypatch):
        self.limit_of(monkeypatch, 1, 1)  # the source
        with pytest.raises(ConsistencyError) as caught:
            degenerate_once(construct_staircase([1, 1]), W11)
        assert str(caught.value) == (
            "limit staircase is not below the source: " + self.DOMINO
            + "limit [+1/1·x^0*y^1; +1/1·x^2*y^0], target (1, 1)")

    def least_compatible_of_the_column_class(self, **corrupt):
        """The oracle's check on the class of (1, 1, 1, 1) at (1, -1), whose least member is (4,)."""
        members = [construct_staircase([1, 1, 1, 1]), construct_staircase([4])]
        H = hilbert_function(members[0], W11)
        assert compatible_staircases(H) == tuple(members)
        bases = {E: tangent_basis(E, W11)._replace(**corrupt) for E in members}
        profiles = {E: s_profile(E, W11) for E in members}
        return H, bases, profiles

    def test_the_least_compatible_staircase(self):
        H, bases, profiles = self.least_compatible_of_the_column_class()
        assert _least_compatible(H, bases, profiles) == construct_staircase([4])

    def test_two_staircases_of_empty_positive_part_are_refused(self):
        H, bases, profiles = self.least_compatible_of_the_column_class(positive=())
        with pytest.raises(ConsistencyError, match=re.escape(
                "2 compatible staircases with empty positive part for "
                "{0: 1, 1: 1, 2: 1, 3: 1}; expected exactly one")):
            _least_compatible(H, bases, profiles)

    def test_a_least_staircase_not_below_the_others_is_refused(self):
        H, bases, profiles = self.least_compatible_of_the_column_class()
        E, F = profiles
        swapped = {E: profiles[F], F: profiles[E]}
        with pytest.raises(ConsistencyError,
                           match=re.escape("(4,) is not below (1, 1, 1, 1) in the staircase order")):
            _least_compatible(H, bases, swapped)

    W12 = Weight(-1, -2)

    def test_two_staircases_of_one_class_with_a_below_zero_are_refused(self):
        members = [construct_staircase([2]), construct_staircase([1, 1])]
        H = hf({-1: 1, 0: 1}, self.W12)
        bases = {E: tangent_basis(E, self.W12) for E in members}
        with pytest.raises(ConsistencyError,
                           match=re.escape("2 staircases share H = {-1: 1, 0: 1} although a <= 0")):
            _class_statement(H, bases)

    def test_an_invariant_tangent_space_with_ab_positive_is_refused(self):
        E = construct_staircase([2])
        H = hilbert_function(E, self.W12)
        positive = tangent_basis(construct_staircase([1, 1]), W11).positive
        _class_statement(H, {E: tangent_basis(E, self.W12)})
        with pytest.raises(ConsistencyError,
                           match=re.escape("nonzero invariant tangent space at (2,) with a*b > 0")):
            _class_statement(H, {E: tangent_basis(E, self.W12)._replace(positive=positive)})

    @pytest.mark.parametrize("check, failing", [
        ("_class_statement", {"dimension-constancy"}),
        ("_least_compatible", {"minimal-staircase-agreement", "descent-convergence"}),
        ("_least_of_class", {"minimal-staircase-agreement", "descent-convergence"}),
    ])
    def test_verify_all_fails_only_the_items_that_run_a_check(self, monkeypatch, capsys,
                                                              check, failing):
        # A check that fails on every class of two or more members fails the
        # items that run it, each with its own witness, and no other item.
        original = getattr(strata, check)

        def injected(H, bases, *rest):
            if len(bases) > 1:
                raise ConsistencyError(f"injected at {H.as_dict()}")
            return original(H, bases, *rest)

        monkeypatch.setattr(strata, check, injected)
        assert main(["run-suite", "verify-all", "--max-length", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        failed = {item["name"]: item["witness"] for item in data["items"] if not item["ok"]}
        assert failed == dict.fromkeys(failing, "injected at {0: 1, 1: 1}")

    def test_a_descent_ending_off_the_least_staircase_is_refused(self):
        E = construct_staircase([1, 1, 1])
        with pytest.raises(ConsistencyError,
                           match=re.escape("descent from (1, 1, 1) ends at (3,), not (2, 1)")):
            _chain(E, construct_staircase([2, 1]), "first", 0, hilbert_function(E, W11), {}, {}, {})

    def test_the_oracle_needs_the_descent_regime(self):
        with pytest.raises(RegimeError, match=re.escape("oracle needs a > 0, b < 0; got (-1, -2)")):
            minimal_staircase_oracle(hf({-1: 1, 0: 1}, self.W12))


class TestComponentReport:
    def test_length_one(self):
        (report,) = component_report(1, W11)
        assert report.dimension == 0
        assert report.minimal.columns == (1,)
        assert [s.to_json() for s in report.strata] == [
            {"columns": [1], "dim_ab": 0, "dim_pos": 0, "dim_neg": 0}
        ]

    def test_length_two(self):
        (report,) = component_report(2, W11)
        assert report.hilbert.as_dict() == {0: 1, 1: 1}
        data = {s.staircase.columns: (s.dim_ab, s.dim_pos, s.dim_neg) for s in report.strata}
        assert data == {(1, 1): (1, 1, 0), (2,): (1, 0, 1)}
        assert report.minimal.columns == (2,) and report.dimension == 1

    def test_length_six_component_with_six_strata(self):
        reports = component_report(6, W11)
        target = [r for r in reports if r.hilbert.as_dict() == {0: 1, 1: 2, 2: 2, 3: 1}]
        assert len(target) == 1
        report = target[0]
        assert len(report.strata) == 6
        assert all(s.dim_ab == 3 for s in report.strata)
        assert report.dimension == 3
        assert report.minimal.columns == (4, 2)
        assert all(chain[-1].columns == (4, 2) for chain in report.chains)

    def test_positive_product_collapse(self):
        for report in component_report(5, Weight(-1, -2)):
            assert len(report.strata) == 1
            assert report.dimension == 0
            assert report.minimal == report.strata[0].staircase

    def test_zero_a_collapse(self):
        for report in component_report(4, Weight(0, -1)):
            assert len(report.strata) == 1

    def test_component_dimension_is_negative_part_of_minimal(self):
        for report in component_report(6, W11):
            minimal_data = [
                s for s in report.strata if s.staircase == report.minimal
            ]
            assert minimal_data[0].dim_pos == 0
            assert report.dimension == minimal_data[0].dim_neg


MINIMAL_WEIGHTS = (W11, Weight(2, -1), Weight(3, -2), Weight(1, -3))


def check_minimal_agreement(lengths):
    """The recursion against the enumeration oracle on every Hilbert-function class.

    Covers ``MINIMAL_WEIGHTS`` at the given lengths and returns the number
    of classes checked.  CI calls it beyond the Tier-1 lengths.
    """
    classes = 0
    for w in MINIMAL_WEIGHTS:
        for l in lengths:
            groups = {}
            for E in enumerate_staircases(l):
                groups.setdefault(hilbert_function(E, w), []).append(E)
            for H, members in groups.items():
                bases = {E: tangent_basis(E, w) for E in members}
                profiles = {E: s_profile(E, w) for E in members}
                assert minimal_staircase(H) == _least_compatible(H, bases, profiles), H.as_dict()
                classes += 1
    return classes


class TestMinimalAgreementBeyondTwelve:
    def test_every_class_up_to_length_16(self):
        assert check_minimal_agreement(range(1, 17)) > 0


class TestMinimalStaircaseRealizesH:
    """Whatever ``minimal_staircase`` returns has the Hilbert function it was given.

    Each bottom-row pass takes one count off at every degree of its row, so
    the recursion needs no check of its answer against H.
    """

    WEIGHTS = (W11, Weight(2, -1), Weight(1, -2), Weight(3, -2), Weight(2, -5))

    def test_every_class_to_length_12(self):
        for w in self.WEIGHTS[:4]:
            for H in {hilbert_function(E, w) for l in range(1, 13)
                      for E in enumerate_staircases(l)}:
                assert hilbert_function(minimal_staircase(H), w) == H, (w, H.as_dict())

    def test_seeded_random_count_maps(self):
        rng = random.Random(2)
        real = {w: [hilbert_function(E, w).as_dict() for l in range(1, 9)
                    for E in enumerate_staircases(l)] for w in self.WEIGHTS}
        outcomes = Counter()
        for k in range(100_000):
            w = self.WEIGHTS[k % 5]
            if k % 2:  # a realizable map with one count moved by one
                counts = dict(rng.choice(real[w]))
                d = rng.choice(list(counts) + [rng.randrange(-2, 12)])
                counts[d] = counts[d] + rng.choice((-1, 1)) if d in counts else 1
            else:
                counts = {rng.randrange(-2, 12): rng.randint(1, 3)
                          for _ in range(rng.randint(1, 6))}
            H = hf(counts, w)
            try:
                E = minimal_staircase(H)
            except UnrealizableError:
                outcomes["refused"] += 1
                continue
            assert hilbert_function(E, w) == H, (w, counts)
            outcomes["returned"] += 1
        assert outcomes["returned"] > 10_000 and outcomes["refused"] > 10_000, outcomes


class TestPoincare:
    def test_length_one(self):
        assert poincare_polynomial(1, (-1, -3)) == {2: 1}

    def test_length_two(self):
        assert poincare_polynomial(2, (-1, -3)) == {3: 1, 4: 1}

    def test_sum_is_partition_count(self):
        for l in range(1, 9):
            counts = poincare_polynomial(l, (-2, -9))
            assert sum(counts.values()) == len(enumerate_staircases(l))

    def test_invariance_across_generic_vectors(self):
        for l in range(1, 9):
            assert poincare_polynomial(l, (-2, -9)) == poincare_polynomial(l, (-3, -10))

    def test_census_matches_partition_length_pattern(self):
        # Independent oracle: attracting cells of the length-l Hilbert scheme
        # come one per partition, with dimension l + (number of parts).
        for l in range(1, 9):
            expected = {}
            for E in enumerate_staircases(l):
                d = l + len(E.columns)
                expected[d] = expected.get(d, 0) + 1
            for vector in ((-2, -9), (-1, -100)):
                assert poincare_polynomial(l, vector) == expected

    def test_regime(self):
        with pytest.raises(RegimeError):
            poincare_polynomial(2, (1, -3))

    def test_stated_vectors_are_not_generic_past_length_three(self):
        # (-1,-3) is orthogonal to the character (3,-1) of the couple
        # (y, x^3), realized from length 4 on; (-2,-5) fails at length 7.
        with pytest.raises(GenericityError):
            poincare_polynomial(4, (-1, -3))
        with pytest.raises(GenericityError):
            poincare_polynomial(7, (-2, -5))
        for l in range(1, 4):
            assert poincare_polynomial(l, (-1, -3)) == poincare_polynomial(l, (-2, -5))


class TestArmLegCensus:
    """The census read from arm-leg characters, against closed forms and cell_dimension."""

    def test_closed_form_up_to_the_bound(self):
        # At (-1,-(n+1)) every (a, -(l+1)) pairs positively and (-(a+1), l)
        # does iff l = 0, at the top of a column: the cell of E has dimension
        # n + #columns.  At the transpose it is n + #rows.
        for n in range(1, POINCARE_BOUND + 1):
            staircases = enumerate_staircases(n)
            by_columns = Counter(n + len(E.columns) for E in staircases)
            by_rows = Counter(n + E.columns[0] for E in staircases)
            assert poincare_polynomial(n, (-1, -(n + 1))) == dict(sorted(by_columns.items()))
            assert poincare_polynomial(n, (-(n + 1), -1)) == dict(sorted(by_rows.items()))

    @pytest.mark.parametrize("vector", [(-1, -13), (-13, -1), (-2, -25), (-25, -3)])
    def test_equals_cell_dimension_census(self, vector):
        for n in range(1, 13):
            expected = Counter(cell_dimension(E, vector) for E in enumerate_staircases(n))
            assert poincare_polynomial(n, vector) == dict(sorted(expected.items()))

    @pytest.mark.parametrize("vector", [(-1, -3), (-2, -5), (-1, -1)])
    def test_errors_equal_first_failing_cell_dimension(self, vector):
        for n in range(1, 13):
            expected = None
            for E in enumerate_staircases(n):
                try:
                    cell_dimension(E, vector)
                except GenericityError as exc:
                    expected = exc
                    break
            if expected is None:
                poincare_polynomial(n, vector)
                continue
            with pytest.raises(GenericityError) as err:
                poincare_polynomial(n, vector)
            assert type(err.value) is type(expected)
            assert str(err.value) == str(expected)
            assert err.value.couple == expected.couple

    def test_census_builds_no_tangent_basis(self, monkeypatch):
        counts = counting(monkeypatch, "hilbcells.tangent.tangent_basis")
        poincare_polynomial(12, (-1, -13))
        assert counts["hilbcells.tangent.tangent_basis"] == 0


class TestArmLegCellDimension:
    """``cells`` counts arm-leg pairings; ``cell_dimension`` raises where they fail."""

    @pytest.mark.parametrize("vector", [(-1, -13), (3, -2), (1, 2), (-5, 7), (0, 1), (1, -1),
                                        (-1, -3), (0, 0)])
    def test_equals_cell_dimension_or_its_error(self, vector):
        strata = importlib.import_module("hilbcells.strata")
        for n in range(0, 11):
            for E in enumerate_staircases(n):
                try:
                    expected = cell_dimension(E, vector)
                except DomainError as exc:
                    with pytest.raises(type(exc)) as err:
                        strata._arm_leg_dimension(E, vector)
                    assert str(err.value) == str(exc)
                    assert getattr(err.value, "couple", None) == getattr(exc, "couple", None)
                else:
                    assert strata._arm_leg_dimension(E, vector) == expected, (E.columns, vector)


def goettsche_census(n_max):
    """Per n <= n_max, the q^n coefficient of prod_{k>=1} 1/(1 - t^(k+1) q^k).

    Each is a Counter from the t-degree to its coefficient (Ellingsrud-
    Stromme, Invent. Math. 87, 1987; Goettsche, Math. Ann. 286, 1990).
    """
    series = [Counter() for _ in range(n_max + 1)]
    series[0][0] = 1
    for k in range(1, n_max + 1):
        # Times 1/(1 - t^(k+1) q^k): in place, n ascending, so series[n - k]
        # already holds every power of the factor.
        for n in range(k, n_max + 1):
            for d, c in series[n - k].items():
                series[n][d + k + 1] += c
    return series


def partitions(n, cap=None):
    """Partitions of n as weakly decreasing tuples of parts no larger than cap."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def orthogonal_character(columns, vector):
    """Some arm-leg character of the staircase with these columns pairs to 0 with vector."""
    rows = [sum(1 for h in columns if h > j) for j in range(columns[0])]
    w1, w2 = vector
    for i, h in enumerate(columns):
        for j in range(h):
            arm, leg = rows[j] - i - 1, h - j - 1
            if -w1 * (arm + 1) + w2 * leg == 0 or w1 * arm - w2 * (leg + 1) == 0:
                return True
    return False


class TestGoettscheCensus:
    """The census at seeded vectors against the product formula, to the length bound."""

    def test_census_equals_the_product_formula(self):
        rng = random.Random(2001)
        # Six vectors drawn at random, four with a small ratio scaled into
        # range, which turn non-generic at a length below the bound.
        vectors = [(-rng.randint(1, 400), -rng.randint(1, 400)) for _ in range(6)]
        for p, q in ((1, 2), (2, 3), (3, 7), (5, 8)):
            g = rng.randint(1, 400 // q)
            vectors.append((-g * p, -g * q))
        series = goettsche_census(POINCARE_BOUND)
        outcomes = Counter()
        for vector in vectors:
            for n in range(1, POINCARE_BOUND + 1):
                if any(orthogonal_character(c, vector) for c in partitions(n)):
                    with pytest.raises(GenericityError):
                        poincare_polynomial(n, vector)
                    outcomes["non-generic"] += 1
                else:
                    assert poincare_polynomial(n, vector) == dict(series[n]), (vector, n)
                    outcomes["generic"] += 1
        assert outcomes["generic"] > 0 and outcomes["non-generic"] > 0


class TestStepSerialization:
    def test_json(self):
        step = degenerate_once(construct_staircase([1, 1]), W11)
        data = step.to_json()
        assert data["source"] == {"columns": [1, 1]}
        assert data["target"] == {"columns": [2]}
        assert data["point"] == {"X[0,1;1,0]": "1"}
        assert data["profiles"] == {"source": [1, 2, 2], "target": [1, 1, 2]}
