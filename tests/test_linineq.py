import gc
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brokerlab import linineq
from brokerlab.errors import InstanceTooLarge
from brokerlab.linineq import (
    Constraint,
    enumerate_cells,
    find_point,
    nonneg_orthant,
)

from helpers import (
    enumerate_cells_reference,
    find_point_reference,
    frac,
    holds,
    random_linear_system,
)


def check(constraints, point):
    return all(holds(c, point) for c in constraints)


class TestFindPoint:
    def test_simple_box(self):
        cons = nonneg_orthant(2) + [
            Constraint((F(1), F(0)), F(3)),
            Constraint((F(0), F(1)), F(2)),
        ]
        point = find_point(cons, 2)
        assert point is not None and check(cons, point)

    def test_strict_infeasible_on_line(self):
        cons = [
            Constraint((F(1),), F(1)),
            Constraint((F(-1),), F(-1)),  # x >= 1
            Constraint((F(1),), F(1), strict=True),  # x < 1
        ]
        assert find_point(cons, 1) is None

    def test_strict_feasible_interval(self):
        cons = [
            Constraint((F(-1),), F(0), strict=True),  # x > 0
            Constraint((F(1),), F(1), strict=True),  # x < 1
        ]
        point = find_point(cons, 1)
        assert point is not None and 0 < point[0] < 1

    def test_equality_via_two_bounds(self):
        cons = [
            Constraint((F(2), F(1)), F(4)),
            Constraint((F(-2), F(-1)), F(-4)),  # 2x + y = 4
            Constraint((F(0), F(-1)), F(-1)),  # y >= 1
        ]
        point = find_point(cons, 2)
        assert point is not None
        assert 2 * point[0] + point[1] == 4 and point[1] >= 1

    def test_contradictory_constants(self):
        assert find_point([Constraint((F(0),), F(-1))], 1) is None
        assert find_point([Constraint((F(0),), F(0), strict=True)], 1) is None
        assert find_point([Constraint((F(0),), F(0))], 1) is not None

    def test_zero_variables(self):
        assert find_point([], 0) == ()

    def test_unbounded_direction(self):
        cons = [Constraint((F(-1), F(0)), F(-5))]  # x >= 5, y free
        point = find_point(cons, 2)
        assert point is not None and point[0] >= 5

    def test_row_budget_refuses_a_level_past_the_cap(self, monkeypatch):
        # eliminating y pairs -y <= 0 with each of six distinct rows
        cons = [Constraint((F(s), F(1)), F(b)) for s in (1, -1) for b in (1, 2, 3)]
        cons.append(Constraint((F(0), F(-1)), F(0)))
        monkeypatch.setattr(linineq, "MAX_FM_ROWS", 6)
        assert find_point(cons, 2) == (F(0), F(0))
        monkeypatch.setattr(linineq, "MAX_FM_ROWS", 5)
        with pytest.raises(InstanceTooLarge, match="^find_point: elimination reached 6 rows, cap is 5$"):
            find_point(cons, 2)

    def test_random_systems_witnesses_always_verify(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 4)
            cons = []
            for _ in range(rng.randint(1, 6)):
                coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                cons.append(
                    Constraint(coeffs, F(rng.randint(-4, 8)), rng.random() < 0.3)
                )
            point = find_point(cons, n)
            if point is not None:
                assert check(cons, point)

    def test_agrees_with_grid_oracle_on_small_integer_systems(self):
        # Integer-coefficient systems whose feasibility over a coarse grid
        # implies feasibility; FM must never call such a system infeasible.
        rng = random.Random(9)
        grid = [F(k, 2) for k in range(-8, 9)]
        for _ in range(120):
            n = rng.randint(1, 2)
            cons = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(n))
                cons.append(Constraint(coeffs, F(rng.randint(-3, 6)), rng.random() < 0.3))
            grid_hit = any(
                check(cons, pt) for pt in product(grid, repeat=n)
            )
            if grid_hit:
                assert find_point(cons, n) is not None


class TestConstraintIdentity:
    """A constraint is the half-space it denotes."""

    def test_positive_multiples_are_equal_and_hash_equal(self):
        c = Constraint((F(1, 2), F(-3)), F(2))
        for k in (F(1), F(2), F(2, 7), F(10**12, 3)):
            scaled = Constraint(tuple(a * k for a in c.coeffs), c.bound * k)
            assert scaled == c and hash(scaled) == hash(c)
        assert len({c, Constraint((F(1), F(-6)), F(4)), Constraint((F(3), F(-18)), F(12))}) == 1

    def test_strictness_direction_and_arity_tell_rows_apart(self):
        c = Constraint((F(1), F(2)), F(3))
        assert c != Constraint((F(1), F(2)), F(3), strict=True)
        assert c != Constraint((F(-1), F(-2)), F(-3))
        assert c != Constraint((F(1), F(2), F(0)), F(3))
        assert Constraint((F(1),), F(1)) != Constraint((F(1), F(0)), F(1))

    def test_complement_is_the_other_side(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 3)
            (c,) = random_linear_system(rng, n, max_rows=1) or [Constraint((F(1),) * n, F(0))]
            other = c.complement()
            assert other.strict is not c.strict
            assert other.complement() == c
            # the integer row the kernel reads is the other side too
            assert find_point([c, other], n) is None
            for point in product([F(-1), F(0), F(1, 2), F(2)], repeat=n):
                assert holds(c, point) is not holds(other, point)


class TestCells:
    def test_interval_cells_on_a_line(self):
        hyperplanes = [Constraint((F(1),), F(1)), Constraint((F(1),), F(3))]
        cells = list(enumerate_cells(nonneg_orthant(1), hyperplanes, 1))
        signs = {s for s, _ in cells}
        # x <= 1 implies x <= 3, so the (True, False) cell is empty
        assert signs == {(True, True), (False, True), (False, False)}
        for s, witness in cells:
            assert (witness[0] <= 1) == s[0]
            assert (witness[0] <= 3) == s[1]

    def test_cell_count_matches_brute_force_in_2d(self):
        rng = random.Random(77)
        for _ in range(40):
            hyperplanes = [
                Constraint(
                    (F(rng.randint(-2, 2)), F(rng.randint(-2, 2))), F(rng.randint(-2, 4))
                )
                for _ in range(rng.randint(1, 4))
            ]
            base = nonneg_orthant(2)
            found = {s for s, _ in enumerate_cells(base, hyperplanes, 2)}
            brute = set()
            for signs in product([True, False], repeat=len(hyperplanes)):
                cons = list(base)
                for h, s in zip(hyperplanes, signs):
                    cons.append(h if s else h.complement())
                if find_point(cons, 2) is not None:
                    brute.add(signs)
            assert found == brute

    def test_witnesses_lie_in_their_cells(self):
        hyperplanes = [
            Constraint((F(1), F(1)), F(2)),
            Constraint((F(1), F(-1)), F(0)),
        ]
        for signs, witness in enumerate_cells(nonneg_orthant(2), hyperplanes, 2):
            for h, s in zip(hyperplanes, signs):
                c = h if s else h.complement()
                assert holds(c, witness)


class TestCellWalkMemory:
    def test_a_finished_or_abandoned_walk_leaves_nothing_to_collect(self):
        # with no cyclic collection, a walk's closure, stack and branch lists
        # must go by reference counting, whether it ran out or was dropped
        hyperplanes = [
            Constraint((F(1), F(1)), F(2)),
            Constraint((F(1), F(-1)), F(0)),
            Constraint((F(0), F(1)), F(1)),
        ]
        gc.collect()
        gc.disable()
        try:
            cells = list(enumerate_cells(nonneg_orthant(2), hyperplanes, 2))
            assert len(cells) > 3
            assert gc.collect() == 0
            walk = enumerate_cells(nonneg_orthant(2), hyperplanes, 2)
            assert next(walk) == cells[0]
            del walk
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAgainstFractionElimination:
    """The integer-row kernel against the Fraction elimination it replaced:
    witnesses are reported, so the points must be identical, not merely
    feasible."""

    def test_find_point_matches_on_seeded_systems(self):
        rng = random.Random(2024)
        found = 0
        for i in range(6000):
            n = i % 6
            cons = random_linear_system(rng, n)
            point = find_point(cons, n)
            assert point == find_point_reference(cons, n), (n, cons)
            if point is not None:
                assert all(type(x) is F for x in point)
                found += 1
        assert 1500 < found < 4500  # feasible and infeasible systems both common

    def test_enumerate_cells_matches_reference_walk(self):
        rng = random.Random(11)
        cells = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            base = nonneg_orthant(n) + random_linear_system(rng, n, max_rows=2)
            hyperplanes = [
                Constraint(
                    tuple(frac(rng, -3, 3, (1, 2, 3)) for _ in range(n)),
                    frac(rng, -2, 6, (1, 2)),
                )
                for _ in range(rng.randint(1, 5))
            ]
            got = list(enumerate_cells(base, hyperplanes, n))
            assert got == list(enumerate_cells_reference(base, hyperplanes, n))
            cells += len(got)
        assert cells > 600

    def test_pruned_walk_drops_exactly_the_skipped_subtrees(self):
        # a skipped branch takes every cell below it and moves no other
        # cell's witness; the hook hears each branch once, in walk order
        rng = random.Random(36)
        cells = dropped = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            base = nonneg_orthant(n) + random_linear_system(rng, n, max_rows=2)
            hyperplanes = [
                Constraint(
                    tuple(frac(rng, -3, 3, (1, 2, 3)) for _ in range(n)),
                    frac(rng, -2, 6, (1, 2)),
                )
                for _ in range(rng.randint(1, 6))
            ]
            full = list(enumerate_cells(base, hyperplanes, n))
            verdicts: dict[tuple[int, int], bool] = {}

            def prune(decided, true_bits):
                assert (decided, true_bits) not in verdicts
                verdicts[decided, true_bits] = rng.random() < 0.2
                return verdicts[decided, true_bits]

            got = list(enumerate_cells(base, hyperplanes, n, prune))

            def kept(signs):
                bits = sum(1 << i for i, sign in enumerate(signs) if sign)
                # every prefix of a kept cell was asked about, and none skipped
                return not any(
                    verdicts[k, bits & ((1 << k) - 1)] for k in range(1, len(signs) + 1)
                )

            assert got == [cell for cell in full if kept(cell[0])]
            cells += len(got)
            dropped += len(full) - len(got)
        assert cells > 300 and dropped > 300

    def test_a_skipped_branch_costs_no_elimination(self, monkeypatch):
        calls = []
        real = linineq.find_point

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linineq, "find_point", counted)
        hyperplanes = [Constraint((F(1), F(-1)), F(0)), Constraint((F(0), F(1)), F(1))]
        assert list(enumerate_cells(nonneg_orthant(2), hyperplanes, 2, lambda *_: True)) == []
        assert len(calls) == 1  # the root's point only

    @staticmethod
    def with_duplicates(rng, rows):
        """rows with positive multiples of some of them inserted after their
        originals, and the indices of the rows no earlier row equals."""
        rows = list(rows)
        for _ in range(rng.randint(1, 3)):
            c = rng.choice(rows)
            k = F(rng.randint(1, 9), rng.randint(1, 9))
            scaled = Constraint(tuple(a * k for a in c.coeffs), c.bound * k, c.strict)
            rows.insert(rng.randint(rows.index(c) + 1, len(rows)), scaled)
        return rows, [i for i, h in enumerate(rows) if h not in rows[:i]]

    def test_merged_rows_keep_the_cells_of_duplicated_rows(self):
        # a row equal to an earlier one has its sign forced, so dropping it
        # drops its coordinate and loses no cell; a later find_point sees one
        # row fewer, which can change its elimination order and so its point
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randint(1, 3)
            base = nonneg_orthant(n) + random_linear_system(rng, n, max_rows=2)
            rows, kept = self.with_duplicates(rng, [
                Constraint(
                    tuple(frac(rng, -3, 3, (1, 2, 3)) for _ in range(n)),
                    frac(rng, -2, 6, (1, 2)),
                    rng.random() < 0.2,
                )
                for _ in range(rng.randint(1, 4))
            ])
            merged = [rows[i] for i in kept]
            got = list(enumerate_cells(base, merged, n))
            expected = [
                (tuple(signs[i] for i in kept), witness)
                for signs, witness in enumerate_cells_reference(base, rows, n)
            ]
            assert [signs for signs, _ in got] == [signs for signs, _ in expected]
            for signs, witness in got:
                sides = [h if s else h.complement() for h, s in zip(merged, signs)]
                assert check(base + sides, witness)

    def test_merged_rows_keep_the_witnesses_of_price_space_rows(self):
        # over p >= 0 with rows whose coefficients share one sign, as
        # willingness (g . p <= v) and participation (-u . p <= -c) rows with
        # positive usage do, every variable has the same sign counts, so
        # find_point eliminates p_0 first with or without a duplicate row
        rng = random.Random(19)
        cells = 0
        for _ in range(150):
            n = rng.randint(1, 3)
            signed = []
            for _ in range(rng.randint(1, 5)):
                sign = rng.choice((1, -1))
                usage = tuple(sign * frac(rng, 1, 4, (1, 2)) for _ in range(n))
                signed.append(Constraint(usage, sign * frac(rng, 0, 8, (1, 2))))
            rows, kept = self.with_duplicates(rng, signed)
            expected = [
                (tuple(signs[i] for i in kept), witness)
                for signs, witness in enumerate_cells_reference(nonneg_orthant(n), rows, n)
            ]
            got = list(enumerate_cells(nonneg_orthant(n), [rows[i] for i in kept], n))
            assert got == expected
            cells += len(got)
        assert cells > 500

    def test_find_point_matches_on_tie_prone_systems(self):
        # back-substitution compares candidate bounds by cross-multiplying:
        # rows through one anchor point give equal bounds, and a strict row
        # must win an equal bound on either side, in either order
        rng = random.Random(20)
        kinds = set()
        for i in range(3000):
            n = 1 + i % 8
            cons, kind = tie_prone_system(rng, n)
            kinds.add(kind)
            point = find_point(cons, n)
            assert point == find_point_reference(cons, n), (n, cons)
            if point is not None:
                assert check(cons, point)
        assert kinds == {"tie", "point", "half-open", "one-sided"}

    @pytest.mark.parametrize("strict_first", [True, False])
    @pytest.mark.parametrize("side", [1, -1])
    def test_a_strict_row_wins_an_equal_bound(self, side, strict_first):
        # side * x > 1, then side * x <= 3 twice, once strict: the open end
        # at 1 sends the pick to the midpoint (x = 2 * side) only if the end
        # at 3 is open too
        closed = Constraint((F(side),), F(3))
        open_ = Constraint((F(side),), F(3), strict=True)
        ties = [open_, closed] if strict_first else [closed, open_]
        cons = [Constraint((F(-side),), F(-1), strict=True), *ties]
        assert find_point(cons, 1) == find_point_reference(cons, 1) == (F(2 * side),)


def tie_prone_system(rng, n):
    """Rows through one rational anchor point, some repeated, some rescaled
    with the other strictness, plus per-coordinate intervals of one kind:
    ties, closed points, half-open intervals that exclude 0, or one-sided."""
    dens = (1, 1, 2, 3, 7) if rng.random() < 0.7 else (10**9 + 7, 10**12, 2**40 + 1)
    anchor = [F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
    cons = []
    for _ in range(rng.randint(1, n + 3)):
        coeffs = [F(0)] * n
        for j in rng.sample(range(n), min(n, rng.randint(1, 3))):
            coeffs[j] = F(rng.choice((-3, -2, -1, 1, 2, 3)))
        k = F(rng.randint(1, 10**12), rng.choice(dens))
        bound = sum((a * x for a, x in zip(coeffs, anchor)), F(0)) + rng.choice((0, 0, 0, 1, -1))
        strict = rng.random() < 0.4
        cons.append(Constraint(tuple(a * k for a in coeffs), bound * k, strict))
        roll = rng.random()
        if roll < 0.4:  # the same half-space, other strictness, rescaled
            k2 = F(rng.randint(1, 9), rng.randint(1, 9))
            cons.insert(
                rng.randint(len(cons) - 1, len(cons)),
                Constraint(tuple(a * k2 for a in coeffs), bound * k2, not strict),
            )
        elif roll < 0.55:
            cons.append(rng.choice(cons))
    kind = rng.choice(("tie", "point", "half-open", "one-sided"))
    for i in rng.sample(range(n), rng.randint(0, n)):
        unit = tuple(F(1) if j == i else F(0) for j in range(n))
        neg = tuple(-a for a in unit)
        a = F(rng.randint(1, 6), rng.choice(dens))
        b = a + F(rng.randint(1, 6), rng.choice(dens))
        sign = rng.choice((1, -1))
        if kind == "tie":  # x_i <= c or x_i >= c twice, once strict
            c = anchor[i]
            pair = [Constraint(unit, c), Constraint(unit, c, strict=True)]
            if sign < 0:
                pair = [Constraint(neg, -c), Constraint(neg, -c, strict=True)]
            rng.shuffle(pair)
            cons.extend(pair)
        elif kind == "point":  # lo == hi
            c = anchor[i] if rng.random() < 0.5 else F(0)
            cons.extend([Constraint(unit, c), Constraint(neg, -c)])
        elif kind == "half-open":  # (a, b] or [-b, -a), 0 outside
            up, lo = (unit, neg) if sign > 0 else (neg, unit)
            cons.extend([Constraint(lo, -a, strict=True), Constraint(up, b)])
        else:  # x_i >= a, x_i > a, x_i <= -a or x_i < -a
            cons.append(Constraint(neg if sign > 0 else unit, -a, rng.random() < 0.5))
    rng.shuffle(cons)
    return cons, kind


# small entries, with some whose numerator and denominator reach 10^12
RATIONALS = st.one_of(
    st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)
SYSTEMS = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.builds(Constraint, st.tuples(*[RATIONALS] * n), RATIONALS, st.booleans()),
            max_size=7,
        ),
    )
)


@given(SYSTEMS)
@settings(max_examples=300, deadline=None)
def test_returned_points_admit_every_constraint(system):
    n, cons = system
    point = find_point(cons, n)
    if point is not None:
        assert len(point) == n
        assert all(holds(c, point) for c in cons)


@given(
    SYSTEMS,
    st.data(),
    st.integers(1, 10**12),
    st.integers(1, 10**12),
)
@settings(max_examples=300, deadline=None)
def test_positive_rescaling_of_one_constraint_changes_nothing(system, data, num, den):
    n, cons = system
    assume(cons)
    i = data.draw(st.integers(0, len(cons) - 1))
    k = F(num, den)
    c = cons[i]
    scaled = list(cons)
    scaled[i] = Constraint(tuple(a * k for a in c.coeffs), c.bound * k, c.strict)
    assert find_point(scaled, n) == find_point(cons, n)
