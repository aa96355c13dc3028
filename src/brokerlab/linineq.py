"""Exact feasibility for systems of linear inequalities over the rationals.

Constraints, the one row type, are ``coeffs . x <= bound`` (strictly ``<``
when flagged).  Feasibility goes through Fourier-Motzkin elimination, which
handles mixed strict and non-strict rows exactly: a pairing of a strict
bound with anything stays strict.  Variables are eliminated in a greedy
minimum-fill order and witness points are recovered by back-substitution,
preferring simple values (0, then a closed endpoint, then the midpoint).

Elimination runs on primitive integer rows.  Each ``Constraint`` clears its
denominators and divides out the gcd of its entries once, when it is built,
and every row an elimination step combines is made primitive again.  A
primitive row is the one integer representative of a constraint's positive
multiples, so a constraint compares and hashes as the half-space it
denotes; the elimination order reads only coefficient signs; and each
back-substitution bound ``(bound - sum a_j x_j) / a`` is unchanged by
positive scaling.  The witness points are therefore those of an elimination
over rationals, while the inner loop multiplies small integers.

Back-substitution is integer too.  The partial point is an integer vector
over one common denominator, each row's bound on the next coordinate is a
numerator over that denominator times the row's coefficient, and candidate
bounds are compared by cross-multiplying, a strict row winning an equal
bound.  The chosen value joins the vector (widening the denominator only
when it must), and each coordinate becomes one ``Fraction`` at the end.

FM can square its row count with each eliminated variable, so a level of
more than ``MAX_FM_ROWS`` rows is refused with ``InstanceTooLarge``.

Also provided: enumeration of the feasible sign cells of a hyperplane
arrangement restricted to a base system, used to split price space by
willingness and participation predicates.  The walk re-tests the parent
cell's witness before re-running elimination, so a branch that the witness
already satisfies costs no elimination, and an optional caller hook can skip
a branch, and every cell below it, before either test: a caller that needs
only a few extremes over the cells stops walking where none can change.
Each witness is scaled to integers over a common denominator once, when
``find_point`` returns it, so a test against a hyperplane is one integer
dot product of its primitive row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InstanceTooLarge
from .rationals import ZERO

# the most rows one elimination level may hold; FM can square the row count
# per eliminated variable, so past this a system is refused, not ground through
MAX_FM_ROWS = 1 << 14

# an integer row coeffs . x <= bound (strictly when flagged), kept primitive:
# the gcd of its coeffs and bound is 1, or every entry is 0
_Row = tuple[tuple[int, ...], int, bool]

# a bound num / (den * mult) on one coordinate in back-substitution, with
# den the point's common denominator and mult > 0, and whether it is strict
_Bound = tuple[int, int, bool]


def _primitive(coeffs: tuple[int, ...], bound: int) -> tuple[tuple[int, ...], int]:
    g = gcd(*coeffs, bound)
    if g > 1:
        return tuple(c // g for c in coeffs), bound // g
    return coeffs, bound


def _scaled(point: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The point as integer numerators over one positive common denominator."""
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def _holds(row: _Row, nums: Sequence[int], den: int) -> bool:
    """Whether the point ``nums / den`` satisfies the row."""
    coeffs, bound, strict = row
    total, limit = sum(map(mul, coeffs, nums)), bound * den
    return total < limit or (total == limit and not strict)


@dataclass(frozen=True)
class Constraint:
    """coeffs . x <= bound, strict when ``strict`` is set; equal to and hashed
    as its positive multiples, through its primitive row."""

    coeffs: tuple[Fraction, ...] = field(compare=False)
    bound: Fraction = field(compare=False)
    strict: bool = field(default=False, compare=False)
    # the primitive integer row of this constraint, made once here
    _row: _Row = field(init=False, repr=False)

    def __post_init__(self) -> None:
        scale = lcm(*(c.denominator for c in self.coeffs), self.bound.denominator)
        coeffs = tuple(c.numerator * (scale // c.denominator) for c in self.coeffs)
        bound = self.bound.numerator * (scale // self.bound.denominator)
        object.__setattr__(self, "_row", (*_primitive(coeffs, bound), self.strict))

    def complement(self) -> Constraint:
        """The other side: the reverse inequality, strict exactly when this one is not."""
        # a negated primitive row is primitive: built without __post_init__
        coeffs, bound, strict = self._row
        other = object.__new__(Constraint)
        vars(other).update(
            coeffs=tuple(-c for c in self.coeffs),
            bound=-self.bound,
            strict=not self.strict,
            _row=(tuple(-c for c in coeffs), -bound, not strict),
        )
        return other


@lru_cache(maxsize=16)
def _orthant(n: int) -> tuple[Constraint, ...]:
    return tuple(
        Constraint(tuple(Fraction(-1) if j == i else ZERO for j in range(n)), ZERO)
        for i in range(n)
    )


def nonneg_orthant(n: int) -> list[Constraint]:
    """x_i >= 0 for every coordinate."""
    return list(_orthant(n))


def _constant_holds(bound: int, strict: bool) -> bool:
    return bound > 0 or (bound == 0 and not strict)


def _eliminate(system: list[_Row], var: int) -> list[_Row] | None:
    """Remove one variable; None signals detected infeasibility."""
    uppers: list[_Row] = []  # positive coefficient on var
    lowers: list[_Row] = []  # negative coefficient on var
    reduced: dict[tuple[tuple[int, ...], int], bool] = {}
    for row in system:
        a = row[0][var]
        if a > 0:
            uppers.append(row)
        elif a < 0:
            lowers.append(row)
        else:
            coeffs, bound, strict = row
            reduced[coeffs, bound] = reduced.get((coeffs, bound), False) or strict

    for cu, bu, su in uppers:
        au = cu[var]
        for cl, bl, sl in lowers:
            al = -cl[var]
            g = gcd(au, al)
            # (al/g) * up + (au/g) * lo cancels var; both multipliers are positive
            mu, ml = al // g, au // g
            coeffs = tuple(mu * u + ml * l for u, l in zip(cu, cl))
            bound = mu * bu + ml * bl
            strict = su or sl
            if not any(coeffs):
                if not _constant_holds(bound, strict):
                    return None
                continue
            key = _primitive(coeffs, bound)
            reduced[key] = reduced.get(key, False) or strict
    if len(reduced) > MAX_FM_ROWS:
        raise InstanceTooLarge(
            f"find_point: elimination reached {len(reduced)} rows, cap is {MAX_FM_ROWS}"
        )
    return [(coeffs, bound, strict) for (coeffs, bound), strict in reduced.items()]


def _pick_in_interval(lo: _Bound | None, hi: _Bound | None, den: int) -> tuple[int, int]:
    """A rational ``p / q`` with ``q > 0`` inside the (guaranteed non-empty)
    interval: 0, else a closed endpoint, else the midpoint, else one past
    the only endpoint."""

    def lo_admits(num: int, mult: int) -> bool:
        if lo is None:
            return True
        c = num * lo[1] - lo[0] * mult
        return c > 0 or (c == 0 and not lo[2])

    def hi_admits(num: int, mult: int) -> bool:
        if hi is None:
            return True
        c = num * hi[1] - hi[0] * mult
        return c < 0 or (c == 0 and not hi[2])

    if lo_admits(0, 1) and hi_admits(0, 1):
        return 0, 1
    if lo is not None and not lo[2] and hi_admits(lo[0], lo[1]):
        return lo[0], den * lo[1]
    if hi is not None and not hi[2] and lo_admits(hi[0], hi[1]):
        return hi[0], den * hi[1]
    if lo is not None and hi is not None:
        return lo[0] * hi[1] + hi[0] * lo[1], 2 * den * lo[1] * hi[1]
    if lo is not None:
        return lo[0] + den * lo[1], den * lo[1]
    assert hi is not None
    return hi[0] - den * hi[1], den * hi[1]


def find_point(constraints: Iterable[Constraint], n_vars: int) -> tuple[Fraction, ...] | None:
    """A rational solution of the system, or None when it is infeasible.

    Raises InstanceTooLarge when an elimination level holds more than
    ``MAX_FM_ROWS`` rows.
    """
    system: list[_Row] = []
    for c in constraints:
        if len(c.coeffs) != n_vars:
            raise ValueError(f"constraint arity {len(c.coeffs)} != {n_vars}")
        row = c._row
        if not any(row[0]):
            if not _constant_holds(row[1], row[2]):
                return None
            continue
        system.append(row)

    if n_vars == 0:
        return ()

    levels: list[tuple[int, list[_Row]]] = []
    remaining = list(range(n_vars))
    while len(remaining) > 1:
        ups, los = [0] * n_vars, [0] * n_vars
        for coeffs, _, _ in system:
            for v, a in enumerate(coeffs):
                if a > 0:
                    ups[v] += 1
                elif a < 0:
                    los[v] += 1
        var = min(remaining, key=lambda v: (ups[v] * los[v] - ups[v] - los[v], v))
        levels.append((var, system))
        reduced = _eliminate(system, var)
        if reduced is None:
            return None
        system = reduced
        remaining.remove(var)
    levels.append((remaining[0], system))

    # the point is nums / den; a coordinate not yet chosen is 0, and rows
    # of a level are 0 on every variable eliminated before it
    nums = [0] * n_vars
    den = 1
    for var, level in reversed(levels):
        lo: _Bound | None = None
        hi: _Bound | None = None
        for coeffs, bound, strict in level:
            a = coeffs[var]
            if a == 0:
                continue
            # coeffs . x <= bound bounds x[var] by num / (den * a)
            num = bound * den - sum(map(mul, coeffs, nums))
            if a > 0:
                if hi is None or (c := num * hi[1] - hi[0] * a) < 0 or (c == 0 and strict):
                    hi = (num, a, strict)
            else:
                num, a = -num, -a
                if lo is None or (c := num * lo[1] - lo[0] * a) > 0 or (c == 0 and strict):
                    lo = (num, a, strict)
        if lo is not None and hi is not None:
            c = lo[0] * hi[1] - hi[0] * lo[1]
            # the last variable is never eliminated: this is its only infeasibility test
            if c > 0 or (c == 0 and (lo[2] or hi[2])):
                return None
        p, q = _pick_in_interval(lo, hi, den)
        g = gcd(p, q)
        p, q = p // g, q // g
        grow = q // gcd(den, q)
        if grow > 1:
            nums = [x * grow for x in nums]
            den *= grow
        nums[var] = p * (den // q)
    return tuple(Fraction(x, den) for x in nums)


def enumerate_cells(
    base: Sequence[Constraint],
    hyperplanes: Sequence[Constraint],
    n_vars: int,
    prune: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[tuple[bool, ...], tuple[Fraction, ...]]]:
    """Feasible sign vectors of the arrangement, with a witness point each.

    Each hyperplane is given by its TRUE side; FALSE is its complement.
    Branches depth-first over the hyperplanes, TRUE first, dropping branches
    whose accumulated system is infeasible, so the walk makes at most two
    eliminations per non-empty partial cell rather than 2^len(hyperplanes).

    ``prune(decided, true_bits)``, when given, is asked about each branch
    before its system is tested: ``decided`` hyperplanes are fixed once the
    branch's sign is set, and bit i of ``true_bits`` is set when hyperplane
    i < decided is on its TRUE side.  A branch it answers true for is
    skipped with every cell below it.  Both branches of a node start from
    the parent's witness, so a skipped branch moves no other cell's witness,
    and the cells left are emitted in the same order with the same points.
    It runs between yields, so it may read what the caller learnt from the
    cells emitted so far.
    """
    root = find_point(base, n_vars)
    if root is None:
        return

    # each branch: its sign, its side, and its bit in the TRUE mask
    branches = [
        ((True, h, 1 << i), (False, h.complement(), 0)) for i, h in enumerate(hyperplanes)
    ]
    stack: list[Constraint] = list(base)
    signs: list[bool] = []

    # a witness travels with its integer image, made once per find_point
    # result, so each hyperplane test is one integer dot product
    def walk(
        index: int,
        true_bits: int,
        witness: tuple[Fraction, ...],
        image: tuple[tuple[int, ...], int],
    ):
        if index == len(hyperplanes):
            yield (tuple(signs), witness)
            return
        for sign, constraint, bit in branches[index]:
            bits = true_bits | bit
            if prune is not None and prune(index + 1, bits):
                continue
            if _holds(constraint._row, *image):
                next_witness, next_image = witness, image
            else:
                next_witness = find_point([*stack, constraint], n_vars)
                if next_witness is None:
                    continue
                next_image = _scaled(next_witness)
            stack.append(constraint)
            signs.append(sign)
            yield from walk(index + 1, bits, next_witness, next_image)
            stack.pop()
            signs.pop()

    try:
        yield from walk(0, 0, root, _scaled(root))
    finally:
        # ``walk`` holds itself through its closure cell: release it, so a
        # finished or abandoned walk frees its lists without a cyclic collection
        del walk
