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
Back-substitution sums each row in integers and makes one exact
``Fraction`` per bound.

Also provided: enumeration of the feasible sign cells of a hyperplane
arrangement restricted to a base system, used to split price space by
willingness and participation predicates.  The walk re-tests the parent
cell's witness before re-running elimination, which keeps the work close to
one elimination per emitted cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .rationals import ZERO

# an integer row coeffs . x <= bound (strictly when flagged), kept primitive:
# the gcd of its coeffs and bound is 1, or every entry is 0
_Row = tuple[tuple[int, ...], int, bool]


def _primitive(coeffs: tuple[int, ...], bound: int) -> tuple[tuple[int, ...], int]:
    g = gcd(*coeffs, bound)
    if g > 1:
        return tuple(c // g for c in coeffs), bound // g
    return coeffs, bound


def _dot(coeffs: tuple[int, ...], point: Sequence[Fraction], skip: int = -1) -> tuple[int, int]:
    """The sum of coeffs[j] * point[j] over j != skip, as a numerator and a
    positive denominator, accumulated in integers rather than Fractions."""
    num, den = 0, 1
    for j, a in enumerate(coeffs):
        if a and j != skip:
            x = point[j]
            if x:
                num = num * x.denominator + a * x.numerator * den
                den *= x.denominator
    return num, den


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

    def admits(self, point: Sequence[Fraction]) -> bool:
        coeffs, bound, strict = self._row
        num, den = _dot(coeffs, point)
        return num < bound * den or (num == bound * den and not strict)

    def complement(self) -> Constraint:
        """The other side: the reverse inequality, strict exactly when this one is not."""
        return Constraint(tuple(-c for c in self.coeffs), -self.bound, not self.strict)


def nonneg_orthant(n: int) -> list[Constraint]:
    """x_i >= 0 for every coordinate."""
    out = []
    for i in range(n):
        coeffs = [ZERO] * n
        coeffs[i] = Fraction(-1)
        out.append(Constraint(tuple(coeffs), ZERO))
    return out


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
    return [(coeffs, bound, strict) for (coeffs, bound), strict in reduced.items()]


def _pick_in_interval(
    lo: tuple[Fraction, bool] | None, hi: tuple[Fraction, bool] | None
) -> Fraction:
    """A rational inside the (guaranteed non-empty) interval."""

    def lo_admits(x: Fraction) -> bool:
        return lo is None or x > lo[0] or (x == lo[0] and not lo[1])

    def hi_admits(x: Fraction) -> bool:
        return hi is None or x < hi[0] or (x == hi[0] and not hi[1])

    if lo_admits(ZERO) and hi_admits(ZERO):
        return ZERO
    if lo is not None and not lo[1] and hi_admits(lo[0]):
        return lo[0]
    if hi is not None and not hi[1] and lo_admits(hi[0]):
        return hi[0]
    if lo is not None and hi is not None:
        return (lo[0] + hi[0]) / 2
    if lo is not None:
        return lo[0] + 1
    assert hi is not None
    return hi[0] - 1


def find_point(constraints: Iterable[Constraint], n_vars: int) -> tuple[Fraction, ...] | None:
    """A rational solution of the system, or None when it is infeasible."""
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

    point: list[Fraction] = [ZERO] * n_vars
    for var, level in reversed(levels):
        lo: tuple[Fraction, bool] | None = None
        hi: tuple[Fraction, bool] | None = None
        for coeffs, bound, strict in level:
            a = coeffs[var]
            if a == 0:
                continue
            num, den = _dot(coeffs, point, var)
            value = Fraction(bound * den - num, den * a)
            if a > 0:
                if hi is None or value < hi[0] or (value == hi[0] and strict):
                    hi = (value, strict)
            else:
                if lo is None or value > lo[0] or (value == lo[0] and strict):
                    lo = (value, strict)
        if lo is not None and hi is not None:
            if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
                return None  # defensive; elimination should prevent this
        point[var] = _pick_in_interval(lo, hi)
    return tuple(point)


def feasible(constraints: Iterable[Constraint], n_vars: int) -> bool:
    return find_point(constraints, n_vars) is not None


def enumerate_cells(
    base: Sequence[Constraint],
    hyperplanes: Sequence[Constraint],
    n_vars: int,
) -> Iterator[tuple[tuple[bool, ...], tuple[Fraction, ...]]]:
    """Feasible sign vectors of the arrangement, with a witness point each.

    Each hyperplane is given by its TRUE side; FALSE is its complement.
    Branches depth-first over the hyperplanes, pruning branches whose
    accumulated system is infeasible, so the work is proportional to the
    number of non-empty cells rather than 2^len(hyperplanes).
    """
    root = find_point(base, n_vars)
    if root is None:
        return

    branches = [((True, h), (False, h.complement())) for h in hyperplanes]
    stack: list[Constraint] = list(base)
    signs: list[bool] = []

    def walk(index: int, witness: tuple[Fraction, ...]):
        if index == len(hyperplanes):
            yield (tuple(signs), witness)
            return
        for sign, constraint in branches[index]:
            if constraint.admits(witness):
                next_witness = witness
            else:
                next_witness = find_point([*stack, constraint], n_vars)
                if next_witness is None:
                    continue
            stack.append(constraint)
            signs.append(sign)
            yield from walk(index + 1, next_witness)
            stack.pop()
            signs.pop()

    yield from walk(0, root)
