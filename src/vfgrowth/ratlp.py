"""Exact linear programming over the rationals.

Solves max c.x subject to A x = b, x >= 0 by two-phase simplex with
Bland's anti-cycling rule.  There is no floating point and no tolerance.
A program stores each integral coefficient as a Python int and only a
non-integral one as a Fraction, so a program with integer data, such as
every growth LP's constraints, is held in ints from the start.  The
tableau is fraction-free: each row is a list of Python ints divided by
its gcd, a positive multiple of the rational row it stands for, so its
basic entry is positive.  The reduced-cost row is a row of the same
tableau, updated by the same pivots; the ratio test cross-multiplies; and
Fractions are formed only for the answer.  The choices are those of the
same simplex run on Fraction rows, so the answer is too.

An optimal solution carries a dual vector y with A^T y >= c and
b.y = c.x, read from the phase-1 artificial columns, which stay in the
tableau.  certify checks that and primal feasibility exactly, with no
code shared with the simplex: it scales x, y and c by their common
denominators and compares the scaled products, which are ints wherever
A and b are.  By weak duality that proves the optimum at any size.

enumerate_vertices visits every basic feasible solution by exhaustive
basis enumeration (capped at 24 variables by default).  It is the tests'
independent oracle for small LPs; the package itself never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import CapExceeded, InputError

VERTEX_ENUM_CAP = 24
_ITERATION_CAP = 100000


def _exact(c):
    """A coefficient as an int if it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RationalLP:
    """maximize objective . x  subject to  rows . x = rhs,  x >= 0.

    Coefficients are stored exactly: an integral one as an int, any other
    as a Fraction.  Variables are referred to by their index, counted from
    0 in the order add_var made them.
    """

    def __init__(self):
        self.var_names = []
        self.objective = []
        self.rows = []
        self.rhs = []

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    def _column(self, index) -> int:
        if not 0 <= index < len(self.var_names):
            raise InputError(f"no variable with index {index!r}")
        return index

    def add_var(self, name: str, objective=0) -> int:
        if name in self.var_names:
            raise InputError(f"duplicate variable {name!r}")
        self.var_names.append(name)
        self.objective.append(_exact(objective))
        for row in self.rows:
            row.append(0)
        return len(self.var_names) - 1

    def add_to_objective(self, index: int, coeff):
        col = self._column(index)
        self.objective[col] = _exact(self.objective[col] + _exact(coeff))

    def add_constraint(self, coeffs, rhs):
        """coeffs: mapping from variable index to coefficient."""
        row = [0] * len(self.var_names)
        for idx, c in coeffs.items():
            row[self._column(idx)] = _exact(c)
        self.rows.append(row)
        self.rhs.append(_exact(rhs))


@dataclass(frozen=True)
class LPSolution:
    status: str            # optimal | infeasible | unbounded
    value: Fraction
    point: tuple
    basis: tuple
    dual: tuple = None     # y with A^T y >= c and b.y = value, if optimal

    def __str__(self):
        if self.status != "optimal":
            return self.status
        return f"optimal value {self.value}"


def _primitive(row) -> list:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _integer_row(values) -> list:
    """The smallest positive multiple of a rational row that is all ints."""
    den = lcm(*(v.denominator for v in values))
    if den > 1:
        values = [v.numerator * (den // v.denominator) for v in values]
    return _primitive(values)


def _combine(p, r, q, prow):
    """p*r - q*prow, divided by its gcd."""
    return _primitive([p * a - q * b for a, b in zip(r, prow)])


def _pivot(rows, basis, row, col, cost=None):
    """Make col basic in row.  Every other row r (and the cost row) becomes
    p*r - r[col]*pivot row over its gcd, which keeps each basic entry
    positive because the pivot p is made positive first."""
    prow = rows[row]
    p = prow[col]
    if p < 0:
        prow = rows[row] = [-a for a in prow]
        p = -p
    for i, r in enumerate(rows):
        if i != row and r[col]:
            rows[i] = _combine(p, r, r[col], prow)
    if cost is not None and cost[col]:
        cost[:] = _combine(p, cost, cost[col], prow)
    basis[row] = col


def _priced(rows, basis, cost) -> list:
    """The reduced-cost row of a rational cost vector against the basis,
    as ints: D*(c - c_B B^-1 A), then D > 0 in the scale column, then
    -D*c_B.x_B under the rhs."""
    z = _integer_row(list(cost) + [1, 0])
    for r, b in zip(rows, basis):
        if z[b]:
            z = _combine(r[b], z, z[b], r)
    return z


def _simplex(rows, basis, cost, ncols):
    """Run simplex to optimality on a tableau in canonical form.

    Bland's rule on both the entering and the leaving choice: the growth
    LPs are heavily degenerate, so anti-cycling is not optional.  Row i
    stands for rows[i] / rows[i][basis[i]], so the ratio test compares
    rhs/entry by cross-multiplying, and a reduced cost has the sign of its
    cost-row entry.
    """
    for _ in range(_ITERATION_CAP):
        enter = next((j for j in range(ncols) if cost[j] > 0), -1)
        if enter < 0:
            return "optimal"
        leave = -1
        for i, r in enumerate(rows):
            a = r[enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = i, r[-1], a
                    continue
                lhs, rhs = r[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, r[-1], a
        if leave < 0:
            return "unbounded"
        _pivot(rows, basis, leave, enter, cost)
    raise AssertionError("simplex failed to terminate")  # unreachable with Bland


def solve_max(lp: RationalLP) -> LPSolution:
    m, n = lp.num_constraints, lp.num_vars
    # Row i is [A_i | e_i | 0 | b_i] scaled to ints, with A_i and b_i
    # negated if b_i < 0.  The unit columns are the phase-1 artificials;
    # they stay to the end, where their reduced costs give the dual.  The
    # zero column holds the cost row's scale, which no constraint row moves.
    rows = []
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        unit = [0] * m
        unit[i] = 1
        full = _integer_row(row + unit + [0, b])
        if b < 0:
            full = [-a for a in full]
            full[n + i] = -full[n + i]
        rows.append(full)

    # Phase 1: drive the sum of the artificials to zero.
    basis = list(range(n, n + m))
    cost = _priced(rows, basis, [0] * n + [-1] * m)
    status = _simplex(rows, basis, cost, n + m)
    assert status == "optimal"  # phase 1 objective is bounded above by zero
    if any(r[-1] for r, b in zip(rows, basis) if b >= n):
        return LPSolution("infeasible", None, None, None)

    # Pivot leftover artificials out of the basis; a row where no original
    # column can serve as pivot is redundant and gets dropped.
    i = 0
    while i < len(rows):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, basis, i, col)
        i += 1

    cost = _priced(rows, basis, list(lp.objective) + [0] * m)
    status = _simplex(rows, basis, cost, n)
    if status == "unbounded":
        return LPSolution("unbounded", None, None, None)
    point = [Fraction(0)] * n
    for r, b in zip(rows, basis):
        point[b] = Fraction(r[-1], r[b])
    scale = cost[n + m]
    # y = c_B B^-1: the negated reduced costs of the artificial columns,
    # negated back on the rows that were flipped
    dual = tuple(Fraction(z if b < 0 else -z, scale)
                 for z, b in zip(cost[n:n + m], lp.rhs))
    return LPSolution("optimal", Fraction(-cost[-1], scale), tuple(point),
                      tuple(sorted(basis)), dual)


def _scaled(values):
    """(d, [v * d for v in values]) for the least d > 0 that makes every
    product an int."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def certify(lp: RationalLP, solution: LPSolution) -> bool:
    """Whether the solution is provably optimal, by weak duality.

    Checks exactly, sharing nothing with the simplex, that x is feasible
    (A x = b, x >= 0), that y is dual feasible (A^T y >= c column by
    column) and that b.y = c.x = value.  Any feasible x then has
    c.x <= (A^T y).x = b.y, so no point beats the solution.  The checks
    run on X = dx x, Y = dy y and C = dc c, scaled by their common
    denominators: A X = dx b, dc A^T Y >= dy C and C.X = dc dx value,
    b.Y = dy value, all in ints where A and b are.
    """
    x, y = solution.point, solution.dual
    if solution.status != "optimal" or x is None or y is None \
            or len(x) != lp.num_vars or len(y) != lp.num_constraints:
        return False
    dx, xs = _scaled(x)
    dy, ys = _scaled(y)
    dc, cs = _scaled(lp.objective)
    if any(v < 0 for v in xs):
        return False
    support = [(j, v) for j, v in enumerate(xs) if v]
    if any(sum(row[j] * v for j, v in support) != b * dx
           for row, b in zip(lp.rows, lp.rhs)):
        return False
    aty = [0] * lp.num_vars
    for row, w in zip(lp.rows, ys):
        if w:
            aty = [s + a * w if a else s for s, a in zip(aty, row)]
    if any(s * dc < c * dy for s, c in zip(aty, cs)):
        return False
    value = solution.value
    return (sum(cs[j] * v for j, v in support) * value.denominator
            == value.numerator * dc * dx
            and sum(b * w for b, w in zip(lp.rhs, ys)) * value.denominator
            == value.numerator * dy)


def _rref(matrix, ncols):
    """Reduced row echelon form over the first ncols columns; drops zero
    rows, returns None if a row reads 0 = nonzero."""
    rows = [list(r) for r in matrix]
    lead = 0
    out = []
    for col in range(ncols):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        r = rows[lead]
        rows[lead] = [x / r[col] for x in r]
        for i in range(len(rows)):
            if i != lead and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[lead])]
        lead += 1
    for r in rows[lead:]:
        if r[-1] != 0:
            return None
    return rows[:lead]


def _solve_square(reduced, cols):
    """Solve the subsystem restricted to the given columns; None if singular."""
    square = _rref([[r[c] for c in cols] + [r[-1]] for r in reduced],
                   len(cols))
    if square is None or len(square) < len(cols):
        return None
    return [r[-1] for r in square]


def enumerate_vertices(lp: RationalLP, cap: int = VERTEX_ENUM_CAP):
    """All basic feasible solutions as (point, value) pairs, deduplicated.

    Exhaustive over column subsets of size rank(A); quadratic-ish in the
    binomial coefficient, hence the variable cap.
    """
    n = lp.num_vars
    if n > cap:
        raise CapExceeded(f"vertex enumeration capped at {cap} variables, got {n}")
    matrix = [[Fraction(x) for x in row] + [Fraction(b)]
              for row, b in zip(lp.rows, lp.rhs)]
    reduced = _rref(matrix, n)
    if reduced is None:
        return []
    rank = len(reduced)
    seen = {}
    for cols in combinations(range(n), rank):
        sol = _solve_square(reduced, cols)
        if sol is None or any(x < 0 for x in sol):
            continue
        point = [Fraction(0)] * n
        for c, x in zip(cols, sol):
            point[c] = x
        point = tuple(point)
        if point not in seen:
            seen[point] = sum(c * x for c, x in zip(lp.objective, point))
    return sorted(seen.items())


def dump_tsv(lp: RationalLP, solution: LPSolution = None) -> str:
    """Tab-separated dump of the program (and solution) for debugging."""
    lines = ["\t".join(["row"] + list(lp.var_names) + ["rhs"])]
    lines.append("\t".join(["objective"] + [str(c) for c in lp.objective] + [""]))
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        lines.append("\t".join([f"eq{i}"] + [str(x) for x in row] + [str(b)]))
    if solution is not None:
        lines.append(f"status\t{solution.status}")
        if solution.status == "optimal":
            lines.append("\t".join(["point"] + [str(x) for x in solution.point]
                                   + [str(solution.value)]))
    return "\n".join(lines) + "\n"
