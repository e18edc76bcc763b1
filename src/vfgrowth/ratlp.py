"""Exact linear programming over the rationals.

Solves max c.x subject to A x = b, x >= 0 by two-phase simplex with
Bland's anti-cycling rule.  There is no floating point and no tolerance.
A program is made in one validated call and stored as tuples, so it
cannot change once it is solved and its answer certified.  It stores
each integral coefficient as a Python int and only a non-integral one as
a Fraction, so a program with integer data, such as every growth LP's
constraints, is held in ints from the start.  A float, str or bool
coefficient is refused: a float is a binary approximation of the number
meant (0.1 would be 3602879701896397/2**55), and a str or bool is no
number.  A refusal names where the coefficient was given, a variable or a
row, and that text is formatted only when the constructor refuses.
The tableau is fraction-free: each row is a list of Python ints, a
positive multiple of the rational row it stands for, so its basic entry
is positive.  The reduced-cost row is a row of the same tableau, updated
by the same pivots, with its positive scale in a column of its own; the
ratio test cross-multiplies; and Fractions are formed only for the
answer.  Each constraint row and cost row starts as its least positive
int multiple.  Each holds a 1 (the row's artificial, or the cost row's
scale), so a row of ints, whose gcd then divides 1, is that already and
enters as given; only a row with a Fraction is scaled.

A pivot on entry p > 0 of row prow makes each other row r
p*r - r[col]*prow.  That row is divided by the gcd of its entries only
once its scale entry (its basic entry, or the cost row's scale) reaches
1 << sys.int_info.bits_per_digit, so most entries stay in one CPython
digit, where int arithmetic takes a fast path.  prow is 0 in every other
basic column and in the scale column, so the new scale entry is p times
the old one and the test costs O(1).  The choices and the answer are
those of the same simplex run on Fraction rows, bit for bit:
- if r and prow are replaced by a*r and b*prow, a, b > 0, the pivot
  gives a*b*(p*r - r[col]*prow), so by induction every row is a positive
  multiple of the row the Fraction run holds, whenever and by whatever
  gcd it was divided;
- every decision reads only what a positive row factor keeps: the sign
  of a reduced cost, which of two ratios r[-1]/r[enter] is smaller (by
  cross-multiplying), the sign of the pivot entry, and the first nonzero
  entry of a row in the scan that pivots out leftover artificials;
- every Fraction of the answer is the quotient of two entries of one row.
So below, "the same tableau" means the same up to a positive factor per
row.

solve_max first drops every all-zero row whose right-hand side is 0,
and gives it dual 0.  In the full program such a row i is
[0 | e_i | 0 | 0]: its only nonzero column is its own artificial, basic
in it.  No other row has a nonzero entry in that column, and a pivot
keeps it so, since the pivot row is never row i: a pivot row's entry in
the entering column is positive, and that column is never the
artificial.  Pricing the phase-1 cost row against row i zeroes the
artificial's cost entry and changes no other entry, and a pivot keeps
it 0, so the artificial never enters, row i is never touched, and the
scan that pivots out leftover artificials finds nothing to pivot on in
row i and deletes it.  The other rows then see the same pivots in the
same order: the first positive reduced cost is the same column, the
ratio test never takes row i, and ties compare basis indices, whose
relative order the other artificials keep.  In phase 2 the artificial's
column is 0 in every row and in the priced cost, so its dual entry is 0.
A zero row with a nonzero right-hand side is kept, so phase 1 still
reports the program infeasible.

It then drops every column that repeats an earlier one (the same
constraint entries and the same objective), runs the simplex on the
distinct columns and maps the answer back: a copy gets weight 0, and
basis indices are the original ones.  The answer is the one the full
program gives, bit for bit:
- in either phase a column's tableau entries, its cost-row entry
  included, are one linear function of (A_j, c_j), and the lcm and gcd
  that scale a row, and whether it is all ints, do not change when a
  repeated entry is removed, nor does the test for dividing by the gcd,
  which reads only basic and scale entries, and those are never copies;
  so the tableau on the distinct columns is the full tableau with the
  copies deleted, entry for entry;
- so a later copy is never the first column with a positive reduced
  cost, never the first nonzero entry in the scan that pivots out
  leftover artificials (nor changes which rows that scan finds
  redundant), and never basic;
- ties in the ratio test compare basis indices, and the kept columns keep
  their relative order.
Repeats are keyed on the constraint columns, tuples of ints in a growth
LP; objectives, which may be Fractions and hash slowly, are compared only
among columns whose constraint entries repeat.  certify still checks the
full program, zero rows and copies included.

An optimal solution carries a dual vector y with A^T y >= c and
b.y = c.x, read from the phase-1 artificial columns, which stay in the
tableau.  certify checks that and primal feasibility exactly, with no
code shared with the simplex: it scales x, y and c by their common
denominators and compares the scaled products, which are ints wherever
A and b are.  By weak duality that proves the optimum at any size.
certify is a thin wrapper over one private check, _certified_point, which
also returns the certified point's common denominator and scaled entries;
growth.mu reads sigma_v and tau_e from them and so scales the point once.
Nothing of the certificate is handed to the simplex.

enumerate_vertices visits every basic feasible solution by exhaustive
basis enumeration (capped at 24 variables by default).  It is the tests'
independent oracle for small LPs; the package itself never calls it.
"""
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import attrgetter

from .errors import CapExceeded, InputError

# The column scans and a row's lcm run in C: on a program of a dozen
# columns they are a visible share of the solve.
_denominator = attrgetter("denominator")
_INT = {int}
_RATIONAL = {int, Fraction}     # the types certify reads as exact numbers
_positive = (0).__lt__      # on the int entries of the cost row
# A row whose scale entry reaches this is divided by its gcd: below it the
# scale is one CPython int digit (see the module docstring).
_NORMALISE_AT = 1 << sys.int_info.bits_per_digit

VERTEX_ENUM_CAP = 24
_ITERATION_CAP = 100000


def _exact(c, kind: str, at):
    """A coefficient as an int if it is integral, else as a Fraction.  Any
    other type (float, str, bool, ...) is refused, naming where it was
    given: the kind of place ("variable", "row") and which one, formatted
    only then."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise InputError(f"{kind} {at!r}: coefficient {c!r} is a "
                     f"{type(c).__name__}, not an int or Fraction")


class RationalLP:
    """maximize objective . x  subject to  rows . x = rhs,  x >= 0.

    Made in one call, the only way to make a program: the variable names,
    one objective entry per variable, and a constraint row . x = b for
    each (row, b) in zip(rows, rhs), each row one coefficient per
    variable; variable j is the j-th name.  Coefficients are given as
    ints or Fractions and stored exactly: an integral one as an int, any
    other as a Fraction.  Names, objective, rows and rhs are stored as
    tuples copied from the caller's sequences, so a program cannot change
    after it is made, nor after a solution of it is certified: no field
    can be rebound.
    """

    __slots__ = ("var_names", "objective", "rows", "rhs")

    def __init__(self, var_names, objective, rows, rhs):
        names = tuple(var_names)
        n = len(names)
        if len(set(names)) != n:
            dup = next(v for i, v in enumerate(names) if v in names[:i])
            raise InputError(f"duplicate variable {dup!r}")
        if len(objective) != n:
            raise InputError(f"{len(objective)} objective entries for "
                             f"{n} variables")
        objective = tuple(c if type(c) is int
                          else _exact(c, "variable", name)
                          for name, c in zip(names, objective))
        if len(rows) != len(rhs):
            raise InputError(f"{len(rows)} rows for {len(rhs)} "
                             f"right-hand sides")
        stored, bs = [], []
        for i, (row, b) in enumerate(zip(rows, rhs)):
            if len(row) != n:
                raise InputError(f"row {i}: {len(row)} coefficients for "
                                 f"{n} variables")
            stored.append(tuple(row) if set(map(type, row)) <= _INT
                          else tuple(_exact(c, "row", i) for c in row))
            bs.append(b if type(b) is int else _exact(b, "row", i))
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", tuple(stored))
        object.__setattr__(self, "rhs", tuple(bs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalLP is immutable")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)


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


def _scaled(values):
    """(d, [v * d for v in values]) for the least d > 0 that makes every
    product an int."""
    d = lcm(*map(_denominator, values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _integer_row(values) -> list:
    """The smallest positive multiple of a rational row that is all ints."""
    return _primitive(_scaled(values)[1])


def _tableau_row(values) -> list:
    """The least positive int multiple of a rational row that has an entry
    1.  A row of ints is that already, since its gcd divides 1."""
    return values if set(map(type, values)) <= _INT else _integer_row(values)


def _combine(p, r, q, prow, s):
    """p*r - q*prow, with s the index of its scale entry, where prow is 0;
    divided by its gcd once that entry reaches _NORMALISE_AT."""
    row = [p * a - q * b for a, b in zip(r, prow)]
    return _primitive(row) if row[s] >= _NORMALISE_AT else row


def _pivot(rows, basis, row, col, cost=None):
    """Make col basic in row.  Every other row r (and the cost row) becomes
    p*r - r[col]*pivot row, which keeps each basic entry positive because
    the pivot p is made positive first."""
    prow = rows[row]
    p = prow[col]
    if p < 0:
        prow = rows[row] = [-a for a in prow]
        p = -p
    for i, r in enumerate(rows):
        if i != row and r[col]:
            rows[i] = _combine(p, r, r[col], prow, basis[i])
    if cost is not None and cost[col]:
        cost[:] = _combine(p, cost, cost[col], prow, -2)
    basis[row] = col


def _priced(rows, basis, cost) -> list:
    """The reduced-cost row of a rational cost vector against the basis,
    as ints: D*(c - c_B B^-1 A), then D > 0 in the scale column, then
    -D*c_B.x_B under the rhs."""
    z = _tableau_row(list(cost) + [1, 0])
    for r, b in zip(rows, basis):
        if z[b]:
            z = _combine(r[b], z, z[b], r, -2)
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
        enter = next(compress(range(ncols), map(_positive, cost)), -1)
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
    """Maximize lp by the simplex on its distinct columns, less its
    all-zero rows with right-hand side 0."""
    n = lp.num_vars
    live = [i for i, (row, b) in enumerate(zip(lp.rows, lp.rhs))
            if b or any(row)]
    lp_rows = list(map(lp.rows.__getitem__, live))
    cols = list(zip(*lp_rows)) or [()] * n
    # the first column with each column's constraint entries
    first = dict(zip(reversed(cols), range(n - 1, -1, -1)))
    if len(first) == n:
        return _solve(lp, live, lp_rows, lp.objective, range(n))
    objective = lp.objective
    costs = {}      # first column -> the objectives kept with its entries
    keep = []
    for j, i in enumerate(map(first.__getitem__, cols)):
        if i != j:
            seen = costs.setdefault(i, [objective[i]])
            if objective[j] in seen:
                continue
            seen.append(objective[j])
        keep.append(j)
    return _solve(lp, live, list(zip(*map(cols.__getitem__, keep))),
                  list(map(objective.__getitem__, keep)), keep)


def _solve(lp, live, lp_rows, objective, keep) -> LPSolution:
    """The two-phase simplex on the given rows and columns of lp: live
    holds the rows' indices in lp, lp_rows and objective the columns'
    entries on them, and keep the columns' indices in lp.  Every other
    column gets weight 0, every other row dual 0."""
    m, n = len(lp_rows), len(objective)
    rhs = list(map(lp.rhs.__getitem__, live))
    # Row i is [A_i | e_i | 0 | b_i] scaled to ints, with A_i and b_i
    # negated if b_i < 0.  The unit columns are the phase-1 artificials;
    # they stay to the end, where their reduced costs give the dual.  The
    # zero column holds the cost row's scale, which no constraint row moves.
    rows = []
    for i, (row, b) in enumerate(zip(lp_rows, rhs)):
        unit = [0] * m
        unit[i] = 1
        full = _tableau_row([*row, *unit, 0, b])
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
            col = next(compress(range(n), rows[i]), None)
            if col is None:
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, basis, i, col)
        i += 1

    cost = _priced(rows, basis, list(objective) + [0] * m)
    status = _simplex(rows, basis, cost, n)
    if status == "unbounded":
        return LPSolution("unbounded", None, None, None)
    zero = Fraction(0)      # shared by every zero entry of the answer
    point = [zero] * lp.num_vars
    for r, b in zip(rows, basis):
        point[keep[b]] = Fraction(r[-1], r[b])
    scale = cost[n + m]
    # y = c_B B^-1: the negated reduced costs of the artificial columns,
    # negated back on the rows that were flipped
    dual = [zero] * lp.num_constraints
    for i, z, b in zip(live, cost[n:n + m], rhs):
        if z:
            dual[i] = Fraction(z if b < 0 else -z, scale)
    return LPSolution("optimal", Fraction(-cost[-1], scale), tuple(point),
                      tuple(sorted(map(keep.__getitem__, basis))),
                      tuple(dual))


def certify(lp: RationalLP, solution: LPSolution) -> bool:
    """Whether the solution is provably optimal, by weak duality.

    Checks exactly, sharing nothing with the simplex, that x is feasible
    (A x = b, x >= 0), that y is dual feasible (A^T y >= c column by
    column) and that b.y = c.x = value.  Any feasible x then has
    c.x <= (A^T y).x = b.y, so no point beats the solution.  The checks
    run on X = dx x, Y = dy y and C = dc c, scaled by their common
    denominators: A X = dx b, dc A^T Y >= dy C and C.X = dc dx value,
    b.Y = dy value, all in ints where A and b are.  A point, dual or
    value that holds anything but an int or a Fraction (a float, a str,
    a bool) does not certify.
    """
    return _certified_point(lp, solution) is not None


def _certified_point(lp: RationalLP, solution: LPSolution):
    """certify's check.  (dx, X) if the solution certifies, X the point
    scaled by its common denominator dx, else None; growth.mu reads
    sigma_v and tau_e from X, so a certified point is scaled once."""
    x, y, value = solution.point, solution.dual, solution.value
    if solution.status != "optimal" or x is None or y is None \
            or len(x) != lp.num_vars or len(y) != lp.num_constraints \
            or type(value) not in _RATIONAL \
            or not set(map(type, x)) <= _RATIONAL \
            or not set(map(type, y)) <= _RATIONAL:
        return None
    dx, xs = _scaled(x)
    dy, ys = _scaled(y)
    dc, cs = _scaled(lp.objective)
    if any(v < 0 for v in xs):
        return None
    support = [(j, v) for j, v in enumerate(xs) if v]
    if any(sum(row[j] * v for j, v in support) != b * dx
           for row, b in zip(lp.rows, lp.rhs)):
        return None
    aty = [0] * lp.num_vars
    for row, w in zip(lp.rows, ys):
        if w:
            aty = [s + a * w if a else s for s, a in zip(aty, row)]
    if any(s * dc < c * dy for s, c in zip(aty, cs)):
        return None
    if (sum(cs[j] * v for j, v in support) * value.denominator
            == value.numerator * dc * dx
            and sum(b * w for b, w in zip(lp.rhs, ys)) * value.denominator
            == value.numerator * dy):
        return dx, xs
    return None


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
