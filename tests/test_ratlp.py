import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from make_lp_golden import GOLDEN, lp_graphs, solution_lines
from vfgrowth import ratlp
from vfgrowth.corpus import (corpus_graphs, klein_amalgam, modular_graph,
                             triangle_graph)
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import cyclic_amalgam
from vfgrowth.groups import (_is_prime, alternating_group, direct_product,
                             generate, subgroup_classes, symmetric_group)
from vfgrowth.growth import build_growth_program, mu
from vfgrowth.perm import parse_perm
from vfgrowth.ratlp import (RationalLP, certify, dump_tsv, enumerate_vertices,
                            solve_max)


def _lp(names, objective, rows):
    return RationalLP(names, objective, [coeffs for coeffs, _ in rows],
                      [rhs for _, rhs in rows])


def test_two_var_simplex():
    lp = _lp(["x1", "x2"], [1, 1], [([1, 1], 1)])
    sol = solve_max(lp)
    assert sol.status == "optimal"
    assert sol.value == 1


def test_reduced_three_var_system():
    # max 2*x2 + z2  s.t.  x1 + 2*x2 = 1,  x1 + 2*z2 = 1
    lp = _lp(["x1", "x2", "z2"], [0, 2, 1],
             [([1, 2, 0], 1), ([1, 0, 2], 1)])
    sol = solve_max(lp)
    assert sol.status == "optimal"
    assert sol.value == Fraction(3, 2)
    assert sol.point == (0, Fraction(1, 2), Fraction(1, 2))


def test_infeasible():
    lp = _lp(["x1"], [1], [([1], -1)])
    assert solve_max(lp).status == "infeasible"


def test_unbounded():
    lp = _lp(["x1", "x2"], [1, 0], [([1, -1], 0)])
    assert solve_max(lp).status == "unbounded"


def test_redundant_rows_are_harmless():
    lp = _lp(["x1", "x2"], [1, 2],
             [([1, 1], 1), ([2, 2], 2), ([1, 1], 1)])
    sol = solve_max(lp)
    assert sol.status == "optimal"
    assert sol.value == 2


def test_solution_satisfies_every_constraint_exactly():
    lp = _lp(["a", "b", "c", "d"], [3, -1, 2, 0],
             [([1, 1, 1, 1], 1), ([2, 0, 1, 0], 1)])
    sol = solve_max(lp)
    assert sol.status == "optimal"
    for row, rhs in zip(lp.rows, lp.rhs):
        assert sum(c * x for c, x in zip(row, sol.point)) == rhs
    assert sum(c * x for c, x in zip(lp.objective, sol.point)) == sol.value
    assert all(x >= 0 for x in sol.point)


def test_fraction_coefficients_stay_exact():
    lp = _lp(["x", "y"], [Fraction(1, 3), Fraction(1, 7)],
             [([Fraction(1, 2), Fraction(1, 5)], Fraction(1, 11))])
    sol = solve_max(lp)
    # optimum sits at one of the two axis vertices of the segment
    x_vertex = Fraction(1, 11) / Fraction(1, 2) * Fraction(1, 3)
    y_vertex = Fraction(1, 11) / Fraction(1, 5) * Fraction(1, 7)
    assert sol.value == max(x_vertex, y_vertex) == Fraction(5, 77)


def test_duplicate_variable_rejected():
    with pytest.raises(InputError, match="duplicate variable 'x'"):
        RationalLP(["x", "y", "x"], [0, 0, 0], [], [])


def test_column_index_past_the_last_variable_rejected():
    # a row with a coefficient in a third column of a two-variable program
    with pytest.raises(InputError, match="row 0: 3 coefficients for 2 "
                                         "variables"):
        RationalLP(["x", "y"], [1, 1], [[1, 0, 1]], [1])


def test_integral_coefficients_are_stored_as_ints():
    # an integral coefficient as an int, any other as a Fraction, and every
    # field a tuple copied from the caller's sequences
    names, objective = ["x", "y", "z"], [Fraction(4, 2), Fraction(1, 2), 0]
    rows = [[1, Fraction(6, 3), 0], [0, 0, Fraction(1, 3)]]
    rhs = [Fraction(3, 1), 0]
    lp = RationalLP(names, objective, rows, rhs)
    want = (("x", "y", "z"), (2, Fraction(1, 2), 0),
            ((1, 2, 0), (0, 0, Fraction(1, 3))), (3, 0))
    assert (lp.var_names, lp.objective, lp.rows, lp.rhs) == want
    assert [type(v) for v in lp.objective + lp.rows[0] + lp.rows[1]
            + lp.rhs] == [int, Fraction, int, int, int, int, int, int,
                          Fraction, int, int]
    assert all(type(f) is tuple for f in (lp.var_names, lp.objective,
                                          lp.rows, lp.rhs, *lp.rows))
    names.append("w")
    objective[0] = 5
    rows[0][0] = 7
    rows.append([1, 1, 1])
    rhs[1] = 1
    assert (lp.var_names, lp.objective, lp.rows, lp.rhs) == want


@pytest.mark.parametrize("field", ["var_names", "objective", "rows", "rhs"])
def test_no_field_can_be_rebound(field):
    # solve_max and certify read the fields, so a rebound one would change
    # the program a certificate speaks for
    lp = RationalLP(["x"], [1], [[1]], [1])
    with pytest.raises(AttributeError):
        setattr(lp, field, ([2],))
    assert (lp.var_names, lp.objective, lp.rows, lp.rhs) == \
        (("x",), (1,), ((1,),), (1,))
    with pytest.raises(AttributeError):
        lp.extra = 1


def test_from_rows_stores_what_add_var_and_add_constraint_store():
    # dense rows and (row, rhs) pairs, the two shapes programs are written
    # in, store the same program; its own fields build a wider one
    names, objective = ["x", "y", "z"], [Fraction(4, 2), Fraction(1, 2), 0]
    rows = [[1, Fraction(6, 3), 0], [0, 0, Fraction(1, 3)]]
    lp = RationalLP(names, objective, rows, [Fraction(3, 1), 0])
    want = _lp(names, objective, [(r, b) for r, b in zip(rows, [3, 0])])
    assert (lp.var_names, lp.objective, lp.rows, lp.rhs) == \
        (want.var_names, want.objective, want.rows, want.rhs)
    assert [type(v) for v in lp.objective + lp.rows[0] + lp.rhs] == \
        [int, Fraction, int, int, int, int, int, int]
    assert lp.rows[0] is not rows[0]
    wider = RationalLP(lp.var_names + ("w",), lp.objective + (1,),
                       [row + (0,) for row in lp.rows], lp.rhs)
    assert wider.rows == ((1, 2, 0, 0), (0, 0, Fraction(1, 3), 0))


@pytest.mark.parametrize("args, message", [
    ((["x", "y", "x"], [0, 0, 0], [], []), "duplicate variable 'x'"),
    ((["x", "y"], [0], [], []), "1 objective entries for 2 variables"),
    ((["x", "y"], [0, 0], [[1, 1]], []), "1 rows for 0 right-hand sides"),
    ((["x", "y"], [0, 0], [[1, 1], [1]], [1, 1]),
     "row 1: 1 coefficients for 2 variables"),
    ((["x", "y"], [0, 0.5], [], []), "variable 'y': coefficient 0.5"),
    ((["x", "y"], [0, 0], [[1, 1], [1, 0.5]], [1, 1]),
     "row 1: coefficient 0.5"),
    ((["x", "y"], [0, 0], [[1, 1]], [True]), "row 0: coefficient True"),
], ids=["duplicate", "objective-length", "rhs-length", "row-length",
        "float-objective", "float-entry", "bool-rhs"])
def test_constructor_refuses_malformed_programs(args, message):
    with pytest.raises(InputError, match=message):
        RationalLP(*args)


# each inexact coefficient the constructor refuses: a float is a binary
# fraction (0.1 would be 3602879701896397/2**55), a NaN or a str no number
# at all, and a bool no coefficient
_INEXACT = [0.1, float("nan"), 1.0, "1", True]
_INEXACT_IDS = ["float", "nan", "integral-float", "str", "bool"]


@pytest.mark.parametrize("bad", _INEXACT, ids=_INEXACT_IDS)
@pytest.mark.parametrize("place", ["objective", "entry", "rhs"])
def test_constructor_refuses_an_inexact_coefficient(bad, place):
    objective, rows, rhs = [1, 1], [[1, 1], [1, 1]], [1, 1]
    if place == "objective":
        objective[1], where = bad, "variable 'y'"
    elif place == "entry":
        rows[1][1], where = bad, "row 1"
    else:
        rhs[1], where = bad, "row 1"
    with pytest.raises(InputError, match=re.escape(
            f"{where}: coefficient {bad!r} is a {type(bad).__name__}")):
        RationalLP(["x", "y"], objective, rows, rhs)


class _Name(str):
    """A variable name that counts the times it is formatted by repr."""
    reprs = 0

    def __repr__(self):
        type(self).reprs += 1
        return super().__repr__()


def test_constructor_formats_a_location_only_to_refuse(monkeypatch):
    monkeypatch.setattr(_Name, "reprs", 0)
    names = [_Name("x"), _Name("y")]
    RationalLP(names, [Fraction(1, 2), Fraction(1, 3)],
               [[Fraction(1, 2), 1]], [Fraction(1, 3)])
    assert _Name.reprs == 0
    with pytest.raises(InputError, match="variable 'y': coefficient 0.5"):
        RationalLP(names, [Fraction(1, 2), 0.5], [], [])
    assert _Name.reprs == 1


def test_growth_programs_hold_only_ints():
    # every constraint entry is a class index or an orbit count, and the
    # objective is half-integral
    for name, g in lp_graphs():
        lp = build_growth_program(g).lp
        assert all(type(a) is int for row in lp.rows for a in row), name
        assert all(type(b) is int for b in lp.rhs), name
        assert all((2 * c).denominator == 1 for c in lp.objective), name
        # one object per distinct half-integral entry
        halves = [c for c in lp.objective if type(c) is Fraction]
        assert len(set(map(id, halves))) == len(set(halves)), name


def test_enumerate_vertices_single_constraint():
    lp = _lp(["x", "y"], [1, 3], [([1, 2], 1)])
    verts = enumerate_vertices(lp)
    assert ((Fraction(1), Fraction(0)), Fraction(1)) in verts
    assert ((Fraction(0), Fraction(1, 2)), Fraction(3, 2)) in verts
    assert len(verts) == 2


def test_enumerate_vertices_agrees_with_simplex():
    for g in (modular_graph(), triangle_graph(), klein_amalgam()):
        lp = build_growth_program(g).lp
        sol = solve_max(lp)
        verts = enumerate_vertices(lp)
        assert verts, "growth programs are always feasible"
        assert max(v for _, v in verts) == sol.value


def test_enumerate_vertices_cap():
    lp = RationalLP([f"x{i}" for i in range(30)], [0] * 30, [], [])
    with pytest.raises(CapExceeded):
        enumerate_vertices(lp)
    verts = enumerate_vertices(lp, cap=30)   # only vertex is the origin
    assert verts == [((Fraction(0),) * 30, Fraction(0))]


def test_dump_tsv_layout():
    lp = _lp(["x", "y"], [1, 0], [([1, 1], 1)])
    sol = solve_max(lp)
    lines = dump_tsv(lp, sol).splitlines()
    assert lines[0] == "row\tx\ty\trhs"
    assert lines[1].startswith("objective\t1\t0")
    assert lines[2] == "eq0\t1\t1\t1"
    assert lines[3] == "status\toptimal"
    assert lines[4].startswith("point\t")


def test_deterministic_resolution():
    lp = build_growth_program(triangle_graph()).lp
    first = solve_max(lp)
    second = solve_max(lp)
    assert first == second


# -- the kernel against vertex enumeration, and the duality certificate -----

_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2),
                          Fraction(-2, 3)])


@st.composite
def _small_lps(draw):
    """An LP of at most 8 variables with Fraction and negative entries and
    right-hand sides, redundant (scaled copy) rows and all-zero rows; a
    final row of positive coefficients, when drawn, bounds the polytope."""
    n = draw(st.integers(1, 8))
    entries = st.lists(_ENTRY, min_size=n, max_size=n)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["new", "new", "copy", "zero"]))
        if kind == "copy" and rows:
            coeffs, rhs = draw(st.sampled_from(rows))
            f = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            rows.append(([f * a for a in coeffs], f * rhs))
        elif kind == "zero":
            rows.append(([0] * n, draw(st.sampled_from([0, 0, 1]))))
        else:
            rows.append((draw(entries), draw(_ENTRY)))
    bounded = draw(st.booleans())
    if bounded:
        positive = st.sampled_from([1, 2, Fraction(1, 3)])
        rows.append(([draw(positive) for _ in range(n)],
                     draw(st.sampled_from([1, Fraction(5, 2)]))))
    names = [f"x{j}" for j in range(n)]
    return _lp(names, draw(entries), rows), bounded


@settings(max_examples=300, deadline=None)
@given(_small_lps())
def test_simplex_agrees_with_vertex_enumeration(case):
    lp, bounded = case
    sol = solve_max(lp)
    verts = enumerate_vertices(lp)
    # a nonempty {A x = b, x >= 0} contains no line, so it has a vertex
    assert (sol.status == "infeasible") == (not verts)
    if bounded:
        assert sol.status != "unbounded"
    if sol.status == "optimal":
        assert sol.value == max(v for _, v in verts)
        assert sol.point in dict(verts)
        assert certify(lp, sol)
    else:
        assert not certify(lp, sol)


def _fraction_certify(lp, solution):
    """The certificate checked term by term in Fraction arithmetic: the
    reference the int-scaled certify must agree with."""
    x, y = solution.point, solution.dual
    if solution.status != "optimal" or x is None or y is None \
            or len(x) != lp.num_vars or len(y) != lp.num_constraints:
        return False
    weighted = [(row, w) for row, w in zip(lp.rows, y) if w]
    cx = sum(c * v for c, v in zip(lp.objective, x) if v)
    return (all(v >= 0 for v in x)
            and all(sum(a * v for a, v in zip(row, x) if v and a) == b
                    for row, b in zip(lp.rows, lp.rhs))
            and all(sum(row[j] * w for row, w in weighted if row[j]) >= c
                    for j, c in enumerate(lp.objective))
            and cx == solution.value == sum(b * w for b, w in zip(lp.rhs, y)))


def _nudged(values, j, delta):
    return tuple(v + delta if i == j else v for i, v in enumerate(values))


@settings(max_examples=300, deadline=None)
@given(_small_lps(), st.integers(0, 7), st.sampled_from(
    [Fraction(1, 3), Fraction(-1, 2), 1, Fraction(1, 10 ** 40)]))
def test_certify_agrees_with_fraction_arithmetic(case, j, delta):
    lp, _ = case
    sol = solve_max(lp)
    cases = [sol]
    if sol.status == "optimal":
        cases += [replace(sol, point=_nudged(sol.point, j % lp.num_vars,
                                            delta)),
                  replace(sol, dual=_nudged(sol.dual,
                                            j % lp.num_constraints, delta)),
                  replace(sol, value=sol.value + delta)]
    for s in cases:
        want = _fraction_certify(lp, s)
        assert certify(lp, s) == want
        # a certified point comes back scaled, as growth.mu reads it
        assert ratlp._certified_point(lp, s) == \
            (ratlp._scaled(s.point) if want else None)


def _mutation_lp():
    # max x1  s.t.  x1 + x2 + x3 + x4 = 1,  x2 - x3 = 0.  The optimum is
    # x = (1, 0, 0, 0); the duals are y = (1, t) for -1 <= t <= 1.
    return _lp(["x1", "x2", "x3", "x4"], [1, 0, 0, 0],
               [([1, 1, 1, 1], 1), ([0, 1, -1, 0], 0)])


def test_certify_accepts_the_optimum_and_its_dual():
    lp = _mutation_lp()
    sol = solve_max(lp)
    assert sol.point == (1, 0, 0, 0)
    assert sol.dual[0] == 1 and -1 <= sol.dual[1] <= 1
    assert certify(lp, sol)


@pytest.mark.parametrize("field, value, broken", [
    # column x3 reads y1 - y2 = -1 < 0; b.y stays 1 because b2 = 0
    ("dual", (Fraction(1), Fraction(2)), "A^T y >= c"),
    # dual feasible, but b.y = 2 while c.x = 1
    ("dual", (Fraction(2), Fraction(0)), "b.y = c.x"),
    # row 1 reads 2; row 2, x >= 0 and c.x = 1 all still hold
    ("point", (1, Fraction(1, 2), Fraction(1, 2), 0), "A x = b"),
    # A x = b and c.x = 1 still hold along (0, 1, 1, -2)
    ("point", (1, Fraction(-1, 2), Fraction(-1, 2), 1), "x >= 0"),
])
def test_certify_rejects_each_broken_condition(field, value, broken):
    lp = _mutation_lp()
    sol = replace(solve_max(lp), **{field: value})
    assert not certify(lp, sol), broken
    assert not _fraction_certify(lp, sol), broken


@pytest.mark.parametrize("field, value", [
    # bools equal to the optimum (1, 0, 0, 0), a dual (1, 0) and the value
    ("point", (True, False, False, False)),
    ("dual", (True, False)),
    ("value", True),
    ("point", (1.0, 0, 0, 0)),
    ("point", (1, Fraction(0), "0", 0)),
    ("dual", (1.0, Fraction(0))),
    ("dual", (Fraction(1), "0")),
    ("value", 1.0),
    ("value", "1"),
], ids=["bool-point", "bool-dual", "bool-value", "float-point",
        "str-point", "float-dual", "str-dual", "float-value", "str-value"])
def test_certify_refuses_an_entry_that_is_not_an_int_or_fraction(field,
                                                                  value):
    lp = _mutation_lp()
    good = solve_max(lp)
    assert certify(lp, good)
    assert not certify(lp, replace(good, **{field: value}))


def test_certify_refuses_a_bool_point():
    lp = _lp(["x", "y"], [1, 1], [([1, 1], 1)])
    sol = solve_max(lp)
    assert certify(lp, sol)
    assert not certify(lp, replace(sol, point=(True, False)))


def test_certify_refuses_a_point_off_by_one_part_in_ten_to_the_forty():
    eps = Fraction(1, 10 ** 40)
    lp = _mutation_lp()
    # row 1 reads 1 + eps; row 2, x >= 0, c.x = 1 and the dual all hold
    sol = replace(solve_max(lp), point=(1, eps / 2, eps / 2, 0))
    assert not certify(lp, sol)
    assert not _fraction_certify(lp, sol)
    # the same on a growth LP, nudging one basic coordinate
    lp = build_growth_program(triangle_graph()).lp
    sol = solve_max(lp)
    j = next(j for j, v in enumerate(sol.point) if v)
    off = replace(sol, point=_nudged(sol.point, j, eps))
    assert certify(lp, sol) and _fraction_certify(lp, sol)
    assert not certify(lp, off)
    assert not _fraction_certify(lp, off)


def test_every_corpus_graph_carries_a_certificate():
    for name, g in corpus_graphs():
        lp = build_growth_program(g).lp
        assert certify(lp, solve_max(lp)), name


def _psl27():
    return generate([parse_perm("(1 2 3 4 5 6 7)", 7),
                     parse_perm("(1 2)(3 5)", 7)], 7)


@pytest.mark.parametrize("make", [
    lambda: alternating_group(5), lambda: symmetric_group(5), _psl27,
    lambda: alternating_group(6), lambda: symmetric_group(6),
], ids=["A5", "S5", "PSL(2,7)", "A6", "S6"])
def test_prime_order_cyclic_amalgams_carry_a_certificate(make):
    g = make()
    primes = [cls for cls in subgroup_classes(g) if _is_prime(cls.order)]
    assert primes
    for cls in primes:
        rep = mu(cyclic_amalgam(g, cls.generators[0]))
        assert certify(rep.program.lp, rep.solution)
        assert sum(b * y for b, y in zip(rep.program.lp.rhs,
                                         rep.solution.dual)) == rep.mu


def test_solutions_match_the_golden_table():
    # basis, value, point and dual of every corpus graph and graphs/*.gog, as
    # written by tests/make_lp_golden.py
    assert solution_lines() == \
        GOLDEN.read_text(encoding="utf-8").splitlines()


# -- columns that repeat an earlier one --------------------------------------

@settings(max_examples=300, deadline=None)
@given(_small_lps(), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20)),
                              max_size=6))
def test_copied_columns_change_no_answer(case, copies):
    # each copy of a column lands somewhere after its original; status,
    # value and dual stay, a copy gets weight 0, and basis and point read
    # the same on the original columns
    lp, _ = case
    n = lp.num_vars
    order = list(range(n))     # the new program's columns, as lp's indices
    for j, at in copies:
        after = order.index(j % n) + 1
        order.insert(after + at % (len(order) - after + 1), j % n)
    copied = _lp([f"y{k}" for k in range(len(order))],
                 [lp.objective[j] for j in order],
                 [([row[j] for j in order], b)
                  for row, b in zip(lp.rows, lp.rhs)])
    want, got = solve_max(lp), solve_max(copied)
    assert (got.status, got.value, got.dual) == \
        (want.status, want.value, want.dual)
    if want.status != "optimal":
        assert got.point is None and got.basis is None
        return
    place = [order.index(j) for j in range(n)]
    assert tuple(got.point[k] for k in place) == want.point
    assert not any(x for k, x in enumerate(got.point) if k not in place)
    assert got.basis == tuple(place[j] for j in want.basis)
    assert certify(copied, got)


def test_phase_two_runs_on_the_distinct_columns(monkeypatch):
    # S4 x S3 glued to itself over <(1 2 3)(5 6 7)>: 140 columns, 40 of
    # them distinct, and the simplex sees only those 40
    g = direct_product(symmetric_group(4), symmetric_group(3))
    lp = build_growth_program(
        cyclic_amalgam(g, parse_perm("(1 2 3)(5 6 7)", 7))).lp
    assert lp.num_vars == 140
    widths = []
    simplex = ratlp._simplex

    def recorded(rows, basis, cost, ncols):
        widths.append(ncols)
        return simplex(rows, basis, cost, ncols)
    monkeypatch.setattr(ratlp, "_simplex", recorded)
    solve_max(lp)
    # phase 1 also scans the artificial columns
    assert widths == [40 + lp.num_constraints, 40]


# pivots per solve of each golden LP, as the simplex made them before
# repeated columns were dropped: a change to the pivot path fails here even
# where the golden answer survives
_GOLDEN_PIVOTS = {
    "free1": 1, "free2": 1, "modular": 4, "s3-over-c2": 12,
    "s3-over-c3": 11, "klein": 26, "triangle": 19, "infinite-dihedral": 4,
    "random-00": 14, "random-01": 4, "random-02": 1, "random-03": 4,
    "random-04": 2, "random-05": 12, "random-06": 17, "random-07": 5,
    "random-08": 4, "random-09": 12, "random-10": 9, "random-11": 13,
    "random-12": 6, "random-13": 6, "random-14": 2, "random-15": 1,
    "random-16": 8, "random-17": 11, "random-18": 1, "random-19": 11,
    "random-20": 25, "random-21": 3, "random-22": 3, "random-23": 11,
    "random-24": 14, "graphs/family_2_6_1.gog": 42,
    "graphs/family_3_4_1.gog": 18, "graphs/free2.gog": 1,
    "graphs/klein.gog": 26, "graphs/modular.gog": 4,
    "graphs/triangle.gog": 19,
}


def test_golden_lps_pivot_as_pinned(monkeypatch):
    count = [0]
    pivot = ratlp._pivot

    def counted(*args):
        count[0] += 1
        return pivot(*args)
    monkeypatch.setattr(ratlp, "_pivot", counted)
    got = {}
    for name, g in lp_graphs():
        lp = build_growth_program(g).lp
        count[0] = 0
        solve_max(lp)
        got[name] = count[0]
    assert got == _GOLDEN_PIVOTS


# -- row scaling, and the lazy gcd division ---------------------------------

_ROW_FACTORS = [2 ** 40 + 15, Fraction(1, 3)]


def _rows_scaled(lp, f, which=None):
    """lp with row i and its rhs multiplied by f, for each i in which (by
    default every row)."""
    which = range(lp.num_constraints) if which is None else which
    return RationalLP(
        lp.var_names, lp.objective,
        [[f * a for a in r] if i in which else r
         for i, r in enumerate(lp.rows)],
        [f * b if i in which else b for i, b in enumerate(lp.rhs)])


def _assert_scaled_alike(lp, f):
    # each artificial keeps its weight relative to the others, so the pivot
    # path is the same: only the dual moves, by 1/f
    want, got = solve_max(lp), solve_max(_rows_scaled(lp, f))
    assert (got.status, got.value, got.point, got.basis) == \
        (want.status, want.value, want.point, want.basis)
    if want.status == "optimal":
        assert got.dual == tuple(y / f for y in want.dual)


@pytest.mark.parametrize("f", _ROW_FACTORS, ids=["2**40+15", "1/3"])
def test_scaling_every_row_moves_only_the_dual(f):
    # 2**40 + 15 takes the constraint entries past one int digit, so each
    # scale entry passes it at its row's first pivot, and from there on the
    # rows are divided by their gcds
    for name, g in lp_graphs():
        _assert_scaled_alike(build_growth_program(g).lp, f)


@settings(max_examples=150, deadline=None)
@given(_small_lps(), st.sampled_from(_ROW_FACTORS))
def test_scaling_every_row_moves_only_the_dual_on_small_lps(case, f):
    _assert_scaled_alike(case[0], f)


@settings(max_examples=150, deadline=None)
@given(_small_lps(), st.integers(0, 5), st.sampled_from(_ROW_FACTORS))
def test_scaling_one_row_keeps_the_optimum(case, i, f):
    # the row's artificial is weighted by 1/f against the others in phase
    # 1, so on a degenerate program the path, and with it the optimal vertex
    # and dual, may differ: status and value may not
    lp, _ = case
    i %= lp.num_constraints
    scaled = _rows_scaled(lp, f, {i})
    want, got = solve_max(lp), solve_max(scaled)
    assert (got.status, got.value) == (want.status, want.value)
    assert certify(scaled, got) == (want.status == "optimal")


def test_positive_tableau_row_factors_change_no_pivot(monkeypatch):
    # the lemma itself: every tableau row, the cost rows included, starts
    # at its own positive multiple, and each answer and pivot count stays;
    # _tableau_row builds every constraint row and both cost rows
    count, made = [0], []
    pivot, tableau_row = ratlp._pivot, ratlp._tableau_row
    factors = [1, 2 ** 40 + 15, 3, 2 ** 61 - 1]

    def counted(*args):
        count[0] += 1
        return pivot(*args)

    def scaled(values):
        f = factors[len(made) % len(factors)]
        made.append(f)
        return [f * a for a in tableau_row(values)]
    want = {}
    for name, g in lp_graphs():
        lp = build_growth_program(g).lp
        want[name] = solve_max(lp)
    monkeypatch.setattr(ratlp, "_pivot", counted)
    monkeypatch.setattr(ratlp, "_tableau_row", scaled)
    for name, g in lp_graphs():
        count[0], start = 0, len(made)
        lp = build_growth_program(g).lp
        assert solve_max(lp) == want[name], name
        assert count[0] == _GOLDEN_PIVOTS[name], name
        # one row per live constraint, and the two cost rows
        live = lp.num_constraints - len(_zero_rows(lp))
        assert len(made) - start == live + 2, name
    assert len(set(made)) == len(factors)


def test_an_int_row_with_an_entry_one_enters_the_tableau_as_given():
    # its gcd divides 1, so it is already the least int multiple
    for row in ([0, 3, -6, 1, 0, 9], [1, 0], [-1, 4, 1, 0]):
        assert ratlp._tableau_row(row) is row
        assert ratlp._integer_row(row) == row
    half = [Fraction(1, 2), 3, 1, 0, Fraction(-5, 4)]
    assert ratlp._tableau_row(half) == ratlp._integer_row(half) \
        == [2, 12, 4, 0, -5]


# -- all-zero rows ----------------------------------------------------------

def _zero_rows(lp) -> list:
    return [i for i, (row, b) in enumerate(zip(lp.rows, lp.rhs))
            if not b and not any(row)]


def _full_solve(lp):
    """The simplex on every row and column of lp: no zero row dropped."""
    return ratlp._solve(lp, range(lp.num_constraints), lp.rows,
                        lp.objective, range(lp.num_vars))


def test_zero_rows_are_dropped_without_changing_the_answer():
    # free2 and the identity loops give only zero edge rows; random-00, -13
    # and -23 mix them with an amalgam edge
    with_zero = set()
    for name, g in lp_graphs():
        lp = build_growth_program(g).lp
        zero = _zero_rows(lp)
        sol = solve_max(lp)
        assert sol == _full_solve(lp), name
        assert certify(lp, sol), name
        assert not any(sol.dual[i] for i in zero), name
        if zero:
            with_zero.add(name)
            # the same program with its zero rows moved last
            order = [i for i in range(lp.num_constraints)
                     if i not in zero] + zero
            moved = RationalLP(lp.var_names, lp.objective,
                               [lp.rows[i] for i in order],
                               [lp.rhs[i] for i in order])
            got = solve_max(moved)
            assert (got.status, got.value, got.point, got.basis) == \
                (sol.status, sol.value, sol.point, sol.basis), name
            assert got.dual == tuple(sol.dual[i] for i in order), name
    assert {"graphs/free2.gog", "random-01", "random-18", "random-00",
            "random-13", "random-23"} <= with_zero


def test_a_zero_row_with_a_nonzero_rhs_stays_infeasible():
    for name in ("graphs/free2.gog", "modular"):
        grown = build_growth_program(dict(lp_graphs())[name]).lp
        lp = RationalLP(grown.var_names, grown.objective,
                        [*grown.rows, [0] * grown.num_vars], [*grown.rhs, 1])
        assert solve_max(lp).status == "infeasible", name
        assert _full_solve(lp).status == "infeasible", name


@settings(max_examples=300, deadline=None)
@given(_small_lps())
def test_zero_rows_are_dropped_without_changing_the_answer_on_small_lps(case):
    lp, _ = case
    sol = solve_max(lp)
    assert sol == _full_solve(lp)
    if sol.status == "optimal":
        assert not any(sol.dual[i] for i in _zero_rows(lp))
