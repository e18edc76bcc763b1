from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from make_lp_golden import GOLDEN, lp_graphs, solution_lines
from vfgrowth.corpus import (corpus_graphs, klein_amalgam, modular_graph,
                             triangle_graph)
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import cyclic_amalgam
from vfgrowth.groups import (_is_prime, alternating_group, generate,
                             subgroup_classes, symmetric_group)
from vfgrowth.growth import build_growth_program, mu
from vfgrowth.perm import parse_perm
from vfgrowth.ratlp import (RationalLP, certify, dump_tsv, enumerate_vertices,
                            solve_max)


def _lp(names, objective, rows):
    lp = RationalLP()
    for name, c in zip(names, objective):
        lp.add_var(name, c)
    for coeffs, rhs in rows:
        lp.add_constraint(dict(enumerate(coeffs)), rhs)
    return lp


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
    lp = RationalLP()
    lp.add_var("x")
    with pytest.raises(InputError):
        lp.add_var("x")


def test_negative_column_index_rejected():
    # -1 must not count from the end and put the coefficient on y
    lp = _lp(["x", "y"], [1, 1], [])
    with pytest.raises(InputError, match="index -1"):
        lp.add_constraint({-1: 1, 0: 1}, 1)
    with pytest.raises(InputError, match="index -1"):
        lp.add_to_objective(-1, 1)
    assert lp.rows == [] and lp.objective == [1, 1]


def test_column_index_past_the_last_variable_rejected():
    lp = _lp(["x", "y"], [1, 1], [])
    with pytest.raises(InputError, match="index 2"):
        lp.add_constraint({0: 1, 2: 1}, 1)
    with pytest.raises(InputError, match="index 2"):
        lp.add_to_objective(2, 1)
    assert lp.rows == [] and lp.objective == [1, 1]


def test_integral_coefficients_are_stored_as_ints():
    lp = _lp(["x", "y", "z"], [Fraction(4, 2), Fraction(1, 2), 0],
             [([1, Fraction(6, 3), 0], Fraction(3, 1))])
    lp.add_to_objective(1, Fraction(1, 2))
    assert lp.objective == [2, 1, 0] and lp.rows == [[1, 2, 0]]
    assert all(type(v) is int
               for v in lp.objective + lp.rows[0] + lp.rhs)
    lp.add_constraint({2: Fraction(1, 3)}, 0)
    assert lp.rows[1] == [0, 0, Fraction(1, 3)]


def test_growth_programs_hold_only_ints():
    # every constraint entry is a class index or an orbit count, and the
    # objective is half-integral
    for name, g in lp_graphs():
        lp = build_growth_program(g).lp
        assert all(type(a) is int for row in lp.rows for a in row), name
        assert all(type(b) is int for b in lp.rhs), name
        assert all((2 * c).denominator == 1 for c in lp.objective), name


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
    lp = RationalLP()
    for i in range(30):
        lp.add_var(f"x{i}")
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
        assert certify(lp, s) == _fraction_certify(lp, s)


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
        rep = mu(cyclic_amalgam(g, cls.representative.generators[0]))
        assert certify(rep.program.lp, rep.solution)
        assert sum(b * y for b, y in zip(rep.program.lp.rhs,
                                         rep.solution.dual)) == rep.mu


def test_solutions_match_the_golden_table():
    # basis, value and point of every corpus graph and graphs/*.gog, as
    # written by tests/make_lp_golden.py
    assert solution_lines() == \
        GOLDEN.read_text(encoding="utf-8").splitlines()
