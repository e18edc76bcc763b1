from fractions import Fraction

import pytest

from vfgrowth.corpus import (infinite_dihedral, klein_amalgam, modular_graph,
                             triangle_graph)
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import (amalgam, cyclic_amalgam, euler_characteristic,
                          family_amalgam, free_group, free_product, make_graph,
                          parse_gog)
from vfgrowth.groups import (all_subgroups, cyclic_group, dihedral_group,
                             generate, klein_four, subgroup_classes,
                             symmetric_group)
from vfgrowth.growth import (build_growth_program, cyclic_amalgam_mu,
                             cyclic_amalgam_value, euler_tight, family_mu, mu,
                             plan_graph, plan_graph_text, realize)
from vfgrowth.perm import parse_perm
from vfgrowth.selftest import criterion_p6


def test_mu_known_small_graphs():
    assert mu(modular_graph()).mu == Fraction(1, 6)
    assert mu(infinite_dihedral()).mu == 0
    assert mu(klein_amalgam()).mu == Fraction(1, 4)
    assert mu(triangle_graph()).mu == Fraction(9, 10)
    for r in range(1, 5):
        assert mu(free_group(r)).mu == r - 1


def test_mu_report_fields():
    r = mu(klein_amalgam())
    assert r.chi == Fraction(-1, 6)
    assert r.mu_free == Fraction(1, 6)
    assert r.solution.status == "optimal"
    assert "a" in r.dominant and "b" in r.dominant
    assert r.notes == ()


def test_mu_objective_bookkeeping():
    for g in (modular_graph(), klein_amalgam(), triangle_graph()):
        r = mu(g)
        assert sum(t for _, t in r.tau) - sum(s for _, s in r.sigma) == r.mu
        for name, _ in g.vertices:
            w = r.optimizer.vertex(name)
            cat = dict(r.program.catalogs)[name]
            assert sum(x * d for x, d in zip(w, cat.degrees)) == 1
            assert r.optimizer.sigma(name) == sum(w)
        assert r.mu >= -r.chi


def test_mu_never_below_free_lower_bound():
    # the all-regular point is always feasible, so mu >= -chi
    g = free_product([symmetric_group(3), cyclic_group(2), cyclic_group(4)])
    r = mu(g)
    assert r.mu >= -r.chi


def test_free_product_closed_form():
    groups = [symmetric_group(3), cyclic_group(2), cyclic_group(4)]
    want = len(groups) - 1 - sum(Fraction(1, g.order) for g in groups)
    assert mu(free_product(groups)).mu == want
    assert mu(free_product([cyclic_group(2), cyclic_group(2)])).mu == 0


def test_mu_is_order_independent():
    g = triangle_graph()
    shuffled = make_graph(tuple(reversed(g.vertices)),
                          tuple(reversed(g.edges)))
    assert mu(shuffled).mu == mu(g).mu


def test_mu_flags_disagreement_with_prior_report():
    # the report carries no prior value; selftest P6 checks the old 3/2
    assert mu(triangle_graph()).notes == (
        "growth is as slow as free subgroups allow (mu = -chi)",)
    assert "the previously reported 3/2 does not survive recomputation" \
        in criterion_p6().detail


def test_normal_klein_amalgam_has_no_prior_report_note():
    # same vertex orders, edge order and chi as the Klein amalgam, but both
    # embeddings have the normal four-group as image
    s4, v = symmetric_group(4), klein_four()
    r = mu(amalgam(s4, s4, v, v.generators, v.generators))
    assert r.mu == Fraction(2, 3)
    assert r.notes == ()


def test_growth_program_shape():
    p = build_growth_program(klein_amalgam())
    assert p.lp.num_vars == 11 + 11
    # one normalization row per vertex, one admissibility row per edge class
    assert p.lp.num_constraints == 2 + 5
    assert len(p.columns("a")) == 11


CLOSED_FORM_CASES = (
    ("Sym(4)", "(1 2)", Fraction(5, 12), True),
    ("Sym(4)", "(1 2 3)", Fraction(1, 4), True),
    ("Sym(4)", "(1 2)(3 4)", Fraction(2, 3), False),
    ("Dih(4)", "(1 3)(2 4)", Fraction(1, 2), False),
    ("Sym(5)", "(1 2)", Fraction(11, 20), False),
    ("Sym(5)", "(1 2)(3 4)", Fraction(8, 15), False),
)

_CTORS = {"Sym(4)": lambda: symmetric_group(4),
          "Sym(5)": lambda: symmetric_group(5),
          "Dih(4)": lambda: dihedral_group(4)}


@pytest.mark.parametrize("gname,xtext,want,tight", CLOSED_FORM_CASES)
def test_cyclic_amalgam_closed_form(gname, xtext, want, tight):
    g = _CTORS[gname]()
    x = parse_perm(xtext, g.degree)
    val, _cls = cyclic_amalgam_mu(g, x)
    assert val == want
    assert euler_tight(g, x) is tight
    chi = euler_characteristic(cyclic_amalgam(g, x)).chi
    assert (val == -chi) is tight


@pytest.mark.parametrize("gname,xtext,want,tight", CLOSED_FORM_CASES[:4])
def test_closed_form_agrees_with_lp(gname, xtext, want, tight):
    g = _CTORS[gname]()
    x = parse_perm(xtext, g.degree)
    assert mu(cyclic_amalgam(g, x)).mu == want


def test_cyclic_amalgam_mu_reuses_the_catalog_classes():
    # one memo entry per group: the maximizing class is one of the very
    # objects subgroup_classes returns, not a copy from a second list
    s4 = symmetric_group(4)
    _val, cls = cyclic_amalgam_mu(s4, parse_perm("(1 2)", 4))
    assert any(cls is c for c in subgroup_classes(s4))


def test_cyclic_amalgam_value_examples():
    s4 = symmetric_group(4)
    x = parse_perm("(1 2 3)", 4)
    h = generate([x], 4)
    assert cyclic_amalgam_value(s4, x, h) == Fraction(1, 4)
    # trivial subgroup: no class intersection, index |G|
    assert cyclic_amalgam_value(s4, x, [parse_perm("()", 4)]) == \
        Fraction(1, 3) - Fraction(2, 24)


def test_cyclic_amalgam_value_is_a_class_function():
    s4 = symmetric_group(4)
    x = parse_perm("(1 2)", 4)
    for cls in subgroup_classes(s4):
        base = cyclic_amalgam_value(s4, x, cls)
        for members in all_subgroups(s4):
            if len(members) == cls.order and \
                    frozenset(members) in {frozenset(s * m * s.inverse()
                                                     for m in cls.representative.elements)
                                           for s in s4.elements}:
                assert cyclic_amalgam_value(s4, x, members) == base


def test_cyclic_amalgam_value_rejects_bad_input():
    s4 = symmetric_group(4)
    with pytest.raises(InputError, match="prime order"):
        cyclic_amalgam_value(s4, parse_perm("(1 2 3 4)", 4), s4)
    with pytest.raises(InputError, match="> 2p"):
        cyclic_amalgam_value(symmetric_group(3), parse_perm("(1 2 3)", 3),
                             symmetric_group(3))


def test_family_mu_formula_values():
    assert family_mu(3, 4, 1) == Fraction(1, 4)
    assert family_mu(2, 6, 1) == Fraction(1, 2)        # delta kicks in
    assert family_mu(2, 6, 2) == Fraction(1, 2)        # even l, no delta
    assert family_mu(5, 11, 2) == Fraction(2, 11)
    assert family_mu(3, 7, 1, "alternating") == Fraction(3, 7)
    assert family_mu(11, 35, 2) == Fraction(2, 5)
    assert family_mu(11, 110, 1) == Fraction(9, 10)


def test_family_mu_exceptional_pairs():
    assert family_mu(2, 5, 2) == Fraction(1, 2)
    assert family_mu(2, 5, 2, "alternating") == Fraction(1, 3)
    assert family_mu(3, 7, 2) == Fraction(2, 5)
    assert family_mu(3, 7, 2, "alternating") == Fraction(1, 3)


def test_family_mu_validation():
    with pytest.raises(InputError, match="prime"):
        family_mu(6, 13, 1)
    with pytest.raises(InputError, match="at least 1"):
        family_mu(3, 7, 0)
    with pytest.raises(InputError, match="p odd"):
        family_mu(2, 7, 1, "alternating")
    with pytest.raises(InputError, match="k - l\\*p"):
        family_mu(3, 6, 2)


def test_family_mu_agrees_with_lp_for_smallest_case():
    assert mu(family_amalgam(3, 4, 1)).mu == family_mu(3, 4, 1)


FROZEN_PLANS = {
    (1, 2): (0, 3, 6, 1, "symmetric"),
    (2, 5): (0, 11, 35, 2, "symmetric"),
    (5, 7): (0, 11, 42, 1, "alternating"),
    (9, 10): (0, 11, 110, 1, "symmetric"),
    (7, 3): (2, 5, 9, 1, "alternating"),
}


def test_realize_frozen_plans():
    for (a, b), (r, p, k, l, variant) in FROZEN_PLANS.items():
        plan = realize(a, b)
        assert (plan.integer_part, plan.p, plan.k, plan.l, plan.variant) == \
            (r, p, k, l, variant)
        assert plan.predicted_mu == Fraction(a, b)


def test_realize_integers_become_free_groups():
    for n in range(4):
        plan = realize(n, 1)
        assert plan.is_free and plan.free_rank == n + 1
        assert mu(plan_graph(plan)).mu == n


def test_realize_grid_property():
    from math import gcd
    for b in range(1, 8):
        for a in range(0, 3 * b + 1):
            if gcd(a, b) != 1:
                continue
            plan = realize(a, b)
            assert plan.predicted_mu == Fraction(a, b)
            if plan.is_free:
                assert a % b == 0
                continue
            assert plan.k - plan.l * plan.p >= 2
            assert plan.p > b
            assert plan.integer_part + \
                family_mu(plan.p, plan.k, plan.l, plan.variant) == Fraction(a, b)


def test_realize_describe_and_text():
    plan = realize(7, 3)
    assert plan.describe() == ("target=7/3 free_group(2) * "
                               "family(p=5, k=9, l=1, alternating) "
                               "delta=0 predicted_mu=7/3")
    text = plan_graph_text(plan)
    assert "Alt(9)" in text
    assert text.count("edge l") == 2
    with pytest.raises(CapExceeded):
        plan_graph(plan)          # Alt(9) exceeds the default element cap


def test_realize_rejects_bad_targets():
    with pytest.raises(InputError):
        realize(1, 0)
    with pytest.raises(InputError):
        realize(-1, 2)
    with pytest.raises(InputError):
        realize(2, 4)


def test_plan_graph_text_round_trip_small():
    plan = realize(1, 2)
    g = parse_gog(plan_graph_text(plan))
    assert [grp.order for _, grp in g.vertices] == [720, 720]
    assert euler_characteristic(g).chi == \
        euler_characteristic(plan_graph(plan)).chi


@pytest.mark.slow
def test_realized_half_growth_verified_by_lp():
    plan = realize(1, 2)
    assert mu(plan_graph(plan)).mu == Fraction(1, 2)
