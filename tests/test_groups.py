from fractions import Fraction
from functools import lru_cache

import pytest

from vfgrowth.catalog import (EmbeddingMap, fixed_point_multiplicity,
                              restriction_matrix)
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.groups import (all_subgroups, alternating_group, centralizer,
                             conjugacy_class, coset_action, coset_perm,
                             cyclic_group, dihedral_group, direct_product,
                             generate, klein_four, normalizer,
                             subgroup_classes, symmetric_group, trivial_group)
from vfgrowth.groups import _subgroup_index_sets
from vfgrowth.growth import cyclic_amalgam_value
from vfgrowth.perm import Perm, identity, parse_perm


def test_generate_s3():
    g = generate([Perm((1, 0, 2)), Perm((1, 2, 0))], 3)
    assert g.order == 6
    assert identity(3) in g


def test_generate_empty():
    g = generate([], 4)
    assert g.order == 1
    assert g.degree == 4


def test_generate_dihedral_closure():
    rot = parse_perm("(1 2 3 4 5)", 5)
    ref = parse_perm("(2 5)(3 4)", 5)
    assert generate([rot, ref], 5).order == 10


def test_generate_cap():
    with pytest.raises(CapExceeded):
        generate(symmetric_group(5).generators, 5, max_order=50)


def test_named_constructors():
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert cyclic_group(7).order == 7
    assert dihedral_group(6).order == 12
    assert klein_four().order == 4
    assert trivial_group().order == 1


def test_named_constructor_caps_fail_fast():
    # the order check must fire before any element listing is attempted
    with pytest.raises(CapExceeded):
        symmetric_group(110, max_order=10000)
    with pytest.raises(CapExceeded):
        alternating_group(9, max_order=10000)


def test_named_constructors_default_to_the_group_cap():
    # order 20160 against the default cap of 10000, with no cap argument
    with pytest.raises(CapExceeded):
        alternating_group(8)


def test_direct_product():
    g = direct_product(symmetric_group(3), cyclic_group(2))
    assert g.order == 12
    assert g.degree == 5


def test_all_subgroups_counts():
    assert len(all_subgroups(symmetric_group(3))) == 6
    assert len(all_subgroups(trivial_group())) == 1
    assert len(all_subgroups(symmetric_group(4))) == 30
    assert len(all_subgroups(klein_four())) == 5


def test_all_subgroups_cap():
    # order 2520 is past the fixed subgroup cap of 1000
    a7 = alternating_group(7)
    with pytest.raises(CapExceeded, match="subgroup cap 1000"):
        all_subgroups(a7)
    with pytest.raises(CapExceeded, match="subgroup cap 1000"):
        subgroup_classes(a7)


# (group, number of subgroups, number of conjugacy classes); the Sym
# rows are OEIS A005432 and A000638
CLASS_COUNTS = (
    ("Sym(1)", 1, 1),
    ("Sym(2)", 2, 2),
    ("Sym(3)", 6, 4),
    ("Sym(4)", 30, 11),
    ("Cyc(4)", 3, 3),
    ("Dih(5)", 8, 4),
    ("Sym(5)", 156, 19),
    ("Alt(4)", 10, 5),
    ("Alt(5)", 59, 9),
    ("Alt(6)", 501, 22),
    ("Sym(6)", 1455, 56),
)


@lru_cache(maxsize=None)
def _named(name):
    """One instance per named group, so the per-instance subgroup lattice
    is built once across the tests below."""
    maker = {"Sym": symmetric_group, "Alt": alternating_group,
             "Cyc": cyclic_group, "Dih": dihedral_group}[name[:3]]
    return maker(int(name[4:-1]))


def test_subgroup_classes_counts():
    for name, subgroups, classes in CLASS_COUNTS:
        found = subgroup_classes(_named(name))
        assert len(found) == classes, name
        assert sum(c.class_size for c in found) == subgroups, name


def test_subgroup_classes_partition():
    for name, _, _ in CLASS_COUNTS:
        g = _named(name)
        classes = subgroup_classes(g)
        assert sum(c.class_size for c in classes) == len(all_subgroups(g))
        seen = set()
        for c in classes:
            assert len(c.members) == c.class_size
            seen.update(c.members)
        assert len(seen) == len(all_subgroups(g))


def _from_cycles(*texts):
    return generate([parse_perm(t, 7) for t in texts], 7)


def _reference_tables(g):
    index = {p: i for i, p in enumerate(g.elements)}
    mult = [[index[a * b] for b in g.elements] for a in g.elements]
    inv = [index[a.inverse()] for a in g.elements]
    return index, mult, inv


@pytest.mark.parametrize("g", [
    symmetric_group(4),
    alternating_group(5),
    _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),      # PSL(2,7)
    direct_product(dihedral_group(4), cyclic_group(3)),
], ids=["Sym(4)", "Alt(5)", "PSL(2,7)", "Dih(4)xCyc(3)"])
def test_tables_match_perm_products(g):
    assert g.tables() == _reference_tables(g)


def _reference_subgroups(g):
    """Every subgroup, by extending every known subgroup by every element
    with Perm closure (no index tables, no Lagrange stop)."""
    found = {frozenset([g.identity_element()])}
    todo = list(found)
    while todo:
        sub = todo.pop()
        for x in g.elements:
            if x not in sub:
                new = frozenset(generate(list(sub) + [x],
                                         g.degree).elements)
                if new not in found:
                    found.add(new)
                    todo.append(new)
    return found


def _reference_classes(g, subgroups):
    return {frozenset(frozenset(a * x * a.inverse() for x in sub)
                      for a in g.elements)
            for sub in subgroups}


@pytest.mark.parametrize("g", [
    symmetric_group(4),
    dihedral_group(5),
    alternating_group(4),
    # the Frobenius group of order 21: its least prime is 3, so the
    # Lagrange stop of the lattice closure fires at |G|/3
    _from_cycles("(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"),
], ids=["Sym(4)", "Dih(5)", "Alt(4)", "Frobenius(21)"])
def test_lattice_matches_naive_closure(g):
    orbits = [frozenset(frozenset(g.elements[i] for i in s) for s in orbit)
              for orbit in _subgroup_index_sets(g)]
    want = _reference_subgroups(g)
    assert set().union(*orbits) == want
    assert sum(len(o) for o in orbits) == len(want)
    assert set(orbits) == _reference_classes(g, want)


def test_group_layer_runs_no_perm_products(monkeypatch):
    # once a group and an embedding exist, tables, lattice, classes and
    # restriction work on index tables only; PSL(2,7) and its C7 are
    # built here alone, so no memo from another test answers for them
    g = _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)")
    c = generate(g.generators[:1], 7)
    emb = EmbeddingMap(c, g, c.generators)

    def product(*_):
        raise AssertionError("Perm product in the group layer")
    monkeypatch.setattr(Perm, "__mul__", product)
    classes = subgroup_classes(g)
    assert len(classes) == 15
    assert restriction_matrix(emb).nrows == 2
    assert coset_perm(g, classes[3], g.generators[1]).degree == \
        classes[3].index


def test_subgroup_class_fields():
    g = symmetric_group(4)
    for c in subgroup_classes(g):
        assert c.order * c.index == g.order
        assert c.aut_count * c.order == c.normalizer_order
        assert c.index % c.aut_count == 0
        assert c.class_size == g.order // c.normalizer_order
        rep = frozenset(c.representative.elements)
        assert rep in c.members
        for members in c.members:
            assert len(members) == c.order


def test_aut_count_is_not_the_degree():
    # the count of actions equivalent to a coset action is (N(U):U), which
    # differs from the point count once U is non-normal: S_3 over a
    # transposition admits one labelling class of size 6, not 2
    classes = subgroup_classes(symmetric_group(3))
    assert tuple(c.aut_count for c in classes) == (1, 2, 1, 6)


def test_s4_class_order_matches_the_pinned_index_column():
    classes = subgroup_classes(symmetric_group(4))
    assert tuple(c.index for c in classes) == (1, 2, 3, 6, 4, 6, 6, 8, 12,
                                               12, 24)


def test_coset_action_fixed_points():
    s3 = symmetric_group(3)
    a3 = generate([parse_perm("(1 2 3)", 3)], 3)
    act = coset_action(s3, a3)
    assert act[parse_perm("(1 2)", 3)].fixed_points() == 0
    assert act[parse_perm("(1 2 3)", 3)].fixed_points() == 2
    regular = coset_action(s3, trivial_group(3))
    assert regular[parse_perm("(1 2)", 3)].fixed_points() == 0
    assert regular[parse_perm("(1 2)", 3)].degree == 6


def test_coset_action_trivial_on_whole_group():
    s3 = symmetric_group(3)
    act = coset_action(s3, s3)
    assert all(p == identity(1) for p in act.values())


def test_coset_action_is_a_homomorphism():
    g = symmetric_group(4)
    u = generate([parse_perm("(1 2 3)", 4)], 4)
    act = coset_action(g, u)
    for a in g.elements[:8]:
        for b in g.elements[:8]:
            assert act[a * b] == act[a] * act[b]


def test_conjugacy_class_sizes():
    s4 = symmetric_group(4)
    assert len(conjugacy_class(s4, parse_perm("(1 2)", 4))) == 6
    x = parse_perm("(1 2 3)", 4)
    assert len(conjugacy_class(s4, x)) == s4.order // centralizer(s4, x).order


@pytest.mark.parametrize("call", [
    lambda g, x: coset_perm(g, [], x),
    lambda g, x: fixed_point_multiplicity(g, [], x),
    lambda g, x: cyclic_amalgam_value(g, x, []),
    lambda g, x: normalizer(g, []),
    lambda g, x: fixed_point_multiplicity(g, [x], x),
], ids=["coset_perm", "fixed_point_multiplicity", "cyclic_amalgam_value",
        "normalizer", "fixed_point_multiplicity-no-identity"])
def test_member_sets_without_the_identity_are_rejected(call):
    # an empty or identity-free member set is no subgroup, whatever the
    # entry point it reaches
    s4 = symmetric_group(4)
    with pytest.raises(InputError, match="identity"):
        call(s4, parse_perm("(1 2)", 4))


def test_normalizer_and_centralizer():
    s4 = symmetric_group(4)
    u = generate([parse_perm("(1 2 3)", 4)], 4)
    assert normalizer(s4, u).order == 6
    assert centralizer(s4, identity(4)).order == 24
    with pytest.raises(InputError):
        centralizer(s4, identity(5))


def test_subgroup_rejects_members_outside_the_group():
    a4 = alternating_group(4)
    with pytest.raises(InputError, match="outside the group"):
        a4.subgroup([identity(4), parse_perm("(1 2)", 4)])


def test_subgroup_rejects_a_set_that_is_not_closed():
    s3 = symmetric_group(3)
    members = [identity(3), parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)]
    with pytest.raises(InputError, match="not closed under multiplication"):
        s3.subgroup(members)


def _fixture_groups():
    return [
        cyclic_group(6),
        klein_four(),
        symmetric_group(3),
        dihedral_group(4),
        dihedral_group(5),
        alternating_group(4),
        direct_product(symmetric_group(3), cyclic_group(2)),
        symmetric_group(4),
        dihedral_group(12),
        direct_product(dihedral_group(4), cyclic_group(3)),
        dihedral_group(24),
    ]


def test_fixed_point_count_formula_up_to_order_48():
    # |fix(g)| on cosets of U must equal |G| |[g] cap U| / (|U| |[g]|)
    for g in _fixture_groups():
        assert g.order <= 48
        for sub in all_subgroups(g):
            act = coset_action(g, sub)
            for x in g.elements:
                cls = conjugacy_class(g, x)
                expected = Fraction(g.order * len(cls & sub),
                                    len(sub) * len(cls))
                assert expected.denominator == 1
                assert act[x].fixed_points() == expected


def test_class_ordering_is_reproducible():
    a = generate([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)], 3)
    b = generate([parse_perm("(1 3)", 3), parse_perm("(1 3 2)", 3)], 3)
    ca, cb = subgroup_classes(a), subgroup_classes(b)
    assert [frozenset(c.representative.elements) for c in ca] == \
        [frozenset(c.representative.elements) for c in cb]
    assert [(c.order, c.index, c.aut_count, c.class_size) for c in ca] == \
        [(c.order, c.index, c.aut_count, c.class_size) for c in cb]
