from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from vfgrowth.catalog import (EmbeddingMap, fixed_point_multiplicity,
                              restriction_matrix)
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import family_graph_text, parse_gog
from vfgrowth.groups import (FiniteGroup, all_subgroups, alternating_group,
                             coset_action, cyclic_group, dihedral_group,
                             direct_product, generate, klein_four,
                             subgroup_classes, symmetric_group, trivial_group)
from vfgrowth import catalog, groups
from vfgrowth.groups import _known_order_product, _subgroup_index_sets
from vfgrowth.growth import cyclic_amalgam_mu, cyclic_amalgam_value, euler_tight
from vfgrowth.oracle import _transporter_count
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


def test_cap_message_prints_the_order_only_when_python_can():
    # 110! has 179 digits and is printed in full; 100000! has 456574,
    # past Python's int-to-string limit, and is described instead
    with pytest.raises(CapExceeded) as printable:
        symmetric_group(110, max_order=10000)
    assert str(printable.value) == \
        f"group too large: order {factorial(110)} exceeds cap 10000"
    with pytest.raises(CapExceeded, match="order of more than 4300 digits "
                                          "exceeds cap 10000"):
        symmetric_group(100000)
    with pytest.raises(CapExceeded, match="exceeds cap 10000"):
        alternating_group(100000)


def test_huge_named_groups_are_refused_without_the_full_factorial(
        monkeypatch):
    # the refusal multiplies only until the product is past the cap and
    # the printable-digit limit, and words it as the full order would be
    def no_factorial(k):
        raise AssertionError(f"factorial({k}) computed")
    monkeypatch.setattr(groups, "factorial", no_factorial)
    limit = groups._digit_limit()
    for ctor in (symmetric_group, alternating_group):
        with pytest.raises(CapExceeded) as exc:
            ctor(1000000)
        assert str(exc.value) == (f"group too large: order of more than "
                                  f"{limit} digits exceeds cap 10000")
    partial = _known_order_product(2, 1000000, 10000)
    assert 10 ** limit <= partial < 10 ** (limit + 4)


def test_a_cap_too_long_to_print_is_worded_like_the_order():
    # the cap is printed "of more than N digits" too, not handed to str()
    limit = groups._digit_limit()
    want = (f"group too large: order of more than {limit} digits exceeds "
            f"cap of more than {limit} digits")
    with pytest.raises(CapExceeded) as exc:
        symmetric_group(3000, max_order=10 ** limit)
    assert str(exc.value) == want
    with pytest.raises(CapExceeded) as exc:
        parse_gog("vertex a = Cyc(" + "9" * (limit + 1) + ")\n",
                  max_group_order=10 ** limit)
    assert str(exc.value) == want
    # one digit short of the limit, the cap is printed as a number
    with pytest.raises(CapExceeded) as exc:
        symmetric_group(3000, max_order=10 ** limit - 1)
    assert str(exc.value).endswith(f"exceeds cap {10 ** limit - 1}")


def test_known_order_product_is_exact_below_the_digit_limit():
    assert _known_order_product(2, 110, 10000) == factorial(110)
    assert _known_order_product(3, 9, 10000) == factorial(9) // 2
    assert _known_order_product(3, 2, 1) == 1
    assert _known_order_product(2, 1500, 10 ** 100) == factorial(1500)


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


def test_subgroup_cap_refuses_before_any_table():
    # the |G|^2 table is what the cap bounds, so it must not be built first
    a7 = alternating_group(7)
    with pytest.raises(CapExceeded, match="subgroup cap 1000"):
        subgroup_classes(a7)
    assert a7._tables is None


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
    found = {frozenset([identity(g.degree)])}
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
    # large normalizers, so one extension stands for many cyclic subgroups
    direct_product(dihedral_group(4), cyclic_group(2)),
    direct_product(symmetric_group(3), symmetric_group(3)),
], ids=["Sym(4)", "Dih(5)", "Alt(4)", "Frobenius(21)", "Dih(4)xCyc(2)",
        "Sym(3)xSym(3)"])
def test_lattice_matches_naive_closure(g):
    orbits = [frozenset(frozenset(g.elements[i] for i in s) for s in orbit)
              for orbit in _subgroup_index_sets(g)]
    want = _reference_subgroups(g)
    assert set().union(*orbits) == want
    assert sum(len(o) for o in orbits) == len(want)
    assert set(orbits) == _reference_classes(g, want)


def _count_extensions(monkeypatch):
    """Every call of the lattice's closure step from now on, one entry
    each."""
    calls = []
    extend = groups._extend

    def counted(*args):
        calls.append(None)
        return extend(*args)
    monkeypatch.setattr(groups, "_extend", counted)
    return calls


def test_lattice_extends_once_per_normalizer_orbit(monkeypatch):
    # one candidate <H, a> per class representative H and per N_G(H)-orbit
    # of the prime-power cyclic subgroups outside H, whichever H is found
    # first; extending by every such cyclic subgroup took 12,498 and 3,307
    calls = _count_extensions(monkeypatch)
    for name, want in (("Sym(6)", 1411), ("Alt(6)", 403)):
        calls.clear()
        _subgroup_index_sets(_named(name))
        assert len(calls) == want, name


@pytest.mark.slow
def test_sym7_lattice_under_a_raised_subgroup_cap(monkeypatch):
    # about 3.4 s and 240 MB, most of it the 5040^2 table; the shipped cap
    # stays 1000.  96 classes (OEIS A000638) and 11,300 subgroups (A005432)
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CAP", 5040)
    calls = _count_extensions(monkeypatch)
    orbits = _subgroup_index_sets(symmetric_group(7))
    assert len(orbits) == 96
    assert sum(map(len, orbits)) == 11300
    assert len(calls) == 5596


@pytest.mark.parametrize("g", [
    symmetric_group(5),
    _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),      # PSL(2,7)
], ids=["Sym(5)", "PSL(2,7)"])
def test_normalizer_orders_match_perm_normalizers(g):
    # the lattice's orbit sizes against a normalizer found by Perm products
    for c in subgroup_classes(g):
        members = c.representative.elements
        normalizer = [a for a in g.elements
                      if all(a * x * a.inverse() in c.representative
                             for x in members)]
        assert c.normalizer_order == len(normalizer)


def test_group_layer_runs_no_perm_products(monkeypatch):
    # once a group and an embedding exist, tables, lattice, classes,
    # restriction, the closed forms and the brute-force transporter count
    # work on index tables and image tuples only; PSL(2,7) and its C7 are
    # built here alone, so no memo from another test answers for them
    g = _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)")
    c = generate(g.generators[:1], 7)
    emb = EmbeddingMap(c, g, c.generators)
    seven, two = g.generators

    def product(*_):
        raise AssertionError("Perm product in the group layer")
    monkeypatch.setattr(Perm, "__mul__", product)
    classes = subgroup_classes(g)
    assert len(classes) == 15
    assert len(restriction_matrix(emb).rows) == 2
    assert coset_action(g, classes[3])[two].degree == classes[3].index
    # N(<x>) has order 21 for the 7-cycle and 8 for the involution
    assert not euler_tight(g, seven) and not euler_tight(g, two)
    assert cyclic_amalgam_mu(g, seven)[0] == Fraction(1, 6)
    assert cyclic_amalgam_mu(g, two)[0] == Fraction(11, 21)
    for x in (seven, two):
        assert [fixed_point_multiplicity(g, cls, x) for cls in classes] == \
            [coset_action(g, cls)[x].fixed_points() for cls in classes]
    # only the identity of Sym(7) centralizes the generators of PSL(2,7)
    pair = (seven.images, two.images)
    assert _transporter_count(pair, pair, 7) == 1


def test_subgroup_class_fields():
    g = symmetric_group(4)
    for c in subgroup_classes(g):
        assert c.order * c.index == g.order
        assert c.aut_count * c.order == c.normalizer_order
        assert c.index % c.aut_count == 0
        assert c.class_size == g.order // c.normalizer_order
        # members are index sets into g.elements, the representative first
        assert c.members[0] == frozenset(
            g.elements.index(x) for x in c.representative.elements)
        for members in c.members:
            assert len(members) == c.order
            assert members <= frozenset(range(g.order))


def test_equal_groups_share_classes_and_restriction_rows():
    # Sym(4) from two generating lists is one group with one sorted element
    # list, so its classes are the same index sets whichever copy asks, and
    # restriction into the second copy runs on tables the first one built
    a = generate([parse_perm(t, 4) for t in ("(1 2)", "(1 2 3 4)")], 4)
    b = generate([parse_perm(t, 4) for t in ("(1 2)", "(2 3)", "(3 4)")], 4)
    assert a == b and a.generators != b.generators
    x = parse_perm("(1 2 3 4)", 4)
    c4 = generate([x], 4)
    rows = restriction_matrix(EmbeddingMap(c4, a, [x])).rows
    fresh = [c.members for c in subgroup_classes.__wrapped__(a)]
    assert [c.members for c in subgroup_classes(b)] == fresh
    # the same embedding given on x^-1, so no cached matrix answers for it
    emb = EmbeddingMap(c4, b, [x.inverse()], generators=[x.inverse()])
    assert restriction_matrix(emb).rows == rows
    assert b._tables is None


def test_restriction_after_classes_builds_no_second_table(monkeypatch):
    # subgroup_classes on a, then restriction into an equal b given by
    # other generators (the order growth.cyclic_amalgam_mu asks in): the
    # catalog of b reads the tables the lattice built on a.  Empty caches,
    # for this test alone, make a the instance the lattice runs on.
    classes = lru_cache(maxsize=None)(subgroup_classes.__wrapped__)
    monkeypatch.setattr(groups, "subgroup_classes", classes)
    monkeypatch.setattr(catalog, "subgroup_classes", classes)
    for name in ("build_catalog", "restriction_matrix"):
        monkeypatch.setattr(catalog, name, lru_cache(maxsize=None)(
            getattr(catalog, name).__wrapped__))
    a = generate([parse_perm(t, 5) for t in ("(1 2)", "(1 2 3 4 5)")], 5)
    b = generate([parse_perm(t, 5)
                  for t in ("(1 2)", "(2 3)", "(3 4)", "(4 5)")], 5)
    assert a == b and a.generators != b.generators
    groups.subgroup_classes(a)
    tables = a._tables
    assert tables is not None and b._tables is None
    x = parse_perm("(1 2 3 4 5)", 5)
    c5 = generate([x], 5)
    assert len(catalog.restriction_matrix(EmbeddingMap(c5, b, [x])).rows) \
        == len(subgroup_classes(c5))
    assert b._tables is None and a._tables is tables


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


def test_the_prime_test_divides_only_up_to_its_cap(monkeypatch):
    real_isqrt = groups.isqrt

    def capped_isqrt(n):
        assert n <= groups.PRIME_TEST_CAP, "trial division past the cap"
        return real_isqrt(n)
    monkeypatch.setattr(groups, "isqrt", capped_isqrt)
    # below the cap the test is complete: 999983 is the largest prime
    # below 10**6
    assert groups._least_prime(groups.PRIME_TEST_CAP) == 2
    assert groups._least_prime(999983 ** 2) == 999983
    # past it, a number with a divisor up to 10**6 keeps its answer
    assert groups._least_prime(10 ** 13) == 2
    assert groups._least_prime(10 ** 12 + 1) == 73
    with pytest.raises(InputError, match="p must be prime"):
        family_graph_text(10 ** 13, 10 ** 13 + 1, 1)
    # and one without is refused (1000003 is the least prime past 10**6)
    past = 1000003 ** 2
    for call in (lambda: groups._is_prime(past),
                 lambda: family_graph_text(past, past + 1, 1)):
        with pytest.raises(CapExceeded) as exc:
            call()
        assert str(exc.value) == ("prime test capped at 1000000000000, "
                                  "got a larger number")


@pytest.mark.parametrize("call", [
    lambda g, x: coset_action(g, []),
    lambda g, x: fixed_point_multiplicity(g, [], x),
    lambda g, x: cyclic_amalgam_value(g, x, []),
    lambda g, x: fixed_point_multiplicity(g, [x], x),
], ids=["coset_action", "fixed_point_multiplicity", "cyclic_amalgam_value",
        "fixed_point_multiplicity-no-identity"])
def test_member_sets_without_the_identity_are_rejected(call):
    # an empty or identity-free member set is no subgroup, whatever the
    # entry point it reaches
    s4 = symmetric_group(4)
    with pytest.raises(InputError, match="identity"):
        call(s4, parse_perm("(1 2)", 4))


def test_subgroup_rejects_members_outside_the_group():
    a4 = alternating_group(4)
    with pytest.raises(InputError, match="outside the group"):
        coset_action(a4, [identity(4), parse_perm("(1 2)", 4)])


def test_subgroup_rejects_a_set_that_is_not_closed():
    s3 = symmetric_group(3)
    members = [identity(3), parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)]
    with pytest.raises(InputError, match="not closed under multiplication"):
        coset_action(s3, members)


@pytest.mark.parametrize("call", [
    lambda g, u, x: coset_action(g, u),
    lambda g, u, x: fixed_point_multiplicity(g, u, x),
    lambda g, u, x: cyclic_amalgam_value(g, x, u),
], ids=["coset_action", "fixed_point_multiplicity", "cyclic_amalgam_value"])
@pytest.mark.parametrize("degree,texts", [
    (3, ("(1 2)", "(1 2 3)")),
    (4, ("(1 2)", "(1 3)", "(1 2 3 4)")),
], ids=["Sym(3)", "Sym(4)"])
def test_sets_that_are_not_closed_are_refused(call, degree, texts):
    # each set holds the identity, lies in the group and has an order
    # dividing it, so only the lattice can tell it is no subgroup
    g = symmetric_group(degree)
    members = [identity(degree)] + [parse_perm(t, degree) for t in texts]
    with pytest.raises(InputError, match="not closed under multiplication"):
        call(g, members, members[1])


def test_coset_action_past_the_subgroup_cap_builds_no_table(monkeypatch):
    # the lattice's cap refuses Sym(7) before its 5040^2 table is built
    def no_tables(self):
        raise AssertionError("tables built past the subgroup cap")
    monkeypatch.setattr(FiniteGroup, "tables", no_tables)
    with pytest.raises(CapExceeded, match="subgroup cap 1000"):
        coset_action(symmetric_group(7), trivial_group(7))


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
    # |fix(g)| on cosets of U must equal |G| |[g] cap U| / (|U| |[g]|), and
    # so must the marks fixed_point_multiplicity reads, at prime order
    for g in _fixture_groups():
        assert g.order <= 48
        conjugates = {x: frozenset(a * x * a.inverse() for a in g.elements)
                      for x in g.elements}
        for sub in all_subgroups(g):
            act = coset_action(g, sub)
            for x in g.elements:
                cls = conjugates[x]
                expected = Fraction(g.order * len(cls & sub),
                                    len(sub) * len(cls))
                assert expected.denominator == 1
                assert act[x].fixed_points() == expected
                if groups._is_prime(x.order()):
                    assert fixed_point_multiplicity(g, sub, x) == expected


def test_class_ordering_is_reproducible():
    a = generate([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)], 3)
    b = generate([parse_perm("(1 3)", 3), parse_perm("(1 3 2)", 3)], 3)
    ca, cb = subgroup_classes(a), subgroup_classes(b)
    assert [frozenset(c.representative.elements) for c in ca] == \
        [frozenset(c.representative.elements) for c in cb]
    assert [(c.order, c.index, c.aut_count, c.class_size) for c in ca] == \
        [(c.order, c.index, c.aut_count, c.class_size) for c in cb]
