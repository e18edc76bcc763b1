import gc
import os
import random
import resource
import subprocess
import sys
from itertools import chain
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import pytest

import make_group_golden
from make_lp_golden import GOLDEN, solution_lines
from vfgrowth.catalog import EmbeddingMap, _mark, restriction_matrix
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import family_graph_text, parse_gog
from vfgrowth.groups import (FiniteGroup, all_subgroups, alternating_group,
                             coset_action, cyclic_group, dihedral_group,
                             direct_product, generate, klein_four,
                             subgroup_classes, symmetric_group, trivial_group)
from vfgrowth import catalog, groups
from vfgrowth.groups import (DEFAULT_SUBGROUP_CAP, _class_and_schreier,
                             _Cosets, _extend, _is_prime_power,
                             _known_order_product, _least_prime,
                             _subgroup_class, _subgroup_index_sets)
from vfgrowth.growth import cyclic_amalgam_mu, euler_tight, mu, uniform_mu
from vfgrowth.oracle import (DEFAULT_ENUM_GROUP_CAP, _transporter_count,
                             hom_count_enumerate, hom_count_typesum)
from vfgrowth.perm import Perm, identity, parse_perm

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


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


@lru_cache(maxsize=None)
def _reference_tables(g):
    """(index map, full multiplication table, inverses) from Perm products,
    the reference the factored ``tables()`` store is checked against; one
    per group, as Sym(6)'s takes about 2 s."""
    index = {p: i for i, p in enumerate(g.elements)}
    mult = [[index[a * b] for b in g.elements] for a in g.elements]
    inv = [index[a.inverse()] for a in g.elements]
    return index, mult, inv


_FOUR = [
    symmetric_group(4),
    alternating_group(5),
    _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),      # PSL(2,7)
    direct_product(dihedral_group(4), cyclic_group(3)),
]
_FOUR_IDS = ["Sym(4)", "Alt(5)", "PSL(2,7)", "Dih(4)xCyc(3)"]
FOUR_GROUPS = pytest.mark.parametrize("g", _FOUR, ids=_FOUR_IDS)


# rows of length 1 and 2 beside the four, mid-size groups, a walk whose
# generators come in another order and one whose generator list repeats an
# element, so that generator takes no tree step
@pytest.mark.parametrize(
    "g", _FOUR + [trivial_group(), cyclic_group(2), symmetric_group(5),
                  alternating_group(6),
                  FiniteGroup(4, symmetric_group(4).generators[::-1]),
                  _from_cycles("(1 2 3)", "(1 2 3)", "(1 2)")],
    ids=_FOUR_IDS + ["Trivial", "Cyc(2)", "Sym(5)", "Alt(6)",
                     "Sym(4)-reversed", "Sym(3)-repeated"])
def test_tables_match_perm_products(g):
    # every product, read through the factored store and as whole rows
    tab = g.tables()
    index, mult, inv = _reference_tables(g)
    n = g.order
    assert (g.index, tab.inv) == (index, inv)
    assert [[tab.mul(x, y) for y in range(n)] for x in range(n)] == mult
    assert [list(tab.row(x)) for x in range(n)] == mult


def test_table_rows_are_tuples_the_collector_stops_tracking():
    # rows of ints held as tuples leave the collector's tracking at the
    # first collection, so later collections do not traverse the table
    g = symmetric_group(5)
    tab = g.tables()
    gc.collect()
    ref = _reference_tables(g)[1]
    assert len(tab.rows) == 25
    for x, row in tab.rows.items():
        assert type(row) is tuple and list(row) == ref[x]
        assert not gc.is_tracked(row)
    for x in range(g.order):
        assert tab.t[x] is tab.rows[tab.t[x][0]]
        assert tab.k[x] is tab.rows[tab.k[x][0]]


def _sym3_wr_cyc2():
    return generate([parse_perm(t, 6)
                     for t in ("(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)")], 6)


@pytest.mark.parametrize("g", [
    symmetric_group(3), dihedral_group(5), cyclic_group(7), trivial_group(),
    _sym3_wr_cyc2(), _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),
], ids=["Sym(3)", "Dih(5)", "Cyc(7)", "Trivial", "Sym(3)wrCyc(2)",
        "PSL(2,7)"])
def test_the_factored_store_matches_perm_products(g):
    # x * y = row(t_x)[row(k_x)[y]] over the pointwise stabilizer K of
    # points 0..j-1 and one transversal element t per left coset tK
    tab = g.tables()
    elements, n, j = g.elements, g.order, tab.fixed
    stabilizer = elements[:tab.stabilizer_order]
    assert all(k.images[:j] == tuple(range(j)) for k in stabilizer)
    assert sum(p.images[:j] == tuple(range(j)) for p in elements) \
        == len(stabilizer)
    assert len(tab.transversal) * len(stabilizer) == n
    assert set(tab.rows) == set(tab.transversal) | set(range(len(stabilizer)))
    for x, p in enumerate(elements):
        t, k = tab.t[x][0], tab.k[x][0]
        assert t in tab.transversal and k < len(stabilizer)
        assert elements[t] * elements[k] == p
        assert elements[tab.inv[x]] == p.inverse()
        for y, q in enumerate(elements):
            assert elements[tab.mul(x, y)] == p * q


def test_a_regular_group_has_a_trivial_stabilizer():
    # Cyc(7) acts regularly: every point's stabilizer is trivial, so K is
    # trivial and T is the whole group
    tab = cyclic_group(7).tables()
    assert (tab.fixed, tab.stabilizer_order) == (1, 1)
    assert tab.transversal == tuple(range(7))


@pytest.mark.parametrize("g, name", [(symmetric_group(6), "Sym(6)"),
                                     (alternating_group(6), "Alt(6)")],
                         ids=["Sym(6)", "Alt(6)"])
def test_random_products_in_the_frontier_groups(g, name):
    tab = g.tables()
    elements = g.elements
    rng = random.Random(name)
    for _ in range(3000):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert elements[tab.mul(x, y)] == elements[x] * elements[y]
        assert tab.row(x)[y] == tab.mul(x, y)


def test_the_store_holds_the_rows_of_t_and_k_alone():
    # (|T| + |K|) * |G| entries, not |G|^2: j = 2 for both, so |K| = 24 and
    # 12, |T| = 30, and the identity is in both
    for g, rows in ((symmetric_group(6), 53), (alternating_group(6), 41)):
        tab = g.tables()
        assert (tab.fixed, len(tab.transversal)) == (2, 30)
        assert len(tab.rows) == rows
        assert all(len(row) == g.order for row in tab.rows.values())


def test_elements_sort_by_image_tuples():
    # the walk meets the elements out of image order; the group lists them
    # sorted and numbers them by that order
    g = FiniteGroup(4, symmetric_group(4).generators[::-1])
    walked, _ = groups.cayley_walk(g.generators, g.degree, g.order)
    assert list(g.elements) == sorted(walked, key=lambda p: p.images)
    assert list(g.elements) == sorted(walked)       # by Perm.__lt__
    assert g.elements != tuple(walked)
    assert list(g.index.items()) == [(p, i) for i, p in enumerate(g.elements)]


def test_a_group_is_built_from_its_generators_alone():
    # no element list is taken: the elements are what the generators give
    x = parse_perm("(1 2)", 2)
    with pytest.raises(TypeError):
        FiniteGroup(2, [], [identity(2), x])
    assert FiniteGroup(2, [identity(2), x]) == cyclic_group(2)


def test_construction_stops_the_walk_past_the_cap(monkeypatch):
    # Sym(6)'s generators under a cap of 2: the walk is refused at its
    # third point, not run over all 720
    s6 = symmetric_group(6)
    real = groups.walk
    acts = []

    def counted(start, gens, act, cap=None):
        def act_counted(x, s):
            acts.append(x)
            return act(x, s)
        return real(start, gens, act_counted, cap)
    monkeypatch.setattr(groups, "walk", counted)
    with pytest.raises(CapExceeded,
                       match="^group too large: more than 2 elements$"):
        FiniteGroup(6, s6.generators, max_order=2)
    assert acts == [tuple(range(6))] * len(s6.generators)


def _reference_cayley_walk(gens, degree, cap):
    """The walk that ``groups.cayley_walk`` ran before its steps were
    composed by ``itemgetter``, kept word for word as the reference, with
    the walk position of every element."""
    at, steps = groups.walk(tuple(range(degree)), [s.images for s in gens],
                            lambda x, s: tuple([x[t] for t in s]), cap)
    return {Perm(x): i for x, i in at.items()}, steps


def _reference_walk_images(steps, size, gen_images, degree):
    """The loop that ``groups.walk_images`` ran before its steps were
    composed by ``itemgetter``, kept word for word as the reference."""
    images = [tuple(range(degree))] * size
    for x, k, y, tree in steps:
        img = images[x]
        z = tuple([img[t] for t in gen_images[k]])
        if tree:
            images[y] = z
        elif images[y] != z:
            return None, (y, k)
    return images, None


# degree 1 (no itemgetter) and 2 (one of two indices) beside the four
@pytest.mark.parametrize(
    "g", _FOUR + [trivial_group(), FiniteGroup(1, [identity(1)]),
                  cyclic_group(2), dihedral_group(5)],
    ids=_FOUR_IDS + ["Trivial", "Trivial-with-identity", "Cyc(2)",
                     "Dih(5)"])
def test_cayley_walk_and_images_match_the_reference_loops(g):
    walked, steps = groups.cayley_walk(g.generators, g.degree, g.order)
    ref_at, ref_steps = _reference_cayley_walk(g.generators, g.degree,
                                               g.order)
    assert walked == list(ref_at)                       # in walk order
    assert steps == ref_steps
    # the group keeps the reference steps renumbered through its sorted
    # elements, and each step is a Perm product there
    number = [g.elements.index(p) for p in ref_at]
    kept = g.cayley()
    assert kept == tuple((number[x], k, number[y], tree)
                         for x, k, y, tree in ref_steps)
    assert kept is g.cayley()                           # kept
    for x, k, y, _ in kept:
        assert g.elements[x] * g.generators[k] == g.elements[y]
    # images on 1..4 points: mostly conflicts, and some homomorphisms
    rng = random.Random(g.order)
    outcomes = set()
    for _ in range(200):
        degree = rng.randint(1, 4)
        target = symmetric_group(degree).elements
        images = [rng.choice(target).images for _ in g.generators]
        for walk in (steps, kept):
            got = groups.walk_images(walk, g.order, images, degree)
            assert got == _reference_walk_images(walk, g.order, images,
                                                  degree)
        outcomes.add(got[1] is None)
    assert True in outcomes


def _reference_left_cosets(mult, sub, ambient):
    """The plain coset loop, kept word for word as the reference that the
    store ``groups._Cosets`` is checked against."""
    coset_of = [None] * len(mult)
    cosets = []
    for y in ambient:
        if coset_of[y] is None:
            row = mult[y]
            coset = [row[x] for x in sub]
            for z in coset:
                coset_of[z] = len(cosets)
            cosets.append(coset)
    return cosets, coset_of


@pytest.mark.parametrize("g", _FOUR + [symmetric_group(5)],
                         ids=_FOUR_IDS + ["Sym(5)"])
def test_left_cosets_match_the_reference_loop(g):
    # a store filled over the whole group for every class representative,
    # the trivial one included (one index), then inside each representative
    # for every representative it contains
    classes = subgroup_classes(g)
    tab = classes[0].parent.tables()
    mult = _reference_tables(g)[1]
    reps = [cls.members[0] for cls in classes]
    assert min(map(len, reps)) == 1

    def same(sub, ambient):
        store = _Cosets(tab, sub).fill(ambient)
        want, want_of = _reference_left_cosets(mult, sub, ambient)
        assert [list(c) for c in store.cosets] == want
        assert store.coset_of == want_of
    for sub in reps:
        same(sub, range(g.order))
    for members in reps:
        for sub in reps:
            if sub <= members:
                same(sub, sorted(members))


def test_group_layer_matches_the_golden_digests():
    # tables() and subgroup_classes of every cold-catalog vertex group;
    # written by tests/make_group_golden.py
    golden = make_group_golden.GOLDEN.read_text(encoding="utf-8")
    assert make_group_golden.group_layer_lines() == golden.splitlines()


def test_the_group_layer_does_not_depend_on_the_generating_list():
    # each cold-catalog group built from its generators reversed gives the
    # same digests; equal groups share one entry of subgroup_classes'
    # cache, so it is cleared first, or the lattice would not run again
    golden = make_group_golden.GOLDEN.read_text(encoding="utf-8")
    subgroup_classes.cache_clear()
    try:
        lines = []
        for name, g in make_group_golden.cold_catalog_groups():
            flipped = FiniteGroup(g.degree, g.generators[::-1])
            assert flipped.generators != g.generators
            assert subgroup_classes(flipped)[0].parent is flipped
            lines.append(make_group_golden.group_layer_line(name, flipped))
    finally:
        subgroup_classes.cache_clear()
    assert lines == golden.splitlines()


def _reference_class_and_schreier(mult, inv, gens, conj, members):
    """The class walk that ``groups._class_and_schreier`` replaced, kept
    word for word as the reference."""
    orbit = [members]
    at = {members: 0}
    walk = [0]
    schreier = []
    for i, cur in enumerate(orbit):     # orbit grows while it is walked
        row = mult[walk[i]]
        for s, c in zip(gens, conj):
            image = frozenset(map(c.__getitem__, cur))
            j = at.get(image)
            if j is None:
                at[image] = len(orbit)
                orbit.append(image)
                walk.append(row[s])
            else:
                schreier.append(mult[row[s]][inv[walk[j]]])
    return orbit, schreier


@FOUR_GROUPS
def test_class_and_schreier_match_the_reference_walk(g):
    # the orbit and the Schreier list, both in order, from every class
    # representative, with the conjugation maps the lattice uses
    classes = subgroup_classes(g)
    parent = classes[0].parent
    tab = parent.tables()
    index, mult, inv = _reference_tables(parent)
    gens = [index[p] for p in parent.generators]
    conj = [[mult[mult[inv[s]][x]][s] for x in range(parent.order)]
            for s in gens]
    assert groups._conjugations(tab, gens) == conj
    for cls in classes:
        assert groups._class_and_schreier(tab, conj, cls.members[0]) == \
            _reference_class_and_schreier(mult, inv, gens, conj,
                                          cls.members[0])


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
    # p-groups, where extending H by a with a^p outside H is the case the
    # lattice skips: cyclic of orders 2^3 and 3^2, the quaternion group, and
    # an abelian group with many cyclic subgroups of order 4
    cyclic_group(8),
    cyclic_group(9),
    generate([parse_perm("(1 2 3 4)(5 6 7 8)", 8),
              parse_perm("(1 5 3 7)(2 8 4 6)", 8)], 8),
    direct_product(cyclic_group(4), cyclic_group(4)),
], ids=["Sym(4)", "Dih(5)", "Alt(4)", "Frobenius(21)", "Dih(4)xCyc(2)",
        "Sym(3)xSym(3)", "Cyc(8)", "Cyc(9)", "Q8", "Cyc(4)xCyc(4)"])
def test_lattice_matches_naive_closure(g):
    orbits = [frozenset(frozenset(g.elements[i] for i in s) for s in orbit)
              for orbit in _subgroup_index_sets(g)]
    want = _reference_subgroups(g)
    assert set().union(*orbits) == want
    assert sum(len(o) for o in orbits) == len(want)
    assert set(orbits) == _reference_classes(g, want)


def _sl25():
    """SL(2,5) on the 24 nonzero vectors of F_5^2: perfect, not simple
    (its centre is {1, -1})."""
    vectors = [(x, y) for x in range(5) for y in range(5) if x or y]

    def matrix(a, b, c, d):
        return Perm(tuple(vectors.index(((a * x + b * y) % 5,
                                         (c * x + d * y) % 5))
                          for x, y in vectors))
    return generate([matrix(1, 1, 0, 1), matrix(0, 4, 1, 0)], 24)


_S4XS3 = _from_cycles("(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7)")
_SL25 = _sl25()
# the wreath product Sym(3) wr Cyc(2) of order 72, a cold-catalog vertex
# group
_S3WRC2 = generate([parse_perm(t, 6)
                    for t in ("(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)")], 6)


def _reference_closure(cosets, coset_of, mult, gens, limit):
    """The union of the cosets (from ``_reference_left_cosets``) that left
    multiplication by ``gens`` reaches from the first, read off the full
    table ``mult``; None past ``limit`` cosets."""
    orbit = [0]
    seen = {0}
    for c in orbit:                     # orbit grows while it is walked
        y = cosets[c][0]
        for s in gens:
            d = coset_of[mult[s][y]]
            if d not in seen:
                seen.add(d)
                orbit.append(d)
        if len(orbit) > limit:
            return None
    return frozenset(chain.from_iterable(cosets[c] for c in orbit))


def _reference_subgroup_index_sets(g):
    """The lattice loop that ``groups._subgroup_index_sets`` replaced, with
    no residuum and a closure walk for every candidate, kept as the
    reference, on a full table from Perm products: its cosets, closures
    and class walks are the reference loops above, not the package's."""
    # the one check of the subgroup cap: the |G|^2 table and the lattice
    # search below are what it bounds
    if g.order > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"group too large: order {g.order} exceeds "
                          f"subgroup cap {DEFAULT_SUBGROUP_CAP}")
    index, mult, inv = _reference_tables(g)
    # each cyclic subgroup <x> stands by its least generator, least[<x>] =
    # cyclic[x]; by_root maps r to the ascending such a of order p^k, p
    # prime, with a^p = r
    least = {}
    cyclic = [0] * g.order
    by_root = {}
    for a in range(1, g.order):
        powers = [0]
        x = a
        while x:
            powers.append(x)
            x = mult[x][a]
        n = len(powers)
        cyclic[a] = least.setdefault(frozenset(powers), a)
        if cyclic[a] == a and _is_prime_power(n):
            by_root.setdefault(powers[_least_prime(n) % n], []).append(a)
    # each class representative H is extended by one <a> per N_G(H)-orbit
    # of those outside H with a^p in H, which reaches every subgroup (see
    # the module docstring); N_G(H) is spanned from the class walk
    bound = g.order // _least_prime(g.order)
    whole = frozenset(range(g.order))
    gens = [index[p] for p in g.generators]
    # conjugation x -> s^-1 x s by each group generator s, as an index map
    conj = [[mult[mult[inv[s]][x]][s] for x in range(g.order)]
            for s in gens]
    trivial = frozenset([0])
    orbit, schreier = _reference_class_and_schreier(mult, inv, gens, conj,
                                                    trivial)
    known = set(orbit)
    orbits = [tuple(orbit)]
    reps = [(trivial, (), len(orbit), schreier)]
    for members, hgens, size, schreier in reps:  # reps grows while walked
        cosets, coset_of = _reference_left_cosets(mult, members,
                                                  range(g.order))
        # N_G(H) = <H, kept>, a Schreier element kept only outside the span
        # so far; all normalize H, so they alone walk H's cosets, and a
        # limit of every coset means no Lagrange stop
        kept = []
        span = members
        for n in schreier:
            if n not in span:
                kept.append(n)
                span = _reference_closure(cosets, coset_of, mult, kept,
                                          len(cosets))
        assert len(span) * size == g.order, \
            "normalizer fails orbit-stabilizer"
        limit = bound // len(members)
        by = [(mult[inv[n]], n) for n in hgens + tuple(kept)]
        seen = set()
        roots = members.intersection(by_root)
        for a in sorted(chain.from_iterable(map(by_root.__getitem__, roots))):
            if a in members or a in seen:
                continue
            # a stands for its orbit under conjugation by N_G(H), which stays
            # outside H
            seen.add(a)
            todo = [a]
            for b in todo:              # todo grows while it is walked
                for left, n in by:
                    c = cyclic[mult[left[b]][n]]
                    if c not in seen:
                        seen.add(c)
                        todo.append(c)
            newgens = hgens + (a,)
            new = _reference_closure(cosets, coset_of, mult, newgens,
                                     limit) or whole
            if new in known:
                continue
            # a conjugate already known would put new in an earlier class
            orbit, schreier = _reference_class_and_schreier(mult, inv, gens,
                                                            conj, new)
            known.update(orbit)
            orbits.append(tuple(orbit))
            reps.append((new, newgens, len(orbit), schreier))
    return tuple(orbits)


@pytest.mark.parametrize("g", [
    # solvable: the residuum is trivial, so every extension is a coset union
    _S4XS3,
    direct_product(dihedral_group(4), cyclic_group(3)),
    direct_product(direct_product(cyclic_group(2), cyclic_group(2)),
                   direct_product(cyclic_group(2), cyclic_group(2))),
    _S3WRC2,
    # perfect and simple: the residuum is the whole group
    alternating_group(5),
    _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),
    alternating_group(6),
    # perfect, not simple
    _SL25,
    # a proper, nontrivial residuum
    symmetric_group(5),
    direct_product(alternating_group(5), cyclic_group(2)),
    symmetric_group(6),
], ids=["Sym(4)xSym(3)", "Dih(4)xCyc(3)", "Cyc(2)^4", "Sym(3)wrCyc(2)",
        "Alt(5)", "PSL(2,7)", "Alt(6)", "SL(2,5)", "Sym(5)", "Alt(5)xCyc(2)",
        "Sym(6)"])
def test_lattice_matches_the_unpruned_search(g):
    got = {frozenset(orbit) for orbit in _subgroup_index_sets(g)}
    assert got == {frozenset(orbit)
                   for orbit in _reference_subgroup_index_sets(g)}


def test_sl25_has_12_classes_and_76_subgroups():
    orbits = _subgroup_index_sets(_SL25)
    assert (len(orbits), sum(map(len, orbits))) == (12, 76)


def _residuum_of(g):
    tab = g.tables()
    index, mult, inv = _reference_tables(g)
    gens = [index[p] for p in g.generators]
    conj = [[mult[mult[inv[s]][x]][s] for x in range(g.order)]
            for s in gens]
    return groups._residuum(tab, gens, conj), mult, inv


@pytest.mark.parametrize("g, order", [
    (symmetric_group(6), 360),
    (symmetric_group(4), 1),
    (trivial_group(), 1),
    (_SL25, 120),
    (direct_product(alternating_group(5), cyclic_group(2)), 60),
], ids=["Sym(6)", "Sym(4)", "trivial", "SL(2,5)", "Alt(5)xCyc(2)"])
def test_residuum_orders_and_normality(g, order):
    residuum, mult, inv = _residuum_of(g)
    assert len(residuum) == order
    assert all(mult[mult[inv[x]][d]][x] in residuum
               for x in range(g.order) for d in residuum)


@pytest.mark.parametrize("g", [
    alternating_group(5),
    _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),
    alternating_group(6),
    _SL25,
], ids=["Alt(5)", "PSL(2,7)", "Alt(6)", "SL(2,5)"])
def test_perfect_groups_have_no_proper_subgroup_of_index_under_5(g):
    # the lemma the lattice's closure walks stop on (module docstring)
    assert len(_residuum_of(g)[0]) == g.order
    assert min(c.index for c in subgroup_classes(g) if c.index > 1) >= 5


@pytest.mark.parametrize("g", [
    symmetric_group(5),
    symmetric_group(6),
    direct_product(alternating_group(5), cyclic_group(2)),
], ids=["Sym(5)", "Sym(6)", "Alt(5)xCyc(2)"])
def test_subgroups_inside_the_residuum_are_at_most_a_fifth_of_it(g):
    residuum = _residuum_of(g)[0]
    inside = [s for orbit in _subgroup_index_sets(g) for s in orbit
              if s < residuum]
    assert inside and 5 * max(map(len, inside)) <= len(residuum)


def _count_extensions(monkeypatch):
    """Every extension step of the lattice from now on: (closure walks,
    coset unions), one entry each; a closure walk's entry is its limit.
    Normalizer and residuum spans share the closure routine but allow all
    |G:H| cosets, so no stop; they are not counted.  A store builds its
    cosets as walks reach them, so |G:H| is read off the table and H, not
    off the cosets built so far."""
    walks, unions = [], []
    extend, union = groups._extend, groups._coset_union

    def counted(store, rows, limit):
        if limit < len(store.tab.t) // len(store.sub):
            walks.append(limit)
        return extend(store, rows, limit)

    def counted_union(*args):
        unions.append(None)
        return union(*args)
    monkeypatch.setattr(groups, "_extend", counted)
    monkeypatch.setattr(groups, "_coset_union", counted_union)
    return walks, unions


def test_lattice_extends_once_per_normalizer_orbit(monkeypatch):
    # one candidate <H, a> per class representative H and per N_G(H)-orbit
    # of the prime-power cyclic subgroups outside H with a^p in H, whichever
    # H is found first, and only by an a that normalizes H (a coset union)
    # or, for H inside the residuum, lies in it (a closure walk).  A closure
    # walk for every candidate took 971, 314 and 776 walks; by every such
    # cyclic subgroup 12,498 and 3,307 for Sym(6) and Alt(6), and by those
    # with a^p outside H too 1,411 and 403
    walks, unions = _count_extensions(monkeypatch)
    for g, name, want in ((_named("Sym(6)"), "Sym(6)", (207, 193)),
                          (_named("Alt(6)"), "Alt(6)", (284, 30)),
                          (_S4XS3, "Sym(4)xSym(3)", (0, 336))):
        walks.clear()
        unions.clear()
        _subgroup_index_sets(g)
        assert (len(walks), len(unions)) == want, name


def test_closure_walks_stop_at_a_fifth_of_the_residuum(monkeypatch):
    # a closure walk runs in the perfect residuum D and stops past |D|/5
    # elements, where D is all it can span: (walks, sum of their limits in
    # cosets).  Stopped at the Lagrange bound |G|/p, the limits summed to
    # 13,589, 9,479 and 1,612
    walks, _ = _count_extensions(monkeypatch)
    for g, name, want in (
            (_named("Sym(6)"), "Sym(6)", (207, 2709)),
            (_named("Alt(6)"), "Alt(6)", (284, 3787)),
            (_from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"), "PSL(2,7)",
             (91, 606))):
        walks.clear()
        _subgroup_index_sets(g)
        assert (len(walks), sum(walks)) == want, name


def _subspace_count(n: int) -> int:
    """The number of subspaces of F_2^n: the Gaussian binomials [n k]_2
    summed over k."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize("n,count", [
    (1, 2), (2, 5), (3, 16), (4, 67), (5, 374),
    pytest.param(6, 2825, marks=pytest.mark.slow),
])
def test_lattice_counts_every_subgroup_of_an_elementary_abelian_2_group(
        n, count):
    # C2^n as n disjoint transpositions: its subgroups are the subspaces of
    # F_2^n, each a class of its own, so a lattice that loses an abelian
    # subgroup fails here.  C2^6 takes about 1 s, so it runs under --runslow
    assert _subspace_count(n) == count
    g = _elementary_abelian(n)
    assert g.order == 2 ** n
    classes = subgroup_classes(g)
    assert {c.class_size for c in classes} == {1}
    assert len(classes) == count


def _elementary_abelian(n: int) -> FiniteGroup:
    """C2^n as n disjoint transpositions."""
    return generate([Perm(tuple(p ^ (p // 2 == i) for p in range(2 * n)))
                     for i in range(n)], 2 * n)


@pytest.mark.parametrize("cap", [1, 100, 373])
def test_subgroup_count_cap_refuses_past_its_value(monkeypatch, cap):
    # C2^5 has 374 subgroups: one past the cap is refused, naming the cap
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_COUNT_CAP", cap)
    with pytest.raises(CapExceeded, match=f"more than {cap}, the subgroup "
                       f"count cap DEFAULT_SUBGROUP_COUNT_CAP, which no "
                       f"flag raises"):
        _subgroup_index_sets(_elementary_abelian(5))


def test_subgroup_count_cap_admits_a_lattice_at_its_value(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_COUNT_CAP", 374)
    assert sum(map(len, _subgroup_index_sets(_elementary_abelian(5)))) == 374


@pytest.mark.slow
def test_subgroup_count_cap_refuses_c2_8():
    # C2^8, of order 256, has 417,199 subgroups and gave no answer in 180
    # s without the count cap; with it the refusal comes in about 0.5 s
    assert 11300 <= groups.DEFAULT_SUBGROUP_COUNT_CAP < _subspace_count(8)
    with pytest.raises(CapExceeded, match="DEFAULT_SUBGROUP_COUNT_CAP"):
        subgroup_classes(_elementary_abelian(8))


# a cold S7 *_(1 2) S7 in a fresh interpreter, with the subgroup cap raised
# there alone: its mu, then the peak RSS the parent reads once it exits
_SYM7_CHILD = """
from vfgrowth import groups
from vfgrowth.gog import parse_gog
from vfgrowth.growth import mu
groups.DEFAULT_SUBGROUP_CAP = 5040
print(mu(parse_gog(
    "vertex a = Sym(7)\\nvertex b = Sym(7)\\n"
    "edge e a b { degree 7; gens (1 2); into a: (1 2); into b: (1 2); }\\n"
)).mu)
"""


@pytest.mark.slow
def test_sym7_lattice_under_a_raised_subgroup_cap(monkeypatch):
    # on a 2-vCPU Xeon with Python 3.11 the child below takes 0.5-0.7 s at
    # 40 MB peak RSS, where the full 5040^2 table took about 1.3 s at 229
    # MB: tables() composes 768 rows and keeps 161 in 0.06-0.11 s (0.6-0.8 s
    # for 5040 rows), the lattice and classes take 0.2-0.35 s, building
    # each left coset only when a walk reaches it (0.25-0.45 s when every
    # class representative partitioned G).  The shipped cap stays 1000.  96
    # classes (OEIS A000638) and 11,300 subgroups (A005432)
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CAP", 5040)
    walks, unions = _count_extensions(monkeypatch)
    g = symmetric_group(7)
    orbits = _subgroup_index_sets(g)
    assert len(orbits) == 96
    assert sum(map(len, orbits)) == 11300
    # |K| = 120 (j = 2) and |T| = 42, so 161 rows with the identity shared
    tab = g.tables()
    assert (tab.fixed, len(tab.transversal), len(tab.rows)) == (2, 42, 161)
    # 3,696 closure walks with none pruned, 5,596 with a^p outside H allowed
    assert (len(walks), len(unions)) == (880, 385)
    # their limits sum to 58,565 cosets, 293,072 at the Lagrange bound
    assert sum(walks) == 58565
    # the whole cold catalog and mu in a child: under ROADMAP item 6's 100
    # MB (ru_maxrss is in KiB on Linux)
    env = dict(os.environ)
    src = str(Path(groups.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SYM7_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["29/42"]
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 100 * 1024


@pytest.mark.parametrize("g", [
    symmetric_group(5),
    _from_cycles("(1 2 3 4 5 6 7)", "(1 2)(3 5)"),      # PSL(2,7)
    _S3WRC2,
], ids=["Sym(5)", "PSL(2,7)", "Sym(3)wrCyc(2)"])
def test_normalizer_orders_match_perm_normalizers(g):
    # the lattice's orbit sizes against a normalizer found by Perm products
    for c in subgroup_classes(g):
        members = {g.elements[i] for i in c.members[0]}
        normalizer = [a for a in g.elements
                      if all(a * x * a.inverse() in members
                             for x in members)]
        assert c.normalizer_order == len(normalizer)


@pytest.mark.parametrize("g", [symmetric_group(5), _S4XS3, _named("Sym(6)")],
                         ids=["Sym(5)", "Sym(4)xSym(3)", "Sym(6)"])
def test_a_normalizer_span_builds_only_the_cosets_inside_it(g):
    # the lattice's first walk per class representative H spans N_G(H) from
    # H's Schreier elements on a fresh store, which then holds the
    # |N_G(H):H| cosets inside N_G(H) and no other: an eager partition of G
    # would hold |G:H|
    classes = subgroup_classes(g)
    parent = classes[0].parent
    tab = parent.tables()
    conj = groups._conjugations(tab, [parent.index[p]
                                      for p in parent.generators])
    for c in classes:
        members = c.members[0]
        store = _Cosets(tab, members)
        kept = []
        span = members
        for n in _class_and_schreier(tab, conj, members)[1]:
            if n not in span:
                kept.append(n)
                span = _extend(store, tab.factor_rows(kept), c.index)
        assert len(span) == c.normalizer_order
        assert len(store.cosets) == c.normalizer_order // c.order


def test_the_lattice_builds_no_group(monkeypatch):
    # each class keeps its representative's generators, not a group: a
    # lattice run past its cache constructs and walks nothing
    s6 = symmetric_group(6)
    built, walked = [], []
    init, cayley_walk = FiniteGroup.__init__, groups.cayley_walk

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_walk(*args):
        walked.append(args)
        return cayley_walk(*args)
    monkeypatch.setattr(FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(groups, "cayley_walk", counted_walk)
    classes = subgroup_classes.__wrapped__(s6)
    assert len(classes) == 56
    assert (built, walked) == ([], [])


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
    assert len(restriction_matrix(emb)) == 2
    assert coset_action(g, classes[3])[two].degree == classes[3].index
    # N(<x>) has order 21 for the 7-cycle and 8 for the involution
    assert not euler_tight(g, seven) and not euler_tight(g, two)
    assert cyclic_amalgam_mu(g, seven)[0] == Fraction(1, 6)
    assert cyclic_amalgam_mu(g, two)[0] == Fraction(11, 21)
    index = g.index
    for x in (seven, two):
        assert [_mark(cls, {index[x]}) for cls in classes] == \
            [coset_action(g, cls)[x].fixed_points() for cls in classes]
    # only the identity of Sym(7) centralizes the generators of PSL(2,7)
    pair = (seven.images, two.images)
    assert _transporter_count(pair, pair, 7) == 1


# |Hom(Gamma, S_m)| for m = 1..4 on graphs/*.gog; the two counters agree
HOM_TOTALS = {
    "family_2_6_1.gog": [1, 2, 4, 10],
    "family_3_4_1.gog": [1, 4, 34, 388],
    "free2.gog": [1, 4, 36, 576],
    "klein.gog": [1, 2, 10, 34],
    "modular.gog": [1, 2, 12, 90],
    "triangle.gog": [1, 4, 60, 528],
}


def test_the_package_forms_no_perm_product(monkeypatch):
    # from parsing to mu, both counters and the corpus, with Perm products
    # refused before anything is built; each answer against its golden
    def product(*_):
        raise AssertionError("Perm product")
    monkeypatch.setattr(Perm, "__mul__", product)
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert solution_lines() == golden      # corpus_graphs() and graphs/*.gog
    values = {line.split("\t")[0]: line.split("\t")[2] for line in golden}
    paths = sorted(GRAPHS.glob("*.gog"))
    assert sorted(p.name for p in paths) == sorted(HOM_TOTALS)
    for path in paths:
        g = parse_gog(path.read_text(encoding="utf-8"))
        assert mu(g).mu == Fraction(values[f"graphs/{path.name}"])
        totals = HOM_TOTALS[path.name]
        led = hom_count_typesum(g, 4)
        assert [led.total(m) for m in range(1, 5)] == totals
        if all(grp.order <= DEFAULT_ENUM_GROUP_CAP for _, grp in g.vertices):
            assert [hom_count_enumerate(g, m) for m in range(1, 4)] == \
                totals[:3]


def test_subgroup_class_fields():
    g = symmetric_group(4)
    for c in subgroup_classes(g):
        assert c.order * c.index == g.order
        assert c.aut_count * c.order == c.normalizer_order
        assert c.index % c.aut_count == 0
        assert c.class_size == g.order // c.normalizer_order
        # members are index sets into g.elements, the representative,
        # which its generators generate, first
        assert c.members[0] == frozenset(
            g.elements.index(x)
            for x in generate(c.generators, g.degree).elements)
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
    rows = restriction_matrix(EmbeddingMap(c4, a, [x]))
    fresh = [c.members for c in subgroup_classes.__wrapped__(a)]
    assert [c.members for c in subgroup_classes(b)] == fresh
    # the same embedding given on x^-1, so no cached matrix answers for it
    emb = EmbeddingMap(c4, b, [x.inverse()], generators=[x.inverse()])
    assert restriction_matrix(emb) == rows
    assert b._tables is None


def test_restriction_after_classes_builds_no_second_table(monkeypatch):
    # subgroup_classes on a, then restriction into an equal b given by
    # other generators (the order growth.cyclic_amalgam_mu asks in): the
    # catalog of b reads the tables the lattice built on a.  Empty caches,
    # for this test alone, make a the instance the lattice runs on.
    classes = lru_cache(maxsize=None)(subgroup_classes.__wrapped__)
    monkeypatch.setattr(groups, "subgroup_classes", classes)
    monkeypatch.setattr(catalog, "subgroup_classes", classes)
    monkeypatch.setattr(catalog, "restriction_matrix", lru_cache(
        maxsize=None)(catalog.restriction_matrix.__wrapped__))
    a = generate([parse_perm(t, 5) for t in ("(1 2)", "(1 2 3 4 5)")], 5)
    b = generate([parse_perm(t, 5)
                  for t in ("(1 2)", "(2 3)", "(3 4)", "(4 5)")], 5)
    assert a == b and a.generators != b.generators
    groups.subgroup_classes(a)
    tables = a._tables
    assert tables is not None and b._tables is None
    x = parse_perm("(1 2 3 4 5)", 5)
    c5 = generate([x], 5)
    assert len(catalog.restriction_matrix(EmbeddingMap(c5, b, [x]))) \
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
    lambda g, x: uniform_mu(g, [], 2, 1),
    lambda g, x: uniform_mu(g, [x], 2, 1),
], ids=["coset_action", "uniform_mu", "uniform_mu-x-alone"])
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


@pytest.mark.parametrize("call", [coset_action,
                                  lambda g, u: uniform_mu(g, u, 2, 1)],
                         ids=["coset_action", "uniform_mu"])
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
        call(g, members)


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
    # so must the marks the closed form and restriction read
    for g in _fixture_groups():
        assert g.order <= 48
        conjugates = {x: frozenset(a * x * a.inverse() for a in g.elements)
                      for x in g.elements}
        index = g.index
        for sub in all_subgroups(g):
            act = coset_action(g, sub)
            ucls, _ = _subgroup_class(g, sub)
            for x in g.elements:
                cls = conjugates[x]
                expected = Fraction(g.order * len(cls & sub),
                                    len(sub) * len(cls))
                assert expected.denominator == 1
                assert act[x].fixed_points() == expected
                assert _mark(ucls, {index[x]}) == expected


def test_class_ordering_is_reproducible():
    a = generate([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)], 3)
    b = generate([parse_perm("(1 3)", 3), parse_perm("(1 3 2)", 3)], 3)
    ca, cb = subgroup_classes(a), subgroup_classes(b)
    assert [(c.generators, c.members) for c in ca] == \
        [(c.generators, c.members) for c in cb]
    assert [(c.order, c.index, c.aut_count, c.class_size) for c in ca] == \
        [(c.order, c.index, c.aut_count, c.class_size) for c in cb]
