import random
from itertools import product
from math import comb, factorial

import pytest

from vfgrowth.catalog import EmbeddingMap, build_catalog, extend_hom
from vfgrowth.corpus import (corpus_graphs, klein_amalgam, modular_graph,
                             oracle_graphs, random_graph, s3_c2_amalgam,
                             triangle_graph)
from vfgrowth import groups, oracle
from vfgrowth.errors import CapExceeded, EmbeddingError, InputError
from vfgrowth.gog import GogEdge, free_group, make_graph
from vfgrowth.groups import (alternating_group, cyclic_group,
                             dihedral_group, klein_four, symmetric_group,
                             trivial_group)
from vfgrowth.growth import build_growth_program
from vfgrowth.oracle import (DEFAULT_TYPESUM_CAP, TypePartition,
                             hom_count_enumerate, hom_count_typesum,
                             type_hom_count, vertex_hom_count)
from vfgrowth.oracle import (_symmetric_images, _transporter_count,
                             _vertex_homs, _vertex_types)
from vfgrowth.perm import Perm, identity, parse_perm


def test_vertex_hom_count_s3_at_degree_3():
    # classes of Sym(3) have degrees (1, 2, 3, 6) and aut counts (1, 2, 1, 6)
    s3 = symmetric_group(3)
    assert vertex_hom_count(s3, (3, 0, 0, 0), 3) == 1    # trivial image
    assert vertex_hom_count(s3, (1, 1, 0, 0), 3) == 3    # sign-like homs
    assert vertex_hom_count(s3, (0, 0, 1, 0), 3) == 6    # isomorphisms
    total = 1 + 3 + 6
    assert total == 10                                   # |Hom(S3, S3)|


def test_vertex_hom_count_regular_and_trivial():
    c2 = cyclic_group(2)
    assert vertex_hom_count(c2, (0, 1), 2) == 1          # regular action
    assert vertex_hom_count(c2, (2, 0), 2) == 1          # trivial action
    assert vertex_hom_count(trivial_group(), (4,), 4) == 1


def test_vertex_hom_count_input_checks():
    s3 = symmetric_group(3)
    with pytest.raises(InputError, match="length"):
        vertex_hom_count(s3, (1, 1), 3)
    with pytest.raises(InputError, match="non-negative"):
        vertex_hom_count(s3, (-1, 2, 0, 0), 3)
    with pytest.raises(InputError, match="degree"):
        vertex_hom_count(s3, (1, 0, 0, 0), 3)


def test_type_hom_count_free_rank_one():
    # one trivial vertex, one loop: every image is a valid hom
    g = free_group(1)
    xi = TypePartition(3, (("v", (3,)),))
    assert type_hom_count(g, xi) == factorial(3)


def test_type_hom_count_rejects_inadmissible():
    g = s3_c2_amalgam()
    # left vertex faithful, right vertex trivial: edge images disagree
    xi = TypePartition(6, (("a", (0, 0, 0, 1)), ("b", (6, 0, 0, 0))))
    with pytest.raises(InputError, match="not admissible across edge"):
        type_hom_count(g, xi)


def test_per_type_counts_are_positive_and_sum_to_total():
    for g in (modular_graph(), klein_amalgam(), triangle_graph()):
        led = hom_count_typesum(g, 4)
        assert sum(c for _, c in led.per_type) == led.total(4)
        for xi, c in led.per_type:
            assert c >= 0
            assert type_hom_count(g, xi) == c


def _hall_free_rank2(n):
    """Index-n subgroup counts of the rank-2 free group, recomputed from
    scratch: totals are (m!)^2, then the marked-point recursion."""
    totals = [factorial(m) ** 2 for m in range(1, n + 1)]
    trans = []
    for m in range(1, n + 1):
        t = totals[m - 1]
        for k in range(1, m):
            t -= comb(m - 1, k - 1) * trans[k - 1] * totals[m - k - 1]
        trans.append(t)
    return [t // factorial(m) for m, t in enumerate(trans)]


def test_typesum_matches_independent_free_group_recursion():
    led = hom_count_typesum(free_group(2), 6)
    assert led.totals == tuple(factorial(m) ** 2 for m in range(1, 7))
    assert led.subgroups == tuple(_hall_free_rank2(6))
    assert led.subgroups == (1, 3, 13, 71, 461, 3447)


FROZEN_SUBGROUP_COUNTS = {
    "modular": (1, 1, 4, 8, 5, 22),
    "klein": (1, 1, 3, 0, 0),
    "triangle": (1, 3, 25, 47, 1211),
}


def test_frozen_subgroup_counts():
    assert hom_count_typesum(modular_graph(), 6).subgroups == \
        FROZEN_SUBGROUP_COUNTS["modular"]
    assert hom_count_typesum(klein_amalgam(), 5).subgroups == \
        FROZEN_SUBGROUP_COUNTS["klein"]
    assert hom_count_typesum(triangle_graph(), 5).subgroups == \
        FROZEN_SUBGROUP_COUNTS["triangle"]


def test_every_group_has_exactly_one_index_one_subgroup():
    for _name, g in oracle_graphs():
        assert hom_count_typesum(g, 1).s(1) == 1


def test_transitive_counts_divisible_by_factorial():
    for _name, g in oracle_graphs():
        led = hom_count_typesum(g, 5)
        for m in range(1, 6):
            assert led.t(m) % factorial(m - 1) == 0
            assert led.s(m) == led.t(m) // factorial(m - 1)


def test_totals_multiply_over_free_products():
    c2 = make_graph([("v", cyclic_group(2))], [])
    c3 = make_graph([("v", cyclic_group(3))], [])
    prod = modular_graph()
    for m in range(1, 7):
        assert hom_count_typesum(prod, m).total(m) == \
            hom_count_typesum(c2, m).total(m) * hom_count_typesum(c3, m).total(m)


def test_typesum_caps():
    past = DEFAULT_TYPESUM_CAP + 1
    with pytest.raises(CapExceeded):
        hom_count_typesum(free_group(1), past)
    with pytest.raises(InputError):
        hom_count_typesum(free_group(1), 0)
    hom_count_typesum(free_group(1), past, max_n=past)  # explicit override


def test_enumerate_small_graphs():
    assert hom_count_enumerate(free_group(1), 3) == 6
    assert hom_count_enumerate(modular_graph(), 3) == 12
    assert hom_count_enumerate(free_group(2), 3) == 36


def test_enumerate_agrees_with_typesum():
    for _name, g in oracle_graphs():
        for m in range(1, 5):
            assert hom_count_enumerate(g, m) == hom_count_typesum(g, m).total(m)


@pytest.mark.slow
def test_enumerate_agrees_with_typesum_at_degree_five_and_six():
    for _name, g in oracle_graphs():
        assert hom_count_enumerate(g, 5) == hom_count_typesum(g, 5).total(5)
    assert hom_count_enumerate(triangle_graph(), 6) == \
        hom_count_typesum(triangle_graph(), 6).total(6)


def test_enumerate_rejects_degrees_below_one():
    # the same check, and the same error, as the type-sum counter
    for g, n in ((free_group(1), 0), (modular_graph(), 0), (free_group(1), -1)):
        with pytest.raises(InputError, match="degree must be at least 1"):
            hom_count_enumerate(g, n)


def test_enumerate_caps():
    with pytest.raises(CapExceeded):
        hom_count_enumerate(free_group(1), 7)
    big = make_graph([("v", symmetric_group(6))], [])
    with pytest.raises(CapExceeded):
        hom_count_enumerate(big, 2)          # vertex order above the cap
    at_cap = make_graph([("v", symmetric_group(5))], [])
    hom_count_enumerate(at_cap, 2)           # order 120 is exactly allowed


def test_enumerate_degree_ceiling_is_fixed_by_the_group_cap(monkeypatch):
    # 8! = 40320 is past the group cap, so no --max-n reaches degree 8;
    # the refusal comes before any vertex is counted
    def no_counting(*_):
        raise AssertionError("counted before the ceiling check")
    monkeypatch.setattr(oracle, "_vertex_homs", no_counting)
    with pytest.raises(CapExceeded, match="stops at degree 7, got 8"):
        hom_count_enumerate(modular_graph(), 8, max_n=8)


def test_transporter_counts():
    a = parse_perm("(1 2)", 4).images
    b = parse_perm("(3 4)", 4).images
    c = parse_perm("(1 2 3)", 4).images
    assert _transporter_count((), (), 4) == factorial(4)
    assert _transporter_count((a,), (c,), 4) == 0
    # same cycle type: transporter is a centralizer coset, so same size
    assert _transporter_count((a,), (b,), 4) == _transporter_count((a,), (a,), 4)
    assert _transporter_count((a,), (a,), 4) == 4      # 2 * 2 fixed points
    assert _transporter_count((a, c), (a, c), 4) == 1  # joint centralizer


def test_two_generator_loop_counts_agree_without_generate(monkeypatch):
    # a Klein four-group loop on Sym(4), from its normal copy to a
    # non-normal one: every count settles the loop by the several-letter
    # transporter, which must list S_n itself, not call groups.generate
    s4, v = symmetric_group(4), klein_four()
    sides = [tuple(parse_perm(t, 4) for t in pair)
             for pair in (("(1 2)(3 4)", "(1 3)(2 4)"), ("(1 2)(3 4)", "(1 2)"))]
    g = make_graph([("v", s4)], [GogEdge("e", ("v", "v"), v, tuple(
        EmbeddingMap(v, s4, images) for images in sides))])
    want = hom_count_typesum(g, 5).totals

    def no_generate(*_args, **_kw):
        raise AssertionError("groups.generate called by the brute force")
    monkeypatch.setattr(groups, "generate", no_generate)
    assert tuple(hom_count_enumerate(g, n) for n in range(1, 6)) == want


# -- reference oracles: the algorithms the counters replaced ---------------

def _reference_extend_hom(domain, gens, images, target_degree=None):
    """The extension ``catalog.extend_hom`` makes, as its own breadth-first
    loop over ``Perm`` products: no Cayley walk and no image tuples are
    shared with the package."""
    gens = tuple(gens)
    images = tuple(images)
    if len(gens) != len(images):
        raise EmbeddingError(
            f"{len(gens)} generators but {len(images)} images")
    for g in gens:
        if g not in domain:
            raise EmbeddingError(f"generator {g} is not in the domain group")
    if target_degree is None:
        target_degree = images[0].degree if images else domain.degree
    mapping = {identity(domain.degree): identity(target_degree)}
    frontier = [identity(domain.degree)]
    while frontier:
        new = []
        for e in frontier:
            fe = mapping[e]
            for g, m in zip(gens, images):
                f = e * g
                fim = fe * m
                known = mapping.get(f)
                if known is None:
                    mapping[f] = fim
                    new.append(f)
                elif known != fim:
                    raise EmbeddingError(
                        f"not a homomorphism: conflicting images at {f} "
                        f"(via generator {g} -> {m})")
        frontier = new
    if len(mapping) != domain.order:
        raise EmbeddingError("generators do not generate the domain group")
    return mapping


def _extension_or_error(extend, *args):
    try:
        return extend(*args)
    except EmbeddingError as exc:
        return str(exc)


def test_extend_hom_matches_the_reference_loop():
    # generator lists with repeats, the identity, or too few elements to
    # generate; images from a conjugated copy (a homomorphism) or drawn
    # at random (mostly conflicting)
    rng = random.Random(9)
    groups = [trivial_group(), cyclic_group(4), klein_four(),
              symmetric_group(3), symmetric_group(4), dihedral_group(5),
              alternating_group(4)]
    outcomes = set()
    for _ in range(600):
        group = rng.choice(groups)
        gens = [rng.choice(group.elements) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            gens += group.generators
            rng.shuffle(gens)
        if rng.random() < 0.5:
            c = Perm(rng.sample(range(group.degree), group.degree))
            images = [c * g * c.inverse() for g in gens]
            degree = group.degree
        else:
            degree = rng.randint(1, 4)
            target = symmetric_group(degree).elements
            images = [rng.choice(target) for _ in gens]
        args = (group, gens, images, degree)
        got = _extension_or_error(extend_hom, *args)
        assert got == _extension_or_error(_reference_extend_hom, *args)
        outcomes.add(got.split(":")[0] if isinstance(got, str) else "hom")
    assert outcomes == {"hom", "not a homomorphism",
                        "generators do not generate the domain group"}


@pytest.mark.parametrize("gens, images, degree", [
    (["(1 2)", "(1 2 3)"], [parse_perm("(1 2)", 3), identity(4)], None),
    (["(1 2)"], [parse_perm("(1 2)", 3)], 4),
], ids=["second-image", "given-degree"])
def test_extend_hom_refuses_an_image_off_the_target_degree(gens, images,
                                                           degree):
    s3 = symmetric_group(3)
    gens = [parse_perm(g, 3) for g in gens]
    for extend in (extend_hom, _reference_extend_hom):
        with pytest.raises(ValueError) as exc:
            extend(s3, gens, images, degree)
        assert not isinstance(exc.value, EmbeddingError)
        target = degree or 3
        assert str(exc.value) == (
            f"degree mismatch: {target} vs {7 - target}")


def test_extend_hom_checks_image_degrees_before_any_conflict():
    # the one documented divergence from the reference loop: an identity
    # generator listed first conflicts at the loop's first step, before
    # the loop reaches the image of the wrong degree
    s3 = symmetric_group(3)
    gens = [identity(3), parse_perm("(1 2)", 3)]
    images = [parse_perm("(1 2)", 3), identity(4)]
    with pytest.raises(EmbeddingError, match="^not a homomorphism"):
        _reference_extend_hom(s3, gens, images)
    with pytest.raises(ValueError, match="^degree mismatch: 3 vs 4$"):
        extend_hom(s3, gens, images)


def _extend_hom_enumeration(group, n):
    """Every homomorphism group -> S_n as a mapping dict: the reference
    extension on each tuple of generator images whose orders divide the
    generators'."""
    sym = symmetric_group(n).elements
    pools = [[x for x in sym if gen.order() % x.order() == 0]
             for gen in group.generators]
    homs = []
    for images in product(*pools):
        try:
            homs.append(_reference_extend_hom(group, group.generators,
                                              images, n))
        except EmbeddingError:
            continue
    return homs


@pytest.mark.parametrize("group", [
    trivial_group(), cyclic_group(4), klein_four(), symmetric_group(3),
    symmetric_group(4), dihedral_group(5)],
    ids=["trivial", "C4", "V4", "S3", "S4", "D10"])
def test_vertex_homs_match_the_extend_hom_enumeration(group):
    for n in range(1, 6):
        at, homs = _vertex_homs(group, n)
        got = [{x: Perm(hom[i]) for x, i in at.items()} for hom in homs]
        assert got == _extend_hom_enumeration(group, n), n


def _product_filter_rows(g, n):
    """The type sum's rows by filtering the full product of vertex types
    through every edge matrix, each row counted by type_hom_count."""
    program = build_growth_program(g)
    names = [name for name, _ in program.catalogs]
    rows = []
    for combo in product(*(_vertex_types(cat.degrees, n)
                           for _, cat in program.catalogs)):
        xi = TypePartition(n, tuple(zip(names, combo)))
        if all(ml.apply(xi.vertex(e.ends[0])) == mr.apply(xi.vertex(e.ends[1]))
               for e, ml, mr in program.edges):
            rows.append((xi, type_hom_count(g, xi)))
    return tuple(rows)


# seeds whose random graphs have both a loop and a pair of parallel edges,
# with edge groups of order 2 to 4 (29, 64 and 199 list one of the pair
# the other way round)
LOOPED_PARALLEL_SEEDS = (29, 53, 56, 64, 112, 148, 169, 193, 199)


def test_join_rows_match_the_product_filter():
    graphs = [g for _, g in oracle_graphs()]
    graphs += [random_graph(seed) for seed in LOOPED_PARALLEL_SEEDS]
    for g in graphs:
        for n in range(1, 8):
            assert hom_count_typesum(g, n).per_type == \
                _product_filter_rows(g, n), n


def test_looped_parallel_seeds_have_loops_and_parallel_edges():
    for seed in LOOPED_PARALLEL_SEEDS:
        ends = [tuple(sorted(e.ends)) for e in random_graph(seed).edges]
        assert any(a == b for a, b in ends), seed
        assert len(set(ends)) < len(ends), seed


# -- Dey's exponential formula: a count past the brute-force ceiling -------

def _index_counts(group):
    """{d: number of index-d subgroups}, every subgroup found by closing a
    known one with one more element; independent of the catalog."""
    e = identity(group.degree)

    def close(gens):
        elems = {e}
        frontier = [e]
        while frontier:
            frontier = [y for y in (x * s for x in frontier for s in gens)
                        if y not in elems and not elems.add(y)]
        return frozenset(elems)

    found = {frozenset([e]): []}
    frontier = list(found.items())
    while frontier:
        new = []
        for members, gens in frontier:
            for x in group.elements:
                if x not in members:
                    sub = close(gens + [x])
                    if sub not in found:
                        found[sub] = gens + [x]
                        new.append((sub, gens + [x]))
        frontier = new
    counts = {}
    for sub in found:
        d = group.order // len(sub)
        counts[d] = counts.get(d, 0) + 1
    return counts


def _dey_hom_counts(group, top):
    """h[n] = |Hom(group, S_n)| for n <= top, from Dey's recursion
    h_n = sum_d a_d (n-1)!/(n-d)! h_{n-d}, a_d the index-d subgroups."""
    a = _index_counts(group)
    h = [1]
    for n in range(1, top + 1):
        h.append(sum(a_d * factorial(n - 1) // factorial(n - d) * h[n - d]
                     for d, a_d in a.items() if d <= n))
    return h


def _dey_totals(g, top):
    """|Hom(Gamma, S_n)| for n <= top on a graph whose edge groups are all
    trivial: prod_v h_n(G_v) * n!^(E - V + 1)."""
    assert all(e.group.order == 1 for e in g.edges)
    h = [_dey_hom_counts(grp, top) for _, grp in g.vertices]
    rank = len(g.edges) - len(g.vertices) + 1
    out = []
    for n in range(1, top + 1):
        total = factorial(n) ** rank
        for hv in h:
            total *= hv[n]
        out.append(total)
    return tuple(out)


def test_dey_recursion_counts_small_cases():
    # |Hom(C2, S_n)| counts involutions plus one; |Hom(S3, S3)| = 10
    assert _dey_hom_counts(cyclic_group(2), 5) == [1, 1, 2, 4, 10, 26]
    assert _dey_hom_counts(symmetric_group(3), 3)[3] == 10
    assert sum(_index_counts(symmetric_group(4)).values()) == 30


TRIVIAL_EDGE_GRAPHS = tuple((name, g) for name, g in corpus_graphs()
                            if all(e.group.order == 1 for e in g.edges))


def test_typesum_matches_dey_on_trivial_edge_graphs_up_to_the_cap():
    assert len(TRIVIAL_EDGE_GRAPHS) > 10
    for name, g in TRIVIAL_EDGE_GRAPHS:
        assert hom_count_typesum(g, DEFAULT_TYPESUM_CAP).totals == \
            _dey_totals(g, DEFAULT_TYPESUM_CAP), name


def test_typesum_matches_dey_at_degree_fourteen():
    # twice the brute-force ceiling; random-17, -19 and -24 are left out
    # only because their type sums take seconds at this degree
    for name, g in TRIVIAL_EDGE_GRAPHS:
        if name not in ("random-17", "random-19", "random-24"):
            assert hom_count_typesum(g, 14, max_n=14).totals == \
                _dey_totals(g, 14), name


def test_vertex_hom_counts_sum_to_dey_up_to_degree_twelve():
    for group in (cyclic_group(4), klein_four(), symmetric_group(3),
                  dihedral_group(5), alternating_group(4),
                  symmetric_group(4)):
        h = _dey_hom_counts(group, 12)
        degrees = build_catalog(group).degrees
        for n in range(1, 13):
            assert sum(vertex_hom_count(group, t, n)
                       for t in _vertex_types(degrees, n)) == h[n], n


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_images_list_the_group_in_element_order(n):
    assert _symmetric_images(n) == [(p.images, p.order())
                                    for p in symmetric_group(n).elements]
