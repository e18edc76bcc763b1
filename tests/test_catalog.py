from pathlib import Path

import pytest

from vfgrowth import catalog
from vfgrowth.catalog import EmbeddingMap, build_catalog, restriction_matrix
from vfgrowth.corpus import corpus_graphs, klein_amalgam
from vfgrowth.errors import EmbeddingError, InputError
from vfgrowth.gog import load_gog
from vfgrowth.groups import (all_subgroups, alternating_group, coset_action,
                             cyclic_group, dihedral_group, generate,
                             klein_four, subgroup_classes, symmetric_group,
                             trivial_group)
from vfgrowth.perm import identity, parse_perm
from vfgrowth.selftest import (D10_FIX_TABLE, KLEIN_TABLE, MISPRINTED_ROW10,
                               S3_FIX_TABLE, S4_INDEX_COLUMN)


def _degrees(g) -> tuple:
    """The degrees of g's transitive actions, in catalog order."""
    return tuple(cls.index for cls in build_catalog(g))


def test_catalog_cyclic():
    assert _degrees(cyclic_group(5)) == (1, 5)


def test_catalog_s4():
    assert len(build_catalog(symmetric_group(4))) == 11
    assert _degrees(symmetric_group(4)) == S4_INDEX_COLUMN


def test_catalog_trivial():
    assert _degrees(trivial_group()) == (1,)


def test_catalog_class_fields():
    g = symmetric_group(4)
    assert build_catalog(g) is subgroup_classes(g)


def _klein_tables():
    g = klein_amalgam()
    vcat = build_catalog(g.vertex_group("a"))
    ecat = build_catalog(g.edges[0].group)
    left = restriction_matrix(g.edges[0].embeddings[0])
    right = restriction_matrix(g.edges[0].embeddings[1])
    return vcat, ecat, left, right


def test_klein_restriction_golden_rows():
    vcat, ecat, left, right = _klein_tables()
    for i, (index, want_l, want_r) in enumerate(KLEIN_TABLE):
        assert vcat[i].index == index
        assert tuple(left[j][i] for j in range(5)) == want_l
        assert tuple(right[j][i] for j in range(5)) == want_r


def test_klein_misprinted_row_is_impossible():
    # the published class-10 row cannot be a restriction: its left half
    # sums to 24 points for a 12-point action, and its right half
    # contradicts the fixed-point counts of both non-central involutions
    vcat, ecat, left, right = _klein_tables()
    bad_l, bad_r = MISPRINTED_ROW10
    assert sum(m * k.index for m, k in zip(bad_l, ecat)) != vcat[9].index
    s4 = symmetric_group(4)
    emb = klein_amalgam().edges[0].embeddings[1]
    stab = vcat[9]
    for gen, mults in (
        (emb.generator_images[1], (bad_r[0], bad_r[2])),   # image of b
        (emb.apply(emb.generators[0] * emb.generators[1]), (bad_r[0], bad_r[3])),
    ):
        fix = coset_action(s4, stab)[gen].fixed_points()
        assert fix != mults[0] + 2 * mults[1]


def test_restriction_along_identity_is_indicator():
    s3 = symmetric_group(3)
    cat = build_catalog(s3)
    m = restriction_matrix(EmbeddingMap(s3, s3, s3.generators))
    for i in range(len(cat)):
        col = [m[j][i] for j in range(len(cat))]
        assert col == [1 if j == i else 0 for j in range(len(cat))]


def test_degree_conservation_on_corpus():
    for _name, g in corpus_graphs():
        for e in g.edges:
            ecat = build_catalog(e.group)
            for side in range(2):
                vcat = build_catalog(g.vertex_group(e.ends[side]))
                m = restriction_matrix(e.embeddings[side])
                for i, rep in enumerate(vcat):
                    total = sum(m[j][i] * k.index for j, k in enumerate(ecat))
                    assert total == rep.index


def test_conjugate_embeddings_restrict_identically():
    s4 = symmetric_group(4)
    v = klein_four()
    base = EmbeddingMap(v, s4, tuple(parse_perm(t, 4)
                                     for t in ("(1 2)(3 4)", "(1 2)")))
    want = restriction_matrix(base)
    for s in s4.elements:
        conj = EmbeddingMap(v, s4, tuple(s * im * s.inverse()
                                         for im in base.generator_images))
        assert restriction_matrix(conj) == want


def test_fixed_point_multiplicity_examples():
    # the number of cosets of u that x fixes
    s3 = symmetric_group(3)
    a3 = generate([parse_perm("(1 2 3)", 3)], 3)
    assert coset_action(s3, a3)[parse_perm("(1 2 3)", 3)].fixed_points() == 2
    s5 = symmetric_group(5)
    u = generate([parse_perm("(1 2)", 5), parse_perm("(3 4)", 5)], 5)
    assert coset_action(s5, u)[parse_perm("(1 2)", 5)].fixed_points() == 6
    assert coset_action(s3, s3)[parse_perm("(1 2)", 3)].fixed_points() == 1


def test_fixed_point_formula_matches_restriction_trivial_row():
    # the fixed points of x on the cosets must equal the multiplicity of
    # the trivial edge class when restricting along <x> -> G, which is read
    # from marks
    for g in (symmetric_group(4), dihedral_group(6)):
        vcat = build_catalog(g)
        actions = [coset_action(g, cls) for cls in vcat]
        seen = set()
        for x in g.elements:
            if x.order() not in (2, 3) or x in seen:
                continue
            seen.add(x)
            c = generate([x], g.degree)
            emb = EmbeddingMap(c, g, (x,), generators=(x,))
            m = restriction_matrix(emb)
            for i, cls in enumerate(vcat):
                assert m[0][i] == actions[i][x].fixed_points()


def _orbit_minima(degree: int, images) -> list:
    """The least point of each orbit of the group generated by the
    permutations with the given image tuples on 0..degree-1, in ascending
    order."""
    seen = [False] * degree
    minima = []
    for start in range(degree):
        if seen[start]:
            continue
        minima.append(start)
        seen[start] = True
        stack = [start]
        while stack:
            p = stack.pop()
            for m in images:
                q = m[p]
                if not seen[q]:
                    seen[q] = True
                    stack.append(q)
    return minima


def _reference_restriction_matrix(emb: EmbeddingMap) -> tuple:
    """Decompose each vertex representation class along the embedding,
    as rows: ``rows[j][i]`` copies of edge class j in vertex class i.

    The edge group acts on each coset space through its embedded image; the
    orbits are classified by the class of their point stabilizers pulled
    back to the edge group.  Column sums weighted by edge degrees must
    reproduce the vertex degree, which is asserted.
    """
    vcat = build_catalog(emb.codomain)
    ecat = build_catalog(emb.domain)
    # the numbering the classes' index sets count in, that of the sorted
    # elements, which an equal copy of the lattice's group shares
    elements = emb.codomain.elements
    index = {x: i for i, x in enumerate(elements)}
    # left multiplication by the image of each edge element, in the edge
    # group's element order, the order its classes' index sets count in,
    # as full rows from Perm products
    edge = emb.domain.elements
    left = [[index[emb.apply(a) * x] for x in elements] for a in edge]
    gens = [edge.index(a) for a in emb.generators]
    lookup = {members: cls.class_id
              for cls in ecat for members in cls.members}
    gen_count = len(ecat)
    cols = []
    for rep in vcat:
        # the left cosets yH from Perm products, each kept by its least
        # element y and numbered in that order
        sub = [elements[i] for i in rep.members[0]]
        coset_of = [None] * len(elements)
        cosets = []
        for y, x in enumerate(elements):
            if coset_of[y] is None:
                for h in sub:
                    coset_of[index[x * h]] = len(cosets)
                cosets.append(y)
        act = [tuple(coset_of[row[y]] for y in cosets) for row in left]
        col = [0] * gen_count
        for p in _orbit_minima(rep.index, [act[i] for i in gens]):
            stab = frozenset(i for i, a in enumerate(act) if a[p] == p)
            col[lookup[stab]] += 1
        total = sum(m * ecat[j].index for j, m in enumerate(col))
        assert total == rep.index, "orbit degrees fail to add up"
        cols.append(col)
    return tuple(zip(*cols))


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def test_marks_match_the_orbit_walk_on_every_graph_embedding():
    graphs = [g for _name, g in corpus_graphs()]
    graphs += [load_gog(p) for p in sorted(GRAPHS.glob("*.gog"))]
    embeddings = {emb for g in graphs for e in g.edges
                  for emb in e.embeddings}
    assert len(embeddings) >= 40
    for emb in embeddings:
        assert restriction_matrix(emb) == _reference_restriction_matrix(emb)


def _embed(domain, codomain, *images):
    return EmbeddingMap(domain, codomain, tuple(
        parse_perm(t, codomain.degree) for t in images))


def _psl27():
    return generate([parse_perm("(1 2 3 4 5 6 7)", 7),
                     parse_perm("(1 2)(3 5)", 7)], 7)


# non-cyclic edge groups and images that are not normal, so the table of
# marks has more than two rows and conjugates of a class split its marks
PAIRS = {
    "V4->S4 normal": lambda: _embed(klein_four(), symmetric_group(4),
                                    "(1 2)(3 4)", "(1 3)(2 4)"),
    "V4->S4 non-normal": lambda: _embed(klein_four(), symmetric_group(4),
                                        "(1 2)(3 4)", "(1 2)"),
    "S3->S5": lambda: _embed(symmetric_group(3), symmetric_group(5),
                             "(1 2)", "(1 2 3)"),
    "S3->S5 twisted": lambda: _embed(symmetric_group(3), symmetric_group(5),
                                     "(1 2)(4 5)", "(1 2 3)"),
    "D8->S6": lambda: _embed(dihedral_group(4), symmetric_group(6),
                             "(1 2 3 4)", "(2 4)"),
    "D8->S6 twisted": lambda: _embed(dihedral_group(4), symmetric_group(6),
                                     "(1 2 3 4)(5 6)", "(2 4)"),
    "A4->A5": lambda: _embed(alternating_group(4), alternating_group(5),
                             "(1 2 3)", "(2 3 4)"),
    "A5->A6": lambda: _embed(alternating_group(5), alternating_group(6),
                             "(1 2 3)", "(1 2 3 4 5)"),
    "C7->PSL(2,7)": lambda: _embed(cyclic_group(7), _psl27(),
                                   "(1 2 3 4 5 6 7)"),
    "S4->S4": lambda: _embed(symmetric_group(4), symmetric_group(4),
                             "(1 2)", "(1 2 3 4)"),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_marks_match_the_orbit_walk_on_non_cyclic_pairs(name):
    emb = PAIRS[name]()
    assert restriction_matrix(emb) == _reference_restriction_matrix(emb)


def test_an_impossible_mark_is_refused(monkeypatch):
    # one vertex mark off by one, in either direction, is the mark vector
    # of no action: some orbit count comes out fractional or negative
    emb = PAIRS["V4->S4 non-normal"]()
    vertex = build_catalog(emb.codomain)
    index = emb.codomain.index
    images = [frozenset(index[emb.apply(emb.domain.elements[i])]
                        for i in k.members[0])
              for k in build_catalog(emb.domain)]
    mark = catalog._mark
    for target in vertex:
        for image in images:
            for delta in (1, -1):
                def off(cls, sub, target=target, image=image, delta=delta):
                    hit = cls is target and sub == image
                    return mark(cls, sub) + delta * hit
                monkeypatch.setattr(catalog, "_mark", off)
                restriction_matrix.cache_clear()
                with pytest.raises(AssertionError,
                                   match="marks give no orbit counts"):
                    restriction_matrix(emb)
                assert restriction_matrix.cache_info().currsize == 0
    monkeypatch.setattr(catalog, "_mark", mark)
    assert restriction_matrix(emb) == _reference_restriction_matrix(emb)


def test_fixed_point_tables_for_the_triangle_fixture():
    s3 = symmetric_group(3)
    t12, t123 = parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)

    def fixrow(g, sub, xs):
        act = coset_action(g, sub)
        return tuple(act[x].fixed_points() for x in xs)

    rows = tuple(sorted(((len(s),) + fixrow(s3, s, (t12, t123))
                         for s in all_subgroups(s3)), reverse=True))
    assert rows == S3_FIX_TABLE
    d10 = dihedral_group(5)
    refs = (parse_perm("(2 5)(3 4)", 5), parse_perm("(1 2)(3 5)", 5))
    rows = tuple(sorted(((len(s),) + fixrow(d10, s, refs)
                         for s in all_subgroups(d10)), reverse=True))
    assert rows == D10_FIX_TABLE


def test_embedding_rejects_non_homomorphism():
    v = klein_four()
    s4 = symmetric_group(4)
    with pytest.raises(EmbeddingError):
        EmbeddingMap(v, s4, tuple(parse_perm(t, 4)
                                  for t in ("(1 2)(3 4)", "(1 2 3)")))


def test_embedding_rejects_non_injective():
    c2 = cyclic_group(2)
    s3 = symmetric_group(3)
    with pytest.raises(EmbeddingError):
        EmbeddingMap(c2, s3, (identity(3),))


def test_embedding_apply_outside_domain():
    c2 = cyclic_group(2)
    s3 = symmetric_group(3)
    emb = EmbeddingMap(c2, s3, (parse_perm("(1 2)", 3),))
    with pytest.raises(InputError):
        emb.apply(parse_perm("(1 2 3)", 3))
