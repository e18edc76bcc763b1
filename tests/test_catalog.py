import pytest

from vfgrowth.catalog import (EmbeddingMap, build_catalog,
                              fixed_point_multiplicity, identity_embedding,
                              restriction_matrix)
from vfgrowth.corpus import corpus_graphs, klein_amalgam
from vfgrowth.errors import EmbeddingError, InputError
from vfgrowth.groups import (all_subgroups, cyclic_group, dihedral_group,
                             generate, klein_four, subgroup_classes,
                             symmetric_group, trivial_group)
from vfgrowth.perm import identity, parse_perm
from vfgrowth.selftest import (D10_FIX_TABLE, KLEIN_TABLE, MISPRINTED_ROW10,
                               S3_FIX_TABLE, S4_INDEX_COLUMN)


def test_catalog_cyclic():
    cat = build_catalog(cyclic_group(5))
    assert cat.degrees == (1, 5)


def test_catalog_s4():
    cat = build_catalog(symmetric_group(4))
    assert len(cat.classes) == 11
    assert cat.degrees == S4_INDEX_COLUMN


def test_catalog_trivial():
    cat = build_catalog(trivial_group())
    assert cat.degrees == (1,)


def test_catalog_class_fields():
    g = symmetric_group(4)
    assert build_catalog(g).classes is subgroup_classes(g)


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
        assert vcat.degrees[i] == index
        assert tuple(left.rows[j][i] for j in range(5)) == want_l
        assert tuple(right.rows[j][i] for j in range(5)) == want_r


def test_klein_misprinted_row_is_impossible():
    # the published class-10 row cannot be a restriction: its left half
    # sums to 24 points for a 12-point action, and its right half
    # contradicts the fixed-point counts of both non-central involutions
    vcat, ecat, left, right = _klein_tables()
    bad_l, bad_r = MISPRINTED_ROW10
    assert sum(m * d for m, d in zip(bad_l, ecat.degrees)) != vcat.degrees[9]
    s4 = symmetric_group(4)
    emb = klein_amalgam().edges[0].embeddings[1]
    stab = vcat.classes[9]
    for gen, mults in (
        (emb.generator_images[1], (bad_r[0], bad_r[2])),   # image of b
        (emb.apply(emb.generators[0] * emb.generators[1]), (bad_r[0], bad_r[3])),
    ):
        fix = fixed_point_multiplicity(s4, stab, gen)
        assert fix != mults[0] + 2 * mults[1]


def test_restriction_along_identity_is_indicator():
    s3 = symmetric_group(3)
    cat = build_catalog(s3)
    m = restriction_matrix(identity_embedding(s3))
    for i in range(len(cat.classes)):
        col = [m.rows[j][i] for j in range(len(cat.classes))]
        assert col == [1 if j == i else 0 for j in range(len(cat.classes))]


def test_degree_conservation_on_corpus():
    for _name, g in corpus_graphs(randomized=10):
        for e in g.edges:
            ecat = build_catalog(e.group)
            for side in range(2):
                vcat = build_catalog(g.vertex_group(e.ends[side]))
                m = restriction_matrix(e.embeddings[side])
                for i, deg in enumerate(vcat.degrees):
                    total = sum(m.rows[j][i] * ecat.degrees[j]
                                for j in range(len(ecat.degrees)))
                    assert total == deg


def test_conjugate_embeddings_restrict_identically():
    s4 = symmetric_group(4)
    v = klein_four()
    base = EmbeddingMap(v, s4, tuple(parse_perm(t, 4)
                                     for t in ("(1 2)(3 4)", "(1 2)")))
    want = restriction_matrix(base)
    for s in s4.elements:
        conj = EmbeddingMap(v, s4, tuple(s * im * s.inverse()
                                         for im in base.generator_images))
        assert restriction_matrix(conj).rows == want.rows


def test_fixed_point_multiplicity_examples():
    s3 = symmetric_group(3)
    a3 = generate([parse_perm("(1 2 3)", 3)], 3)
    assert fixed_point_multiplicity(s3, a3, parse_perm("(1 2 3)", 3)) == 2
    s5 = symmetric_group(5)
    u = generate([parse_perm("(1 2)", 5), parse_perm("(3 4)", 5)], 5)
    assert fixed_point_multiplicity(s5, u, parse_perm("(1 2)", 5)) == 6
    assert fixed_point_multiplicity(s3, s3, parse_perm("(1 2)", 3)) == 1


def test_fixed_point_multiplicity_rejects_bad_input():
    s3 = symmetric_group(3)
    with pytest.raises(InputError):
        fixed_point_multiplicity(s3, s3, identity(4))
    with pytest.raises(InputError):
        fixed_point_multiplicity(s3, s3, identity(3))   # order 1 not prime


def test_fixed_point_formula_matches_restriction_trivial_row():
    # the closed-form coset fixed-point count must equal the multiplicity
    # of the trivial edge class when restricting along <x> -> G
    for g in (symmetric_group(4), dihedral_group(6)):
        vcat = build_catalog(g)
        seen = set()
        for x in g.elements:
            if x.order() not in (2, 3) or x in seen:
                continue
            seen.add(x)
            c = generate([x], g.degree)
            emb = EmbeddingMap(c, g, (x,), generators=(x,))
            m = restriction_matrix(emb)
            for i, cls in enumerate(vcat.classes):
                assert m.rows[0][i] == fixed_point_multiplicity(
                    g, cls, x)


def test_fixed_point_tables_for_the_triangle_fixture():
    s3 = symmetric_group(3)
    t12, t123 = parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)
    from vfgrowth.groups import coset_action

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
