"""Metamorphic checks: mu and the homomorphism counts belong to the group,
not to its presentation.  Renaming vertices, reversing an edge, conjugating
one embedding inside its vertex group, or a trip through the text format
must leave mu and the type-sum totals unchanged, and so must applying an
automorphism of a vertex group, outer ones included, to every embedding
into that vertex.  A free product adds: mu(G1 * G2) = mu(G1) + mu(G2) + 1,
where a finite G counts as -1/|G|."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from vfgrowth.catalog import EmbeddingMap, extend_hom
from vfgrowth.corpus import oracle_graphs, random_graph
from vfgrowth.errors import EmbeddingError
from vfgrowth.gog import GogEdge, amalgam, make_graph, parse_gog, to_text
from vfgrowth.groups import (cyclic_group, direct_product, generate,
                             symmetric_group, trivial_group)
from vfgrowth.growth import mu
from vfgrowth.oracle import hom_count_typesum
from vfgrowth.perm import Perm, parse_perm

GRAPHS = dict(oracle_graphs())
GRAPHS.update((f"random-{seed:02d}", random_graph(seed))
              for seed in (0, 5, 6, 11))
COUNT_DEGREE = 4

checked = settings(max_examples=40, deadline=None, derandomize=True,
                   database=None,
                   suppress_health_check=[HealthCheck.too_slow])
graph_names = st.sampled_from(sorted(GRAPHS))


def _invariants(g):
    return mu(g).mu, hom_count_typesum(g, COUNT_DEGREE).totals


@lru_cache(maxsize=None)
def _expected(name):
    return _invariants(GRAPHS[name])


def _with_edge(g, i, edge):
    edges = list(g.edges)
    edges[i] = edge
    return make_graph(g.vertices, edges)


def test_text_round_trip():
    for name, g in GRAPHS.items():
        assert _invariants(parse_gog(to_text(g))) == _expected(name), name


@checked
@given(name=graph_names, data=st.data())
def test_renaming_and_reordering_vertices(name, data):
    g = GRAPHS[name]
    order = data.draw(st.permutations(range(len(g.vertices))))
    new = {v: f"x{order[i]}" for i, (v, _) in enumerate(g.vertices)}
    vertices = [(new[v], grp) for v, grp in
                (g.vertices[j] for j in order)]
    edges = [GogEdge(e.name, tuple(new[v] for v in e.ends), e.group,
                     e.embeddings) for e in g.edges]
    assert _invariants(make_graph(vertices, edges)) == _expected(name)


@checked
@given(name=graph_names, data=st.data())
def test_reversing_an_edge(name, data):
    g = GRAPHS[name]
    i = data.draw(st.integers(0, len(g.edges) - 1))
    e = g.edges[i]
    flipped = GogEdge(e.name, e.ends[::-1], e.group, e.embeddings[::-1])
    assert _invariants(_with_edge(g, i, flipped)) == _expected(name)


@checked
@given(name=graph_names, data=st.data())
def test_conjugating_an_embedding(name, data):
    g = GRAPHS[name]
    i = data.draw(st.integers(0, len(g.edges) - 1))
    side = data.draw(st.integers(0, 1))
    e = g.edges[i]
    emb = e.embeddings[side]
    c = data.draw(st.sampled_from(emb.codomain.elements))
    conj = EmbeddingMap(emb.domain, emb.codomain,
                        tuple(c * m * c.inverse()
                              for m in emb.generator_images),
                        generators=emb.generators)
    embeddings = (conj, e.embeddings[1]) if side == 0 \
        else (e.embeddings[0], conj)
    moved = GogEdge(e.name, e.ends, e.group, embeddings)
    assert _invariants(_with_edge(g, i, moved)) == _expected(name)


FINITE = {name: make_graph([("v", grp)], [])
          for name, grp in (("C2", cyclic_group(2)),
                            ("Sym(3)", symmetric_group(3)))}
FACTORS = dict(oracle_graphs(), **FINITE)


def _prefixed(g, tag):
    vertices = [(tag + v, grp) for v, grp in g.vertices]
    edges = [GogEdge(tag + e.name, tuple(tag + v for v in e.ends), e.group,
                     e.embeddings) for e in g.edges]
    return vertices, edges


def _free_product(g1, g2):
    """g1 * g2: both graphs, names prefixed apart, joined by a trivial edge
    between their first vertices."""
    v1, e1 = _prefixed(g1, "l-")
    v2, e2 = _prefixed(g2, "r-")
    (a, ga), (b, gb) = v1[0], v2[0]
    t = trivial_group()
    join = GogEdge("join", (a, b), t,
                   (EmbeddingMap(t, ga, ()), EmbeddingMap(t, gb, ())))
    return make_graph(v1 + v2, e1 + e2 + [join])


def test_a_finite_group_counts_minus_one_over_its_order():
    for g in FINITE.values():
        order = g.vertices[0][1].order
        assert mu(g).mu == Fraction(-1, order)


def test_free_product_adds_mu_plus_one():
    names = sorted(FACTORS)
    alone = {name: mu(g).mu for name, g in FACTORS.items()}
    for i, a in enumerate(names):
        for b in names[i:]:
            joined = mu(_free_product(FACTORS[a], FACTORS[b])).mu
            assert joined == alone[a] + alone[b] + 1, (a, b)


# -- automorphisms of a vertex group -----------------------------------------

def _factor_swap(g):
    """G x G as direct_product(g, g), and its automorphism that swaps the
    factors: conjugation by the involution that swaps their point sets."""
    d = g.degree
    s = Perm(tuple(range(d, 2 * d)) + tuple(range(d)))
    p = direct_product(g, g)
    return p, {x: s * x * s for x in p.elements}


def _outer_s6():
    """Sym(6) and an outer automorphism of it: the images of the Coxeter
    generators (1 2), ..., (5 6), searched among the 15 products of three
    disjoint transpositions under the Coxeter relations, extended by
    extend_hom and checked to be a bijection."""
    s6 = symmetric_group(6)
    coxeter = [parse_perm(f"({i} {i + 1})", 6) for i in range(1, 6)]
    triples = [p for p in s6.elements
               if p.order() == 2 and not p.fixed_points()]
    assert len(triples) == 15

    def search(images):
        if len(images) == len(coxeter):
            try:
                phi = extend_hom(s6, coxeter, images)
            except EmbeddingError:
                return None
            return phi if len(set(phi.values())) == s6.order else None
        for t in triples:
            # (t_i t_{i-1})^3 = 1 and (t_i t_j)^2 = 1 for j < i - 1
            if t not in images and all(
                    ((t * u) ** (3 if j == len(images) - 1 else 2))
                    .is_identity() for j, u in enumerate(images)):
                found = search(images + [t])
                if found:
                    return found
        return None
    phi = search([])
    assert phi is not None
    return s6, phi


def _automorphism_cases():
    """(label, P, phi, edge classes): each edge class the generators, in
    cycle notation, of a subgroup A of P, which enters P by inclusion."""
    for g, classes in (
            (cyclic_group(2), [(), ("(1 2)",), ("(1 2)(3 4)",)]),
            (cyclic_group(3), [("(1 2 3)",), ("(1 2 3)(4 5 6)",),
                               ("(1 2 3)(4 6 5)",)]),
            (symmetric_group(3), [("(1 2)",), ("(1 2 3)",),
                                  ("(1 2)", "(1 2 3)"), ("(1 2)(4 5)",)])):
        p, phi = _factor_swap(g)
        yield f"swap on {g.order}x{g.order}", p, phi, classes
    s6, phi = _outer_s6()
    # a transposition and a 3-cycle go to fixed-point-free classes, the
    # point stabilizer Sym(5) to a transitive one
    yield "outer Sym(6)", s6, phi, [("(1 2)",), ("(1 2 3)",),
                                    ("(1 2 3 4 5)", "(1 2)")]


AUTOMORPHISM_CASES = list(_automorphism_cases())
AUTOMORPHISM_IDS = [label for label, *_ in AUTOMORPHISM_CASES]


def _inclusion(p, cycles):
    a = generate([parse_perm(c, p.degree) for c in cycles], p.degree)
    return a, EmbeddingMap(a, p, a.generators)


def _after(phi, emb):
    """phi o emb."""
    return EmbeddingMap(emb.domain, emb.codomain,
                        tuple(phi[m] for m in emb.generator_images),
                        generators=emb.generators)


def _twisted(g, vertex, phi):
    """g with phi applied to every embedding into the vertex."""
    return make_graph(g.vertices, [
        GogEdge(e.name, e.ends, e.group,
                tuple(_after(phi, emb) if end == vertex else emb
                      for end, emb in zip(e.ends, e.embeddings)))
        for e in g.edges])


@pytest.mark.parametrize("label, p, phi, classes", AUTOMORPHISM_CASES,
                         ids=AUTOMORPHISM_IDS)
def test_twisting_one_side_of_a_symmetric_amalgam_keeps_mu(label, p, phi,
                                                           classes):
    # P *_{i, phi o i} P is P *_{i, i} P with phi applied at its second
    # vertex
    assert {phi[x] for x in p.elements} == set(p.elements), label
    for gens in classes:
        a, inc = _inclusion(p, gens)
        twisted = amalgam(p, p, a, inc, _after(phi, inc))
        assert mu(twisted).mu == mu(amalgam(p, p, a, inc, inc)).mu, \
            (label, gens)


@pytest.mark.parametrize("label, p, phi, classes", AUTOMORPHISM_CASES,
                         ids=AUTOMORPHISM_IDS)
def test_an_automorphism_applied_at_one_vertex_keeps_mu(label, p, phi,
                                                        classes):
    # vertex a carries an amalgam edge and a loop twisted by phi, so the
    # automorphism moves three embeddings at once, both ends of the loop
    # among them
    for gens, loop_gens in zip(classes, classes[1:] + classes[:1]):
        a, inc = _inclusion(p, gens)
        b, loop = _inclusion(p, loop_gens)
        g = make_graph([("a", p), ("b", p)], [
            GogEdge("e", ("a", "b"), a, (inc, inc)),
            GogEdge("f", ("a", "a"), b, (loop, _after(phi, loop)))])
        assert mu(_twisted(g, "a", phi)).mu == mu(g).mu, (label, gens)
