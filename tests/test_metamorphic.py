"""Metamorphic checks: mu and the homomorphism counts belong to the group,
not to its presentation.  Renaming vertices, reversing an edge, conjugating
one embedding inside its vertex group, or a trip through the text format
must leave mu and the type-sum totals unchanged.  A free product adds:
mu(G1 * G2) = mu(G1) + mu(G2) + 1, where a finite G counts as -1/|G|."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vfgrowth.catalog import EmbeddingMap
from vfgrowth.corpus import oracle_graphs, random_graph
from vfgrowth.gog import GogEdge, make_graph, parse_gog, to_text
from vfgrowth.groups import cyclic_group, symmetric_group, trivial_group
from vfgrowth.growth import mu
from vfgrowth.oracle import hom_count_typesum

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
