"""Metamorphic checks: mu and the homomorphism counts belong to the group,
not to its presentation.  Renaming vertices, reversing an edge, conjugating
one embedding inside its vertex group, or a trip through the text format
must leave mu and the type-sum totals unchanged."""

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vfgrowth.catalog import EmbeddingMap
from vfgrowth.corpus import oracle_graphs, random_graph
from vfgrowth.gog import GogEdge, make_graph, parse_gog, to_text
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
