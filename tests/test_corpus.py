import hashlib
from itertools import product

import pytest

from vfgrowth import corpus, groups
from vfgrowth.corpus import (corpus_graphs, infinite_dihedral, klein_amalgam,
                             modular_graph, oracle_graphs, random_graph,
                             s3_c2_amalgam, s3_c3_amalgam, triangle_graph)
from vfgrowth.errors import EmbeddingError
from vfgrowth.gog import to_text


def test_named_fixtures_have_expected_orders():
    assert [g.order for _, g in modular_graph().vertices] == [2, 3]
    assert [g.order for _, g in infinite_dihedral().vertices] == [2, 2]
    assert [g.order for _, g in s3_c2_amalgam().vertices] == [6, 6]
    assert s3_c2_amalgam().edges[0].group.order == 2
    assert s3_c3_amalgam().edges[0].group.order == 3
    assert klein_amalgam().edges[0].group.order == 4
    assert [g.order for _, g in triangle_graph().vertices] == [6, 6, 10]


def test_oracle_roster_names_are_unique():
    names = [n for n, _ in oracle_graphs()]
    assert len(names) == len(set(names)) == 7


def test_random_graph_is_deterministic():
    for seed in range(8):
        assert to_text(random_graph(seed)) == to_text(random_graph(seed))
    texts = {to_text(random_graph(seed)) for seed in range(12)}
    assert len(texts) > 1          # seeds actually vary the result


def test_random_graph_respects_pool_bounds():
    for seed in range(25):
        g = random_graph(seed)
        assert 1 <= len(g.vertices) <= 3
        for _, grp in g.vertices:
            assert grp.order <= 24
        for e in g.edges:
            assert e.group.order <= 4


def test_corpus_has_named_plus_random_members():
    pairs = corpus_graphs()
    names = [n for n, _ in pairs]
    assert len(pairs) == 33
    assert len(set(names)) == 33
    assert "triangle" in names


def test_random_corpus_is_pinned():
    text = "".join(to_text(random_graph(seed)) for seed in range(25))
    assert len(text) == 5796
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ef4eb038aa9953c1d4c5a43564d6818adfc43b901d63aa6c045c5fe015269dd2"


def test_corpus_shares_one_pool_and_changes_no_graph():
    pairs = dict(corpus_graphs())
    for seed in range(25):
        assert to_text(pairs[f"random-{seed:02d}"]) == \
            to_text(random_graph(seed))


def _counting(monkeypatch, cls):
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_corpus_builds_each_candidate_embedding_once(monkeypatch):
    # 1,039 constructions (1,021 random) when every repeat was rebuilt,
    # 272 (254) when each refused candidate was still built once
    built = _counting(monkeypatch, corpus.EmbeddingMap)
    corpus_graphs()
    assert len(built) == 132
    del built[:]
    for seed in range(25):
        random_graph(seed)
    assert len(built) == 114


def test_corpus_builds_each_pool_group_once(monkeypatch):
    # 139 groups when each random graph built its own
    built = _counting(monkeypatch, groups.FiniteGroup)
    corpus_graphs()
    assert len(built) == 37


@pytest.mark.parametrize("edge", range(len(corpus._EDGE_POOL)))
def test_the_screen_accepts_exactly_what_embedding_map_accepts(edge):
    eg = corpus._EDGE_POOL[edge]()
    for make in corpus._VERTEX_POOL:
        target = make()
        pools = [[x for x in target.elements if x.order() == g.order()]
                 for g in eg.generators]
        for images in product(*pools):
            try:
                corpus.EmbeddingMap(eg, target, images)
                accepted = True
            except EmbeddingError:
                accepted = False
            assert corpus._embeds(eg, target, images) is accepted, \
                (eg, target, images)
