"""Worked graphs of groups shared by the tests, the self-test, and docs.

The fixed graphs are the ones whose growth degrees and counting tables are
pinned in the acceptance suite; ``random_graph`` manufactures small valid
graphs (with a seeded generator search for the edge embeddings) so the
universal lower bound mu >= -chi can be checked on inputs nobody tuned.
The search screens each distinct candidate once on the edge group's kept
Cayley walk and builds an ``EmbeddingMap`` only for the one it returns: a
candidate it has already refused is skipped, with the same random draws
as if it had been tried again.  Each pool group is built once, with a
vertex group's element orders listed once, per ``random_graph`` call and
per ``corpus_graphs`` call, whose random members share one pool.
"""

from __future__ import annotations

import random

from .catalog import EmbeddingMap
from .gog import GogEdge, GraphOfGroups, amalgam, cyclic_amalgam, free_group, \
    free_product, make_graph
from .groups import (FiniteGroup, alternating_group, cyclic_group,
                     dihedral_group, klein_four, symmetric_group,
                     trivial_group, walk_images)
from .perm import parse_perm


def modular_graph() -> GraphOfGroups:
    """C_2 * C_3: the classical two-vertex free product with mu = 1/6."""
    return free_product([cyclic_group(2), cyclic_group(3)], names=("a", "b"))


def infinite_dihedral() -> GraphOfGroups:
    """C_2 * C_2, the smallest infinite virtually free group; mu = 0."""
    return free_product([cyclic_group(2), cyclic_group(2)], names=("a", "b"))


def s3_c2_amalgam() -> GraphOfGroups:
    """S_3 glued to itself over the transposition subgroup <(1 2)>."""
    return cyclic_amalgam(symmetric_group(3), parse_perm("(1 2)", 3))


def s3_c3_amalgam() -> GraphOfGroups:
    """S_3 glued to itself over the rotation subgroup <(1 2 3)>."""
    return cyclic_amalgam(symmetric_group(3), parse_perm("(1 2 3)", 3))


def klein_amalgam() -> GraphOfGroups:
    """S_4 *_V S_4 identifying the normal Klein four-group on one side with
    the non-normal one {1, (12), (34), (12)(34)} on the other; mu = 1/4."""
    s4 = symmetric_group(4)
    left = tuple(parse_perm(t, 4) for t in ("(1 2)(3 4)", "(1 3)(2 4)"))
    right = tuple(parse_perm(t, 4) for t in ("(1 2)(3 4)", "(1 2)"))
    return amalgam(s4, s4, klein_four(), left, right)


def triangle_graph() -> GraphOfGroups:
    """Triangle of two S_3 vertices and one dihedral vertex of order 10.

    The symmetric vertices share their rotation subgroup; each also glues a
    transposition ((1 2) on one side, (1 3) on the other) to a reflection
    of the pentagon.  Any other choice of reflections is conjugate and
    yields the same growth degree.
    """
    s3 = symmetric_group(3)
    d10 = dihedral_group(5)
    t3 = cyclic_group(3)
    t2 = cyclic_group(2)
    rot = parse_perm("(1 2 3)", 3)
    e1 = GogEdge("e1", ("a", "b"), t3,
                 (EmbeddingMap(t3, s3, (rot,)), EmbeddingMap(t3, s3, (rot,))))
    e2 = GogEdge("e2", ("a", "c"), t2,
                 (EmbeddingMap(t2, s3, (parse_perm("(1 2)", 3),)),
                  EmbeddingMap(t2, d10, (parse_perm("(2 5)(3 4)", 5),))))
    e3 = GogEdge("e3", ("b", "c"), t2,
                 (EmbeddingMap(t2, s3, (parse_perm("(1 3)", 3),)),
                  EmbeddingMap(t2, d10, (parse_perm("(1 2)(3 5)", 5),))))
    return make_graph([("a", s3), ("b", s3), ("c", d10)], [e1, e2, e3])


def oracle_graphs():
    """The graphs on which both homomorphism counters must agree."""
    return (
        ("free1", free_group(1)),
        ("free2", free_group(2)),
        ("modular", modular_graph()),
        ("s3-over-c2", s3_c2_amalgam()),
        ("s3-over-c3", s3_c3_amalgam()),
        ("klein", klein_amalgam()),
        ("triangle", triangle_graph()),
    )


_VERTEX_POOL = (
    trivial_group, lambda: cyclic_group(2), lambda: cyclic_group(3),
    lambda: cyclic_group(4), lambda: cyclic_group(5), lambda: cyclic_group(6),
    klein_four, lambda: symmetric_group(3), lambda: dihedral_group(4),
    lambda: dihedral_group(5), lambda: cyclic_group(8),
    lambda: alternating_group(4), lambda: dihedral_group(6),
    lambda: symmetric_group(4),
)

_EDGE_POOL = (
    lambda: cyclic_group(4), klein_four, lambda: cyclic_group(3),
    lambda: cyclic_group(2), trivial_group,
)


class _Pool:
    """The groups of ``_VERTEX_POOL`` and ``_EDGE_POOL``, each built on
    first use and kept, a vertex group with its (element, order) list."""

    __slots__ = ("_vertices", "_edges")

    def __init__(self):
        self._vertices = {}
        self._edges = {}

    def vertex(self, i: int):
        """(group, [(element, order) over its elements]) of maker i."""
        if i not in self._vertices:
            g = _VERTEX_POOL[i]()
            self._vertices[i] = g, [(x, x.order()) for x in g.elements]
        return self._vertices[i]

    def edge(self, i: int) -> FiniteGroup:
        if i not in self._edges:
            self._edges[i] = _EDGE_POOL[i]()
        return self._edges[i]


def _embeds(edge_group: FiniteGroup, target: FiniteGroup, images) -> bool:
    """Whether generator images drawn from ``target.elements`` give an
    injective homomorphism from ``edge_group``: the images along the
    group's own kept Cayley walk agree at every step and are distinct.
    The generators have no identity and the images lie in the target, so
    this is exactly the test ``EmbeddingMap`` makes, without raising."""
    imgs, conflict = walk_images(edge_group.cayley(), edge_group.order,
                                 [m.images for m in images], target.degree)
    return conflict is None and len(set(imgs)) == edge_group.order


def _find_embedding(edge_group: FiniteGroup, target: FiniteGroup,
                    orders, rng: random.Random):
    """A random injective homomorphism edge_group -> target, or None.

    Up to 60 candidate image tuples are drawn by stepping through shuffled
    pools of elements of the right orders; ``orders`` lists (element,
    order) over ``target.elements``.  Each distinct candidate is screened
    once on the edge group's kept Cayley walk (``_embeds``), and only the
    one returned is built, and validated, as an ``EmbeddingMap``.  A
    repeat of one already refused is skipped, but still spends its budget
    step and its draw, so the generator's stream, and with it every
    graph, is unchanged.
    """
    pools = []
    for gen in edge_group.generators:
        o = gen.order()
        pool = [x for x, xo in orders if xo == o]
        if not pool:
            return None
        rng.shuffle(pool)
        pools.append(pool)
    budget = 60
    idx = [0] * len(pools)
    refused = set()
    while budget:
        budget -= 1
        images = tuple(pool[i % len(pool)] for pool, i in zip(pools, idx))
        if images not in refused:
            if _embeds(edge_group, target, images):
                return EmbeddingMap(edge_group, target, images)
            refused.add(images)
        j = rng.randrange(len(pools)) if pools else 0
        idx[j] += 1
    return None


def _random_graph(seed: int, pool: _Pool) -> GraphOfGroups:
    """``random_graph(seed)``, its groups taken from ``pool``."""
    rng = random.Random(seed)
    nv = rng.randint(1, 3)
    # one draw per vertex, as rng.choice(_VERTEX_POOL) makes it
    makers = {f"v{i + 1}": rng.choice(range(len(_VERTEX_POOL)))
              for i in range(nv)}
    vertices = [(v, pool.vertex(i)[0]) for v, i in makers.items()]
    links = [(f"v{rng.randint(1, i)}", f"v{i + 1}") for i in range(1, nv)]
    for _ in range(rng.randint(0 if nv > 1 else 1, 2)):
        links.append((f"v{rng.randint(1, nv)}", f"v{rng.randint(1, nv)}"))

    def embed(eg, v):
        return _find_embedding(eg, *pool.vertex(makers[v]), rng)

    edges = []
    for i, (x, y) in enumerate(links):
        for maker in sorted(range(len(_EDGE_POOL)),
                            key=lambda _: rng.random()):
            eg = pool.edge(maker)
            ex = embed(eg, x)
            ey = embed(eg, y)
            if ex is not None and ey is not None:
                edges.append(GogEdge(f"e{i + 1}", (x, y), eg, (ex, ey)))
                break
    return make_graph(vertices, edges)


def random_graph(seed: int) -> GraphOfGroups:
    """A seeded small graph of groups: up to three vertices with groups of
    order at most 24, up to four edges with groups of order at most 4."""
    return _random_graph(seed, _Pool())


RANDOM_GRAPHS = 25


def corpus_graphs():
    """Named fixtures plus seeded random graphs, as (name, graph) pairs."""
    out = list(oracle_graphs())
    out.append(("infinite-dihedral", infinite_dihedral()))
    pool = _Pool()
    for seed in range(RANDOM_GRAPHS):
        out.append((f"random-{seed:02d}", _random_graph(seed, pool)))
    return tuple(out)
