"""Worked graphs of groups shared by the tests, the self-test, and docs.

The fixed graphs are the ones whose growth degrees and counting tables are
pinned in the acceptance suite; ``random_graph`` manufactures small valid
graphs (with a seeded generator search for the edge embeddings) so the
universal lower bound mu >= -chi can be checked on inputs nobody tuned.
The search builds an ``EmbeddingMap`` once per distinct candidate: a
candidate it has already refused is skipped, with the same random draws
as if it had been tried again.  Within one graph, each edge group is built
once and each vertex group's element orders are listed once.
"""

from __future__ import annotations

import random

from .catalog import EmbeddingMap
from .errors import EmbeddingError
from .gog import GogEdge, GraphOfGroups, amalgam, cyclic_amalgam, free_group, \
    free_product, make_graph
from .groups import (FiniteGroup, alternating_group, cyclic_group,
                     dihedral_group, klein_four, symmetric_group,
                     trivial_group)
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


def _find_embedding(edge_group: FiniteGroup, target: FiniteGroup,
                    orders, rng: random.Random):
    """A random injective homomorphism edge_group -> target, or None.

    Up to 60 candidate image tuples are drawn by stepping through shuffled
    pools of elements of the right orders; ``orders`` lists (element,
    order) over ``target.elements``.  Each distinct candidate is
    judged by ``EmbeddingMap`` once: a repeat of one already refused is
    skipped, but still spends its budget step and its draw, so the
    generator's stream, and with it every graph, is unchanged.
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
            try:
                return EmbeddingMap(edge_group, target, images)
            except EmbeddingError:
                refused.add(images)
        j = rng.randrange(len(pools)) if pools else 0
        idx[j] += 1
    return None


def random_graph(seed: int) -> GraphOfGroups:
    """A seeded small graph of groups: up to three vertices with groups of
    order at most 24, up to four edges with groups of order at most 4."""
    rng = random.Random(seed)
    nv = rng.randint(1, 3)
    vertices = [(f"v{i + 1}", rng.choice(_VERTEX_POOL)()) for i in range(nv)]
    groups = dict(vertices)
    links = [(f"v{rng.randint(1, i)}", f"v{i + 1}") for i in range(1, nv)]
    for _ in range(rng.randint(0 if nv > 1 else 1, 2)):
        links.append((f"v{rng.randint(1, nv)}", f"v{rng.randint(1, nv)}"))
    edge_groups = {}    # built on first use, like the order lists
    orders = {}

    def embed(eg, v):
        if v not in orders:
            orders[v] = [(x, x.order()) for x in groups[v].elements]
        return _find_embedding(eg, groups[v], orders[v], rng)

    edges = []
    for i, (x, y) in enumerate(links):
        for maker in sorted(range(len(_EDGE_POOL)),
                            key=lambda _: rng.random()):
            if maker not in edge_groups:
                edge_groups[maker] = _EDGE_POOL[maker]()
            eg = edge_groups[maker]
            ex = embed(eg, x)
            ey = embed(eg, y)
            if ex is not None and ey is not None:
                edges.append(GogEdge(f"e{i + 1}", (x, y), eg, (ex, ey)))
                break
    return make_graph(vertices, edges)


def corpus_graphs(randomized: int = 25):
    """Named fixtures plus seeded random graphs, as (name, graph) pairs."""
    out = list(oracle_graphs())
    out.append(("infinite-dihedral", infinite_dihedral()))
    for seed in range(randomized):
        out.append((f"random-{seed:02d}", random_graph(seed)))
    return tuple(out)
