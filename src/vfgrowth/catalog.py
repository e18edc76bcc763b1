"""Catalogs of transitive actions and their restriction matrices.

A finite group has one equivalence class of transitive permutation
representations per conjugacy class of subgroups (the coset actions).  The
catalog is the cached class tuple of ``groups.subgroup_classes`` itself,
which ``build_catalog`` names: each class, in the canonical class order,
carries its index (the degree of its action) and the automorphism count of
its coset space, which is the index of the stabilizer in its normalizer,
not the degree.  Restricting a coset action along an embedded subgroup
splits it into orbits; counting those orbits by their stabilizer class
gives an integer matrix, kept as its tuple of rows, the basic ingredient of
the growth linear program.  It is read from marks, with no coset walked
(Burnside): a subgroup K fixes the coset tH exactly when K lies in tHt^-1,
and (N_G(H) : H) cosets give each conjugate, so K fixes ``aut_count``
cosets per member of H's class that holds it (``_mark``).  Subgroups are
element-index sets, like the classes' ``members``.  An embedding is given
on generators and extended along the domain's Cayley walk on image tuples
(``groups.walk_images``); nothing here multiplies ``Perm`` objects.  The
walk of the domain's own generators, which every default ``EmbeddingMap``
uses, is the one the domain keeps (``FiniteGroup.cayley``), with its
elements numbered by ``elements``, so a domain is walked once however many
embeddings start from it.  A list that adds identities sent to the
identity, as a ``.gog`` edge listing ``()`` does, reads that walk too; any
other generator list is walked afresh, its elements listed in walk order.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmbeddingError, InputError
from .groups import FiniteGroup, cayley_walk, subgroup_classes, walk_images
from .perm import Perm


def extend_hom(domain: FiniteGroup, gens, images, target_degree=None) -> dict:
    """Extend generator images to the full homomorphism, or fail.

    ``gens`` must generate ``domain``.  The extension is forced (every
    element is a product of generators); a conflict between two product
    routes means the images do not define a homomorphism.
    """
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
    for m in images:
        if m.degree != target_degree:
            raise ValueError(f"degree mismatch: {target_degree} vs {m.degree}")
    # the domain keeps the walk of its own generators, which have no
    # identity; an identity sent to the identity adds only steps that
    # agree, so such pairs are dropped.  Other gens lie in the domain, so
    # their walk stops within its order
    kept = [(g, m) for g, m in zip(gens, images)
            if not (g.is_identity() and m.is_identity())]
    if tuple(g for g, _ in kept) == domain.generators:
        gens = domain.generators
        images = tuple(m for _, m in kept)
        elements, steps = domain.elements, domain.cayley()
    else:
        elements, steps = cayley_walk(gens, domain.degree, domain.order)
    imgs, conflict = walk_images(steps, len(elements),
                                 [m.images for m in images], target_degree)
    if conflict is not None:
        y, k = conflict
        raise EmbeddingError(
            f"not a homomorphism: conflicting images at {elements[y]} "
            f"(via generator {gens[k]} -> {images[k]})")
    if len(elements) != domain.order:
        raise EmbeddingError("generators do not generate the domain group")
    return {x: Perm(img) for x, img in zip(elements, imgs)}


class EmbeddingMap:
    """An injective homomorphism between finite groups, given on generators."""

    __slots__ = ("domain", "codomain", "generators", "generator_images",
                 "_map", "_hash")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup,
                 generator_images, generators=None):
        self.domain = domain
        self.codomain = codomain
        self.generators = tuple(domain.generators if generators is None else generators)
        self.generator_images = tuple(generator_images)
        for m in self.generator_images:
            if m not in codomain:
                raise EmbeddingError(f"image {m} is not in the codomain group")
        mapping = extend_hom(domain, self.generators, self.generator_images,
                             target_degree=codomain.degree)
        if len(set(mapping.values())) != domain.order:
            raise EmbeddingError("not injective: distinct elements share an image")
        self._map = mapping
        self._hash = hash((domain, codomain, self.generators, self.generator_images))

    def apply(self, x: Perm) -> Perm:
        try:
            return self._map[x]
        except KeyError:
            raise InputError(f"{x} is not in the domain of the embedding") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, EmbeddingMap)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.generators == other.generators
                and self.generator_images == other.generator_images)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{g} -> {m}" for g, m in
                          zip(self.generators, self.generator_images)) or "trivial"
        return f"<embedding {pairs}>"


# a group's catalog is its class tuple, one class per transitive action;
# the public name is the one cache, not a second one around it
build_catalog = subgroup_classes


def _mark(cls, sub) -> int:
    """The number of cosets of the class ``cls`` fixed by the subgroup with
    element-index set ``sub`` in the class parent's tables."""
    return cls.aut_count * sum(sub <= m for m in cls.members)


@lru_cache(maxsize=None)
def restriction_matrix(emb: EmbeddingMap) -> tuple:
    """Decompose each vertex representation class along the embedding:
    ``rows[j][i]`` is the multiplicity of edge class j in the restriction
    of vertex class i.

    The orbits of the edge group E on a coset space are counted by the class
    of their point stabilizers.  An orbit E/K_j gives mark(K_i, E/K_j) fixed
    points to each edge class K_i, 0 unless K_i is subconjugate to K_j, so
    unless K_j precedes it in class order (by core, then order): the table
    is triangular and the counts follow from the space's marks.  Each must
    be a non-negative integer, and column sums weighted by edge degrees
    must reproduce the vertex degree; both are asserted.
    """
    vertex = subgroup_classes(emb.codomain)
    edge = subgroup_classes(emb.domain)
    index = emb.codomain.index
    image = [index[emb.apply(a)] for a in emb.domain.elements]
    images = [frozenset(map(image.__getitem__, k.members[0])) for k in edge]
    table = [[_mark(k, h.members[0]) for k in edge] for h in edge]
    cols = []
    for rep in vertex:
        col = [0] * len(edge)
        for j in range(len(edge)):
            rest = _mark(rep, images[j]) - sum(
                c * t for c, t in zip(col, table[j]))
            col[j], left = divmod(rest, table[j][j])
            assert left == 0 and col[j] >= 0, "marks give no orbit counts"
        total = sum(m * k.index for m, k in zip(col, edge))
        assert total == rep.index, "orbit degrees fail to add up"
        cols.append(col)
    return tuple(zip(*cols))

