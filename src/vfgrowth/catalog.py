"""Catalogs of transitive actions and their restriction matrices.

A finite group has one equivalence class of transitive permutation
representations per conjugacy class of subgroups (the coset actions).  The
catalog lists them in the canonical class order together with their degrees
and the automorphism count of each coset space, which is the index of the
stabilizer in its normalizer, not the degree.  Restricting a coset action
along an embedded subgroup splits it into orbits; counting those orbits by
their stabilizer class gives an integer matrix, the basic ingredient of the
growth linear program.  It is read from marks, with no coset walked
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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class RepCatalog:
    """The transitive representation classes of a group: the action on the
    cosets of each subgroup class, whose index is the degree."""

    classes: tuple          # subgroup_classes of the group

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def degrees(self) -> tuple:
        return tuple(c.index for c in self.classes)


@lru_cache(maxsize=None)
def build_catalog(g: FiniteGroup) -> RepCatalog:
    """All transitive representation classes of g, full group first (degree
    1), trivial stabilizer last (the regular action)."""
    classes = subgroup_classes(g)
    assert classes[0].index == 1 and classes[-1].index == g.order
    return RepCatalog(classes)


@dataclass(frozen=True)
class RestrictionMatrix:
    """rows[j][i] = multiplicity of edge class j in the restriction of
    vertex class i along the embedding."""

    rows: tuple

    def apply(self, vec) -> tuple:
        """The edge-class multiplicities induced by vertex multiplicities."""
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in self.rows)


def _mark(cls, sub) -> int:
    """The number of cosets of the class ``cls`` fixed by the subgroup with
    element-index set ``sub`` in the class parent's tables."""
    return cls.aut_count * sum(sub <= m for m in cls.members)


@lru_cache(maxsize=None)
def restriction_matrix(emb: EmbeddingMap) -> RestrictionMatrix:
    """Decompose each vertex representation class along the embedding.

    The orbits of the edge group E on a coset space are counted by the class
    of their point stabilizers.  An orbit E/K_j gives mark(K_i, E/K_j) fixed
    points to each edge class K_i, 0 unless K_i is subconjugate to K_j, so
    unless K_j precedes it in class order (by core, then order): the table
    is triangular and the counts follow from the space's marks.  Each must
    be a non-negative integer, and column sums weighted by edge degrees
    must reproduce the vertex degree; both are asserted.
    """
    vcat = build_catalog(emb.codomain)
    edge = build_catalog(emb.domain).classes
    index = emb.codomain.index
    image = [index[emb.apply(a)] for a in emb.domain.elements]
    images = [frozenset(map(image.__getitem__, k.members[0])) for k in edge]
    table = [[_mark(k, h.members[0]) for k in edge] for h in edge]
    cols = []
    for rep in vcat.classes:
        col = [0] * len(edge)
        for j in range(len(edge)):
            rest = _mark(rep, images[j]) - sum(
                c * t for c, t in zip(col, table[j]))
            col[j], left = divmod(rest, table[j][j])
            assert left == 0 and col[j] >= 0, "marks give no orbit counts"
        total = sum(m * k.index for m, k in zip(col, edge))
        assert total == rep.index, "orbit degrees fail to add up"
        cols.append(col)
    return RestrictionMatrix(tuple(zip(*cols)))

