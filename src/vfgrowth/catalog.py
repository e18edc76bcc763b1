"""Catalogs of transitive actions and their restriction matrices.

A finite group has one equivalence class of transitive permutation
representations per conjugacy class of subgroups (the coset actions).  The
catalog lists them in the canonical class order together with their degrees
and the automorphism count of each coset space, which is the index of the
stabilizer in its normalizer, not the degree.  Restricting a coset action
along an embedded subgroup splits it into orbits; counting those orbits by
their stabilizer class gives an integer matrix, the basic ingredient of the
growth linear program; its cosets and stabilizers are element-index sets,
like the ``members`` of the classes they are matched against.  An
embedding is given on generators and extended to every element along the
domain's Cayley walk (``groups.walk_images``); nothing here multiplies
``Perm`` objects, whose only products are in ``groups.cayley_walk``.
Fixed points are marks (Burnside): x fixes the coset tH exactly when x
lies in tHt^-1, and (N_G(H) : H) cosets give each conjugate, so x fixes
``aut_count`` cosets per member of H's class that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EmbeddingError, InputError
from .groups import (FiniteGroup, _left_cosets, _prime_order,
                     _subgroup_class, cayley_walk, orbit_minima,
                     subgroup_classes, walk_images)
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
    # the gens lie in the domain, so the walk stops within its order
    at, steps = cayley_walk(gens, domain.degree, domain.order)
    imgs, conflict = walk_images(steps, len(at), [m.images for m in images],
                                 target_degree)
    if conflict is not None:
        y, k = conflict
        raise EmbeddingError(
            f"not a homomorphism: conflicting images at {list(at)[y]} "
            f"(via generator {gens[k]} -> {images[k]})")
    if len(at) != domain.order:
        raise EmbeddingError("generators do not generate the domain group")
    return {x: Perm(img) for x, img in zip(at, imgs)}


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

    group: FiniteGroup      # the classes' parent: its tables are built
    classes: tuple          # subgroup_classes(group)

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
    # the cached classes may come from an equal instance; restriction reads
    # the tables the lattice built on it, not a second table on g
    return RepCatalog(classes[0].parent, classes)


@dataclass(frozen=True)
class RestrictionMatrix:
    """rows[j][i] = multiplicity of edge class j in the restriction of
    vertex class i along the embedding."""

    rows: tuple

    def apply(self, vec) -> tuple:
        """The edge-class multiplicities induced by vertex multiplicities."""
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in self.rows)


@lru_cache(maxsize=None)
def restriction_matrix(emb: EmbeddingMap) -> RestrictionMatrix:
    """Decompose each vertex representation class along the embedding.

    The edge group acts on each coset space through its embedded image; the
    orbits are classified by the class of their point stabilizers pulled
    back to the edge group.  Column sums weighted by edge degrees must
    reproduce the vertex degree, which is asserted.
    """
    vcat = build_catalog(emb.codomain)
    ecat = build_catalog(emb.domain)
    # the catalog's group is the instance the lattice ran on, so these
    # tables exist already, even when emb.codomain is an equal copy
    index, mult, _ = vcat.group.tables()
    # left multiplication by the image of each edge element, in the edge
    # group's element order, the order its classes' index sets count in
    edge = emb.domain.elements
    left = [mult[index[emb.apply(a)]] for a in edge]
    gens = [edge.index(a) for a in emb.generators]
    lookup = {members: cls.class_id
              for cls in ecat.classes for members in cls.members}
    gen_count = len(ecat)
    cols = []
    for rep in vcat.classes:
        cosets, coset_of = _left_cosets(mult, rep.members[0],
                                        range(vcat.group.order))
        act = [tuple(coset_of[row[c[0]]] for c in cosets) for row in left]
        col = [0] * gen_count
        for p in orbit_minima(rep.index, [act[i] for i in gens]):
            stab = frozenset(i for i, a in enumerate(act) if a[p] == p)
            col[lookup[stab]] += 1
        total = sum(m * ecat.classes[j].index for j, m in enumerate(col))
        assert total == rep.index, "orbit degrees fail to add up"
        cols.append(col)
    return RestrictionMatrix(tuple(zip(*cols)))


def fixed_point_multiplicity(g: FiniteGroup, u, x: Perm) -> int:
    """Number of cosets of u fixed by x, |g| |[x] n u| / (|u| |[x]|): the
    mark (N_G(u) : u) times the number of conjugates of u that hold x.

    Valid for any x; the operation insists on prime order because that is
    the only case the growth program consumes.
    """
    if x not in g:
        raise InputError(f"{x} is not an element of the group")
    _prime_order(x)
    cls, _ = _subgroup_class(g, u)
    ix = cls.parent.tables()[0][x]
    return cls.aut_count * sum(ix in m for m in cls.members)
