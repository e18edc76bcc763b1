"""Catalogs of transitive actions and their restriction matrices.

A finite group has one equivalence class of transitive permutation
representations per conjugacy class of subgroups (the coset actions).  The
catalog lists them in the canonical class order together with their degrees
and the automorphism count of each coset space, which is the index of the
stabilizer in its normalizer, not the degree.  Restricting a coset action
along an embedded subgroup splits it into orbits; counting those orbits by
their stabilizer class gives an integer matrix, the basic ingredient of the
growth linear program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import EmbeddingError, InputError
from .groups import (FiniteGroup, _coset_partition, _prime_order,
                     _subgroup_elements, conjugacy_class, orbit_minima,
                     subgroup_class_map, subgroup_classes)
from .perm import Perm, identity


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
    mapping = {domain.identity_element(): identity(target_degree)}
    frontier = [domain.identity_element()]
    while frontier:
        new = []
        for e in frontier:
            fe = mapping[e]
            for g, m in zip(gens, images):
                f = e * g
                fim = fe * m
                known = mapping.get(f)
                if known is None:
                    mapping[f] = fim
                    new.append(f)
                elif known != fim:
                    raise EmbeddingError(
                        f"not a homomorphism: conflicting images at {f} "
                        f"(via generator {g} -> {m})")
        frontier = new
    if len(mapping) != domain.order:
        raise EmbeddingError("generators do not generate the domain group")
    return mapping


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


def identity_embedding(g: FiniteGroup) -> EmbeddingMap:
    return EmbeddingMap(g, g, g.generators)


@dataclass(frozen=True)
class RepCatalog:
    """The transitive representation classes of a group: the action on the
    cosets of each subgroup class, whose index is the degree."""

    group: FiniteGroup      # the instance whose tables the lattice built
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
    return RepCatalog(g, classes)


@dataclass(frozen=True)
class RestrictionMatrix:
    """rows[j][i] = multiplicity of edge class j in the restriction of
    vertex class i along the embedding."""

    rows: tuple

    def apply(self, vec) -> tuple:
        """The edge-class multiplicities induced by vertex multiplicities."""
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in self.rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)


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
    edge = emb.domain
    # the catalog's group is the instance whose tables the lattice built;
    # an equal copy (another vertex carrying the same group) has none
    index, mult, _ = vcat.group.tables()
    # left multiplication by the image of each edge element
    left = {a: mult[index[emb.apply(a)]] for a in edge.elements}
    lookup = subgroup_class_map(edge)
    gen_count = len(ecat)
    cols = []
    for rep in vcat.classes:
        cosets, coset_of = _coset_partition(
            vcat.group, rep.representative.element_set())
        act = {a: tuple(coset_of[row[c[0]]] for c in cosets)
               for a, row in left.items()}
        gens = [act[a] for a in emb.generators]
        col = [0] * gen_count
        for p in orbit_minima(rep.index, gens):
            stab = frozenset(a for a in edge.elements if act[a][p] == p)
            col[lookup[stab]] += 1
        total = sum(m * ecat.classes[j].index for j, m in enumerate(col))
        assert total == rep.index, "orbit degrees fail to add up"
        cols.append(col)
    rows = tuple(tuple(cols[i][j] for i in range(len(cols)))
                 for j in range(gen_count))
    return RestrictionMatrix(rows)


def fixed_point_multiplicity(g: FiniteGroup, u, x: Perm) -> int:
    """Number of cosets of u fixed by x: |g| |[x] n u| / (|u| |[x]|).

    Valid for any x; the operation insists on prime order because that is
    the only case the growth program consumes.
    """
    if x not in g:
        raise InputError(f"{x} is not an element of the group")
    _prime_order(x)
    members = _subgroup_elements(g, u)
    cls = conjugacy_class(g, x)
    value = Fraction(g.order * len(cls & members), len(members) * len(cls))
    assert value.denominator == 1
    return int(value)
