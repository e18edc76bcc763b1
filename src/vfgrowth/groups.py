"""Finite permutation groups stored by full element enumeration.

Everything here is exact and deterministic: element lists are sorted
lexicographically by image tuples, subgroup lists and conjugacy-class lists
come out in a canonical order, and repeated runs produce identical data.
Groups are small (at most DEFAULT_GROUP_CAP elements, and at most
DEFAULT_SUBGROUP_CAP for the subgroup lattice), so brute force over
elements is the method of choice throughout.  Once a group is generated,
the subgroup lattice, the class canonicalization and the coset actions
multiply element indices in its tables (``FiniteGroup.tables``), not
``Perm`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, isqrt

from .errors import CapExceeded, InputError
from .perm import Perm, from_cycles, identity

DEFAULT_GROUP_CAP = 10000
DEFAULT_SUBGROUP_CAP = 1000


def _close_perms(gens, degree, cap):
    """Closure of a generator list under multiplication (breadth first)."""
    e = identity(degree)
    elems = {e}
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    if len(elems) >= cap:
                        raise CapExceeded(f"group too large: more than {cap} elements")
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


class FiniteGroup:
    """A finite permutation group of fixed degree with its full element list.

    Instances are immutable by convention; equality and hashing go by
    (degree, elements), so two routes to the same group compare equal.
    """

    __slots__ = ("degree", "generators", "elements", "order",
                 "_set", "_hash", "_tables", "_subgroup_cache")

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._set = frozenset(self.elements)
        self._hash = hash((degree, self.elements))
        self._tables = None
        self._subgroup_cache = None

    def __contains__(self, p) -> bool:
        return p in self._set

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.degree == other.degree
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"<group of order {self.order} on {self.degree} points, gens {gens}>"

    def identity_element(self) -> Perm:
        return identity(self.degree)

    def element_set(self) -> frozenset:
        return self._set

    # -- index tables -----------------------------------------------------

    def tables(self):
        """(index map, multiplication table, inverse table) over 0..order-1.

        Only the generators' rows are computed from image tuples.  Every
        other row follows by a breadth-first walk of the Cayley graph,
        since row(x*s) = row(x) composed with row(s) needs only integer
        indexing.
        """
        if self._tables is None:
            elements = self.elements
            index = {p: i for i, p in enumerate(elements)}
            by_images = {p.images: i for i, p in enumerate(elements)}
            gen_rows = []       # (s, the index of s*t for every t)
            for s in self.generators:
                images = s.images
                gen_rows.append((index[s], [
                    by_images[tuple(images[k] for k in t.images)]
                    for t in elements]))
            e = index[self.identity_element()]
            mult = [None] * self.order
            mult[e] = list(range(self.order))
            frontier = [e]
            while frontier:
                new = []
                for x in frontier:
                    row = mult[x]
                    for s, srow in gen_rows:
                        y = row[s]
                        if mult[y] is None:
                            mult[y] = [row[t] for t in srow]
                            new.append(y)
                frontier = new
            inv = [row.index(e) for row in mult]
            self._tables = (index, mult, inv)
        return self._tables

    def subgroup(self, members) -> "FiniteGroup":
        """The subgroup with the given element set, with a small derived
        generating list (greedy over the sorted elements)."""
        members = sorted(_subgroup_elements(self, members))
        gens = []
        closure = {identity(self.degree)}
        for m in members:
            if m not in closure:
                gens.append(m)
                # every member ends up in the closure, so a closure no
                # larger than the set is the set
                try:
                    closure = _close_perms(gens, self.degree, len(members))
                except CapExceeded:
                    raise InputError("element set is not closed under "
                                     "multiplication") from None
        return FiniteGroup(self.degree, gens, members)


def generate(gens, degree: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Group generated by ``gens`` inside the symmetric group on ``degree``
    points.  Raises CapExceeded ("group too large") past ``max_order``."""
    gens = [g if isinstance(g, Perm) else Perm(g) for g in gens]
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} does not match {degree}")
    gens = [g for g in gens if not g.is_identity()]
    elems = _close_perms(gens, degree, max_order)
    return FiniteGroup(degree, gens, elems)


# -- standard groups ------------------------------------------------------

def trivial_group(degree: int = 1) -> FiniteGroup:
    return FiniteGroup(degree, (), (identity(degree),))


def _check_known_order(order: int, max_order: int) -> int:
    """Named constructors know their order up front; reject oversized
    requests before enumerating anything."""
    if order > max_order:
        raise CapExceeded(
            f"group too large: order {order} exceeds cap {max_order}")
    return order


def cyclic_group(n: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic group order must be at least 1")
    _check_known_order(n, max_order)
    if n == 1:
        return trivial_group()
    return generate([from_cycles([tuple(range(n))], n)], n, max_order=n)


def symmetric_group(k: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if k < 1:
        raise InputError("symmetric group degree must be at least 1")
    _check_known_order(factorial(k), max_order)
    if k == 1:
        return trivial_group()
    gens = [from_cycles([(0, 1)], k)]
    if k > 2:
        gens.append(from_cycles([tuple(range(k))], k))
    return generate(gens, k, max_order=factorial(k))


def alternating_group(k: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if k < 1:
        raise InputError("alternating group degree must be at least 1")
    _check_known_order(factorial(k) // 2 if k > 2 else 1, max_order)
    if k <= 2:
        return trivial_group(k)
    gens = [from_cycles([(0, 1, 2)], k)]
    if k > 3:
        # the long even cycle: all points for odd k, all but the first for even
        cyc = tuple(range(k)) if k % 2 else tuple(range(1, k))
        gens.append(from_cycles([cyc], k))
    return generate(gens, k, max_order=factorial(k) // 2)


def dihedral_group(n: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Dihedral group of order 2n acting on the n vertices of a polygon."""
    if n < 3:
        raise InputError("dihedral group needs at least 3 points")
    _check_known_order(2 * n, max_order)
    rot = from_cycles([tuple(range(n))], n)
    ref = Perm(tuple((n - i) % n for i in range(n)))
    return generate([rot, ref], n, max_order=2 * n)


def klein_four() -> FiniteGroup:
    return generate([from_cycles([(0, 1), (2, 3)], 4),
                     from_cycles([(0, 2), (1, 3)], 4)], 4, max_order=4)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    d = g.degree + h.degree
    gens = [Perm(p.images + tuple(range(g.degree, d))) for p in g.generators]
    gens += [Perm(tuple(range(g.degree)) + tuple(q + g.degree for q in p.images))
             for p in h.generators]
    return generate(gens, d, max_order=g.order * h.order)


# -- element-level operations ---------------------------------------------

def _require_member(g: FiniteGroup, x: Perm):
    if x not in g:
        raise InputError(f"{x} is not an element of the group")


def conjugacy_class(g: FiniteGroup, x: Perm) -> frozenset:
    _require_member(g, x)
    orbit = {x}
    frontier = [x]
    while frontier:
        new = []
        for y in frontier:
            for s in g.generators:
                z = s * y * s.inverse()
                if z not in orbit:
                    orbit.add(z)
                    new.append(z)
        frontier = new
    return frozenset(orbit)


def centralizer(g: FiniteGroup, x: Perm) -> FiniteGroup:
    _require_member(g, x)
    members = [a for a in g.elements if a * x == x * a]
    return g.subgroup(members)


def _subgroup_elements(g: FiniteGroup, u) -> frozenset:
    """The member set of a subgroup of g, given as a SubgroupClass, a
    FiniteGroup, or an iterable of Perm."""
    if isinstance(u, SubgroupClass):
        u = u.representative
    if isinstance(u, FiniteGroup):
        if u.degree != g.degree:
            raise InputError("subgroup degree does not match the group")
        members = u.element_set()
    else:
        members = frozenset(u)
    if not members <= g.element_set():
        raise InputError("not a subgroup: elements fall outside the group")
    if g.identity_element() not in members:
        raise InputError("subgroup must contain the identity")
    if g.order % len(members):
        raise InputError("not a subgroup: order does not divide the group order")
    return members


def normalizer(g: FiniteGroup, u) -> FiniteGroup:
    members = _subgroup_elements(g, u)
    out = []
    for a in g.elements:
        ai = a.inverse()
        if all(a * x * ai in members for x in members):
            out.append(a)
    return g.subgroup(out)


def _left_cosets(mult, sub, ambient):
    """Left cosets yH of the subgroup H with element indices ``sub``
    inside the subgroup with element indices ``ambient`` (ascending, so
    starting at the identity, index 0): the cosets as index lists,
    numbered by their least element, and the list mapping each element of
    ``ambient`` to its coset number."""
    coset_of = [None] * len(mult)
    cosets = []
    for y in ambient:
        if coset_of[y] is None:
            row = mult[y]
            coset = [row[x] for x in sub]
            for z in coset:
                coset_of[z] = len(cosets)
            cosets.append(coset)
    return cosets, coset_of


@lru_cache(maxsize=None)
def _coset_partition(g: FiniteGroup, members: frozenset):
    """Left cosets of the subgroup with the given elements, over element
    indices (see _left_cosets).

    Cosets are numbered by their minimal element, so the coset of the
    identity (the subgroup itself) is point 0 and the point stabilizer of
    0 is exactly the subgroup.
    """
    index, mult, _ = g.tables()
    return _left_cosets(mult, [index[x] for x in members], range(g.order))


def coset_perm(g: FiniteGroup, u, h: Perm) -> Perm:
    """Image of the single element h in the coset action of g on g/u."""
    _require_member(g, h)
    cosets, coset_of = _coset_partition(g, _subgroup_elements(g, u))
    index, mult, _ = g.tables()
    row = mult[index[h]]
    return Perm(tuple(coset_of[row[c[0]]] for c in cosets))


def coset_action(g: FiniteGroup, u) -> dict:
    """The action of g on the left cosets of u, as a map element -> Perm."""
    cosets, coset_of = _coset_partition(g, _subgroup_elements(g, u))
    _, mult, _ = g.tables()
    return {a: Perm(tuple(coset_of[row[c[0]]] for c in cosets))
            for a, row in zip(g.elements, mult)}


# -- subgroup enumeration -------------------------------------------------

def _least_prime(n: int) -> int:
    """The least prime dividing n (n itself when n is prime or 1)."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _is_prime(n: int) -> bool:
    return n >= 2 and _least_prime(n) == n


def _is_prime_power(m: int) -> bool:
    # m divides a power of its least prime p (p^a with a >= log2 m) exactly
    # when p is its only prime factor
    return m >= 2 and _least_prime(m) ** m.bit_length() % m == 0


def _prime_order(x: Perm) -> int:
    """The order of x, which must be prime."""
    p = x.order()
    if not _is_prime(p):
        raise InputError(f"element must have prime order, got order {p}")
    return p


def _extend(cosets, coset_of, rows, limit):
    """<H, a> as the union of the left cosets of H that it contains.

    ``cosets``/``coset_of`` are the left cosets of H (see _left_cosets)
    and ``rows`` the multiplication-table rows of the generators of H and
    of a.  The cosets of H inside <H, a> are the orbit of H under left
    multiplication by those generators.  Past ``limit`` cosets, that is
    more than |A|/p elements of the ambient group A the cosets partition
    (p the least prime dividing |A|), <H, a> is all of A by Lagrange, and
    None is returned.
    """
    orbit = [0]
    seen = {0}
    for c in orbit:             # the orbit grows while it is walked
        y = cosets[c][0]
        for row in rows:
            d = coset_of[row[y]]
            if d not in seen:
                seen.add(d)
                orbit.append(d)
        if len(orbit) > limit:
            return None
    return frozenset().union(*map(cosets.__getitem__, orbit))


def _greedy_generators(mult, members) -> list:
    """The members, in index order, that the earlier ones do not generate:
    the generating list ``FiniteGroup.subgroup`` derives, from indices."""
    members = sorted(members)
    whole = frozenset(members)
    bound = len(members) // _least_prime(len(members))
    gens = []
    span = frozenset(members[:1])
    for m in members:
        if m not in span:
            gens.append(m)
            cosets, coset_of = _left_cosets(mult, span, members)
            span = _extend(cosets, coset_of, [mult[s] for s in gens],
                           bound // len(span)) or whole
    return gens


def _subgroup_index_sets(g: FiniteGroup) -> tuple:
    """All subgroups as frozensets of element indices, one tuple per
    conjugacy class (cached per group)."""
    if g._subgroup_cache is not None:
        return g._subgroup_cache
    # the one check of the subgroup cap: the |G|^2 table and the lattice
    # search below are what it bounds
    if g.order > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"group too large: order {g.order} exceeds "
                          f"subgroup cap {DEFAULT_SUBGROUP_CAP}")
    index, mult, inv = g.tables()
    id_idx = index[identity(g.degree)]
    cyclic = {}
    for a in range(g.order):
        if a == id_idx:
            continue
        powers = [id_idx]
        x = a
        while x != id_idx:
            powers.append(x)
            x = mult[x][a]
        cyclic.setdefault(frozenset(powers), a)
    # Extending a known subgroup by one element of prime power order reaches
    # every subgroup: a maximal proper subgroup plus any outside element of
    # prime power order generates the whole thing.  It suffices to extend
    # one representative per conjugacy class — conjugating the reached
    # subgroup recovers the rest of its class, and the chain argument
    # transports along conjugation.
    ext = sorted(a for key, a in cyclic.items() if _is_prime_power(len(key)))
    bound = g.order // _least_prime(g.order)
    whole = frozenset(range(g.order))
    # conjugation x -> s^-1 x s by each group generator s, as an index map
    conj = [[mult[mult[inv[s]][x]][s] for x in range(g.order)]
            for s in (index[p] for p in g.generators)]
    trivial = frozenset([id_idx])
    known = {trivial}
    orbits = [(trivial,)]
    reps = [(trivial, ())]
    for members, gens in reps:  # reps grows while it is walked
        cosets, coset_of = _left_cosets(mult, members, range(g.order))
        limit = bound // len(members)
        for a in ext:
            if a in members:
                continue
            newgens = gens + (a,)
            new = _extend(cosets, coset_of, [mult[s] for s in newgens],
                          limit) or whole
            if new in known:
                continue
            # conjugating by the group generators walks the whole class;
            # a conjugate already known would put new in an earlier class
            known.add(new)
            orbit = [new]
            for cur in orbit:
                for c in conj:
                    image = frozenset(map(c.__getitem__, cur))
                    if image not in known:
                        known.add(image)
                        orbit.append(image)
            orbits.append(tuple(orbit))
            reps.append((new, newgens))
    g._subgroup_cache = tuple(orbits)
    return g._subgroup_cache


def all_subgroups(g: FiniteGroup) -> list:
    """Every subgroup, as frozensets of Perm, largest first then by sorted
    image tuples.  Exhaustive, so the group order is capped."""
    out = [frozenset(g.elements[i] for i in members)
           for orbit in _subgroup_index_sets(g) for members in orbit]
    out.sort(key=lambda s: (-len(s), tuple(sorted(p.images for p in s))))
    return out


@dataclass(frozen=True, eq=False)
class SubgroupClass:
    """One conjugacy class of subgroups of a fixed parent group."""

    class_id: int
    representative: FiniteGroup
    order: int
    index: int
    normalizer_order: int
    aut_count: int          # (normalizer : subgroup)
    class_size: int
    members: tuple = field(repr=False, default=())

    def __str__(self) -> str:
        gens = ", ".join(str(p) for p in self.representative.generators) or "()"
        return f"class {self.class_id + 1}: <{gens}> order {self.order} index {self.index}"


def orbit_minima(degree: int, images) -> list:
    """The least point of each orbit of the group generated by the
    permutations with the given image tuples on 0..degree-1, in ascending
    order."""
    seen = [False] * degree
    minima = []
    for start in range(degree):
        if seen[start]:
            continue
        minima.append(start)
        seen[start] = True
        stack = [start]
        while stack:
            p = stack.pop()
            for m in images:
                q = m[p]
                if not seen[q]:
                    seen[q] = True
                    stack.append(q)
    return minima


@lru_cache(maxsize=None)
def subgroup_classes(g: FiniteGroup) -> tuple:
    """Conjugacy classes of subgroups in a canonical deterministic order.

    Classes are sorted by descending order of the class core (the largest
    normal subgroup inside every member), then descending subgroup order,
    then ascending number of point orbits of a member, then by the minimal
    sorted element-set.  This refinement pins a reproducible order even
    between classes that share an order.
    """
    orbits = _subgroup_index_sets(g)
    mult = g.tables()[1]
    keyed = []
    for orbit in orbits:
        # the element list is sorted, so index order is image order
        orbit = sorted(orbit, key=sorted)
        members = tuple(frozenset(g.elements[i] for i in s) for s in orbit)
        core = frozenset.intersection(*orbit)
        key = (-len(core), -len(orbit[0]),
               len(orbit_minima(g.degree, [p.images for p in members[0]])), sorted(orbit[0]))
        keyed.append((key, orbit[0], members))
    keyed.sort(key=lambda item: item[0])

    classes = []
    for class_id, (_, first, members) in enumerate(keyed):
        gens = [g.elements[i] for i in _greedy_generators(mult, first)]
        order = len(members[0])
        normalizer_order = g.order // len(members)
        classes.append(SubgroupClass(
            class_id=class_id,
            representative=FiniteGroup(g.degree, gens, members[0]),
            order=order,
            index=g.order // order,
            normalizer_order=normalizer_order,
            aut_count=normalizer_order // order,
            class_size=len(members),
            members=members,
        ))
    return tuple(classes)


@lru_cache(maxsize=None)
def subgroup_class_map(g: FiniteGroup) -> dict:
    """Map every subgroup element-set of g to its class_id."""
    lookup = {}
    for cls in subgroup_classes(g):
        for members in cls.members:
            lookup[members] = cls.class_id
    return lookup
