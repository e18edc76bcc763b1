"""Finite permutation groups stored by full element enumeration.

Everything here is exact and deterministic: element lists are sorted
lexicographically by image tuples, subgroup lists and conjugacy-class lists
come out in a canonical order, and repeated runs produce identical data.
Groups are small (at most DEFAULT_GROUP_CAP elements, and at most
DEFAULT_SUBGROUP_CAP for the subgroup lattice), so brute force over
elements is the method of choice throughout.  The only ``Perm`` products
are in ``cayley_walk``: it generates a group, and ``walk_images`` composes
generator images along it, which is how homomorphisms are extended
(``catalog.extend_hom`` and the brute-force counter in ``oracle``).  Once a
group is generated, the subgroup lattice, the class canonicalization and
the coset actions multiply element indices in its tables
(``FiniteGroup.tables``), and a subgroup is a frozenset of positions in the
parent's sorted ``elements`` (so equal groups share them) from the lattice
through ``SubgroupClass.members`` to restriction; only ``all_subgroups``
maps them back to ``Perm`` sets.  The tables are stored on the group and
the lattice once, in the cache of ``subgroup_classes``, whose classes name
the instance they were built on (``SubgroupClass.parent``); coset
partitions are recomputed by whoever needs them.  The lattice is also the
one judge of what a subgroup is and what normalizes it: a subgroup given
as elements is looked up in it (``_subgroup_class``), and normalizer
orders are its classes' ``normalizer_order``.

The lattice is the cyclic extension method (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005): every subgroup is
<H, a> for a subgroup H one step below it and an element a of prime-power
order.  Only one representative H per conjugacy class is extended, and
only by one cyclic subgroup <a> per orbit of the normalizer N_G(H), since
<H, a^n> = <H, a>^n lies in the class of <H, a> for n in N_G(H).  The
generators of N_G(H) are Schreier elements of the conjugation walk that
found the class of H, so no normalizer is searched for.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, isqrt

from .errors import CapExceeded, InputError
from .perm import Perm, from_cycles, identity

DEFAULT_GROUP_CAP = 10000
DEFAULT_SUBGROUP_CAP = 1000
# trial division up to 10**6: a prime at the cap takes about 0.1 s
PRIME_TEST_CAP = 10 ** 12


def cayley_walk(gens, degree: int, cap: int) -> tuple:
    """Breadth-first walk of the Cayley graph of the group that the ``Perm``
    list ``gens`` generates on ``degree`` points, from the identity: (walk
    position of every element, steps).  A step (x, k, y, tree) says that
    the element at position x times ``gens[k]`` is the element at y, with
    tree true where that first reaches y; every edge of the graph is one
    step, in the order the walk meets it.  Raises CapExceeded ("group too
    large") past ``cap`` elements."""
    e = identity(degree)
    at = {e: 0}
    walk = [e]
    steps = []
    for i, x in enumerate(walk):    # walk grows while it is walked
        for k, s in enumerate(gens):
            y = x * s
            j = at.get(y)
            tree = j is None
            if tree:
                if len(at) >= cap:
                    raise CapExceeded(
                        f"group too large: more than {cap} elements")
                j = at[y] = len(walk)
                walk.append(y)
            steps.append((i, k, j, tree))
    return at, steps


def walk_images(steps, size: int, gen_images, degree: int) -> tuple:
    """Images along a Cayley walk (see ``cayley_walk``) of ``size``
    elements, given the image tuple of each generator on ``degree``
    points: (image tuple of every walk position, None).  Each tree step
    composes its generator's image onto the image it starts from; every
    other step must reproduce the image already there, and at the first
    that does not the answer is (None, (y, k)) for that step."""
    images = [tuple(range(degree))] * size
    for x, k, y, tree in steps:
        img = images[x]
        z = tuple([img[t] for t in gen_images[k]])
        if tree:
            images[y] = z
        elif images[y] != z:
            return None, (y, k)
    return images, None


class FiniteGroup:
    """A finite permutation group of fixed degree with its full element list.

    Instances are immutable by convention; equality and hashing go by
    (degree, elements), so two routes to the same group compare equal.
    ``elements`` is sorted by image tuple, so the identity is always
    ``elements[0]`` and has index 0 in the tables.
    """

    __slots__ = ("degree", "generators", "elements", "order",
                 "_set", "_hash", "_tables")

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._set = frozenset(self.elements)
        self._hash = hash((degree, self.elements))
        self._tables = None

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
            mult = [None] * self.order
            mult[0] = list(range(self.order))
            frontier = [0]
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
            inv = [row.index(0) for row in mult]
            self._tables = (index, mult, inv)
        return self._tables


def generate(gens, degree: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Group generated by ``gens`` inside the symmetric group on ``degree``
    points.  Raises CapExceeded ("group too large") past ``max_order``."""
    gens = [g if isinstance(g, Perm) else Perm(g) for g in gens]
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} does not match {degree}")
    gens = [g for g in gens if not g.is_identity()]
    return FiniteGroup(degree, gens, cayley_walk(gens, degree, max_order)[0])


# -- standard groups ------------------------------------------------------

def trivial_group(degree: int = 1) -> FiniteGroup:
    return FiniteGroup(degree, (), (identity(degree),))


def _digit_limit() -> int:
    """Python's int-to-string digit limit: 4300 by default, 0 for none (as
    before 3.10.7).  Sym(k) passes it from k = 1559 on."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _decimal(digits: str, refusal) -> int:
    """int() of a decimal string, leading zeros ignored; one longer than
    the digit limit raises ``refusal(limit)`` in place of int()'s
    ValueError."""
    digits = digits.lstrip("0") or "0"
    limit = _digit_limit()
    if limit and len(digits) > limit:
        raise refusal(limit)
    return int(digits)


def _order_past_digit_limit(limit: int, max_order: int) -> CapExceeded:
    """The refusal of an order too long for Python to print; a cap too
    long to print is worded the same way."""
    cap = f"of more than {limit} digits" if max_order >= 10 ** limit \
        else max_order
    return CapExceeded(f"group too large: order of more than {limit} digits "
                       f"exceeds cap {cap}")


def _check_known_order(order: int, max_order: int) -> int:
    """Named constructors know their order up front; reject oversized
    requests before enumerating anything."""
    if order > max_order:
        limit = _digit_limit()
        if limit and order >= 10 ** limit:
            raise _order_past_digit_limit(limit, max_order)
        raise CapExceeded(
            f"group too large: order {order} exceeds cap {max_order}")
    return order


def _known_order_product(lo: int, hi: int, max_order: int) -> int:
    """lo * (lo + 1) * ... * hi, the order of Sym(hi) (lo = 2) or Alt(hi)
    (lo = 3).  Multiplying stops once the product is past both max_order
    and the printable-digit limit: ``_check_known_order`` then refuses it
    with the same words as the full product, so Sym(1000000) is refused
    after about 1560 factors, not a million."""
    limit = _digit_limit()
    stop = max(max_order, 10 ** limit - 1) if limit else None
    order = 1
    for i in range(lo, hi + 1):
        order *= i
        if stop is not None and order > stop:
            break
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
    _check_known_order(_known_order_product(2, k, max_order), max_order)
    if k == 1:
        return trivial_group()
    gens = [from_cycles([(0, 1)], k)]
    if k > 2:
        gens.append(from_cycles([tuple(range(k))], k))
    return generate(gens, k, max_order=factorial(k))


def alternating_group(k: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if k < 1:
        raise InputError("alternating group degree must be at least 1")
    _check_known_order(_known_order_product(3, k, max_order), max_order)
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


# -- subgroup enumeration -------------------------------------------------

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


def _least_prime(n: int) -> int:
    """The least prime dividing n (n itself when n is prime or 1), by
    trial division up to the square root of PRIME_TEST_CAP; a larger n
    with no divisor that small is refused."""
    top = isqrt(min(n, PRIME_TEST_CAP))
    d = next((d for d in range(2, top + 1) if n % d == 0), n)
    if d == n and n > PRIME_TEST_CAP:
        raise CapExceeded(f"prime test capped at {PRIME_TEST_CAP}, "
                          f"got a larger number")
    return d


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
    the representative's generating list in ``subgroup_classes``."""
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


def _span(mult, sub, gens):
    """The subgroup the element indices ``gens`` generate, given the set
    ``sub`` that all of them but the last generate, as a set: the union of
    the left cosets of ``sub`` that the generators reach from it by left
    multiplication."""
    span = set(sub)
    reps = [0]
    for y in reps:              # reps grows while it is walked
        for s in gens:
            z = mult[s][y]
            if z not in span:
                row = mult[z]
                span.update([row[x] for x in sub])
                reps.append(z)
    return span


def _class_and_normalizer(mult, inv, gens, conj, members):
    """The conjugacy class of the subgroup H with element indices
    ``members``, walked by conjugating with the group generators ``gens``
    (``conj`` holds x -> s^-1 x s for each), and generators of N_G(H).

    The walk keeps, for the i-th conjugate, the product t_i of generators
    that conjugates H to it.  Each step i --s--> j that reaches a conjugate
    already seen gives the Schreier element t_i s t_j^-1, which normalizes
    H, and these generate N_G(H) (Schreier's lemma).  One is kept only
    when it lies outside the span of those kept before it, so at most
    log2 |N_G(H)| are kept; orbit-stabilizer checks their span."""
    orbit = [members]
    at = {members: 0}
    walk = [0]
    normal = []
    span = {0}
    for i, cur in enumerate(orbit):     # orbit grows while it is walked
        row = mult[walk[i]]
        for s, c in zip(gens, conj):
            image = frozenset(map(c.__getitem__, cur))
            j = at.get(image)
            if j is None:
                at[image] = len(orbit)
                orbit.append(image)
                walk.append(row[s])
            else:
                n = mult[row[s]][inv[walk[j]]]
                if n not in span:
                    normal.append(n)
                    span = _span(mult, span, normal)
    assert len(span) * len(orbit) == len(mult), \
        "normalizer fails orbit-stabilizer"
    return orbit, normal


def _subgroup_index_sets(g: FiniteGroup) -> tuple:
    """All subgroups as frozensets of element indices, one tuple per
    conjugacy class."""
    # the one check of the subgroup cap: the |G|^2 table and the lattice
    # search below are what it bounds
    if g.order > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"group too large: order {g.order} exceeds "
                          f"subgroup cap {DEFAULT_SUBGROUP_CAP}")
    index, mult, inv = g.tables()
    # each cyclic subgroup stands by its least generator, least[<x>], and
    # cyclic[x] is the one standing for <x>
    least = {}
    cyclic = [0] * g.order
    for a in range(1, g.order):
        powers = [0]
        x = a
        while x:
            powers.append(x)
            x = mult[x][a]
        cyclic[a] = least.setdefault(frozenset(powers), a)
    # Extending a known subgroup by one element of prime power order reaches
    # every subgroup: a maximal proper subgroup plus any outside element of
    # prime power order generates the whole thing.  It suffices to extend
    # one representative H per conjugacy class (conjugating the reached
    # subgroup recovers the rest of its class, and the chain argument
    # transports along conjugation), and H by one cyclic subgroup per orbit
    # of N_G(H): for n in N_G(H), <H, a^n> = <H, a>^n is in the same class.
    # N_G(H) comes from the Schreier elements of the walk that found the
    # class of H (see _class_and_normalizer).
    ext = sorted(a for key, a in least.items() if _is_prime_power(len(key)))
    bound = g.order // _least_prime(g.order)
    whole = frozenset(range(g.order))
    gens = [index[p] for p in g.generators]
    # conjugation x -> s^-1 x s by each group generator s, as an index map
    conj = [[mult[mult[inv[s]][x]][s] for x in range(g.order)]
            for s in gens]
    trivial = frozenset([0])
    orbit, normal = _class_and_normalizer(mult, inv, gens, conj, trivial)
    known = set(orbit)
    orbits = [tuple(orbit)]
    reps = [(trivial, (), normal)]
    for members, hgens, normal in reps:     # reps grows while it is walked
        cosets, coset_of = _left_cosets(mult, members, range(g.order))
        limit = bound // len(members)
        by = [(mult[inv[n]], n) for n in normal]
        seen = set()
        for a in ext:
            if a in members or a in seen:
                continue
            # a stands for its orbit under conjugation by N_G(H), which
            # keeps the orbit outside H
            seen.add(a)
            todo = [a]
            for b in todo:              # todo grows while it is walked
                for left, n in by:
                    c = cyclic[mult[left[b]][n]]
                    if c not in seen:
                        seen.add(c)
                        todo.append(c)
            newgens = hgens + (a,)
            new = _extend(cosets, coset_of, [mult[s] for s in newgens],
                          limit) or whole
            if new in known:
                continue
            # a conjugate already known would put new in an earlier class
            orbit, normal = _class_and_normalizer(mult, inv, gens, conj, new)
            known.update(orbit)
            orbits.append(tuple(orbit))
            reps.append((new, newgens, normal))
    return tuple(orbits)


def all_subgroups(g: FiniteGroup) -> list:
    """Every subgroup, as frozensets of Perm, largest first then by sorted
    image tuples.  Exhaustive, so the group order is capped."""
    # the element list is sorted, so index order is image order
    out = sorted((s for cls in subgroup_classes(g) for s in cls.members),
                 key=lambda s: (-len(s), sorted(s)))
    return [frozenset(map(g.elements.__getitem__, s)) for s in out]


@dataclass(frozen=True, eq=False)
class SubgroupClass:
    """One conjugacy class of subgroups of a fixed parent group; ``members``
    are its subgroups as index sets into the parent's sorted ``elements``,
    the representative's set first.  ``parent`` is the instance the lattice
    ran on, so its tables are built; an equal copy may have none."""

    class_id: int
    representative: FiniteGroup
    order: int
    index: int
    normalizer_order: int
    aut_count: int          # (normalizer : subgroup)
    class_size: int
    parent: FiniteGroup = field(repr=False)
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
    orbits = _subgroup_index_sets(g)    # checks the subgroup cap first
    elements = g.elements
    mult = g.tables()[1]

    def key(members):
        first = members[0]
        images = [elements[i].images for i in first]
        return (-len(frozenset.intersection(*members)), -len(first),
                len(orbit_minima(g.degree, images)), sorted(first))
    # the element list is sorted, so index order is image order
    orbits = sorted((tuple(sorted(orbit, key=sorted)) for orbit in orbits),
                    key=key)
    classes = []
    for class_id, members in enumerate(orbits):
        first = members[0]
        gens = [elements[i] for i in _greedy_generators(mult, first)]
        order = len(first)
        normalizer_order = g.order // len(members)
        classes.append(SubgroupClass(
            class_id=class_id,
            representative=FiniteGroup(g.degree, gens,
                                       map(elements.__getitem__, first)),
            order=order,
            index=g.order // order,
            normalizer_order=normalizer_order,
            aut_count=normalizer_order // order,
            class_size=len(members),
            parent=g,
            members=members,
        ))
    return tuple(classes)


# -- subgroups given by their elements ------------------------------------

def _subgroup_class(g: FiniteGroup, u) -> tuple:
    """The class in ``subgroup_classes(g)`` of a subgroup u of g, given as
    a SubgroupClass, a FiniteGroup or an iterable of Perm, and u's element
    index set in the class parent's tables.  The lattice holds every
    subgroup, so a set it does not hold is not closed under
    multiplication."""
    if isinstance(u, SubgroupClass):
        if u.parent == g:
            return u, u.members[0]
        u = u.representative
    if isinstance(u, FiniteGroup):
        if u.degree != g.degree:
            raise InputError("subgroup degree does not match the group")
        u = u.elements
    members = frozenset(u)
    if not all(x in g for x in members):
        raise InputError("not a subgroup: elements fall outside the group")
    if g.elements[0] not in members:
        raise InputError("subgroup must contain the identity")
    if g.order % len(members):
        raise InputError("not a subgroup: order does not divide the group order")
    classes = subgroup_classes(g)
    index = classes[0].parent.tables()[0]
    sub = frozenset(index[x] for x in members)
    for cls in classes:
        if cls.order == len(sub) and sub in cls.members:
            return cls, sub
    raise InputError("element set is not closed under multiplication")


def coset_action(g: FiniteGroup, u) -> dict:
    """The action of g on the left cosets of u, as a map element -> Perm."""
    cls, sub = _subgroup_class(g, u)
    mult = cls.parent.tables()[1]
    cosets, coset_of = _left_cosets(mult, sub, range(g.order))
    return {a: Perm(tuple(coset_of[row[c[0]]] for c in cosets))
            for a, row in zip(g.elements, mult)}
