"""Finite permutation groups stored by full element enumeration.

Everything here is exact and deterministic: element lists are sorted
lexicographically by image tuples, subgroup lists and conjugacy-class lists
come out in a canonical order, and repeated runs produce identical data.
Groups are small (at most DEFAULT_GROUP_CAP elements, and at most
DEFAULT_SUBGROUP_CAP elements and DEFAULT_SUBGROUP_COUNT_CAP subgroups for
the subgroup lattice), so brute force over elements is the method of choice
throughout.  No ``Perm`` product is formed: ``walk`` is the one
breadth-first orbit routine.  ``cayley_walk`` runs it on
image tuples to generate a group, and ``walk_images`` extends homomorphisms
along such a walk; both compose each step in C, by one
``operator.itemgetter`` per generator image.  A group is built only from its
generators: the ``FiniteGroup`` constructor walks them once and takes its
elements from the walk, so a group's elements are what its generators
generate and no later use need check it.  A group numbers its elements
once, by their place in the sorted ``elements`` (``FiniteGroup.index``),
so equal groups number them alike, and every layer reads that numbering:
the constructor keeps the walk's steps renumbered by it
(``FiniteGroup.cayley``), and the tables, the lattice, restriction,
homomorphism extension and the brute-force counter index elements by it.

The multiplication table (``FiniteGroup.tables``, a ``Table``) is factored
over a point stabilizer, the first level of a Schreier-Sims base (Sims,
*Computational methods in the study of permutation groups*, 1970; Holt,
Eick and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).
K fixes the points 0..j-1, for the j that makes |T| + |K| least, and T
holds one element of each left coset of K, so each x is t_x * k_x and
x * y = row(t_x)[row(k_x)[y]]: only the rows of T and K are stored,
(|T| + |K|) * |G| entries where a full table holds |G|^2 (53 rows for
Sym(6), 161 for Sym(7)).  The rows are composed along the kept walk from
element indices alone, by one ``itemgetter`` per generator, and are
tuples, which the collector stops tracking, where list rows were
traversed by every collection.  With the table the subgroup lattice, the
class canonicalization and the coset actions multiply element indices.
Left cosets have one routine, the store ``_Cosets``: it builds a coset
when a walk first reaches one of its elements, by at most one
``itemgetter`` per element of K per subgroup.  A subgroup is a frozenset
of positions in the parent's sorted ``elements`` (so equal groups share
them) from the lattice through ``SubgroupClass.members`` to restriction;
only ``all_subgroups`` maps them back to ``Perm`` sets.  The table is
stored on the group and the lattice once, in the cache of
``subgroup_classes``, whose classes name the instance they were built on
(``SubgroupClass.parent``).  Every subgroup closure is ``_extend`` on such
a store, so for a class representative H the lattice builds the cosets
inside N_G(H) and the few that its closure walks in the residuum reach,
not all |G:H|.  The lattice is also the one judge of what a subgroup is
and what normalizes it: a subgroup given as elements is looked up in it
(``_subgroup_class``), and normalizer orders are its classes'
``normalizer_order``.

The lattice is the cyclic extension method (Neubüser, *Numer. Math.* 2,
1960; Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
2005): every subgroup U is <H, c> for a maximal subgroup H of U and a c of
prime-power order with c^p in H, p the prime (c is the last power outside
H of a prime-power part of some element of U outside H).  One
representative H per class is extended (the argument transports along
conjugation), by one cyclic subgroup <a> per orbit of N_G(H) with a^p in
H, since for n in N_G(H) <H, a^n> = <H, a>^n is in the class of <H, a>
and (a^n)^p is in H exactly when a^p is.  N_G(H) is spanned from H by
Schreier elements of the conjugation walk that found the class of H: no
normalizer is searched for.

Only two kinds of candidate are needed.  Let D = G^(oo), the perfect
residuum: the last term of the derived series, normal in G.  (1) If
U is not perfect, U/U' is a nontrivial abelian group, so it has a quotient
of prime order p: some H normal in U has index p, so is maximal in U.
The p-part c of any element of U outside H is outside H too (the other
parts are trivial in U/H, of order p), so c has prime-power order, c^p is
in H and c is in N_G(H): U = H<c>, the union of the p cosets c^i H, and
conjugating H to its class representative keeps c in its normalizer.  (2)
If U is perfect, U = U^(i) lies in G^(i) for every i, so in D.  By the
lemma above U = <H, c> with H and c in U, so in D, and conjugating H to
its class representative keeps both in D, which is normal.  So H is
extended by a only for a in N_G(H), as a union of cosets with no closure
walk (``_coset_union``), or for H and a both in D, by a closure walk
(``_extend``).  Both tests are N_G(H)-invariant, so a skipped a stands for
its orbit.  D is found once per group (``_residuum``): each term of the
derived series is the normal closure of the commutators of the previous
term's generators, and as a characteristic subgroup of a normal subgroup
it is normal in G, so closing under conjugation by G's generators is
exact.

A closure walk in D stops at a fifth of D (``_extend``'s limit), as a
nontrivial perfect group D has no proper subgroup K of index k <= 4.  D
acts on the k cosets of K transitively, so its image in S_k is nontrivial.
That image is a quotient of D, so perfect, and a subgroup of S_k with
k <= 4, so solvable; a perfect solvable group is trivial.  So a walk in D
past |D|/5 elements has spanned D.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, isqrt
from operator import attrgetter, itemgetter

from .errors import CapExceeded, InputError
from .perm import Perm, from_cycles

DEFAULT_GROUP_CAP = 10000
DEFAULT_SUBGROUP_CAP = 1000
# subgroups the lattice search finds before it refuses.  A subgroup costs
# about 20 us on symmetric and alternating groups (Sym(7)'s 11,300 in 0.23
# s) but more on C2^n, which has the most subgroups for its order, and
# more as the search goes on: C2^7 passes 12,000 in 0.8 s, 20,000 in 3.5 s
# and ends at 29,212 in 16 s (2 vCPU Xeon, Python 3.11)
DEFAULT_SUBGROUP_COUNT_CAP = 12000
# trial division up to 10**6: a prime at the cap takes about 0.1 s
PRIME_TEST_CAP = 10 ** 12


def walk(start, gens, act, cap=None) -> tuple:
    """Breadth-first orbit of ``start`` under ``act``: (walk position of
    every point, steps).  A step (x, k, y, tree) says that ``act`` takes
    the point at x by ``gens[k]`` to the point at y, tree true where that
    first reaches y; every edge of the orbit graph is one step, in walk
    order.  More than ``cap`` points raise CapExceeded."""
    at = {start: 0}
    points = [start]
    steps = []
    for i, x in enumerate(points):      # points grows while it is walked
        for k, s in enumerate(gens):
            y = act(x, s)
            j = at.get(y)
            tree = j is None
            if tree:
                if cap is not None and len(at) >= cap:
                    raise CapExceeded(
                        f"group too large: more than {cap} elements")
                j = at[y] = len(points)
                points.append(y)
            steps.append((i, k, j, tree))
    return at, steps


def cayley_walk(gens, degree: int, cap: int) -> tuple:
    """``walk`` of the Cayley graph of the group that the ``Perm`` list
    ``gens`` generates on ``degree`` points, from the identity, by right
    multiplication on image tuples: (every element as a ``Perm``, in walk
    order, steps); a step (x, k, y, tree) reads x * gens[k] = y for the
    elements at walk positions x and y."""
    at, steps = walk(tuple(range(degree)),
                     _composers([s.images for s in gens], degree),
                     lambda x, take: take(x), cap)
    return list(map(Perm, at)), steps


def _composers(gen_images, degree: int) -> list:
    """One ``itemgetter`` per image tuple s on ``degree`` points, which
    composes s onto an image tuple x: take(x)[i] = x[s[i]].  On at most
    one point the identity is the only permutation, so there each
    composer is the identity (itemgetter of one index would return the
    item, not a 1-tuple)."""
    if degree <= 1:
        return [lambda x: x] * len(gen_images)
    return [itemgetter(*s) for s in gen_images]


def walk_images(steps, size: int, gen_images, degree: int) -> tuple:
    """Images along a Cayley walk (see ``cayley_walk``) of ``size``
    elements, given the image tuple of each generator on ``degree``
    points: (image tuple of every element, numbered as the steps number
    them, None).  Each tree step composes its generator's image onto the
    image it starts from, in C by one ``itemgetter`` per generator; every
    other step must reproduce the image already there, and at the first
    that does not the answer is (None, (y, k)) for that step."""
    images = [tuple(range(degree))] * size
    compose = _composers(gen_images, degree)
    for x, k, y, tree in steps:
        z = compose[k](images[x])
        if tree:
            images[y] = z
        elif images[y] != z:
            return None, (y, k)
    return images, None


class FiniteGroup:
    """The permutation group on ``degree`` points that ``generators``
    generate, with its full element list.

    The constructor is the one way to a group, so a group's elements are
    always what its generators generate: it coerces the generators to
    ``Perm``, checks their degrees, drops identities and walks the Cayley
    graph (``cayley_walk``) once, raising CapExceeded ("group too large")
    past ``max_order`` elements.  Instances are immutable by convention;
    equality and hashing go by (degree, elements), so two routes to the
    same group compare equal.  ``elements`` is sorted by image tuple, so
    the identity is always ``elements[0]``, and an element's number
    everywhere is its place in ``elements``: ``index`` maps each element
    to it, and equal groups number their elements alike.
    """

    __slots__ = ("degree", "generators", "elements", "index", "order",
                 "_hash", "_tables", "_steps")

    def __init__(self, degree, generators, *, max_order=DEFAULT_GROUP_CAP):
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        for g in gens:
            if g.degree != degree:
                raise InputError(
                    f"generator degree {g.degree} does not match {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        walked, steps = cayley_walk(self.generators, degree, max_order)
        self.elements = tuple(sorted(walked, key=attrgetter("images")))
        self.index = index = {p: i for i, p in enumerate(self.elements)}
        pos = list(map(index.__getitem__, walked))
        self._steps = tuple((pos[x], k, pos[y], tree)
                            for x, k, y, tree in steps)
        self.order = len(self.elements)
        self._hash = hash((degree, self.elements))
        self._tables = None

    def __contains__(self, p) -> bool:
        return p in self.index

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.degree == other.degree
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"<group of order {self.order} on {self.degree} points, gens {gens}>"

    def cayley(self) -> tuple:
        """The steps of the ``cayley_walk`` of ``generators`` that built
        the group, in walk order, with each element numbered by its place
        in ``elements``."""
        return self._steps

    # -- index tables -----------------------------------------------------

    def tables(self) -> "Table":
        """The group's multiplication table over element indices, built on
        first use and kept: a ``Table``, factored over the pointwise
        stabilizer K of the points 0..j-1 for the j that makes |T| + |K|
        least, so it holds (|T| + |K|) * |G| entries in tuple rows where a
        full table held |G|^2."""
        if self._tables is None:
            self._tables = Table(self)
        return self._tables


class Table:
    """The multiplication table of a group G over element indices
    0..order-1, factored over a point stabilizer K.

    K is the pointwise stabilizer of the points 0..j-1, for the j that
    makes |T| + |K| least (the smaller K on a tie), where the transversal
    T holds one element of each left coset xK.  The elements of xK are
    those that share x's first j images, so in the sorted element list
    each coset is a block of |K| consecutive indices, and K is the first.
    Of each coset T holds the element that the kept walk (``cayley``)
    reaches first, so the shallowest in its tree.  Every x is t_x * k_x
    for one t_x in T and k_x in K, and x * y = row(t_x)[row(k_x)[y]],
    where row(a)[y] is the index of a * y.  So only the rows of T and K
    are stored, (|T| + |K|) * |G| entries where a full table holds |G|^2:
    for Sym(6), 53 rows, not 720.  ``t[x]`` and ``k[x]`` are the rows of
    x's two factors.

    Everything is read from indices along the kept walk, with no image
    tuple composed and no element looked up: its steps (x, i, y), numbered
    by ``elements`` already, say x * s_i = y for the i-th generator s_i,
    so they give ``right[i]``, the right action of s_i on indices.  The
    left action of a generator s follows the tree steps: row(s)[0] = s
    and row(s)[y] = right[i][row(s)[x]], since s * (x * s_i) =
    (s * x) * s_i.  One fixed ``itemgetter`` of it per generator
    composes the rows of T and K, and of their ancestors in the tree
    only, along the tree steps x * s = y, since row(x*s)[z] =
    row(x)[row(s)[z]].  Rows are tuples: ``itemgetter`` composes and
    gathers them in C, and the garbage collector stops tracking them at its
    first collection, where list rows were traversed by every collection.
    A spent ancestor row is dropped as soon as the walk moves past it.
    The factors are read off the rows, as row(t)[k] = t * k for k in K,
    and inverses follow the tree steps: inv[y] = row(s_i^-1)[inv[x]],
    where s_i^-1 is the index that ``right[i]`` takes to the identity.
    ``fixed`` is j, ``stabilizer_order`` is |K| and ``rows`` maps each
    element of T and K to its row.
    """

    __slots__ = ("inv", "right", "t", "k", "rows", "fixed",
                 "stabilizer_order", "transversal")

    def __init__(self, g: FiniteGroup):
        n = g.order
        right = [[0] * n for _ in g.generators]
        tree = []
        parent = [None] * n
        for x, i, y, is_tree in g.cayley():
            right[i][x] = y
            if is_tree:
                tree.append((x, i, y))
                parent[y] = x
        self.right = right
        # K_j is the first block of the sorted elements, those whose images
        # start 0..j-1, so below 0..j-1 followed by the degree; take the j
        # with least |T| + |K|, the smaller K on a tie
        fixed, size = 0, n
        for j in range(1, g.degree + 1):
            kj = bisect_left(g.elements, tuple(range(j)) + (g.degree,),
                             key=attrgetter("images"))
            if (n // kj + kj, kj) < (n // size + size, size):
                fixed, size = j, kj
        self.fixed, self.stabilizer_order = fixed, size
        # of each block, the element the walk reaches first: the walk
        # reaches the identity, then each tree step's target, in order
        first = [None] * (n // size)
        first[0] = 0
        for _, _, x in tree:
            if first[x // size] is None:
                first[x // size] = x
        self.transversal = tuple(first)
        keep = set(first).union(range(size))
        need = [False] * n
        need[0] = True
        for x in keep:
            while not need[x]:
                need[x] = True
                x = parent[x]
        # one getter per generator; of one index it would return the
        # item, not a 1-tuple, but a group of order 1 has no generator
        take = []
        for s in g.generators:
            row = [g.index[s]] * n
            for x, i, y in tree:
                row[y] = right[i][row[x]]
            take.append(itemgetter(*row))
        # the walk takes every step from one element together, so once the
        # tree steps move past x its row is spent, unless T or K holds it
        rows = [None] * n
        rows[0] = tuple(range(n))
        last = 0
        for x, i, y in tree:
            if x != last:
                if last not in keep:
                    rows[last] = None
                last = x
            if need[y]:
                rows[y] = take[i](rows[x])
        self.rows = {x: rows[x] for x in sorted(keep)}
        krows = [self.rows[x] for x in range(size)]
        t = [None] * n
        k = [None] * n
        for c, x in enumerate(first):
            row = self.rows[x]
            t[c * size:(c + 1) * size] = [row] * size
            for y, kr in zip(row, krows):
                k[y] = kr
        self.t, self.k = t, k
        undo = [self.row(r.index(0)) for r in right]
        inv = [0] * n
        for x, i, y in tree:
            inv[y] = undo[i][inv[x]]
        self.inv = inv

    def mul(self, x, y) -> int:
        """The index of x * y."""
        return self.t[x][self.k[x][y]]

    def factor_rows(self, xs) -> list:
        """(t[x], k[x]) for each x in ``xs``, the way ``_extend`` takes
        the elements it multiplies by."""
        return [(self.t[x], self.k[x]) for x in xs]

    def row(self, x) -> tuple:
        """The whole row of x, the indices of x * y for every y, composed
        in C from x's two factor rows."""
        kx = self.k[x]
        if len(kx) == 1:        # itemgetter of one index returns the item
            return (self.t[x][kx[0]],)
        return itemgetter(*kx)(self.t[x])


def generate(gens, degree: int, max_order: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Group generated by ``gens`` inside the symmetric group on ``degree``
    points.  Raises CapExceeded ("group too large") past ``max_order``."""
    return FiniteGroup(degree, gens, max_order=max_order)


# -- standard groups ------------------------------------------------------

def trivial_group(degree: int = 1) -> FiniteGroup:
    return FiniteGroup(degree, ())


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

class _Cosets:
    """The left cosets yH of the subgroup H with element indices ``sub``
    (the identity, index 0, among them) in the group of the table ``tab``,
    each built when a walk first reaches one of its elements, so the
    lattice builds the cosets its walks read, not all |G:H|.  ``cosets``
    holds the ones built so far as index tuples, numbered in the order
    built, H itself first (number 0), and ``coset_of`` maps each element
    of the group to its coset's number, None while that coset is unbuilt.
    yH is t_y (k_y H), so it is one gather from y's transversal row by the
    indices of k_y H, and one getter of those serves every y with the
    same k_y: at most one ``itemgetter`` per element of K."""

    __slots__ = ("sub", "tab", "cosets", "coset_of", "take", "getters")

    def __init__(self, tab, sub):
        self.sub, self.tab = sub, tab
        self.cosets = []
        self.coset_of = [None] * len(tab.t)
        # H = {0} needs no getter: itemgetter of one index returns the
        # item, not a 1-tuple
        self.take = itemgetter(*sub) if len(sub) > 1 else None
        # getters[k_y] gathers k_y H from a row; k_y = 1 needs H itself
        self.getters = [None] * tab.stabilizer_order
        self.getters[0] = self.take
        self.add(0)

    def add(self, y) -> int:
        """Build the coset yH, which must not be built yet: its number."""
        if self.take is None:
            coset = (y,)
        else:
            ky = self.tab.k[y]
            get = self.getters[ky[0]]           # ky[0] = k_y * 1 = k_y
            if get is None:
                get = self.getters[ky[0]] = itemgetter(*self.take(ky))
            coset = get(self.tab.t[y])
        c = len(self.cosets)
        coset_of = self.coset_of
        for z in coset:
            coset_of[z] = c
        self.cosets.append(coset)
        return c

    def fill(self, ambient) -> "_Cosets":
        """Build every coset inside the subgroup with element indices
        ``ambient``, ascending, so that they are numbered by their least
        element."""
        coset_of = self.coset_of
        for y in ambient:
            if coset_of[y] is None:
                self.add(y)
        return self


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


def _extend(store, rows, limit):
    """<H, S> as the union of the left cosets of H that it contains.

    ``store`` holds the left cosets of H (a ``_Cosets``), and builds each
    one the walk first reaches; ``rows`` are the factor rows of the
    elements s of S (``Table.factor_rows``), so s * y = t[s][k[s][y]].
    The cosets reached from H by left multiplication by S make up <S>H,
    which is <H, S> when S holds generators of H or normalizes H.  Past
    ``limit`` cosets the walk stops and None is returned: the caller
    picks a limit past which <H, S> can only be one known group.  Inside
    a group A, p the least prime dividing |A|, more than |A|/p elements
    are all of A by Lagrange; inside the perfect residuum D, more than
    |D|/5 elements are all of D (see the module docstring).  A limit of
    |G:H| never stops."""
    # not ``walk``: this orbit stops at its limit and needs no steps
    cosets, coset_of, add = store.cosets, store.coset_of, store.add
    orbit = [0]
    seen = {0}
    for c in orbit:             # the orbit grows while it is walked
        y = cosets[c][0]
        for t, k in rows:
            z = t[k[y]]
            d = coset_of[z]
            if d is None:
                d = add(z)
            elif d in seen:
                continue
            seen.add(d)
            orbit.append(d)
        if len(orbit) > limit:
            return None
    return frozenset().union(*map(cosets.__getitem__, orbit))


def _coset_union(store, a):
    """H<a> for an a that normalizes H: the union of the left cosets
    a^i H of H, from ``store`` (a ``_Cosets``), read along a's powers up
    to the first in H, each the last one multiplied by a on the left."""
    cosets, coset_of = store.cosets, store.coset_of
    ta, ka = store.tab.t[a], store.tab.k[a]
    union = [cosets[0]]
    x = a
    while (c := coset_of[x]) != 0:
        if c is None:
            c = store.add(x)
        union.append(cosets[c])
        x = ta[ka[x]]
    return frozenset().union(*union)


def _conjugations(tab, gens) -> list:
    """Conjugation x -> s^-1 x s by each group generator s (element
    indices ``gens``, in the order of ``tab.right``) as an index map: the
    right action of s read at s^-1 x, composed in C.  They are lists:
    ``_class_and_schreier`` reads them by ``list.__getitem__``, which
    ``map`` calls faster than ``tuple.__getitem__``."""
    return [list(itemgetter(*tab.row(tab.inv[s]))(r))
            for s, r in zip(gens, tab.right)]


def _residuum(tab, gens, conj):
    """The perfect residuum G^(oo) of the group with table ``tab`` and
    generator indices ``gens``, as element indices: each derived subgroup
    is spanned by the commutators of the previous term's generators and
    their conjugates under ``conj`` (x -> s^-1 x s per generator s), until
    a term is perfect (see the module docstring).  Every span is a walk
    on one store of the trivial subgroup's cosets, the single elements,
    kept across the loop, so each is built once."""
    n = len(tab.t)
    mul, inv = tab.mul, tab.inv
    store = _Cosets(tab, frozenset([0]))
    term = frozenset(range(n))
    while True:
        todo = [mul(mul(inv[x], inv[y]), mul(x, y))
                for x in gens for y in gens]
        kept = []
        span = frozenset([0])
        for x in todo:                  # todo grows while it is walked
            if x not in span:
                kept.append(x)
                span = _extend(store, tab.factor_rows(kept), n)
                todo.extend(c[x] for c in conj)
        if len(span) == len(term):
            return span
        term, gens = span, kept


def _greedy_generators(tab, members) -> list:
    """The members, in index order, that the earlier ones do not generate:
    the representative's generating list in ``subgroup_classes``.  Each
    new span is a walk on the cosets of the last, built as it reaches
    them, and stops at the Lagrange bound of ``members``."""
    members = sorted(members)
    whole = frozenset(members)
    bound = len(members) // _least_prime(len(members))
    gens = []
    span = frozenset(members[:1])
    for m in members:
        if m not in span:
            gens.append(m)
            span = _extend(_Cosets(tab, span), tab.factor_rows(gens),
                           bound // len(span)) or whole
    return gens


def _class_and_schreier(tab, conj, members):
    """The conjugacy class of the subgroup H with element indices
    ``members``, walked by conjugating with the group generators
    (``conj`` holds x -> s^-1 x s for each, in the order of the table
    ``tab``'s ``right``), and its Schreier elements.  A tree step
    x --s--> y gives w_y = w_x s, the product of generators that
    conjugates H to the y-th conjugate; each other step gives
    w_x s w_y^-1, which normalizes H, and these generate N_G(H)
    (Schreier's lemma)."""
    at, steps = walk(members, conj,
                     lambda cur, c: frozenset(map(c.__getitem__, cur)))
    right, t, k, inv = tab.right, tab.t, tab.k, tab.inv
    w = [0] * len(at)
    schreier = []
    for x, i, y, tree in steps:
        ws = right[i][w[x]]
        if tree:
            w[y] = ws
        else:
            schreier.append(t[ws][k[ws][inv[w[y]]]])
    return list(at), schreier


def _subgroup_index_sets(g: FiniteGroup) -> tuple:
    """All subgroups as frozensets of element indices, one tuple per
    conjugacy class."""
    # the one check of the subgroup cap: the table and the lattice search
    # below are what it bounds
    if g.order > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"group too large: order {g.order} exceeds "
                          f"subgroup cap {DEFAULT_SUBGROUP_CAP}, which no "
                          f"flag raises")
    tab = g.tables()
    t, k, inv = tab.t, tab.k, tab.inv
    # each cyclic subgroup <x> stands by its least generator a = cyclic[x]:
    # an ascending scan meets a first, and one scan of its powers sets the
    # others, the a^e with e prime to the order of a; by_root maps r to the
    # ascending such a of order p^k, p prime, with a^p = r; each power is
    # the last one multiplied by a on the left, and prime[m] is p for an
    # order m = p^k, 0 for any other, tested once per order
    cyclic = [0] * g.order
    by_root = {}
    prime = {}
    for a in range(1, g.order):
        if cyclic[a]:
            continue
        ta, ka = t[a], k[a]
        powers = [0]
        x = a
        while x:
            powers.append(x)
            x = ta[ka[x]]
        m = len(powers)
        for e in range(1, m):
            if gcd(e, m) == 1:
                cyclic[powers[e]] = a
        p = prime.get(m)
        if p is None:
            p = prime[m] = _least_prime(m) if _is_prime_power(m) else 0
        if p:
            by_root.setdefault(powers[p % m], []).append(a)
    # each class representative H is extended by one <a> per N_G(H)-orbit
    # of those outside H with a^p in H, and only by an a in N_G(H) or, for
    # H inside the residuum, in it, which reaches every subgroup (see the
    # module docstring); N_G(H) is spanned from _class_and_schreier, and
    # H's cosets are built as these walks reach them
    gens = [g.index[p] for p in g.generators]
    conj = _conjugations(tab, gens)
    residuum = _residuum(tab, gens, conj)
    # a closure walk runs inside the residuum, so past a fifth of it it has
    # spanned it (see the module docstring)
    fifth = len(residuum) // 5
    trivial = frozenset([0])
    orbit, schreier = _class_and_schreier(tab, conj, trivial)
    known = set(orbit)
    orbits = [tuple(orbit)]
    reps = [(trivial, (), len(orbit), schreier)]
    for members, hgens, size, schreier in reps:  # reps grows while walked
        store = _Cosets(tab, members)
        # N_G(H) = <H, kept>, a Schreier element kept only outside the span
        # so far; all normalize H, so their rows alone walk H's cosets, and
        # a limit of |G:H| means no Lagrange stop
        kept = []
        span = members
        for n in schreier:
            if n not in span:
                kept.append(n)
                span = _extend(store, tab.factor_rows(kept),
                               g.order // len(members))
        assert len(span) * size == g.order, \
            "normalizer fails orbit-stabilizer"
        # n^-1 b n for each n: the rows of n^-1, then b' * n
        by = [(t[inv[n]], k[inv[n]], n) for n in hgens + tuple(kept)]
        # the candidates in N_G(H) or, for H inside the residuum, in it: a
        # skipped a stands for its whole N_G(H)-orbit
        pool = span.union(residuum) if members <= residuum else span
        roots = members.intersection(by_root)
        seen = set()
        for a in sorted(pool.intersection(
                chain.from_iterable(map(by_root.__getitem__, roots)))):
            if a in members or a in seen:
                continue
            normalizes = a in span
            # a stands for its orbit under conjugation by N_G(H), which stays
            # outside H; not ``walk``: cold Sym(6) classes ran 7-15% slower
            seen.add(a)
            todo = [a]
            for b in todo:              # todo grows while it is walked
                for ti, ki, n in by:
                    u = ti[ki[b]]
                    c = cyclic[t[u][k[u][n]]]
                    if c not in seen:
                        seen.add(c)
                        todo.append(c)
            newgens = hgens + (a,)
            if normalizes:
                new = _coset_union(store, a)
            else:
                new = _extend(store, tab.factor_rows(newgens),
                              fifth // len(members)) or residuum
            if new in known:
                continue
            # a conjugate already known would put new in an earlier class
            orbit, schreier = _class_and_schreier(tab, conj, new)
            known.update(orbit)
            # the count cap bounds the search itself: one len per new class
            if len(known) > DEFAULT_SUBGROUP_COUNT_CAP:
                raise CapExceeded(
                    f"too many subgroups: the lattice of a group of order "
                    f"{g.order} has more than {DEFAULT_SUBGROUP_COUNT_CAP}, "
                    f"the subgroup count cap DEFAULT_SUBGROUP_COUNT_CAP, "
                    f"which no flag raises")
            orbits.append(tuple(orbit))
            reps.append((new, newgens, len(orbit), schreier))
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
    generators: tuple       # the representative's, as Perm
    order: int
    index: int
    normalizer_order: int
    aut_count: int          # (normalizer : subgroup)
    class_size: int
    parent: FiniteGroup = field(repr=False)
    members: tuple = field(repr=False, default=())

    def __str__(self) -> str:
        gens = ", ".join(str(p) for p in self.generators) or "()"
        return f"class {self.class_id + 1}: <{gens}> order {self.order} index {self.index}"


@lru_cache(maxsize=None)
def subgroup_classes(g: FiniteGroup) -> tuple:
    """Conjugacy classes of subgroups in a canonical deterministic order.

    Classes are sorted by descending order of the class core (the largest
    normal subgroup inside every member), then descending subgroup order,
    then ascending number of point orbits of a member, then by the minimal
    sorted element-set.  This refinement pins a reproducible order even
    between classes that share an order.  The tuple is the group's catalog
    of transitive representations (``catalog.build_catalog``), one coset
    action per class, of degree the class index: the full group comes
    first (degree 1) and the trivial subgroup last (the regular action).
    """
    orbits = _subgroup_index_sets(g)    # checks the subgroup cap first
    elements = g.elements
    tab = g.tables()

    def key(members):
        # a point's orbit under the subgroup is its column of images, so
        # the subgroup has as many orbits as distinct columns
        first = members[0]
        columns = zip(*(elements[i].images for i in first))
        return (-len(frozenset.intersection(*members)), -len(first),
                len(set(map(frozenset, columns))), sorted(first))
    # the element list is sorted, so index order is image order
    orbits = sorted((tuple(sorted(orbit, key=sorted)) for orbit in orbits),
                    key=key)
    classes = []
    for class_id, members in enumerate(orbits):
        first = members[0]
        order = len(first)
        normalizer_order = g.order // len(members)
        classes.append(SubgroupClass(
            class_id=class_id,
            generators=tuple(elements[i]
                             for i in _greedy_generators(tab, first)),
            order=order,
            index=g.order // order,
            normalizer_order=normalizer_order,
            aut_count=normalizer_order // order,
            class_size=len(members),
            parent=g,
            members=members,
        ))
    assert classes[0].index == 1 and classes[-1].index == g.order
    return tuple(classes)


# -- subgroups given by their elements ------------------------------------

def _subgroup_class(g: FiniteGroup, u) -> tuple:
    """The class in ``subgroup_classes(g)`` of a subgroup u of g, given as
    a SubgroupClass, a FiniteGroup or an iterable of Perm, and u's element
    index set, numbered by ``g.elements`` as every ``members`` set is.
    The lattice holds every subgroup, so a set it does not hold is not
    closed under multiplication."""
    degree = g.degree
    if isinstance(u, SubgroupClass):
        if u.parent == g:
            return u, u.members[0]
        degree = u.parent.degree
        u = map(u.parent.elements.__getitem__, u.members[0])
    elif isinstance(u, FiniteGroup):
        degree, u = u.degree, u.elements
    if degree != g.degree:
        raise InputError("subgroup degree does not match the group")
    members = frozenset(u)
    if not all(x in g for x in members):
        raise InputError("not a subgroup: elements fall outside the group")
    if g.elements[0] not in members:
        raise InputError("subgroup must contain the identity")
    if g.order % len(members):
        raise InputError("not a subgroup: order does not divide the group order")
    sub = frozenset(map(g.index.__getitem__, members))
    for cls in subgroup_classes(g):
        if cls.order == len(sub) and sub in cls.members:
            return cls, sub
    raise InputError("element set is not closed under multiplication")


def coset_action(g: FiniteGroup, u) -> dict:
    """The action of g on the left cosets of u, as a map element -> Perm."""
    cls, sub = _subgroup_class(g, u)
    tab = cls.parent.tables()
    store = _Cosets(tab, sub).fill(range(g.order))
    cosets, coset_of = store.cosets, store.coset_of
    return {a: Perm(tuple(coset_of[t[k[c[0]]]] for c in cosets))
            for a, t, k in zip(g.elements, tab.t, tab.k)}
