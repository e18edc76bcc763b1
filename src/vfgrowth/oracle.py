"""Exact homomorphism and subgroup counting at small degree.

Everything the LP asserts asymptotically is checked here non-asymptotically:
|Hom(Gamma, S_n)| is computed two independent ways, and index-n subgroup
counts fall out of the transitive-count recursion.  All results are exact
big integers.  Each fact a counting call needs is computed once per call,
and nothing in this module is cached across calls; the vertex groups'
Cayley walks are kept by the group instances (``FiniteGroup.cayley``).

- The type sum adds a closed-form count over the admissible representation
  types.  One pass per vertex and call lists the vertex's types of every
  degree up to n, bucketed by degree; each type carries its orbit
  denominator and the edge types it induces, both grown one class copy at
  a time.  The types are joined on those edge types, one vertex at a time,
  not filtered from the full product of vertex types.  Catalogs (the
  cached ``subgroup_classes``) and restriction rows (the cached
  ``restriction_matrix``) are read, not rebuilt; the type sum builds no
  LP.
  ``type_hom_count`` recounts one type in ``Fraction`` arithmetic apart
  from the join.
- Brute force tries every tuple of generator images.  Each vertex group's
  Cayley graph is walked once per group instance on image tuples, when the
  group is built, and kept by it with each element numbered by its place in
  ``elements``.  Each tuple is composed along the walk, in C by one
  ``itemgetter`` per generator image, and checked on every edge of it,
  with no ``Perm`` product, so a homomorphism lists its images in the
  order of ``elements``.  A non-tree edge multiplies by the number of
  permutations conjugating one side's images onto the other's.  Every lookup
  key of a homomorphism (its parent-edge bucket key, the keys its children
  look up, its images on each non-tree edge side) is built once, when the
  homomorphisms are listed.  Transporter counts are memoized by image tuple
  in a dict that lives for one call.  S_n is listed by
  ``itertools.permutations`` on image tuples, both for the generator images
  (``_symmetric_images``, in the lexicographic order of
  ``symmetric_group(n).elements``) and for the conjugating letters, with no
  Cayley walk, so this leg does not rest on ``groups.generate``, one of the
  routines it checks.

The per-orbit constant in the closed form is the automorphism count
c = (N_G(U) : U) of the coset space, not the point count of the orbit; the
two agree only for normal stabilizers.  S_3 into S_3 is the smallest case
that tells them apart (10 homomorphisms, not 6) and is pinned in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, permutations, product
from math import comb, factorial
from operator import add, mul

from .catalog import restriction_matrix
from .errors import CapExceeded, InputError
from .gog import GraphOfGroups, spanning_tree
from .groups import (DEFAULT_GROUP_CAP, FiniteGroup, subgroup_classes,
                     walk_images)
from .growth import build_growth_program
from .perm import Perm

DEFAULT_TYPESUM_CAP = 10
DEFAULT_ENUM_CAP = 6
DEFAULT_ENUM_GROUP_CAP = 120
# the brute-force counter draws images from all n! elements of Sym(n) and
# keeps to the default group cap, whatever cap the graph was read under, so
# its degree ceiling is the largest n with n! <= DEFAULT_GROUP_CAP (7 for
# 10000)
ENUM_DEGREE_CEILING = next(d for d in count(1)
                           if factorial(d + 1) > DEFAULT_GROUP_CAP)


@dataclass(frozen=True)
class TypePartition:
    """Integer representation type: how many copies of each transitive
    class every vertex group uses inside S_n."""
    n: int
    counts: tuple  # ((vertex name, (int, ...)), ...)

    def vertex(self, name: str) -> tuple:
        for v, c in self.counts:
            if v == name:
                return c
        raise InputError(f"no vertex named {name!r}")


@dataclass(frozen=True)
class CountLedger:
    """Homomorphism totals and derived subgroup counts for degrees 1..n."""
    n: int
    totals: tuple      # totals[m-1] = |Hom(Gamma, S_m)|
    transitive: tuple  # transitive[m-1] = homomorphisms with transitive image
    subgroups: tuple   # subgroups[m-1] = number of index-m subgroups
    per_type: tuple    # ((TypePartition, count), ...) at degree n

    def _at(self, values: tuple, m) -> int:
        m = self.n if m is None else m
        if not 1 <= m <= self.n:
            raise InputError(f"degree {m} is outside 1..{self.n}")
        return values[m - 1]

    def total(self, m: int = None) -> int:
        return self._at(self.totals, m)

    def t(self, m: int = None) -> int:
        return self._at(self.transitive, m)

    def s(self, m: int = None) -> int:
        return self._at(self.subgroups, m)


def _orbit_count(n: int, eta, auts) -> int:
    """n! / prod(eta_i! * a_i^eta_i): the homomorphisms into S_n of type
    eta, where a_i are the classes' automorphism counts."""
    denom = 1
    for e, a in zip(eta, auts):
        denom *= factorial(e) * a ** e
    count, rem = divmod(factorial(n), denom)
    assert rem == 0, "orbit bookkeeping produced a non-integer count"
    return count


def vertex_hom_count(group: FiniteGroup, eta, n: int) -> int:
    """Number of homomorphisms group -> S_n of the given type.

    eta lists one multiplicity per catalog class; the degree-weighted sum
    must be n.  The count is n! / prod(eta_i! * c_i^eta_i) with c_i the
    class aut_count.
    """
    classes = subgroup_classes(group)
    eta = tuple(eta)
    if len(eta) != len(classes):
        raise InputError(f"type length {len(eta)} does not match "
                         f"{len(classes)} classes")
    if any(e < 0 for e in eta):
        raise InputError("type multiplicities must be non-negative")
    if sum(e * cls.index for e, cls in zip(eta, classes)) != n:
        raise InputError(f"type does not reach degree {n}")
    return _orbit_count(n, eta, [cls.aut_count for cls in classes])


def _type_pass(degrees, auts, columns, n) -> list:
    """Every type of degree at most n, bucketed by degree.

    ``buckets[m]`` lists (type, orbit denominator, induced vector) for the
    multiplicity tuples of degree-weighted sum m, in lexicographic order.
    The denominator is prod(e_i! * a_i^e_i) and the induced vector is the
    sum of e_i times ``columns[i]``; both grow by one class copy at a time.
    """
    buckets = [[] for _ in range(n + 1)]
    last = len(degrees)

    def rec(i, left, acc, den, vec):
        if i == last:
            buckets[n - left].append((acc, den, vec))
            return
        d, a, col = degrees[i], auts[i], columns[i]
        top = left // d
        for c in range(top + 1):
            rec(i + 1, left - c * d, acc + (c,), den, vec)
            if c < top:
                den *= (c + 1) * a
                vec = tuple(map(add, vec, col))

    rec(0, n, (), 1, (0,) * len(columns[0]))
    return buckets


def _vertex_types(degrees, n):
    """All multiplicity tuples with degree-weighted sum n: the degree-n
    bucket of the type pass."""
    ones = (1,) * len(degrees)
    return [t for t, _, _ in
            _type_pass(degrees, ones, ((),) * len(degrees), n)[n]]


def type_hom_count(g: GraphOfGroups, xi: TypePartition) -> int:
    """Exact number of homomorphisms Gamma -> S_n with the given type.

    Computed type by type in ``Fraction`` arithmetic, apart from the join
    that ``hom_count_typesum`` runs, so each can check the other.
    """
    program = build_growth_program(g)
    n = xi.n
    h = len(g.edges) - len(g.vertices) + 1
    value = Fraction(factorial(n)) ** h
    for name, grp in g.vertices:
        value *= vertex_hom_count(grp, xi.vertex(name), n)
    for e, ml, mr in program.edges:
        # rows[j][i] copies of edge class j per copy of vertex class i
        eta_l, eta_r = (xi.vertex(end) for end in e.ends)
        lam_l = tuple(sum(map(mul, row, eta_l)) for row in ml)
        lam_r = tuple(sum(map(mul, row, eta_r)) for row in mr)
        if lam_l != lam_r:
            raise InputError(f"type is not admissible across edge {e.name!r}")
        value /= vertex_hom_count(e.group, lam_l, n)
    assert value.denominator == 1, "type count did not cancel to an integer"
    assert value >= 0
    return value.numerator


def _typesum_rows(g: GraphOfGroups, n: int):
    """Per degree m = 1..n in turn, every admissible type with its
    homomorphism count, as [(vertex types, count), ...] in the order of the
    full product of vertex types.

    Each vertex's types of every degree come from one ``_type_pass``.  The
    rows are a join, not a filter over that product: vertices are placed
    in graph order, and each vertex's types are bucketed by the edge types
    they induce on all its edges to already placed vertices (the root's
    key is empty).  Only keys that some row holds get a bucket, and each
    type's edge counts are multiplied once, as it is bucketed.  A type
    counts m!^h * prod(vertex counts) / prod(edge counts), in integers.
    """
    names = [name for name, _ in g.vertices]
    at = {name: i for i, name in enumerate(names)}
    # per vertex: the edge sides it sits on, (edge position, side, matrix)
    sides = [[] for _ in names]
    links = [[] for _ in names]   # (edge, side, earlier vertex, its side)
    loops = [[] for _ in names]
    for k, e in enumerate(g.edges):
        ml, mr = (restriction_matrix(emb) for emb in e.embeddings)
        i0, i1 = at[e.ends[0]], at[e.ends[1]]
        sides[i0].append((k, 0, ml))
        sides[i1].append((k, 1, mr))
        if i0 == i1:
            loops[i0].append(k)
        elif i0 < i1:
            links[i1].append((k, 1, i0, 0))
        else:
            links[i0].append((k, 0, i1, 1))
    edge_auts = [[cls.aut_count for cls in subgroup_classes(e.group)]
                 for e in g.edges]
    edge_counts = {}

    def edge_count(k, lam, m):
        c = edge_counts.get((k, lam))
        if c is None:
            c = edge_counts[k, lam] = _orbit_count(m, lam, edge_auts[k])
        return c

    passes = []     # per vertex: its types, bucketed by degree
    spans = []      # per vertex: (edge, side) -> (start, end) in the vector
    cuts = []       # per vertex: (start, end) of each link's edge type
    for i, (_, grp) in enumerate(g.vertices):
        classes = subgroup_classes(grp)
        # class j's column: its row entries of every side matrix in turn
        columns = [tuple(row[j] for _, _, mat in sides[i] for row in mat)
                   for j in range(len(classes))]
        passes.append(_type_pass([cls.index for cls in classes],
                                 [cls.aut_count for cls in classes],
                                 columns, n))
        where, start = {}, 0
        for k, s, mat in sides[i]:
            where[k, s] = start, start + len(mat)
            start += len(mat)
        spans.append(where)
        cuts.append([where[k, s] for k, s, _, _ in links[i]])

    h = len(g.edges) - len(g.vertices) + 1
    for m in range(1, n + 1):
        fm = factorial(m)
        rows = [((), fm ** h, 1, ())]
        for i in range(len(names)):
            # each row's key, the edge types on i's links to placed
            # vertices, and i's (type, count, its edges' count, induced
            # types) by the same key
            keys = [tuple(placed[j][k, sj] for k, _, j, sj in links[i])
                    for _, _, _, placed in rows]
            buckets = {key: [] for key in keys}
            for t, den, vec in passes[i][m]:
                c, rem = divmod(fm, den)
                assert rem == 0, \
                    "orbit bookkeeping produced a non-integer count"
                bucket = buckets.get(tuple([vec[a:b] for a, b in cuts[i]]))
                if bucket is None:
                    continue
                induced = {key: vec[a:b]
                           for key, (a, b) in spans[i].items()}
                if any(induced[k, 0] != induced[k, 1] for k in loops[i]):
                    continue
                d = 1
                for k in loops[i]:
                    d *= edge_count(k, induced[k, 0], m)
                for k, s, _, _ in links[i]:
                    d *= edge_count(k, induced[k, s], m)
                bucket.append((t, c, d, induced))
            rows = [(combo + (t,), num * c, den * d, placed + (induced,))
                    for (combo, num, den, placed), key in zip(rows, keys)
                    for t, c, d, induced in buckets[key]]
        out = []
        for combo, num, den, _ in rows:
            value, rem = divmod(num, den)
            assert rem == 0, "type count did not cancel to an integer"
            out.append((combo, value))
        yield out


def hom_count_typesum(g: GraphOfGroups, n: int,
                      max_n: int = DEFAULT_TYPESUM_CAP) -> CountLedger:
    """|Hom(Gamma, S_m)| for m <= n as a sum over admissible types, plus
    transitive and subgroup counts via the marked-point recursion."""
    if n < 1:
        raise InputError("degree must be at least 1")
    if n > max_n:
        raise CapExceeded(f"type-sum counting capped at degree {max_n}, got {n}")
    names = [name for name, _ in g.vertices]
    totals = []
    for rows in _typesum_rows(g, n):
        totals.append(sum(c for _, c in rows))
    # the last rows are degree n's, the only ones whose types are kept
    per_type = tuple((TypePartition(n, tuple(zip(names, combo))), c)
                     for combo, c in rows)
    transitive = []
    for m in range(1, n + 1):
        t = totals[m - 1]
        for k in range(1, m):
            t -= comb(m - 1, k - 1) * transitive[k - 1] * totals[m - k - 1]
        transitive.append(t)
    subgroups = []
    for m in range(1, n + 1):
        s, rem = divmod(transitive[m - 1], factorial(m - 1))
        assert rem == 0, "transitive count not divisible by (m-1)!"
        subgroups.append(s)
    return CountLedger(n, tuple(totals), tuple(transitive), tuple(subgroups),
                       per_type)


# -- brute force -----------------------------------------------------------

def _cycle_type(p: Perm) -> tuple:
    return tuple(sorted(len(c) for c in p.cycles()))


def _centralizer_order(p: Perm, n: int) -> int:
    fixed = n - sum(len(c) for c in p.cycles())
    mult = {1: fixed}
    for c in p.cycles():
        mult[len(c)] = mult.get(len(c), 0) + 1
    out = 1
    for length, m in mult.items():
        out *= length ** m * factorial(m)
    return out


def _transporter_count(u: tuple, v: tuple, n: int) -> int:
    """Number of g in S_n conjugating the tuple u onto the tuple v, both
    given as image tuples."""
    if not u:
        return factorial(n)
    u, v = tuple(map(Perm, u)), tuple(map(Perm, v))
    if tuple(map(_cycle_type, u)) != tuple(map(_cycle_type, v)):
        return 0
    if len(u) == 1:
        # single element: conjugate iff same cycle type, count = |centralizer|
        return _centralizer_order(u[0], n)
    # g a g^-1 = b, that is g(a(i)) = b(g(i)) at every point i
    pairs = [(a.images, b.images) for a, b in zip(u, v)]
    return sum(1 for g in permutations(range(n))
               if all(g[a[i]] == b[g[i]] for a, b in pairs for i in range(n)))


def _symmetric_images(n: int) -> list:
    """(image tuple, order) of every element of S_n, in lexicographic
    order of the image tuples."""
    return [(q, Perm(q).order()) for q in permutations(range(n))]


def _vertex_homs(group: FiniteGroup, n: int, sym=None) -> list:
    """All homomorphisms group -> S_n.

    Each hom lists the image tuple of every element at its place in
    ``group.elements``.  Candidates are tuples of generator images whose
    orders divide the generators' orders; ``walk_images`` composes each
    along the group's kept walk, on its tree steps, and checks it on
    every other step, failing at the first conflict.  ``sym`` lists
    (image tuple, order) over S_n.
    """
    if sym is None:
        sym = _symmetric_images(n)
    steps = group.cayley()
    pools = [[x for x, o in sym if d % o == 0]
             for d in (gen.order() for gen in group.generators)]
    homs = []
    for gens in product(*pools):
        images, conflict = walk_images(steps, group.order, gens, n)
        if conflict is None:
            homs.append(tuple(images))
    return homs


def hom_count_enumerate(g: GraphOfGroups, n: int,
                        max_n: int = DEFAULT_ENUM_CAP) -> int:
    """|Hom(Gamma, S_n)| by brute force over generator images.

    Tree edges demand exact agreement of the two embedded copies of the
    edge group; every other edge contributes the number of ways to choose
    its conjugating letter.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    if n > max_n:
        raise CapExceeded(f"brute-force counting capped at degree {max_n}, got {n}")
    if n > ENUM_DEGREE_CEILING:
        raise CapExceeded(
            f"brute-force counting stops at degree {ENUM_DEGREE_CEILING}, "
            f"got {n}: Sym({n}) has order {factorial(n)}, past the default "
            f"group cap {DEFAULT_GROUP_CAP}; neither --max-n nor "
            f"--max-group-order raises this ceiling")
    for name, grp in g.vertices:
        if grp.order > DEFAULT_ENUM_GROUP_CAP:
            raise CapExceeded(
                f"vertex {name!r} too large: order {grp.order} exceeds "
                f"DEFAULT_ENUM_GROUP_CAP {DEFAULT_ENUM_GROUP_CAP}, which no "
                f"flag raises")
    tree = spanning_tree(g)
    bfs = tree.order
    pos = {v: i for i, v in enumerate(bfs)}
    sym = _symmetric_images(n)
    # vertices carrying equal groups share one hom list: a hom lists the
    # images of the sorted elements, so its generators do not matter
    walks = {}
    homs = {}
    for name, grp in g.vertices:
        if grp not in walks:
            walks[grp] = _vertex_homs(grp, n, sym)
        homs[name] = walks[grp]

    def positions(emb):
        """Indices in its vertex group's ``elements`` of an edge
        embedding's generators."""
        return tuple(map(emb.codomain.index.__getitem__,
                         map(emb.apply, emb.generators)))

    # each vertex's lookup keys, by slot: the element indices whose images
    # its children look up or a non-tree edge side compares
    slots = {v: {} for v in bfs}

    def slot(v, ps):
        return slots[v].setdefault(ps, len(slots[v]))

    parent = {}     # position -> (its parent's position, slot of the key)
    own = {}        # position -> its element indices on the parent edge
    for v, pv, e in tree.links:
        ex, ey = e.embeddings if e.ends[1] == v else e.embeddings[::-1]
        parent[pos[v]] = (pos[pv], slot(pv, positions(ex)))
        own[pos[v]] = positions(ey)
    # non-tree edges settle at the moment their later endpoint is placed
    pending = [[] for _ in bfs]
    for e in g.edges:
        if e.name not in tree:
            ends = tuple((pos[v], slot(v, positions(emb)))
                         for v, emb in zip(e.ends, e.embeddings))
            pending[max(i for i, _ in ends)].append(ends)
    # every hom's keys, built once: a root lists them all, any other
    # vertex buckets them by the images its parent edge must match
    candidates = []
    for i, v in enumerate(bfs):
        wanted = tuple(slots[v])
        keyed = [tuple(tuple(phi[k] for k in ps) for ps in wanted)
                 for phi in homs[v]]
        if i not in parent:
            candidates.append(keyed)
            continue
        index = {}
        for phi, keys in zip(homs[v], keyed):
            index.setdefault(tuple(phi[k] for k in own[i]), []).append(keys)
        candidates.append(index)

    total = 0
    assigned = [None] * len(bfs)    # the keys of each placed vertex's hom
    transporters = {}   # (images of u, images of v) -> count, this call only

    def place(i: int, factor: int):
        nonlocal total
        if i == len(bfs):
            total += factor
            return
        if i in parent:
            j, s = parent[i]
            choices = candidates[i].get(assigned[j][s], ())
        else:
            choices = candidates[i]
        for keys in choices:
            assigned[i] = keys
            f = factor
            for (i0, s0), (i1, s1) in pending[i]:
                key = (assigned[i0][s0], assigned[i1][s1])
                c = transporters.get(key)
                if c is None:
                    c = transporters[key] = _transporter_count(*key, n)
                f *= c
                if f == 0:
                    break
            if f:
                place(i + 1, f)

    place(0, 1)
    return total
