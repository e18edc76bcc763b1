"""Exact homomorphism and subgroup counting at small degree.

Everything the LP asserts asymptotically is checked here non-asymptotically:
|Hom(Gamma, S_n)| is computed two independent ways, and index-n subgroup
counts fall out of the transitive-count recursion.  All results are exact
big integers.

- The type sum adds a closed-form count over the admissible representation
  types.  It generates them by a join on the edge types they induce, one
  vertex at a time, not by filtering the full product of vertex types.
  ``type_hom_count`` recounts one type in ``Fraction`` arithmetic apart
  from the join.
- Brute force tries every tuple of generator images.  Each vertex group's
  Cayley graph is walked once per call, and each tuple is composed along
  the walk and checked on every edge of it.  A non-tree edge multiplies by
  the number of permutations conjugating one side's images onto the
  other's.  Those counts are memoized by image tuple in a dict that lives
  for one call; nothing in this module is cached across calls.  S_n is
  listed by ``itertools.permutations`` on image tuples, both for the
  generator images (``_symmetric_images``, in the lexicographic order of
  ``symmetric_group(n).elements``) and for the conjugating letters, with
  no Cayley walk and no ``Perm`` product, so this leg does not rest on
  ``groups.generate``, one of the routines it checks.

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

from .catalog import build_catalog
from .errors import CapExceeded, InputError
from .gog import GraphOfGroups, spanning_tree
from .groups import DEFAULT_GROUP_CAP, FiniteGroup, cayley_walk, walk_images
from .growth import GrowthProgram, build_growth_program
from .perm import Perm

DEFAULT_TYPESUM_CAP = 10
DEFAULT_ENUM_CAP = 6
DEFAULT_ENUM_GROUP_CAP = 120
# the brute-force counter draws images from all n! elements of Sym(n) and
# keeps to the group cap like any group the package builds, so its degree
# ceiling is the largest n with n! <= DEFAULT_GROUP_CAP (7 for 10000)
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

    def total(self, m: int = None) -> int:
        return self.totals[(self.n if m is None else m) - 1]

    def t(self, m: int = None) -> int:
        return self.transitive[(self.n if m is None else m) - 1]

    def s(self, m: int = None) -> int:
        return self.subgroups[(self.n if m is None else m) - 1]


def vertex_hom_count(group: FiniteGroup, eta, n: int) -> int:
    """Number of homomorphisms group -> S_n of the given type.

    eta lists one multiplicity per catalog class; the degree-weighted sum
    must be n.  The count is n! / prod(eta_i! * c_i^eta_i) with c_i the
    class aut_count.
    """
    cat = build_catalog(group)
    eta = tuple(eta)
    if len(eta) != len(cat.classes):
        raise InputError(f"type length {len(eta)} does not match "
                         f"{len(cat.classes)} classes")
    if any(e < 0 for e in eta):
        raise InputError("type multiplicities must be non-negative")
    if sum(e * cls.index for e, cls in zip(eta, cat.classes)) != n:
        raise InputError(f"type does not reach degree {n}")
    denom = 1
    for e, cls in zip(eta, cat.classes):
        denom *= factorial(e) * cls.aut_count ** e
    count, rem = divmod(factorial(n), denom)
    assert rem == 0, "orbit bookkeeping produced a non-integer count"
    return count


def _vertex_types(degrees, n):
    """All multiplicity tuples with degree-weighted sum n."""
    out = []

    def rec(i, left, acc):
        if i == len(degrees):
            if left == 0:
                out.append(tuple(acc))
            return
        d = degrees[i]
        top = left // d
        for m in range(top + 1):
            rec(i + 1, left - m * d, acc + [m])

    rec(0, n, [])
    return out


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
        lam_l = ml.apply(xi.vertex(e.ends[0]))
        lam_r = mr.apply(xi.vertex(e.ends[1]))
        if lam_l != lam_r:
            raise InputError(f"type is not admissible across edge {e.name!r}")
        value /= vertex_hom_count(e.group, lam_l, n)
    assert value.denominator == 1, "type count did not cancel to an integer"
    assert value >= 0
    return value.numerator


def _typesum_rows(program: GrowthProgram, n: int) -> tuple:
    """Every admissible type at degree n with its homomorphism count, in the
    order of the full product of vertex types.

    A join, not a filter over that product: vertices are placed in program
    order, each vertex's types are bucketed by the edge type they induce
    along its first edge to an already placed vertex, and any further edge
    is checked as the vertex is placed.  A type counts
    n!^h * prod(vertex counts) / prod(edge counts), in integers.
    """
    g = program.graph
    names = [name for name, _ in program.catalogs]
    at = {name: i for i, name in enumerate(names)}
    # per vertex: the edge sides it sits on, (edge position, side, matrix)
    sides = [[] for _ in names]
    links = [[] for _ in names]   # (edge, side, earlier vertex, its side)
    loops = [[] for _ in names]
    for k, (e, ml, mr) in enumerate(program.edges):
        i0, i1 = at[e.ends[0]], at[e.ends[1]]
        sides[i0].append((k, 0, ml))
        sides[i1].append((k, 1, mr))
        if i0 == i1:
            loops[i0].append(k)
        elif i0 < i1:
            links[i1].append((k, 1, i0, 0))
        else:
            links[i0].append((k, 0, i1, 1))
    edge_counts = {}

    def edge_count(k, lam):
        c = edge_counts.get((k, lam))
        if c is None:
            c = edge_counts[k, lam] = vertex_hom_count(g.edges[k].group,
                                                       lam, n)
        return c

    h = len(g.edges) - len(g.vertices) + 1
    rows = [((), factorial(n) ** h, 1, ())]
    for i, (name, cat) in enumerate(program.catalogs):
        grp = g.vertex_group(name)
        entries = []    # (type, count, loop edges' count, induced types)
        for t in _vertex_types(cat.degrees, n):
            induced = {(k, s): mat.apply(t) for k, s, mat in sides[i]}
            if any(induced[k, 0] != induced[k, 1] for k in loops[i]):
                continue
            loop_den = 1
            for k in loops[i]:
                loop_den *= edge_count(k, induced[k, 0])
            entries.append((t, vertex_hom_count(grp, t, n), loop_den,
                            induced))
        checks = links[i][1:]
        if links[i]:
            k0, s0, j0, sj0 = links[i][0]
            buckets = {}
            for entry in entries:
                buckets.setdefault(entry[3][k0, s0], []).append(entry)
        grown = []
        for combo, num, den, placed in rows:
            candidates = (buckets.get(placed[j0][k0, sj0], ())
                          if links[i] else entries)
            for t, c, loop_den, induced in candidates:
                if any(induced[k, s] != placed[j][k, sj]
                       for k, s, j, sj in checks):
                    continue
                d = den * loop_den
                for k, s, _, _ in links[i]:
                    d *= edge_count(k, induced[k, s])
                grown.append((combo + (t,), num * c, d, placed + (induced,)))
        rows = grown
    out = []
    for combo, num, den, _ in rows:
        value, rem = divmod(num, den)
        assert rem == 0, "type count did not cancel to an integer"
        out.append((TypePartition(n, tuple(zip(names, combo))), value))
    return tuple(out)


def hom_count_typesum(g: GraphOfGroups, n: int,
                      max_n: int = DEFAULT_TYPESUM_CAP) -> CountLedger:
    """|Hom(Gamma, S_m)| for m <= n as a sum over admissible types, plus
    transitive and subgroup counts via the marked-point recursion."""
    if n < 1:
        raise InputError("degree must be at least 1")
    if n > max_n:
        raise CapExceeded(f"type-sum counting capped at degree {max_n}, got {n}")
    program = build_growth_program(g)
    totals = []
    per_type = ()
    for m in range(1, n + 1):
        rows = _typesum_rows(program, m)
        totals.append(sum(c for _, c in rows))
        if m == n:
            per_type = rows
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


def _vertex_homs(group: FiniteGroup, n: int, sym=None) -> tuple:
    """All homomorphisms group -> S_n, as (walk positions, homs).

    Each hom lists the image tuple of every element at its Cayley-walk
    position.  Candidates are tuples of generator images whose orders
    divide the generators' orders; ``walk_images`` composes each along
    the tree steps and checks it on every other step, failing at the
    first conflict.  ``sym`` lists (image tuple, order) over S_n.
    """
    if sym is None:
        sym = _symmetric_images(n)
    at, steps = cayley_walk(group.generators, group.degree, group.order)
    pools = [[x for x, o in sym if d % o == 0]
             for d in (gen.order() for gen in group.generators)]
    homs = []
    for gens in product(*pools):
        images, conflict = walk_images(steps, len(at), gens, n)
        if conflict is None:
            homs.append(tuple(images))
    return at, homs


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
            f"got {n}: Sym({n}) has order {factorial(n)}, past the group cap "
            f"{DEFAULT_GROUP_CAP}, and --max-n cannot raise this ceiling")
    for name, grp in g.vertices:
        if grp.order > DEFAULT_ENUM_GROUP_CAP:
            raise CapExceeded(f"vertex {name!r} has order {grp.order}, "
                              f"cap {DEFAULT_ENUM_GROUP_CAP}")
    tree = spanning_tree(g)
    bfs = tree.order
    sym = _symmetric_images(n)
    walks = {}      # vertices carrying equal groups share one hom list
    at = {}
    homs = {}
    for name, grp in g.vertices:
        key = (grp.degree, grp.generators)
        if key not in walks:
            walks[key] = _vertex_homs(grp, n, sym)
        at[name], homs[name] = walks[key]

    def positions(v, emb):
        """Walk positions in v's group of an edge embedding's generators."""
        return tuple(at[v][emb.apply(a)] for a in emb.generators)

    parent = {}     # vertex -> (its parent's positions, its own, parent)
    for v, pv, e in tree.links:
        ex, ey = e.embeddings if e.ends[1] == v else e.embeddings[::-1]
        parent[v] = (positions(pv, ex), positions(v, ey), pv)
    pos = {v: i for i, v in enumerate(bfs)}
    buckets = {}
    for v, (_, py, _) in parent.items():
        index = {}
        for phi in homs[v]:
            index.setdefault(tuple(phi[k] for k in py), []).append(phi)
        buckets[v] = index
    # non-tree edges settle at the moment their later endpoint is placed
    pending = {i: [] for i in range(len(bfs))}
    for e in g.edges:
        if e.name not in tree:
            pending[max(pos[e.ends[0]], pos[e.ends[1]])].append(
                tuple((v, positions(v, emb))
                      for v, emb in zip(e.ends, e.embeddings)))

    total = 0
    assigned = {}
    transporters = {}   # (images of u, images of v) -> count, this call only

    def place(i: int, factor: int):
        nonlocal total
        if i == len(bfs):
            total += factor
            return
        v = bfs[i]
        if v not in parent:
            candidates = homs[v]
        else:
            px, _, pv = parent[v]
            key = tuple(assigned[pv][k] for k in px)
            candidates = buckets[v].get(key, ())
        for phi in candidates:
            assigned[v] = phi
            f = factor
            for (v0, p0), (v1, p1) in pending[i]:
                key = (tuple(assigned[v0][k] for k in p0),
                       tuple(assigned[v1][k] for k in p1))
                c = transporters.get(key)
                if c is None:
                    c = transporters[key] = _transporter_count(*key, n)
                f *= c
                if f == 0:
                    break
            if f:
                place(i + 1, f)
        assigned.pop(v, None)

    place(0, 1)
    return total
