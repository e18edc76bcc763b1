"""Exact homomorphism and subgroup counting at small degree.

Everything the LP asserts asymptotically is checked here non-asymptotically:
|Hom(Gamma, S_n)| is computed two independent ways (a closed-form sum over
admissible representation types, and sheer brute force over generator
images), and index-n subgroup counts fall out of the transitive-count
recursion.  All results are exact big integers.

The per-orbit constant in the closed form is the automorphism count
c = (N_G(U) : U) of the coset space, not the point count of the orbit; the
two agree only for normal stabilizers.  S_3 into S_3 is the smallest case
that tells them apart (10 homomorphisms, not 6) and is pinned in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import comb, factorial, log

from .catalog import build_catalog, extend_hom
from .errors import CapExceeded, EmbeddingError, InputError
from .gog import GraphOfGroups, spanning_tree
from .groups import DEFAULT_GROUP_CAP, FiniteGroup, symmetric_group
from .growth import GrowthProgram, build_growth_program
from .perm import Perm, identity

DEFAULT_TYPESUM_CAP = 8
DEFAULT_ENUM_CAP = 6
DEFAULT_ENUM_GROUP_CAP = 120
# the brute-force counter lists Sym(n), so the group cap fixes its degree
# ceiling: the largest n with n! <= DEFAULT_GROUP_CAP (7 for 10000)
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
    """Exact number of homomorphisms Gamma -> S_n with the given type."""
    return _program_type_count(build_growth_program(g), xi)


def _program_type_count(program: GrowthProgram, xi: TypePartition) -> int:
    """type_hom_count over an already built growth program."""
    g = program.graph
    n = xi.n
    h = len(g.edges) - len(g.vertices) + 1
    value = Fraction(factorial(n)) ** h
    for name, grp in g.vertices:
        value *= vertex_hom_count(grp, xi.vertex(name), n)
    for (ename, ml, mr, ecat), e in zip(program.edge_matrices, g.edges):
        lam_l = ml.apply(xi.vertex(e.ends[0]))
        lam_r = mr.apply(xi.vertex(e.ends[1]))
        if lam_l != lam_r:
            raise InputError(f"type is not admissible across edge {ename!r}")
        value /= vertex_hom_count(e.group, lam_l, n)
    assert value.denominator == 1, "type count did not cancel to an integer"
    assert value >= 0
    return value.numerator


def _admissible_types(program: GrowthProgram, n):
    per_vertex = []
    names = []
    for name, cat in program.catalogs:
        names.append(name)
        per_vertex.append(_vertex_types(cat.degrees, n))
    edge_data = []
    for (ename, ml, mr, ecat), e in zip(program.edge_matrices,
                                        program.graph.edges):
        i0 = names.index(e.ends[0])
        i1 = names.index(e.ends[1])
        edge_data.append((i0, ml, i1, mr))
    for combo in product(*per_vertex):
        if all(ml.apply(combo[i0]) == mr.apply(combo[i1])
               for i0, ml, i1, mr in edge_data):
            yield TypePartition(n, tuple(zip(names, combo)))


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
        rows = tuple((xi, _program_type_count(program, xi))
                     for xi in _admissible_types(program, m))
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


@lru_cache(maxsize=None)
def _transporter_count(u: tuple, v: tuple, n: int) -> int:
    """Number of /g/ in S_n conjugating the tuple u onto the tuple v."""
    if not u:
        return factorial(n)
    if tuple(map(_cycle_type, u)) != tuple(map(_cycle_type, v)):
        return 0
    if len(u) == 1:
        # single element: conjugate iff same cycle type, count = |centralizer|
        return _centralizer_order(u[0], n)
    return sum(1 for gg in symmetric_group(n).elements
               if all(gg * a == b * gg for a, b in zip(u, v)))


def _vertex_homs(group: FiniteGroup, n: int) -> list:
    """All homomorphisms group -> S_n, as full mapping dicts."""
    gens = group.generators
    if not gens:
        return [{identity(group.degree): identity(n)}]
    sn = symmetric_group(n)
    pools = []
    for gen in gens:
        o = gen.order()
        pools.append([x for x in sn.elements if o % x.order() == 0])
    homs = []
    for images in product(*pools):
        try:
            homs.append(extend_hom(group, gens, images, target_degree=n))
        except EmbeddingError:
            continue
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
            f"got {n}: Sym({n}) has order {factorial(n)}, past the group cap "
            f"{DEFAULT_GROUP_CAP}, and --max-n cannot raise this ceiling")
    for name, grp in g.vertices:
        if grp.order > DEFAULT_ENUM_GROUP_CAP:
            raise CapExceeded(f"vertex {name!r} has order {grp.order}, "
                              f"cap {DEFAULT_ENUM_GROUP_CAP}")
    tree = spanning_tree(g)
    bfs = tree.order
    parent = {}     # vertex -> (embedding into its parent, into it, parent)
    for v, pv, e in tree.links:
        ex, ey = e.embeddings if e.ends[1] == v else e.embeddings[::-1]
        parent[v] = (ex, ey, pv)
    pos = {v: i for i, v in enumerate(bfs)}
    homs = {name: _vertex_homs(grp, n) for name, grp in g.vertices}
    buckets = {}
    for v, (ex, ey, pv) in parent.items():
        index = {}
        for phi in homs[v]:
            key = tuple(phi[ey.apply(a)] for a in ey.generators)
            index.setdefault(key, []).append(phi)
        buckets[v] = index
    # non-tree edges settle at the moment their later endpoint is placed
    pending = {i: [] for i in range(len(bfs))}
    for e in g.edges:
        if e.name not in tree:
            pending[max(pos[e.ends[0]], pos[e.ends[1]])].append(e)

    total = 0
    assigned = {}

    def place(i: int, factor: int):
        nonlocal total
        if i == len(bfs):
            total += factor
            return
        v = bfs[i]
        if v not in parent:
            candidates = homs[v]
        else:
            ex, ey, pv = parent[v]
            key = tuple(assigned[pv][ex.apply(a)] for a in ex.generators)
            candidates = buckets[v].get(key, ())
        for phi in candidates:
            assigned[v] = phi
            f = factor
            for e in pending[i]:
                u = tuple(assigned[e.ends[0]][e.embeddings[0].apply(a)]
                          for a in e.embeddings[0].generators)
                w = tuple(assigned[e.ends[1]][e.embeddings[1].apply(a)]
                          for a in e.embeddings[1].generators)
                f *= _transporter_count(u, w, n)
                if f == 0:
                    break
            if f:
                place(i + 1, f)
        assigned.pop(v, None)

    place(0, 1)
    return total


def slope_diagnostic(g: GraphOfGroups, n_max: int) -> list:
    """Floating-point trend of log|Hom| / (n log n) - 1 toward mu.

    Display only; nothing here is asserted against.
    """
    ledger = hom_count_typesum(g, n_max)
    out = []
    for m in range(2, n_max + 1):
        out.append((m, log(ledger.total(m)) / (m * log(m)) - 1))
    return out
