"""Subgroup-growth coefficient of a virtually free group.

Given a finite graph of finite groups presenting the group, the number of
index-n subgroups grows like n^(mu*n) for a rational constant mu >= -chi.
This module computes mu exactly by linear programming over normalized
representation types.  For a uniform graph, V vertices each carrying G
and E edges each carrying A, embedded alike at every end, the optimum
also has a closed form read from the catalog's marks (``uniform_mu``),
which cross-checks the LP.

The LP: one variable per (vertex, transitive-representation class), the
normalized multiplicity of that class.  Per vertex the degree-weighted
multiplicities sum to 1; per edge the induced edge-group types must agree
from both sides.  The objective is (sum over edges of the induced-type
total) minus (sum over vertices of the multiplicity total): each vertex
contributes n!^(1 - sigma_v) homomorphisms of a fixed type, each edge
divides by n!^(1 - tau_e), and the n log n exponent keeps only the sigma
and tau terms.  Every constraint entry is an integer (a class index or an
orbit count) and every objective entry half an integer, so the program is
built in ints, a Fraction appearing only for an odd objective numerator,
one object per distinct value.

``mu`` reports the certified optimum with chi, the free bound -chi, and
each sigma_v and tau_e, summed in ints over one common denominator of the
optimizer: the certificate's scaling of the point, which the certificate
hands back, so the point is scaled once.  The report's ``dominant`` text
is built when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, mul, sub

from .catalog import _mark, restriction_matrix
from .errors import InputError
from .gog import (GraphOfGroups, _check_family_params, euler_characteristic,
                  family_graph_text, parse_gog)
from .groups import (FiniteGroup, _digit_limit, _is_prime, _prime_order,
                     _subgroup_class, generate, subgroup_classes)
from .perm import Perm
from .ratlp import LPSolution, RationalLP, _certified_point, solve_max

# Small amalgams in the two-symmetric-groups family whose growth exceeds
# the generic closed form; tabulated values, by (p, k, l) and variant.
_FAMILY_EXCEPTIONS = {
    (2, 5, 2): {"symmetric": Fraction(1, 2), "alternating": Fraction(1, 3)},
    (3, 7, 2): {"symmetric": Fraction(2, 5), "alternating": Fraction(1, 3)},
}


@dataclass(frozen=True)
class TypeVector:
    """Normalized representation type: per vertex, one rational weight per
    catalog class.  Feasible vectors satisfy the vertex normalization and
    the edge admissibility equations."""
    weights: tuple  # ((vertex name, (Fraction, ...)), ...)

    def vertex(self, name: str) -> tuple:
        for n, w in self.weights:
            if n == name:
                return w
        raise InputError(f"no vertex named {name!r}")


@dataclass(frozen=True)
class GrowthProgram:
    graph: GraphOfGroups
    lp: RationalLP
    catalogs: tuple          # ((vertex name, its subgroup_classes), ...)
    columns: tuple           # ((vertex name, range of its lp columns), ...)
    edges: tuple             # ((GogEdge, left rows, right rows), ...)


def _column_sums(rows) -> tuple:
    """Per vertex class, the number of edge orbits its restriction has:
    the weights that turn vertex multiplicities into tau_e."""
    return tuple(map(sum, zip(*rows)))


def build_growth_program(g: GraphOfGroups) -> GrowthProgram:
    catalogs = tuple((name, subgroup_classes(grp)) for name, grp in g.vertices)
    edges = tuple((e, *map(restriction_matrix, e.embeddings))
                  for e in g.edges)
    # tau_e is the same from either side on the feasible set; the
    # symmetrized form keeps the objective well-defined off it too.  So a
    # column's objective is (S - 2) / 2, S its orbit counts summed over the
    # edge sides it sits on: half of each side's tau_e, less 1 for sigma_v.
    orbits = {name: [0] * len(cat) for name, cat in catalogs}
    for e, ml, mr in edges:
        for mat, side in zip((ml, mr), e.ends):
            orbits[side] = list(map(add, orbits[side], _column_sums(mat)))

    # each distinct S gives one objective entry, built once per program
    entry = {t: t // 2 - 1 if t % 2 == 0 else Fraction(t - 2, 2)
             for t in set().union(*orbits.values())}
    names, objective, columns = [], [], []
    for name, cat in catalogs:
        columns.append((name, range(len(names), len(names) + len(cat))))
        names += [f"{name}.{i}" for i in range(1, len(cat) + 1)]
        objective += map(entry.__getitem__, orbits[name])
    # each vertex's columns, as a slice of a dense row
    span = {name: slice(c.start, c.stop) for name, c in columns}

    rows = []
    for name, cat in catalogs:
        row = [0] * len(names)
        row[span[name]] = [cls.index for cls in cat]
        rows.append(row)
    rhs = [1] * len(rows)
    for e, ml, mr in edges:
        left, right = map(span.__getitem__, e.ends)
        for lrow, rrow in zip(ml, mr):
            row = [0] * len(names)
            row[left] = lrow
            row[right] = map(sub, row[right], rrow)
            rows.append(row)
            rhs.append(0)
    lp = RationalLP(names, objective, rows, rhs)
    return GrowthProgram(g, lp, catalogs, tuple(columns), edges)


def build_growth_lp(g: GraphOfGroups) -> RationalLP:
    return build_growth_program(g).lp


@dataclass(frozen=True)
class GrowthReport:
    """What ``mu`` found: the optimum, chi and the free bound, the optimal
    type vector with its sigma_v and tau_e, and the program and solution
    they came from.  ``dominant``, the text that names every class of
    positive weight, is built from the optimizer each time it is read."""
    mu: Fraction
    chi: Fraction
    mu_free: Fraction
    optimizer: TypeVector
    sigma: tuple             # ((vertex name, Fraction), ...)
    tau: tuple               # ((edge name, Fraction), ...)
    notes: tuple
    program: GrowthProgram
    solution: LPSolution

    @property
    def dominant(self) -> str:
        return _dominant_description(self.program, self.optimizer)


def _dominant_description(program: GrowthProgram, tv: TypeVector) -> str:
    lines = []
    for name, cat in program.catalogs:
        parts = []
        for cls, w in zip(cat, tv.vertex(name)):
            if w:
                gens = ", ".join(str(p) for p in cls.generators) or "()"
                parts.append(f"{w} * <{gens}> (index {cls.index})")
        lines.append(f"{name}: " + ("; ".join(parts) if parts else "none"))
    return "\n".join(lines)


def mu(g: GraphOfGroups) -> GrowthReport:
    program = build_growth_program(g)
    sol = solve_max(program.lp)
    # The all-regular point is always feasible, so the LP cannot be
    # infeasible; tau <= 1 and sigma >= degree-weighted normalization keep
    # the objective bounded.
    assert sol.status == "optimal", sol.status
    # weak duality proves the optimum, whatever the simplex did; its
    # feasibility half checks every admissibility row, so tau_e is read
    # from the left side alone
    certificate = _certified_point(program.lp, sol)
    if certificate is None:
        raise RuntimeError("the LP optimum failed its duality certificate")
    point = sol.point
    tv = TypeVector(tuple((name, point[c.start:c.stop])
                          for name, c in program.columns))
    # sigma_v and tau_e in ints, on the certificate's scaling of the point:
    # X = d x, d the least common denominator
    d, xs = certificate
    at = {name: xs[c.start:c.stop] for name, c in program.columns}
    sigma = {name: sum(x) for name, x in at.items()}          # d sigma_v
    tau = {e.name: sum(map(mul, _column_sums(ml), at[e.ends[0]]))
           for e, ml, _ in program.edges}                     # d tau_e
    assert ((sum(tau.values()) - sum(sigma.values())) * sol.value.denominator
            == sol.value.numerator * d), "objective bookkeeping mismatch"

    eu = euler_characteristic(g)
    assert sol.value >= eu.mu_free, "optimum fell below the free lower bound"
    notes = []
    if sol.value == eu.mu_free:
        notes.append("growth is as slow as free subgroups allow (mu = -chi)")
    return GrowthReport(mu=sol.value, chi=eu.chi, mu_free=eu.mu_free,
                        optimizer=tv,
                        sigma=tuple((v, Fraction(s, d))
                                    for v, s in sigma.items()),
                        tau=tuple((e, Fraction(t, d)) for e, t in tau.items()),
                        notes=tuple(notes), program=program, solution=sol)


# -- closed form for uniform graphs ----------------------------------------

def uniform_mu(g: FiniteGroup, a, vertices: int, edges: int):
    """Growth coefficient of a uniform graph over (G, A): connected, with V
    vertices and E edges (loops included), every vertex group G and every
    edge group A, embedded alike at every end.  Returns (value, first
    subgroup class attaining it) for

        mu = max over H of (E |A\\G/H| - V) / (G:H).

    G *_A G is (V, E) = (2, 1), the loop over A with the identity at both
    ends is (1, 1), and G alone is (1, 0), with mu = -1/|G|.

    Proof.  Each edge row of the growth LP says its two ends restrict
    alike, so on a connected graph every vertex has one restriction vector
    r, whose orbit total |r| is every tau_e: the objective is
    E |r| - sum over v of sigma_v.  The mean of the vertices' weights keeps
    r, the normalization and sum sigma_v, so giving it to every vertex is
    feasible with the same objective.  There every edge row vanishes and only
    sum index * w = 1 is left, whose optimum puts weight 1/(G:H) on one
    class H, with the objective above.  One r needs one edge group A: on
    edges over different groups, one weight vector at every vertex is
    still feasible, so the term summed edge by edge is a lower bound, but
    the LP can exceed it.  ``a`` is a subgroup of g: a SubgroupClass, a
    FiniteGroup or an iterable of Perm.

    The terms are compared in ints, by cross-multiplying each numerator
    with the other term's index (|A| is common to every denominator).  The
    comparison is strict, so the first class attaining the maximum is
    returned, and one Fraction is built, for the maximum only.
    """
    if vertices < 1 or edges < vertices - 1:
        raise InputError(f"no connected graph has {vertices} vertices and "
                         f"{edges} edges")
    _, sub = _subgroup_class(g, a)
    order = len(sub)
    best = best_index = best_cls = None
    for cls in subgroup_classes(g):
        # Burnside: |A\G/H| is the mean over y in A of fix(y, G/H), so the
        # term is num / (|A| (G:H))
        num = edges * sum(_mark(cls, {y}) for y in sub) - vertices * order
        if best is None or num * best_index > best * cls.index:
            best, best_index, best_cls = num, cls.index, cls
    return Fraction(best, order * best_index), best_cls


def cyclic_amalgam_mu(g: FiniteGroup, x: Perm):
    """``uniform_mu`` over A = <x> at (V, E) = (2, 1): the growth of
    G *_<x> G."""
    if x not in g:
        raise InputError(f"{x} is not an element of the group")
    return uniform_mu(g, generate([x], g.degree), 2, 1)


def euler_tight(g: FiniteGroup, x: Perm) -> bool:
    """Whether G *_<x> G grows no faster than its free subgroups force,
    i.e. mu = -chi.  Holds exactly when the normalizer of <x> has order
    at most 2p."""
    p = _prime_order(x)
    if g.order <= 2 * p:
        raise InputError("criterion needs |G| > 2p")
    if x not in g:
        raise InputError(f"{x} is not an element of the group")
    cyc, _ = _subgroup_class(g, generate([x], g.degree))
    return cyc.normalizer_order <= 2 * p


def family_mu(p: int, k: int, l: int, variant: str = "symmetric") -> Fraction:
    """Closed-form growth of the two-symmetric-groups amalgam over C_p.

    delta corrects for p = 2 with an odd number of 2-cycles (the glued
    element is odd, which costs one extra intersection point).
    """
    _check_family_params(p, k, l, variant)
    exception = _FAMILY_EXCEPTIONS.get((p, k, l))
    if exception is not None:
        return exception[variant]
    if variant == "alternating":
        return 1 - Fraction((p - 1) * l + 2, k)
    delta = 1 if p == 2 and l % 2 else 0
    return 1 - Fraction((p - 1) * l + 1 + delta, k)


# -- realizing a prescribed rational growth coefficient --------------------

@dataclass(frozen=True)
class RealizationPlan:
    """Recipe for a virtually free group with mu = numerator/denominator:
    a free product of free_group(rank) [rank = extra_rank + 1 when the
    fractional part vanishes] with a family amalgam for the fractional
    part."""
    numerator: int
    denominator: int
    integer_part: int
    p: int
    k: int
    l: int
    variant: str
    delta: int
    predicted_mu: Fraction

    @property
    def is_free(self) -> bool:
        return self.p is None

    @property
    def free_rank(self) -> int:
        return self.integer_part + 1 if self.is_free else self.integer_part

    def describe(self) -> str:
        target = Fraction(self.numerator, self.denominator)
        if self.is_free:
            return (f"target={target} free_group({self.free_rank}) "
                    f"predicted_mu={self.predicted_mu}")
        head = f"family(p={self.p}, k={self.k}, l={self.l}, {self.variant})"
        if self.integer_part:
            head = f"free_group({self.integer_part}) * " + head
        return f"target={target} {head} delta={self.delta} " \
               f"predicted_mu={self.predicted_mu}"


def _primes_above(start: int):
    p = max(start, 1) + 1
    while True:
        if _is_prime(p):
            yield p
        p += 1


def realize(a: int, b: int) -> RealizationPlan:
    """Find a family amalgam (plus free rank) whose closed form
    (``family_mu``) predicts growth exactly a/b.

    A quick payoff of the closed form: every non-negative rational is the
    growth coefficient of some virtually free group.  The prediction is
    the formula's, not a certified value.
    """
    if b < 1:
        raise InputError("denominator must be positive")
    if a < 0:
        raise InputError("target must be non-negative")
    if gcd(a, b) != 1:
        raise InputError(f"{a}/{b} is not in lowest terms")
    r, a2 = divmod(a, b)
    limit = _digit_limit()
    if limit and r + 1 >= 10 ** limit:
        raise InputError(f"free rank of more than {limit} digits")
    if a2 == 0:
        return RealizationPlan(a, b, r, None, None, None, None, None,
                               predicted_mu=Fraction(a, b))
    d = b - a2
    for p in _primes_above(b):
        if d % 2:
            # odd gap: symmetric variant, (p-1) invertible mod d
            if gcd(p - 1, d) != 1:
                continue
            l = (-pow(p - 1, -1, d)) % d if d > 1 else 1
            num = b * l * (p - 1) + b
            variant = "symmetric"
        else:
            # even gap (so b odd): alternating variant, gcd(p-1, d) = 2
            if gcd(p - 1, d) != 2:
                continue
            half = (-pow((p - 1) // 2, -1, d // 2)) % (d // 2) if d > 2 else 0
            l = half if half else d // 2
            num = b * l * (p - 1) + 2 * b
            variant = "alternating"
        if num % d:
            continue
        k = num // d
        if k - l * p < 2:
            continue
        # p > b >= 2 is odd: no delta, and no tabulated exception
        predicted = family_mu(p, k, l, variant)
        assert predicted == Fraction(a2, b), "realization arithmetic is off"
        return RealizationPlan(a, b, r, p, k, l, variant, 0,
                               predicted_mu=r + predicted)
    raise AssertionError("no admissible prime found")  # unreachable


def plan_graph_text(plan: RealizationPlan) -> str:
    """Graph-of-groups source realizing the plan.

    Written directly as text: the amalgam vertices can be huge symmetric
    groups that we never want to instantiate element-by-element.
    """
    free_loop = "{ degree 1; gens (); left: (); right: (); }"
    if plan.is_free:
        lines = ["vertex v = Trivial"]
        lines += [f"edge l{i + 1} v v {free_loop}"
                  for i in range(plan.free_rank)]
        return "\n".join(lines) + "\n"
    text = family_graph_text(plan.p, plan.k, plan.l, plan.variant)
    for i in range(plan.integer_part):
        text += f"edge l{i + 1} a a {free_loop}\n"
    return text


def plan_graph(plan: RealizationPlan) -> GraphOfGroups:
    """Instantiate the plan (feasible only for modest k)."""
    return parse_gog(plan_graph_text(plan))
