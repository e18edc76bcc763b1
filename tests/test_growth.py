import dataclasses
from fractions import Fraction
from operator import mul

import pytest

from make_lp_golden import ROOT, lp_graphs
from vfgrowth import growth
from vfgrowth.catalog import EmbeddingMap, _mark, restriction_matrix
from vfgrowth.corpus import (infinite_dihedral, klein_amalgam, modular_graph,
                             triangle_graph)
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import (GogEdge, amalgam, cyclic_amalgam,
                          euler_characteristic, family_amalgam, free_group,
                          free_product, load_gog, make_graph, parse_gog)
from vfgrowth.groups import (_is_prime, alternating_group,
                             cyclic_group, dihedral_group, direct_product,
                             generate, klein_four, subgroup_classes,
                             symmetric_group, trivial_group)
from vfgrowth.growth import (build_growth_program, cyclic_amalgam_mu,
                             euler_tight, family_mu, mu, plan_graph,
                             plan_graph_text, realize, uniform_mu)
from vfgrowth.perm import Perm, identity, parse_perm
from vfgrowth.selftest import criterion_p6


def test_mu_known_small_graphs():
    assert mu(modular_graph()).mu == Fraction(1, 6)
    assert mu(infinite_dihedral()).mu == 0
    assert mu(klein_amalgam()).mu == Fraction(1, 4)
    assert mu(triangle_graph()).mu == Fraction(9, 10)
    for r in range(1, 5):
        assert mu(free_group(r)).mu == r - 1


def test_mu_report_fields():
    r = mu(klein_amalgam())
    assert r.chi == Fraction(-1, 6)
    assert r.mu_free == Fraction(1, 6)
    assert r.solution.status == "optimal"
    assert "a" in r.dominant and "b" in r.dominant
    assert r.notes == ()


def test_mu_objective_bookkeeping():
    for g in (modular_graph(), klein_amalgam(), triangle_graph()):
        r = mu(g)
        assert sum(t for _, t in r.tau) - sum(s for _, s in r.sigma) == r.mu
        for name, _ in g.vertices:
            w = r.optimizer.vertex(name)
            cat = dict(r.program.catalogs)[name]
            assert sum(x * cls.index for x, cls in zip(w, cat)) == 1
            assert dict(r.sigma)[name] == sum(w)
        assert r.mu >= -r.chi


def test_sigma_and_tau_match_both_sides_of_every_edge():
    # mu() reads tau_e from the left side's column sums alone, and sums
    # sigma, tau and chi in ints over one denominator; recompute both
    # sides' induced edge types from the optimizer, and chi from its
    # 1/|G| terms, in Fractions
    for name, g in lp_graphs():
        r = mu(g)
        w = dict(r.optimizer.weights)
        assert r.sigma == tuple((v, sum(w[v], Fraction(0)))
                                for v, _ in g.vertices), name
        taus = []
        for e in g.edges:
            # rows[j][i] copies of edge class j per copy of vertex class i
            lam, other = (tuple(sum(map(mul, row, w[end]))
                                for row in restriction_matrix(emb))
                          for emb, end in zip(e.embeddings, e.ends))
            assert lam == other, (name, e.name)
            taus.append((e.name, sum(lam, Fraction(0))))
        assert r.tau == tuple(taus), name
        chi = sum(Fraction(1, grp.order) for _, grp in g.vertices) \
            - sum(Fraction(1, e.group.order) for e in g.edges)
        assert (r.chi, r.mu_free) == (chi, -chi), name
        # a float equal to a dyadic rational compares equal to it, so the
        # checks above would pass a float
        values = [r.mu, r.chi, r.mu_free, *(s for _, s in r.sigma),
                  *(t for _, t in r.tau)]
        assert {type(v) for v in values} == {Fraction}, name


def test_mu_formats_no_dominant_text_until_it_is_read(monkeypatch):
    calls = []
    describe = growth._dominant_description

    def counted(*args):
        calls.append(args)
        return describe(*args)
    monkeypatch.setattr(growth, "_dominant_description", counted)
    rep = mu(load_gog(ROOT / "graphs" / "klein.gog"))
    assert calls == []
    # the text of the CLI golden report-json-klein.txt
    assert rep.dominant == ("a: 1/18 * <(1 2)(3 4), (1 3)(2 4)> (index 6); "
                            "1/36 * <()> (index 24)\n"
                            "b: 1/6 * <(3 4), (1 2)> (index 6)")
    assert len(calls) == 1


def test_mu_raises_when_the_optimum_breaks_admissibility(monkeypatch):
    # the certificate is the one check of the admissibility rows: an
    # optimum that breaks them must not be reported
    g = klein_amalgam()
    program = build_growth_program(g)
    lp = program.lp
    good = growth.solve_max(lp)
    # all of vertex a on its regular class, all of b on its trivial one:
    # both normalization rows hold and the edge types differ (in two rows
    # at least, since either side's edge types have total degree 1)
    a, b = (dict(program.columns)[v] for v in "ab")
    point = [Fraction(0)] * lp.num_vars
    point[a[-1]] = Fraction(1, 24)
    point[b[0]] = Fraction(1)
    residuals = [sum(c * x for c, x in zip(row, point)) - rhs
                 for row, rhs in zip(lp.rows, lp.rhs)]
    assert residuals[:2] == [0, 0]
    assert any(residuals[2:])
    bad = dataclasses.replace(good, point=tuple(point))
    monkeypatch.setattr(growth, "solve_max", lambda _: bad)
    with pytest.raises(RuntimeError, match="duality certificate"):
        mu(g)


def test_mu_never_below_free_lower_bound():
    # the all-regular point is always feasible, so mu >= -chi
    g = free_product([symmetric_group(3), cyclic_group(2), cyclic_group(4)])
    r = mu(g)
    assert r.mu >= -r.chi


def test_free_product_closed_form():
    groups = [symmetric_group(3), cyclic_group(2), cyclic_group(4)]
    want = len(groups) - 1 - sum(Fraction(1, g.order) for g in groups)
    assert mu(free_product(groups)).mu == want
    assert mu(free_product([cyclic_group(2), cyclic_group(2)])).mu == 0


def test_mu_is_order_independent():
    g = triangle_graph()
    shuffled = make_graph(tuple(reversed(g.vertices)),
                          tuple(reversed(g.edges)))
    assert mu(shuffled).mu == mu(g).mu


def test_mu_flags_disagreement_with_prior_report():
    # the report carries no prior value; selftest P6 checks the old 3/2
    assert mu(triangle_graph()).notes == (
        "growth is as slow as free subgroups allow (mu = -chi)",)
    assert "the previously reported 3/2 does not survive recomputation" \
        in criterion_p6().detail


def test_normal_klein_amalgam_has_no_prior_report_note():
    # same vertex orders, edge order and chi as the Klein amalgam, but both
    # embeddings have the normal four-group as image
    s4, v = symmetric_group(4), klein_four()
    r = mu(amalgam(s4, s4, v, v.generators, v.generators))
    assert r.mu == Fraction(2, 3)
    assert r.notes == ()


def test_growth_program_shape():
    p = build_growth_program(klein_amalgam())
    assert p.lp.num_vars == 11 + 11
    # one normalization row per vertex, one admissibility row per edge class
    assert p.lp.num_constraints == 2 + 5
    assert dict(p.columns) == {"a": range(11), "b": range(11, 22)}


CLOSED_FORM_CASES = (
    ("Sym(4)", "(1 2)", Fraction(5, 12), True),
    ("Sym(4)", "(1 2 3)", Fraction(1, 4), True),
    ("Sym(4)", "(1 2)(3 4)", Fraction(2, 3), False),
    ("Dih(4)", "(1 3)(2 4)", Fraction(1, 2), False),
    ("Sym(5)", "(1 2)", Fraction(11, 20), False),
    ("Sym(5)", "(1 2)(3 4)", Fraction(8, 15), False),
)

_CTORS = {"Sym(4)": lambda: symmetric_group(4),
          "Sym(5)": lambda: symmetric_group(5),
          "Dih(4)": lambda: dihedral_group(4)}


@pytest.mark.parametrize("gname,xtext,want,tight", CLOSED_FORM_CASES)
def test_cyclic_amalgam_closed_form(gname, xtext, want, tight):
    g = _CTORS[gname]()
    x = parse_perm(xtext, g.degree)
    val, _cls = cyclic_amalgam_mu(g, x)
    assert val == want
    assert euler_tight(g, x) is tight
    chi = euler_characteristic(cyclic_amalgam(g, x)).chi
    assert (val == -chi) is tight


@pytest.mark.parametrize("gname,xtext,want,tight", CLOSED_FORM_CASES[:4])
def test_closed_form_agrees_with_lp(gname, xtext, want, tight):
    g = _CTORS[gname]()
    x = parse_perm(xtext, g.degree)
    assert mu(cyclic_amalgam(g, x)).mu == want


def test_cyclic_amalgam_mu_reuses_the_catalog_classes():
    # one memo entry per group: the maximizing class is one of the very
    # objects subgroup_classes returns, not a copy from a second list
    s4 = symmetric_group(4)
    _val, cls = cyclic_amalgam_mu(s4, parse_perm("(1 2)", 4))
    assert any(cls is c for c in subgroup_classes(s4))


def _graph_on(g, vertices, edges):
    # one vertex G per name in ``vertices``; ``edges`` holds (A, ends)
    # pairs, each A embedded by inclusion at both ends
    gog_edges = []
    for i, (a, ends) in enumerate(edges):
        side = EmbeddingMap(a, g, a.generators)
        gog_edges.append(GogEdge(f"e{i}", tuple(ends), a, (side, side)))
    return make_graph([(v, g) for v in vertices], gog_edges)


def test_symmetric_amalgam_mu_examples():
    # the amalgam G *_A G is the shape (V, E) = (2, 1)
    s4 = symmetric_group(4)
    # A = 1: G * G, whose growth is 1 - 2/|G| (Dey), at H = 1
    value, cls = uniform_mu(s4, trivial_group(4), 2, 1)
    assert (value, cls.order) == (Fraction(11, 12), 1)
    # A = G: one double coset for every H, so H = 1 wins with -1/|G|, as
    # the LP finds for G *_G G
    assert uniform_mu(s4, s4, 2, 1)[0] == Fraction(-1, 24) == \
        mu(amalgam(s4, s4, s4, s4.generators, s4.generators)).mu
    # the normal Klein four-group, as a group and as its element list
    v4 = generate([parse_perm("(1 2)(3 4)", 4), parse_perm("(1 3)(2 4)", 4)],
                  4)
    assert uniform_mu(s4, v4, 2, 1) == uniform_mu(s4, list(v4.elements), 2, 1)


def test_symmetric_loop_mu_examples():
    # the loop, one vertex G and one edge over A, is the shape (1, 1)
    s4 = symmetric_group(4)
    # A = 1: the loop is G * Z, whose growth is 1 - 1/|G|, at H = 1
    value, cls = uniform_mu(s4, trivial_group(4), 1, 1)
    assert (value, cls.order) == (Fraction(23, 24), 1)
    # A = G: one double coset for every H, so every term is 0, and the
    # first class, H = G, is returned
    value, cls = uniform_mu(s4, s4, 1, 1)
    assert (value, cls.order) == (0, 24)
    assert mu(_graph_on(s4, "u", [(s4, "uu")])).mu == 0


def test_uniform_mu_takes_every_connected_shape_and_no_other():
    # (1, 0) is G alone, a finite group, whose mu is -1/|G|
    s4 = symmetric_group(4)
    value, cls = uniform_mu(s4, s4, 1, 0)
    assert (value, cls.order) == (Fraction(-1, 24), 1)
    assert mu(make_graph([("v", s4)], [])).mu == value
    # no connected graph has no vertex, or fewer than V - 1 edges
    for vertices, edges in ((0, 0), (0, 1), (3, 1)):
        with pytest.raises(InputError, match="no connected graph has"):
            uniform_mu(s4, s4, vertices, edges)


def _lemma_groups():
    # the vertex groups of the 68 uniform graphs per shape and the 24
    # tightness cases below
    return (symmetric_group(4), alternating_group(4), dihedral_group(5),
            dihedral_group(6), alternating_group(5), symmetric_group(5),
            cyclic_group(6),
            direct_product(symmetric_group(3), symmetric_group(3)))


def _shape_against_lp(vertices, ends):
    # the uniform graph of one shape over every non-trivial proper class A
    # of every lemma group: mu certifies its optimum by duality, and the
    # closed form reads no LP; returns the number of graphs and of LPs that
    # repeat a column
    count = repeats = 0
    for g in _lemma_groups():
        for acls in subgroup_classes(g)[1:-1]:
            a = generate(acls.generators, g.degree)
            report = mu(_graph_on(g, vertices, [(a, e) for e in ends]))
            assert uniform_mu(g, acls, len(vertices), len(ends))[0] == \
                report.mu, (vertices, ends, g, acls)
            lp = report.program.lp
            columns = set(zip(zip(*lp.rows), lp.objective))
            repeats += len(columns) < lp.num_vars
            count += 1
    return count, repeats


def test_symmetric_amalgam_mu_equals_the_certified_lp():
    # G *_A G is the path u - v
    count, _ = _shape_against_lp("uv", ("uv",))
    assert count == 68


def test_symmetric_loop_mu_equals_the_certified_lp():
    count, repeats = _shape_against_lp("u", ("uu",))
    assert count == 68
    # a loop LP's edge rows are zero, so two classes of equal index and
    # equal orbit count give one column twice: 54 of the 68 LPs drop a
    # repeated column before the simplex
    assert repeats == 54


# the connected shapes beyond the path and the loop above
UNIFORM_SHAPES = {
    "triangle": ("uvx", ("uv", "vx", "xu")),
    "two loops": ("u", ("uu", "uu")),
    "theta": ("uv", ("uv", "uv", "uv")),
    "3-star": ("uvxy", ("uv", "ux", "uy")),
    "loop plus edge": ("uv", ("uu", "uv")),
}


def test_uniform_mu_equals_the_certified_lp():
    for shape, (vertices, ends) in UNIFORM_SHAPES.items():
        assert _shape_against_lp(vertices, ends)[0] == 68, shape


def test_mixed_edge_paths_grow_at_least_at_the_uniform_term():
    # a path u - v - x whose edges carry different classes A1 != A2: one
    # class H at weight 1/(G:H) on every vertex is still feasible, so the
    # best term (|A1\G/H| + |A2\G/H| - 3)/(G:H) bounds mu below; with no
    # one restriction vector the bound is not always attained
    count = below = 0
    for g in (symmetric_group(4), alternating_group(4), dihedral_group(5)):
        classes = subgroup_classes(g)
        for a1 in classes[1:-1]:
            for a2 in classes[1:-1]:
                if a1 is a2:
                    continue
                # each class's term, read from the catalog's marks
                best = max(
                    (sum(Fraction(sum(_mark(h, {y}) for y in a.members[0]),
                                  a.order) for a in (a1, a2)) - 3) / h.index
                    for h in classes)
                path = _graph_on(g, "uvx", [
                    (generate(a1.generators, g.degree), "uv"),
                    (generate(a2.generators, g.degree), "vx")])
                lp = mu(path).mu
                assert best <= lp, (g, a1, a2)
                below += best < lp
                count += 1
    assert count == 80
    # 20 of the 80 paths grow strictly faster than the term
    assert below == 20


def test_frobenius_loops_grow_at_the_trivial_class_term():
    """The loop over A = C_m at G = C_q ⋊ C_m, the identity at both ends,
    has mu = (q - 1)/(qm), for q prime, 1 < m dividing q - 1 and
    q(q - 1) <= 1000: 38 groups, q <= 31.

    Proof, from ``uniform_mu``'s max over H of (|A\\G/H| - 1)/(G:H) at
    (V, E) = (1, 1), with |A\\G/H| the mean over a in A of
    fix(a, G/H).  G acts on Z/q by x -> cx + b with c in the order-m
    subgroup of units, and A, the stabilizer of 0, is a complement of the
    normal C_q.  As q is prime to m, a subgroup H either has order divisible
    by q, so contains C_q, or lies in a complement (Schur-Zassenhaus).
    (i) H contains C_q: G/H is a quotient of G/C_q, onto which A maps, so
    A is transitive on G/H, |A\\G/H| = 1 and the term is 0.  (ii) H is
    conjugate to a subgroup D of A, of order d: A meets each of its other
    conjugates trivially, since a non-identity element of A fixes only 0,
    so for 1 != a in A, a^g lies in D only if g is in A, where a^g = a.
    Thus fix(a, G/D) = m/d for 1 != a in D (N_G(D) = A) and 0 for a in
    A outside D, while fix(1, G/D) = qm/d.  So |A\\G/D| = (q + d - 1)/d,
    and the term is ((q - 1)/d)/(qm/d) = (q - 1)/(qm), whatever d is.
    Every case (ii) class, the trivial one (d = 1) included, attains this
    positive maximum, and class order puts the complement's class (core 1, order
    m) first among them, so the trivial class is never the one returned.
    """
    count = 0
    for q in filter(_is_prime, range(3, 32)):
        shift = Perm(tuple((x + 1) % q for x in range(q)))
        for m in range(2, q):
            if (q - 1) % m:
                continue
            c = next(c for c in range(2, q) if min(
                k for k in range(1, q) if pow(c, k, q) == 1) == m)
            scale = Perm(tuple(c * x % q for x in range(q)))
            g, a = generate([shift, scale], q), generate([scale], q)
            assert g.order == q * m
            law = Fraction(q - 1, q * m)
            value, first = uniform_mu(g, a, 1, 1)
            assert value == law and first.order == m, (q, m)
            # each class's term, read from the catalog's marks
            sub = {g.index[y] for y in a.elements}
            classes = subgroup_classes(g)
            for cls in classes:
                double_cosets = Fraction(sum(_mark(cls, {y}) for y in sub), m)
                term = (double_cosets - 1) / cls.index
                assert term == (law if m % cls.order == 0 else 0), (q, m)
            assert classes[-1].order == 1
            count += 1
    assert count == 38


def test_c2_to_the_fifth_amalgam_over_c2():
    # C2^5 as five disjoint transpositions, glued to itself over <(1 2)>:
    # 748 LP columns, only 20 of them distinct
    g = generate([Perm(tuple(p ^ (p // 2 == i) for p in range(10)))
                  for i in range(5)], 10)
    x = parse_perm("(1 2)", 10)
    report = mu(cyclic_amalgam(g, x))
    lp = report.program.lp
    assert report.mu == Fraction(7, 8) == cyclic_amalgam_mu(g, x)[0]
    assert lp.num_vars == 748
    assert len(set(zip(zip(*lp.rows), lp.objective))) == 20


def test_uniform_mu_is_a_class_function():
    # every conjugate of A, formed by Perm products, gives the value and
    # the very class object that A's class gives
    for g in _lemma_groups():
        for acls in subgroup_classes(g):
            want = uniform_mu(g, acls, 2, 1)
            rep = [g.elements[i] for i in acls.members[0]]
            conjugates = {frozenset(s * a * s.inverse() for a in rep)
                          for s in g.elements}
            assert len(conjugates) == acls.class_size
            for members in conjugates:
                value, cls = uniform_mu(g, members, 2, 1)
                assert value == want[0] and cls is want[1]


def test_uniform_mu_matches_a_fraction_rederivation():
    # uniform_mu compares its terms in ints; here each term is a Fraction
    # and the first class attaining the maximum is kept, so ties check
    # which class is returned
    count = ties = 0
    for g in (symmetric_group(4), alternating_group(4), dihedral_group(5),
              cyclic_group(6), symmetric_group(5)):
        classes = subgroup_classes(g)
        for acls in classes:
            sub = acls.members[0]
            for vertices, edges in ((1, 0), (1, 1), (2, 1), (3, 3), (2, 3)):
                terms = [(edges * Fraction(sum(_mark(h, {y}) for y in sub),
                                           len(sub)) - vertices) / h.index
                         for h in classes]
                best = max(terms)
                value, cls = uniform_mu(g, acls, vertices, edges)
                assert value == best and type(value) is Fraction
                assert cls is classes[terms.index(best)]
                ties += terms.count(best) > 1
                count += 1
    assert (count, ties) == (215, 54)


def test_euler_tight_is_the_trivial_class_attaining_the_maximum():
    # mu = -chi exactly when H = 1, whose term is 1/p - 2/|G|, attains the
    # maximum of the closed form
    count = 0
    for g in _lemma_groups():
        for cls in subgroup_classes(g):
            p = cls.order
            if not _is_prime(p) or g.order <= 2 * p:
                continue
            x = cls.generators[0]
            value, _ = cyclic_amalgam_mu(g, x)
            assert euler_tight(g, x) is \
                (value == Fraction(1, p) - Fraction(2, g.order)), (g, x)
            count += 1
    assert count == 24


def test_cyclic_amalgam_mu_needs_neither_prime_order_nor_a_large_group():
    # the closed form holds over any A, so neither refusal is left
    for g, text in ((symmetric_group(4), "(1 2 3 4)"),
                    (symmetric_group(3), "(1 2 3)")):
        x = parse_perm(text, g.degree)
        assert cyclic_amalgam_mu(g, x)[0] == mu(cyclic_amalgam(g, x)).mu
    with pytest.raises(InputError, match="is not an element of the group"):
        cyclic_amalgam_mu(symmetric_group(3), parse_perm("(1 2 3 4)", 4))


def test_cyclic_amalgam_over_the_identity_is_the_free_product():
    s3 = symmetric_group(3)
    e = identity(3)
    assert mu(cyclic_amalgam(s3, e)).mu == Fraction(2, 3)
    assert mu(free_product([s3, s3])).mu == Fraction(2, 3)
    assert cyclic_amalgam_mu(s3, e)[0] == Fraction(2, 3)


def test_family_mu_formula_values():
    assert family_mu(3, 4, 1) == Fraction(1, 4)
    assert family_mu(2, 6, 1) == Fraction(1, 2)        # delta kicks in
    assert family_mu(2, 6, 2) == Fraction(1, 2)        # even l, no delta
    assert family_mu(5, 11, 2) == Fraction(2, 11)
    assert family_mu(3, 7, 1, "alternating") == Fraction(3, 7)
    assert family_mu(11, 35, 2) == Fraction(2, 5)
    assert family_mu(11, 110, 1) == Fraction(9, 10)


def test_family_mu_exceptional_pairs():
    assert family_mu(2, 5, 2) == Fraction(1, 2)
    assert family_mu(2, 5, 2, "alternating") == Fraction(1, 3)
    assert family_mu(3, 7, 2) == Fraction(2, 5)
    assert family_mu(3, 7, 2, "alternating") == Fraction(1, 3)


def test_family_mu_validation():
    with pytest.raises(InputError, match="prime"):
        family_mu(6, 13, 1)
    with pytest.raises(InputError, match="at least 1"):
        family_mu(3, 7, 0)
    with pytest.raises(InputError, match="p odd"):
        family_mu(2, 7, 1, "alternating")
    with pytest.raises(InputError, match="k - l\\*p"):
        family_mu(3, 6, 2)


def test_family_mu_agrees_with_lp_for_smallest_case():
    assert mu(family_amalgam(3, 4, 1)).mu == family_mu(3, 4, 1)


FROZEN_PLANS = {
    (1, 2): (0, 3, 6, 1, "symmetric"),
    (2, 5): (0, 11, 35, 2, "symmetric"),
    (5, 7): (0, 11, 42, 1, "alternating"),
    (9, 10): (0, 11, 110, 1, "symmetric"),
    (7, 3): (2, 5, 9, 1, "alternating"),
}


def test_realize_frozen_plans():
    for (a, b), (r, p, k, l, variant) in FROZEN_PLANS.items():
        plan = realize(a, b)
        assert (plan.integer_part, plan.p, plan.k, plan.l, plan.variant) == \
            (r, p, k, l, variant)
        assert plan.predicted_mu == Fraction(a, b)


def test_realize_integers_become_free_groups():
    for n in range(4):
        plan = realize(n, 1)
        assert plan.is_free and plan.free_rank == n + 1
        assert mu(plan_graph(plan)).mu == n


def test_realize_grid_property():
    from math import gcd
    for b in range(1, 8):
        for a in range(0, 3 * b + 1):
            if gcd(a, b) != 1:
                continue
            plan = realize(a, b)
            assert plan.predicted_mu == Fraction(a, b)
            if plan.is_free:
                assert a % b == 0
                continue
            assert plan.k - plan.l * plan.p >= 2
            assert plan.p > b
            assert plan.integer_part + \
                family_mu(plan.p, plan.k, plan.l, plan.variant) == Fraction(a, b)


def test_realize_plans_avoid_the_tabulated_exceptions():
    # realize skips no key of growth._FAMILY_EXCEPTIONS, whose values
    # family_mu returns in place of the formula: no plan may land on one
    from math import gcd
    for b in range(1, 61):
        for a in range(4 * b):
            if gcd(a, b) == 1:
                plan = realize(a, b)
                assert (plan.p, plan.k, plan.l) not in \
                    growth._FAMILY_EXCEPTIONS, (a, b)


def test_realize_describe_and_text():
    plan = realize(7, 3)
    assert plan.describe() == ("target=7/3 free_group(2) * "
                               "family(p=5, k=9, l=1, alternating) "
                               "delta=0 predicted_mu=7/3")
    text = plan_graph_text(plan)
    assert "Alt(9)" in text
    assert text.count("edge l") == 2
    with pytest.raises(CapExceeded):
        plan_graph(plan)          # Alt(9) exceeds the default element cap


def test_realize_rejects_bad_targets():
    with pytest.raises(InputError):
        realize(1, 0)
    with pytest.raises(InputError):
        realize(-1, 2)
    with pytest.raises(InputError):
        realize(2, 4)


def test_plan_graph_text_round_trip_small():
    plan = realize(1, 2)
    g = parse_gog(plan_graph_text(plan))
    assert [grp.order for _, grp in g.vertices] == [720, 720]
    assert euler_characteristic(g).chi == \
        euler_characteristic(plan_graph(plan)).chi


@pytest.mark.slow
def test_realized_half_growth_verified_by_lp():
    plan = realize(1, 2)
    assert mu(plan_graph(plan)).mu == Fraction(1, 2)
