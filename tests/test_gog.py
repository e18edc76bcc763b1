import re
from fractions import Fraction
from pathlib import Path

import pytest

from vfgrowth import catalog, gog, groups
from vfgrowth.corpus import corpus_graphs, modular_graph, triangle_graph
from vfgrowth.errors import CapExceeded, InputError, ParseError
from vfgrowth.gog import (amalgam, cycle_power_element, cyclic_amalgam,
                          euler_characteristic, family_amalgam,
                          family_graph_text, free_group, free_product,
                          load_gog, make_graph, parse_gog, spanning_tree,
                          to_text)
from vfgrowth.groups import (alternating_group, cyclic_group, symmetric_group,
                             trivial_group)
from vfgrowth.perm import Perm, parse_perm

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"

TRIANGLE_SRC = (GRAPHS / "triangle.gog").read_text()


def test_parse_triangle():
    g = parse_gog(TRIANGLE_SRC)
    assert g.vertex_names == ("a", "b", "c")
    assert tuple(e.name for e in g.edges) == ("e1", "e2", "e3")
    assert [grp.order for _, grp in g.vertices] == [6, 6, 10]
    assert [e.group.order for e in g.edges] == [3, 2, 2]
    assert euler_characteristic(g).chi == Fraction(-9, 10)


def test_parse_loops_and_named_groups():
    g = parse_gog("vertex v = Trivial\n"
                  "edge l v v { degree 1; gens (); left: (); right: (); }\n")
    assert g.edges[0].is_loop
    assert euler_characteristic(g).chi == 0
    g = parse_gog("vertex a = Dih(4)\nvertex b = Cyc(8)\n"
                  "edge e a b { degree 4; gens (1 2 3 4);\n"
                  "  into a: (1 2 3 4); into b: (1 3 5 7)(2 4 6 8); }\n")
    assert g.vertex_group("a").order == 8
    assert g.vertex_group("b").order == 8


S6_TEXT = ("vertex a { degree 6; gens (1 2), (1 2 3 4 5 6); }\n"
           "vertex b { degree 6; gens (1 2), (1 2 3 4 5 6); }\n"
           "edge e a b {\n    degree 6; gens (1 2);\n"
           "    into a: (1 2);\n    into b: (1 2);\n}\n")


@pytest.mark.parametrize("src", [
    "vertex a = Sym(6)\nvertex b = Sym(6)\n"
    "edge e a b { degree 6; gens (1 2); into a: (1 2); into b: (1 2); }\n",
    S6_TEXT,
])
def test_parse_builds_each_group_text_once(monkeypatch, src):
    sizes = []
    walk = groups.cayley_walk

    def counting_walk(gens, degree, cap):
        at, steps = walk(gens, degree, cap)
        sizes.append(len(at))
        return at, steps

    monkeypatch.setattr(groups, "cayley_walk", counting_walk)
    monkeypatch.setattr(catalog, "cayley_walk", counting_walk)
    g = parse_gog(src)
    assert g.vertex_group("a") is g.vertex_group("b")
    assert sizes.count(720) == 1
    assert to_text(g) == S6_TEXT


def test_parse_builds_other_generating_lists_apart():
    g = parse_gog("vertex a { degree 5; gens (1 2), (1 2 3 4 5); }\n"
                  "vertex b { degree 5; gens (1 2), (2 3), (3 4), (4 5); }\n"
                  "edge e a b { degree 5; gens (1 2);\n"
                  "  into a: (1 2); into b: (1 2); }\n")
    a, b = g.vertex_group("a"), g.vertex_group("b")
    assert a == b and a is not b


def test_parse_into_clauses_on_a_loop():
    g = parse_gog("vertex v { degree 2; gens (1 2); }\n"
                  "edge l v v { degree 2; gens (1 2);\n"
                  "  into v: (1 2); into v: (1 2); }\n")
    assert g.edges[0].embeddings[0] == g.edges[0].embeddings[1]


def test_parse_rejects_non_homomorphic_image():
    src = ("vertex a = Sym(3)\nvertex b = Sym(3)\n"
           "edge e a b { degree 3; gens (1 2 3);\n"
           "  into a: (1 2 3); into b: (1 2); }\n")
    with pytest.raises(ParseError, match="not a homomorphism"):
        parse_gog(src)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_gog("vertex a = Sym(3)\nvertex a = Sym(3)\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="unknown group constructor"):
        parse_gog("vertex a = Spineless(3)\n")
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_gog("vertex a = Sym(3)\n"
                  "edge e a z { degree 1; gens (); left: (); right: (); }\n")
    with pytest.raises(ParseError, match="needs both sides"):
        parse_gog("vertex a = Sym(3)\nvertex b = Sym(3)\n"
                  "edge e a b { degree 1; gens (); left: (); }\n")


def test_parse_rejects_duplicate_edge_names():
    loop = "{ degree 1; gens (); left: (); right: (); }\n"
    with pytest.raises(ParseError) as exc:
        parse_gog("vertex a = Sym(3)\n"
                  f"edge e a a {loop}edge f a a {loop}edge e a a {loop}")
    assert str(exc.value) == "duplicate edge name 'e'"


def test_parse_rejects_disconnected():
    with pytest.raises(ParseError, match=re.escape(
            "graph is not connected; unreachable vertices: ['b', 'd']")):
        parse_gog("vertex a = Sym(3)\nvertex b = Sym(3)\n"
                  "vertex c = Cyc(2)\nvertex d = Cyc(2)\n"
                  "edge e a c { degree 1; gens (); into a: (); into c: (); }\n")


def test_parse_respects_group_cap():
    from vfgrowth.errors import CapExceeded
    with pytest.raises(CapExceeded):
        parse_gog("vertex a = Sym(8)\n", max_group_order=1000)


def test_parse_refuses_a_group_whose_order_python_cannot_print():
    from vfgrowth.errors import CapExceeded
    with pytest.raises(CapExceeded, match="more than 4300 digits"):
        parse_gog("vertex a = Sym(100000)\n")


def test_parse_refuses_an_argument_too_long_for_int():
    # Cyc(k) of more digits than Python converts is refused as a cap, not
    # as int()'s ValueError; leading zeros do not count as digits
    from vfgrowth.errors import CapExceeded
    from vfgrowth.groups import _digit_limit
    limit = _digit_limit()
    for name in ("Cyc", "Sym", "Alt", "Dih"):
        with pytest.raises(CapExceeded) as exc:
            parse_gog(f"vertex a = {name}(" + "9" * (limit + 700) + ")\n")
        assert str(exc.value) == (f"group too large: order of more than "
                                  f"{limit} digits exceeds cap 10000")
    g = parse_gog("vertex a = Sym(" + "0" * (limit + 700) + "3)\n")
    assert g.vertex_group("a").order == 6


def test_parse_refuses_a_degree_too_long_for_int():
    # a ParseError naming the digit limit, not int()'s ValueError and not
    # the digits; leading zeros do not count, as for named groups
    from vfgrowth.groups import _digit_limit
    limit = _digit_limit()
    with pytest.raises(ParseError) as exc:
        parse_gog("vertex a { degree " + "9" * (limit + 700) + "; gens (); }\n")
    assert str(exc.value) == (f"line 1, col 19: bad degree: more than "
                              f"{limit} digits")
    g = parse_gog("vertex a { degree " + "0" * (limit + 700) +
                  "3; gens (1 2 3); }\n")
    assert g.vertex_group("a").order == 3


@pytest.mark.parametrize("text, degree", [
    ("vertex a { degree 100000; gens (); }\n", 100000),
    ("vertex a { degree 1234567890; gens (1 2); }\n", 1234567890),
    ("vertex a = Trivial\n"
     "edge e a a { degree 100000; gens (); left: (); right: (); }\n", 100000),
], ids=["vertex", "ten-digit", "edge"])
def test_parse_refuses_a_degree_past_the_group_cap(monkeypatch, text, degree):
    # the degree is refused as a cap before a permutation of that many
    # points is parsed or built, so the work does not grow with it
    real_init, real_parse = Perm.__init__, gog.parse_perm

    def init(self, images):
        assert len(images) <= 10, "a wide permutation was built"
        real_init(self, images)

    def parse(text, degree):
        assert degree <= 10, "a wide permutation was parsed"
        return real_parse(text, degree)
    monkeypatch.setattr(Perm, "__init__", init)
    monkeypatch.setattr(gog, "parse_perm", parse)
    with pytest.raises(CapExceeded) as exc:
        parse_gog(text)
    assert str(exc.value) == (f"group too large: degree {degree} "
                              f"exceeds cap 10000")


def test_the_degree_cap_is_the_group_order_cap():
    text = "vertex a { degree 5; gens (1 2); }\n"
    assert parse_gog(text, max_group_order=5).vertex_group("a").order == 2
    with pytest.raises(CapExceeded, match="degree 5 exceeds cap 4"):
        parse_gog(text, max_group_order=4)


@pytest.mark.parametrize("text", [
    "vertex a { degree \u00b2; gens (); }\n",
    "vertex a = Sym(\u00b2)\n",
], ids=["degree", "named"])
def test_parse_refuses_a_digit_that_int_cannot_read(text):
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError):
        parse_gog(text)


def test_round_trip_all_shipped_graphs():
    for path in sorted(GRAPHS.glob("*.gog")):
        g = parse_gog(path.read_text())
        again = parse_gog(to_text(g))
        assert again.vertex_names == g.vertex_names
        assert [e.name for e in again.edges] == [e.name for e in g.edges]
        assert euler_characteristic(again).chi == euler_characteristic(g).chi
        for e1, e2 in zip(g.edges, again.edges):
            assert e1.embeddings == e2.embeddings


def test_euler_characteristic_examples():
    assert euler_characteristic(triangle_graph()).chi == Fraction(-9, 10)
    assert euler_characteristic(modular_graph()).chi == Fraction(-1, 6)
    for r in range(1, 5):
        assert euler_characteristic(free_group(r)).chi == 1 - r
    g = cyclic_amalgam(symmetric_group(4), parse_perm("(1 2 3)", 4))
    assert euler_characteristic(g).chi == Fraction(2, 24) - Fraction(1, 3)
    assert euler_characteristic(g).mu_free == -euler_characteristic(g).chi


def test_spanning_tree_size():
    assert len(spanning_tree(triangle_graph()).edge_names) == 2
    assert len(spanning_tree(free_group(3)).edge_names) == 0
    assert "e1" in spanning_tree(triangle_graph())


def _reference_spanning_tree(g):
    """The spanning-tree loop that ``gog.spanning_tree`` replaced, kept
    word for word as the reference."""
    order = [g.vertex_names[0]]
    reached = set(order)
    links = []
    for v in order:             # order grows while it is walked
        for e in g.edges:
            for a, b in (e.ends, e.ends[::-1]):
                if a == v and b not in reached:
                    reached.add(b)
                    links.append((b, v, e))
                    order.append(b)
                    break
    return tuple(order), tuple(links)


@pytest.mark.parametrize("g", [
    pytest.param(g, id=name) for name, g in corpus_graphs()] + [
    pytest.param(load_gog(path), id=path.name)
    for path in sorted(GRAPHS.glob("*.gog"))])
def test_spanning_tree_matches_the_reference_loop(g):
    tree = spanning_tree(g)
    assert (tree.order, tree.links) == _reference_spanning_tree(g)


def test_free_product_shape():
    g = free_product([symmetric_group(3), cyclic_group(2), cyclic_group(4)])
    assert len(g.vertices) == 3
    assert len(g.edges) == 2
    assert all(e.group.order == 1 for e in g.edges)
    assert euler_characteristic(g).chi == \
        Fraction(1, 6) + Fraction(1, 2) + Fraction(1, 4) - 2


def test_family_amalgam_shape():
    g = family_amalgam(3, 4, 1)
    assert [grp.order for _, grp in g.vertices] == [24, 24]
    assert g.edges[0].group.order == 3
    assert euler_characteristic(g).chi == Fraction(2, 24) - Fraction(1, 3)
    x = cycle_power_element(3, 1, 4)
    assert x == parse_perm("(1 2 3)", 4)
    assert cycle_power_element(2, 2, 5) == parse_perm("(1 2)(3 4)", 5)


def test_family_params_validated():
    with pytest.raises(InputError, match="prime"):
        family_amalgam(4, 9, 1)
    with pytest.raises(InputError, match="k - l\\*p"):
        family_amalgam(3, 6, 2)
    with pytest.raises(InputError, match="p odd"):
        family_amalgam(2, 5, 1, "alternating")
    family_amalgam(2, 6, 2, "alternating")   # p = 2 fine when l is even


def _reference_family_amalgam(p, k, l, variant):
    """The family amalgam built from its groups, not from its text: two
    copies of Sym(k) (or Alt(k)) glued over C_p along l disjoint p-cycles."""
    ctor = symmetric_group if variant == "symmetric" else alternating_group
    vg = ctor(k)
    x = cycle_power_element(p, l, k)
    return amalgam(vg, vg, cyclic_group(p), (x,), (x,))


def test_family_graph_text_matches_constructor():
    for p, k, l, variant in ((3, 4, 1, "symmetric"), (2, 5, 1, "symmetric"),
                             (3, 7, 2, "alternating")):
        parsed = family_amalgam(p, k, l, variant)
        built = _reference_family_amalgam(p, k, l, variant)
        assert euler_characteristic(parsed).chi == euler_characteristic(built).chi
        assert parsed.edges[0].embeddings == built.edges[0].embeddings


def test_family_graph_text_never_builds_the_group():
    text = family_graph_text(2, 10**6, 1)
    assert "Sym(1000000)" in text


def test_cyclic_amalgam_requires_equal_orders():
    with pytest.raises(InputError, match="equal order"):
        cyclic_amalgam(symmetric_group(3), parse_perm("(1 2)", 3),
                       symmetric_group(3), parse_perm("(1 2 3)", 3))


def test_amalgam_is_order_sensitive_but_chi_is_not():
    g = triangle_graph()
    reordered = make_graph(tuple(reversed(g.vertices)),
                           tuple(reversed(g.edges)))
    assert euler_characteristic(reordered).chi == euler_characteristic(g).chi


def test_load_gog(tmp_path):
    p = tmp_path / "x.gog"
    p.write_text("vertex v = Cyc(3)\n")
    assert load_gog(p).vertex_group("v").order == 3


def test_make_graph_validates():
    with pytest.raises(InputError):
        make_graph([], [])
    with pytest.raises(InputError):
        make_graph([("a", trivial_group()), ("a", trivial_group())], [])


def test_comments_and_whitespace_ignored():
    g = parse_gog("# a lone vertex\nvertex v = Dih(6)   # order 12\n")
    assert g.vertex_group("v").order == 12
