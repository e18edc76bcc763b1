import re
from fractions import Fraction
from pathlib import Path

import pytest

from vfgrowth.corpus import modular_graph, triangle_graph
from vfgrowth.errors import InputError, ParseError
from vfgrowth.gog import (cycle_power_element, cyclic_amalgam,
                          euler_characteristic, family_amalgam,
                          family_graph_text, free_group, free_product,
                          load_gog, make_graph, parse_gog, spanning_tree,
                          to_text)
from vfgrowth.groups import cyclic_group, symmetric_group, trivial_group
from vfgrowth.perm import parse_perm

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


def test_family_graph_text_matches_constructor():
    for p, k, l, variant in ((3, 4, 1, "symmetric"), (2, 5, 1, "symmetric"),
                             (3, 7, 2, "alternating")):
        parsed = parse_gog(family_graph_text(p, k, l, variant))
        built = family_amalgam(p, k, l, variant)
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
