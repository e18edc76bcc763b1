"""Finite graphs of finite groups and their text format.

A graph of groups assigns a finite group to every vertex and a group with
two injective embeddings to every geometric edge.  Loops and parallel edges
are allowed; the underlying graph must be connected.  The text grammar:

    # comments run to end of line
    vertex <name> { degree <d>; gens <perm>[, <perm>]...; }
    vertex <name> = Sym(k) | Alt(k) | Cyc(n) | Dih(n) | Klein4 | Trivial
    edge <name> <v> <w> {
        degree <d>; gens <perm>[, <perm>]...;
        into <v>: <perm>[, <perm>]...;
        into <w>: <perm>[, <perm>]...;
    }

Permutations are written in 1-based cycle notation, "()" for the identity.
The two "into" lists align positionally with the edge generator list.  For
a loop the sides are written "left:" and "right:" (or two "into" clauses,
first one taken as the left side).  Dih(n) is the dihedral group of order
2n on n points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .catalog import EmbeddingMap
from .errors import CapExceeded, EmbeddingError, InputError, ParseError
from .groups import (DEFAULT_GROUP_CAP, FiniteGroup, _check_known_order,
                     _decimal, _is_prime, _order_past_digit_limit,
                     alternating_group, cyclic_group, dihedral_group,
                     generate, klein_four, symmetric_group, trivial_group,
                     walk)
from .perm import Perm, from_cycles, parse_perm


@dataclass(frozen=True)
class GogEdge:
    name: str
    ends: tuple
    group: FiniteGroup
    embeddings: tuple  # (into ends[0], into ends[1])

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


@dataclass(frozen=True)
class GraphOfGroups:
    vertices: tuple  # ((name, FiniteGroup), ...)
    edges: tuple     # (GogEdge, ...)

    def vertex_group(self, name: str) -> FiniteGroup:
        for n, g in self.vertices:
            if n == name:
                return g
        raise InputError(f"no vertex named {name!r}")

    @property
    def vertex_names(self) -> tuple:
        return tuple(n for n, _ in self.vertices)


def make_graph(vertices, edges) -> GraphOfGroups:
    """Assemble and validate a graph of groups."""
    vertices = tuple(vertices)
    names = [n for n, _ in vertices]
    if len(set(names)) != len(names):
        raise InputError("duplicate vertex names")
    if not vertices:
        raise InputError("a graph of groups needs at least one vertex")
    groups = dict(vertices)
    out_edges = []
    edge_names = set()
    for e in edges:
        e = e if isinstance(e, GogEdge) else GogEdge(*e)
        for end in e.ends:
            if end not in groups:
                raise InputError(f"edge {e.name!r} mentions unknown vertex {end!r}")
        if e.name in edge_names:
            raise InputError(f"duplicate edge name {e.name!r}")
        edge_names.add(e.name)
        for side, emb in zip(e.ends, e.embeddings):
            if emb.domain != e.group:
                raise InputError(f"edge {e.name!r}: embedding domain is not the edge group")
            if emb.codomain != groups[side]:
                raise InputError(f"edge {e.name!r}: embedding codomain is not vertex {side!r}")
        if e.embeddings[0].generators != e.embeddings[1].generators:
            raise InputError(f"edge {e.name!r}: the two sides list different generators")
        out_edges.append(e)
    graph = GraphOfGroups(vertices, tuple(out_edges))
    reached = spanning_tree(graph).order
    if len(reached) != len(names):
        missing = [n for n in names if n not in reached]
        raise InputError(f"graph is not connected; unreachable vertices: {missing}")
    return graph


@dataclass(frozen=True)
class EulerData:
    chi: Fraction
    mu_free: Fraction


def euler_characteristic(g: GraphOfGroups) -> EulerData:
    """chi = sum of 1/|vertex group| minus sum of 1/|edge group|, summed
    in ints over the lcm d of the orders: chi = (sum d/|G_v| - sum
    d/|G_e|) / d."""
    vertex_orders = [grp.order for _, grp in g.vertices]
    edge_orders = [e.group.order for e in g.edges]
    d = lcm(*vertex_orders, *edge_orders)
    chi = Fraction(sum(map(d.__floordiv__, vertex_orders))
                   - sum(map(d.__floordiv__, edge_orders)), d)
    return EulerData(chi=chi, mu_free=-chi)


@dataclass(frozen=True)
class SpanningTree:
    order: tuple    # vertex names in the order the walk reaches them
    links: tuple    # ((vertex, parent, GogEdge), ...) past the root

    @property
    def edge_names(self) -> tuple:
        return tuple(e.name for _, _, e in self.links)

    def __contains__(self, name: str) -> bool:
        return name in self.edge_names


def spanning_tree(g: GraphOfGroups) -> SpanningTree:
    """Breadth-first spanning tree rooted at the first-listed vertex,
    covering the vertices reachable from it: a ``walk`` over the edges,
    each taking a vertex to its other end (a vertex off the edge stays),
    whose tree steps are the links."""
    def across(v, e):
        a, b = e.ends
        return b if a == v else a if b == v else v
    at, steps = walk(g.vertex_names[0], g.edges, across)
    order = tuple(at)
    return SpanningTree(order, tuple((order[y], order[x], g.edges[k])
                                     for x, k, y, tree in steps if tree))


# -- constructors ----------------------------------------------------------

def amalgam(g1: FiniteGroup, g2: FiniteGroup, edge_group: FiniteGroup,
            images1, images2, names=("a", "b"), edge_name="e") -> GraphOfGroups:
    """Two vertex groups glued over a common embedded subgroup.

    The identifications may be given as EmbeddingMap objects or as image
    tuples aligned with the edge group's generators.
    """
    emb1 = images1 if isinstance(images1, EmbeddingMap) \
        else EmbeddingMap(edge_group, g1, images1)
    emb2 = images2 if isinstance(images2, EmbeddingMap) \
        else EmbeddingMap(edge_group, g2, images2)
    return make_graph(
        [(names[0], g1), (names[1], g2)],
        [GogEdge(edge_name, (names[0], names[1]), edge_group, (emb1, emb2))])


def free_group(rank: int) -> GraphOfGroups:
    """One trivial vertex carrying ``rank`` loops with trivial edge groups."""
    if rank < 0:
        raise InputError("rank must be non-negative")
    t = trivial_group()
    emb = EmbeddingMap(t, t, ())
    edges = [GogEdge(f"l{i + 1}", ("v", "v"), t, (emb, emb)) for i in range(rank)]
    return make_graph([("v", t)], edges)


def free_product(groups, names=None) -> GraphOfGroups:
    """Star of trivial edges centered on the first factor."""
    groups = list(groups)
    if not groups:
        raise InputError("free product needs at least one factor")
    if names is None:
        names = [f"g{i + 1}" for i in range(len(groups))]
    t = trivial_group()
    verts = list(zip(names, groups))
    edges = []
    for i in range(1, len(groups)):
        embs = (EmbeddingMap(t, groups[0], ()), EmbeddingMap(t, groups[i], ()))
        edges.append(GogEdge(f"e{i}", (names[0], names[i]), t, embs))
    return make_graph(verts, edges)


def cycle_power_element(p: int, l: int, k: int) -> Perm:
    """The canonical product of l disjoint p-cycles inside degree k."""
    cycles = [tuple(range(i * p, (i + 1) * p)) for i in range(l)]
    return from_cycles(cycles, k)


def _check_family_params(p: int, k: int, l: int, variant: str):
    if variant not in ("symmetric", "alternating"):
        raise InputError(f"unknown variant {variant!r}")
    if not _is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if l < 1:
        raise InputError("l must be at least 1")
    if variant == "alternating" and p == 2 and l % 2:
        raise InputError("alternating variant needs p odd, or p = 2 with l even")
    if k - l * p < 1:
        raise InputError(f"need k - l*p >= 1, got {k - l * p}")


def family_amalgam(p: int, k: int, l: int, variant: str = "symmetric") -> GraphOfGroups:
    """Two copies of Sym(k) (or Alt(k)) glued over the cyclic group generated
    by l disjoint p-cycles."""
    return parse_gog(family_graph_text(p, k, l, variant))


def family_graph_text(p: int, k: int, l: int, variant: str = "symmetric") -> str:
    """Source text for the family amalgam, never instantiating the groups;
    usable for any k."""
    _check_family_params(p, k, l, variant)
    ctor = "Sym" if variant == "symmetric" else "Alt"
    cycles = "".join(
        "(" + " ".join(str(i * p + j + 1) for j in range(p)) + ")"
        for i in range(l))
    gen = "(" + " ".join(str(j + 1) for j in range(p)) + ")"
    return (f"vertex a = {ctor}({k})\n"
            f"vertex b = {ctor}({k})\n"
            f"edge e a b {{ degree {p}; gens {gen}; "
            f"into a: {cycles}; into b: {cycles}; }}\n")


def cyclic_amalgam(g1: FiniteGroup, x1: Perm, g2: FiniteGroup = None,
                   x2: Perm = None) -> GraphOfGroups:
    """g1 and g2 glued over the cyclic groups generated by x1 and x2 (same
    order); defaults to the symmetric case g2 = g1, x2 = x1."""
    if g2 is None:
        g2 = g1
    if x2 is None:
        x2 = x1
    n = x1.order()
    if x2.order() != n:
        raise InputError("the two amalgamated elements must have equal order")
    # cyclic_group(1) is the trivial group, which has no generator
    images = ((x1,), (x2,)) if n > 1 else ((), ())
    return amalgam(g1, g2, cyclic_group(n), *images)


# -- text format -----------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}();:,=]|#[^\n]*|\n|[ \t\r]+|.")

_NAMED_GROUPS = {
    "Sym": (symmetric_group, True),
    "Alt": (alternating_group, True),
    "Cyc": (cyclic_group, True),
    "Dih": (dihedral_group, True),
    "Klein4": (klein_four, False),
    "Trivial": (trivial_group, False),
}


class _Tokens:
    def __init__(self, text: str):
        self.items = []
        line, col = 1, 1
        for m in _TOKEN.finditer(text):
            tok = m.group()
            if tok == "\n":
                line += 1
                col = 1
                continue
            if tok.startswith("#") or tok.isspace():
                col += len(tok)
                continue
            self.items.append((tok, line, col))
            col += len(tok)
        self.pos = 0

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def here(self):
        if self.pos < len(self.items):
            _, line, col = self.items[self.pos]
            return line, col
        return self.items[-1][1:] if self.items else (1, 1)

    def next(self, expect=None):
        if self.pos >= len(self.items):
            line, col = self.here()
            raise ParseError(f"unexpected end of input (wanted {expect or 'more'})",
                             line, col)
        tok, line, col = self.items[self.pos]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}", line, col)
        self.pos += 1
        return tok

    def fail(self, message):
        line, col = self.here()
        raise ParseError(message, line, col)


def _parse_perm_list(toks: _Tokens, degree: int, stop=(";",)):
    """Comma-separated permutations in cycle notation; may be empty."""
    perms = []
    while toks.peek() not in stop:
        line, col = toks.here()
        text = ""
        while toks.peek() == "(":
            text += toks.next()
            while toks.peek() != ")":
                tok = toks.peek()
                if tok is None or not tok.isdigit():
                    toks.fail("expected a point or ')' inside a cycle")
                text += " " + toks.next()
            text += toks.next()
        if not text:
            toks.fail("expected a permutation in cycle notation")
        try:
            perms.append(parse_perm(text, degree))
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None
        if toks.peek() == ",":
            toks.next()
        elif toks.peek() not in stop:
            toks.fail("expected ',' or end of list")
    return perms


def _parse_group_block(toks: _Tokens, max_group_order: int) -> tuple:
    """'{ degree d; gens ...; }' -> (degree, generator list).  A degree
    past the group-order cap is refused before any permutation is read,
    since each costs time and memory in proportion to the degree."""
    toks.next("{")
    toks.next("degree")
    line, col = toks.here()
    tok = toks.next()
    degree = _decimal(tok, lambda limit: ParseError(
        f"bad degree: more than {limit} digits", line, col)) \
        if tok.isdecimal() else 0
    if degree < 1:
        raise ParseError(f"bad degree {tok!r}", line, col)
    if degree > max_group_order:
        raise CapExceeded(f"group too large: degree {degree} exceeds "
                          f"cap {max_group_order}")
    toks.next(";")
    toks.next("gens")
    gens = _parse_perm_list(toks, degree)
    toks.next(";")
    return degree, gens


def _named_group(toks: _Tokens):
    """Read ``Name`` or ``Name(k)``; return a function of the group-order
    cap that builds the group, so nothing is built until the text is read."""
    line, col = toks.here()
    name = toks.next()
    if name not in _NAMED_GROUPS:
        raise ParseError(f"unknown group constructor {name!r}", line, col)
    ctor, needs_arg = _NAMED_GROUPS[name]
    if not needs_arg:
        def build_fixed(cap: int) -> FiniteGroup:
            # a group of order 4 at most, held to the cap like the others
            group = ctor()
            _check_known_order(group.order, cap)
            return group
        return build_fixed
    toks.next("(")
    line, col = toks.here()
    arg = toks.next()
    if not arg.isdecimal():
        raise ParseError(f"expected an integer argument, found {arg!r}", line, col)
    toks.next(")")

    def build(cap: int) -> FiniteGroup:
        # every named group has order at least its argument, so an
        # argument too long for int() is past any cap int() can read
        k = _decimal(arg, lambda limit: _order_past_digit_limit(limit, cap))
        try:
            return ctor(k, max_order=cap)
        except InputError as exc:
            raise ParseError(str(exc), line, col) from None
    return build


def named_group(text: str, max_group_order: int = DEFAULT_GROUP_CAP):
    """The group that the whole of ``text`` names, such as ``Sym(4)``, or
    None when ``text`` is something else, a file path say."""
    toks = _Tokens(text)
    try:
        build = _named_group(toks)
    except ParseError:
        return None
    return build(max_group_order) if toks.peek() is None else None


def parse_gog(text: str, max_group_order: int = DEFAULT_GROUP_CAP) -> GraphOfGroups:
    """Parse the text format into a validated GraphOfGroups.

    Equal group texts in one parse share one ``FiniteGroup`` instance: a
    named constructor is keyed by its tokens (``Sym(6)``), a ``{ degree;
    gens }`` block by its degree and generator list, and each key is
    built once.  Texts that differ build separate groups, even when the
    groups are equal.
    """
    toks = _Tokens(text)
    vertices = []
    vertex_groups = {}
    edges = []
    built = {}      # group text key -> the group built for it

    def group_for(key, build):
        if key not in built:
            built[key] = build(max_group_order)
        return built[key]

    while toks.peek() is not None:
        line, col = toks.here()
        kind = toks.next()
        if kind == "vertex":
            name = toks.next()
            if name in vertex_groups:
                raise ParseError(f"duplicate vertex {name!r}", line, col)
            if toks.peek() == "=":
                toks.next()
                start = toks.pos
                build = _named_group(toks)
                group = group_for(
                    tuple(tok for tok, _, _ in toks.items[start:toks.pos]), build)
            else:
                degree, gens = _parse_group_block(toks, max_group_order)
                toks.next("}")
                group = group_for((degree, tuple(gens)), lambda cap: generate(
                    gens, degree, max_order=cap))
            vertex_groups[name] = group
            vertices.append((name, group))
        elif kind == "edge":
            name = toks.next()
            v1 = toks.next()
            v2 = toks.next()
            for v in (v1, v2):
                if v not in vertex_groups:
                    raise ParseError(f"edge {name!r} mentions unknown vertex {v!r}",
                                     line, col)
            degree, gens = _parse_group_block(toks, max_group_order)
            group = group_for((degree, tuple(gens)), lambda cap: generate(
                gens, degree, max_order=cap))
            sides = {}
            while toks.peek() != "}":
                sline, scol = toks.here()
                side_tok = toks.next()
                if side_tok == "into":
                    target = toks.next()
                    if target not in (v1, v2):
                        raise ParseError(
                            f"'into {target}' does not match an endpoint", sline, scol)
                    if v1 == v2:
                        side = "left" if "left" not in sides else "right"
                    else:
                        side = "left" if target == v1 else "right"
                elif side_tok in ("left", "right"):
                    side = side_tok
                else:
                    raise ParseError(f"expected 'into', 'left' or 'right', "
                                     f"found {side_tok!r}", sline, scol)
                if side in sides:
                    raise ParseError(f"duplicate {side!r} clause", sline, scol)
                toks.next(":")
                target_name = v1 if side == "left" else v2
                images = _parse_perm_list(toks, vertex_groups[target_name].degree)
                toks.next(";")
                if len(images) != len(gens):
                    raise ParseError(
                        f"edge {name!r}: {len(gens)} generators but "
                        f"{len(images)} images on the {side} side", sline, scol)
                sides[side] = images
            toks.next("}")
            if set(sides) != {"left", "right"}:
                raise ParseError(f"edge {name!r} needs both sides", line, col)
            embs = []
            for side, target in (("left", v1), ("right", v2)):
                try:
                    embs.append(EmbeddingMap(group, vertex_groups[target],
                                             sides[side], generators=gens))
                except EmbeddingError as exc:
                    raise ParseError(f"edge {name!r}, side into {target!r}: {exc}",
                                     line, col) from None
            edges.append(GogEdge(name, (v1, v2), group, tuple(embs)))
        else:
            raise ParseError(f"expected 'vertex' or 'edge', found {kind!r}", line, col)
    try:
        return make_graph(vertices, edges)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def load_gog(path, max_group_order: int = DEFAULT_GROUP_CAP) -> GraphOfGroups:
    with open(path, encoding="utf-8") as fh:
        return parse_gog(fh.read(), max_group_order=max_group_order)


def _perm_list_text(perms) -> str:
    return ", ".join(str(p) for p in perms) if perms else "()"


def to_text(g: GraphOfGroups) -> str:
    """Serialize a graph back into the text format."""
    lines = []
    for name, grp in g.vertices:
        gens = _perm_list_text(grp.generators)
        lines.append(f"vertex {name} {{ degree {grp.degree}; gens {gens}; }}")
    for e in g.edges:
        gens = e.embeddings[0].generators
        lines.append(f"edge {e.name} {e.ends[0]} {e.ends[1]} {{")
        lines.append(f"    degree {e.group.degree}; gens {_perm_list_text(gens)};")
        sides = ("left", "right") if e.is_loop else (f"into {e.ends[0]}", f"into {e.ends[1]}")
        for label, emb in zip(sides, e.embeddings):
            lines.append(f"    {label}: {_perm_list_text(emb.generator_images)};")
        lines.append("}")
    return "\n".join(lines) + "\n"
