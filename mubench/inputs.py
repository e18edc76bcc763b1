"""Seeded inputs for the benchmark: graph specs, point relabelling, .gog text.

Every graph the benchmark feeds to vfgrowth is written here as data and
emitted as `.gog` text, so no workload depends on `vfgrowth.corpus`.

The run seed only *relabels points*: each group key of a graph gets its own
random permutation sigma of its points, applied to that group's generators
and to every embedding image that lands in it.  The relabelled graph of
groups is isomorphic to the original (conjugation is an isomorphism of each
vertex and edge group, and the embeddings are conjugated to match), and mu
and |Hom(Gamma, S_n)| are isomorphism invariants.  That is why one frozen
golden table holds for every seed.  Vertices that share a group key share
sigma, so an amalgam of two copies of one group still has one vertex group.

Structure never depends on the run seed.  The "random" graphs come from
`random_spec`, the benchmark's own generator, at fixed structural seeds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

# key -> (order, degree, number of subgroup classes, generators).  A string
# in place of the generator tuple is a named constructor; only Sym and Alt
# are named, because every relabelling of the points normalizes them.
GROUPS = {
    "1": (1, 1, 1, ()),
    "C2": (2, 2, 2, ("(1 2)",)),
    "C3": (3, 3, 2, ("(1 2 3)",)),
    "C4": (4, 4, 3, ("(1 2 3 4)",)),
    "C7": (7, 7, 2, ("(1 2 3 4 5 6 7)",)),
    "V4": (4, 4, 5, ("(1 2)(3 4)", "(1 3)(2 4)")),
    "S3": (6, 3, 4, ("(1 2)", "(1 2 3)")),
    "D8": (8, 4, 8, ("(1 2 3 4)", "(1 3)")),
    "D10": (10, 5, 4, ("(1 2 3 4 5)", "(2 5)(3 4)")),
    "A4": (12, 4, 5, ("(1 2 3)", "(1 2)(3 4)")),
    "S4": (24, 4, 11, ("(1 2)", "(1 2 3 4)")),
    "A5": (60, 5, 9, ("(1 2 3)", "(1 2 3 4 5)")),
    "S3wrC2": (72, 6, 26, ("(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)")),
    "S5": (120, 5, 19, "Sym(5)"),
    "S4xS3": (144, 7, 70, ("(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7)")),
    "PSL27": (168, 7, 15, ("(1 2 3 4 5 6 7)", "(1 2)(3 5)")),
    "A6": (360, 6, 22, "Alt(6)"),
    "S6": (720, 6, 56, "Sym(6)"),
}

# (vertex group, edge group) -> embeddings, each a tuple of images aligned
# with the edge group's generators.  The trivial edge group embeds anywhere.
EMBEDDINGS = {
    ("C2", "C2"): (("(1 2)",),),
    ("C4", "C2"): (("(1 3)(2 4)",),),
    ("V4", "C2"): (("(1 2)(3 4)",), ("(1 3)(2 4)",)),
    ("S3", "C2"): (("(1 2)",), ("(2 3)",)),
    ("D8", "C2"): (("(1 3)(2 4)",), ("(1 3)",), ("(1 2)(3 4)",)),
    ("D10", "C2"): (("(2 5)(3 4)",), ("(1 2)(3 5)",)),
    ("A4", "C2"): (("(1 2)(3 4)",),),
    ("S4", "C2"): (("(1 2)",), ("(1 2)(3 4)",)),
    ("C3", "C3"): (("(1 2 3)",), ("(1 3 2)",)),
    ("S3", "C3"): (("(1 2 3)",),),
    ("A4", "C3"): (("(1 2 3)",), ("(2 3 4)",)),
    ("S4", "C3"): (("(1 2 3)",),),
    ("C4", "C4"): (("(1 2 3 4)",),),
    ("D8", "C4"): (("(1 2 3 4)",),),
    ("S4", "C4"): (("(1 2 3 4)",),),
    ("V4", "V4"): (("(1 2)(3 4)", "(1 3)(2 4)"),
                   ("(1 3)(2 4)", "(1 4)(2 3)")),
    ("D8", "V4"): (("(1 3)(2 4)", "(1 3)"), ("(1 3)(2 4)", "(1 2)(3 4)")),
    ("A4", "V4"): (("(1 2)(3 4)", "(1 3)(2 4)"),),
    ("S4", "V4"): (("(1 2)(3 4)", "(1 3)(2 4)"), ("(1 2)(3 4)", "(1 2)")),
}

EDGE_KEYS = ("1", "C2", "C3", "C4", "V4")


@dataclass(frozen=True)
class Spec:
    """A graph of groups as data: vertices (name, group key) and edges
    (name, v, w, edge group key, images into v, images into w)."""

    vertices: tuple
    edges: tuple

    def chi(self):
        """Euler characteristic from the tabulated orders, independent of
        the program under test."""
        return (sum(Fraction(1, GROUPS[k][0]) for _, k in self.vertices)
                - sum(Fraction(1, GROUPS[e[3]][0]) for e in self.edges))


def amalgam_spec(group: str, edge: str, image: str) -> Spec:
    """Two copies of one group glued over a cyclic edge group."""
    return Spec((("a", group), ("b", group)),
                (("e", "a", "b", edge, (image,), (image,)),))


FIXTURES = {
    "free1": Spec((("v", "1"),), (("l1", "v", "v", "1", (), ()),)),
    "free2": Spec((("v", "1"),), (("l1", "v", "v", "1", (), ()),
                                  ("l2", "v", "v", "1", (), ()))),
    "modular": Spec((("a", "C2"), ("b", "C3")),
                    (("e1", "a", "b", "1", (), ()),)),
    "infinite-dihedral": Spec((("a", "C2"), ("b", "C2")),
                              (("e1", "a", "b", "1", (), ()),)),
    "s3-over-c2": amalgam_spec("S3", "C2", "(1 2)"),
    "s3-over-c3": amalgam_spec("S3", "C3", "(1 2 3)"),
    "klein": Spec((("a", "S4"), ("b", "S4")),
                  (("e", "a", "b", "V4", ("(1 2)(3 4)", "(1 3)(2 4)"),
                    ("(1 2)(3 4)", "(1 2)")),)),
    "triangle": Spec((("a", "S3"), ("b", "S3"), ("c", "D10")),
                     (("e1", "a", "b", "C3", ("(1 2 3)",), ("(1 2 3)",)),
                      ("e2", "a", "c", "C2", ("(1 2)",), ("(2 5)(3 4)",)),
                      ("e3", "b", "c", "C2", ("(1 3)",), ("(1 2)(3 5)",)))),
}

# The oracle roster: the fixtures on which both homomorphism counters run.
ORACLE_NAMES = ("free1", "free2", "modular", "s3-over-c2", "s3-over-c3",
                "klein", "triangle")

# One cold op per vertex group, orders 60 to 720, each a prime-order cyclic
# amalgam so that its golden mu has an independent closed-form check.  The
# count is odd so that the median op latency falls inside one op's samples.
COLD = {
    "A5": amalgam_spec("A5", "C2", "(1 2)(3 4)"),
    "S3wrC2": amalgam_spec("S3wrC2", "C2", "(1 2)"),
    "S5": amalgam_spec("S5", "C3", "(1 2 3)"),
    "PSL27": amalgam_spec("PSL27", "C7", "(1 2 3 4 5 6 7)"),
    "S4xS3": amalgam_spec("S4xS3", "C3", "(1 2 3)(5 6 7)"),
    "A6": amalgam_spec("A6", "C3", "(1 2 3)"),
    "S6": amalgam_spec("S6", "C2", "(1 2)"),
}

WARM_POOL = ("1", "C2", "C3", "C4", "V4", "S3", "D8", "D10", "A4", "S4")
COUNT_POOL = ("1", "C2", "C3", "C4", "V4", "S3")
MAX_LP_VARS = 24  # keeps every random LP small enough to enumerate


def random_spec(structure_seed: int, pool) -> Spec:
    """A small connected graph of groups: one to three vertices, a random
    spanning tree plus up to two extra edges (loops allowed), edge groups
    chosen among those both endpoints can embed.  Vertex groups are redrawn
    until the LP has at most MAX_LP_VARS columns."""
    rng = random.Random(structure_seed)
    nv = rng.randint(1, 3)
    while True:
        keys = [rng.choice(pool) for _ in range(nv)]
        if sum(GROUPS[k][2] for k in keys) <= MAX_LP_VARS:
            break
    names = [f"v{i + 1}" for i in range(nv)]
    links = [(names[rng.randrange(i)], names[i]) for i in range(1, nv)]
    for _ in range(rng.randint(0 if nv > 1 else 1, 2)):
        links.append((rng.choice(names), rng.choice(names)))
    group_of = dict(zip(names, keys))
    edges = []
    for i, (v, w) in enumerate(links):
        options = [e for e in EDGE_KEYS
                   if e == "1" or ((group_of[v], e) in EMBEDDINGS
                                   and (group_of[w], e) in EMBEDDINGS)]
        e = rng.choice(options)
        if e == "1":
            iv = iw = ()
        else:
            iv = rng.choice(EMBEDDINGS[(group_of[v], e)])
            iw = rng.choice(EMBEDDINGS[(group_of[w], e)])
        edges.append((f"e{i + 1}", v, w, e, iv, iw))
    return Spec(tuple(zip(names, keys)), tuple(edges))


# Structural seeds of the random graphs; their goldens are in goldens.py.
WARM_RANDOM_SEEDS = tuple(range(21))
COUNT_RANDOM_SEEDS = tuple(range(100, 103))


def warm_specs() -> dict:
    """The warm_solve roster: fixtures, random graphs and cold amalgams."""
    out = dict(FIXTURES)
    out.update((f"random-{s}", random_spec(s, WARM_POOL))
               for s in WARM_RANDOM_SEEDS)
    out.update((f"cold-{k}", spec) for k, spec in COLD.items())
    return out


def count_specs() -> dict:
    """The count roster: the oracle fixtures plus small random graphs."""
    out = {name: FIXTURES[name] for name in ORACLE_NAMES}
    out.update((f"random-{s}", random_spec(s, COUNT_POOL))
               for s in COUNT_RANDOM_SEEDS)
    return out


# -- relabelling and text ----------------------------------------------------

_CYCLE = re.compile(r"\(([^()]*)\)")


def relabel_perm(text: str, sigma) -> str:
    """Apply sigma (a tuple, 0-based) to the points of a cycle-notation
    permutation: (a b c) becomes (sigma(a) sigma(b) sigma(c))."""
    cycles = []
    for body in _CYCLE.findall(text):
        pts = body.split()
        cycles.append("(" + " ".join(str(sigma[int(p) - 1] + 1)
                                     for p in pts) + ")")
    return "".join(cycles) or "()"


def _perm_list(perms) -> str:
    return ", ".join(perms) if perms else "()"


def to_gog(spec: Spec, rng: random.Random = None) -> str:
    """The spec as .gog text, with each group key's points relabelled by a
    permutation drawn from rng (in order of first appearance); rng None
    keeps the labels as written."""
    sigma = {}

    def sig(key):
        if key not in sigma:
            pts = list(range(GROUPS[key][1]))
            if rng is not None:
                rng.shuffle(pts)
            sigma[key] = tuple(pts)
        return sigma[key]

    lines = []
    for name, key in spec.vertices:
        order, degree, _, gens = GROUPS[key]
        s = sig(key)
        if isinstance(gens, str):
            lines.append(f"vertex {name} = {gens}")
        else:
            body = _perm_list([relabel_perm(g, s) for g in gens])
            lines.append(f"vertex {name} {{ degree {degree}; gens {body}; }}")
    vkey = dict(spec.vertices)
    for name, v, w, ekey, iv, iw in spec.edges:
        _, degree, _, gens = GROUPS[ekey]
        s = sig(ekey)
        gens = _perm_list([relabel_perm(g, s) for g in gens])
        into_v = _perm_list([relabel_perm(p, sig(vkey[v])) for p in iv])
        into_w = _perm_list([relabel_perm(p, sig(vkey[w])) for p in iw])
        if v == w:
            sides = f"left: {into_v}; right: {into_w};"
        else:
            sides = f"into {v}: {into_v}; into {w}: {into_w};"
        lines.append(f"edge {name} {v} {w} {{ degree {degree}; gens {gens}; "
                     f"{sides} }}")
    return "\n".join(lines) + "\n"
