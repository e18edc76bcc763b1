"""Exact subgroup-growth degree for virtually free groups.

A finitely generated virtually free group is presented as a finite graph
of finite groups.  The package turns that presentation into a rational
linear program whose optimum is the growth degree mu, solves it exactly,
and cross-checks the answer against closed-form values and brute-force
homomorphism counts at small degree.
"""

from .errors import CapExceeded, EmbeddingError, InputError, ParseError
from .perm import Perm, identity
from .groups import (FiniteGroup, alternating_group, cyclic_group,
                     dihedral_group, direct_product, klein_four,
                     symmetric_group, trivial_group)
from .catalog import EmbeddingMap, build_catalog
from .gog import (GraphOfGroups, amalgam, cycle_power_element, cyclic_amalgam,
                  euler_characteristic, family_amalgam, free_group,
                  free_product, load_gog, make_graph, parse_gog, to_text)
from .growth import (GrowthReport, build_growth_lp, cyclic_amalgam_mu,
                     euler_tight, family_mu, mu, plan_graph, plan_graph_text,
                     realize, uniform_mu)
from .ratlp import RationalLP, certify, enumerate_vertices, solve_max
from .oracle import (CountLedger, hom_count_enumerate, hom_count_typesum,
                     type_hom_count, vertex_hom_count)
from .corpus import random_graph

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "CountLedger", "EmbeddingMap", "EmbeddingError",
    "FiniteGroup", "GraphOfGroups", "GrowthReport", "InputError",
    "ParseError", "Perm", "RationalLP", "alternating_group", "amalgam",
    "build_catalog", "build_growth_lp", "certify", "cycle_power_element",
    "cyclic_amalgam", "cyclic_amalgam_mu", "cyclic_group", "dihedral_group",
    "direct_product", "euler_characteristic", "euler_tight",
    "enumerate_vertices", "family_amalgam", "family_mu", "free_group",
    "free_product", "hom_count_enumerate", "hom_count_typesum", "identity",
    "klein_four", "load_gog", "make_graph", "mu", "parse_gog", "plan_graph",
    "plan_graph_text", "random_graph", "realize", "solve_max",
    "symmetric_group", "to_text", "trivial_group", "type_hom_count",
    "uniform_mu", "vertex_hom_count",
]
