"""Recompute the benchmark's golden tables and check each against an
independent leg, then print them in the form of goldens.py.

    python3 mubench/make_goldens.py > mubench/goldens.py

Checks made here, once, when the table is frozen:
  * every group key's order and class count as tabulated in inputs.GROUPS;
  * mu of every prime-order cyclic amalgam against cyclic_amalgam_mu (a
    maximum over subgroup classes, no LP);
  * mu of every other graph against the best vertex of enumerate_vertices
    (exhaustive over bases, so only LPs with at most 24 columns);
  * the count totals: hom_count_typesum against hom_count_enumerate for
    every degree up to ENUM_TOP;
  * invariance: mu and the totals are recomputed on two relabelled copies.
family_mu is never used: its disagreement with the LP is a known defect that
the benchmark neither tests nor hides.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from vfgrowth import parse_gog  # noqa: E402
from vfgrowth.groups import subgroup_classes  # noqa: E402
from vfgrowth.growth import (build_growth_lp, cyclic_amalgam_mu,  # noqa: E402
                             mu)
from vfgrowth.oracle import (hom_count_enumerate,  # noqa: E402
                             hom_count_typesum)
from vfgrowth.ratlp import VERTEX_ENUM_CAP, enumerate_vertices  # noqa: E402

TYPESUM_TOP = 10
ENUM_TOP = 5
RELABEL_SEEDS = (1, 2)


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"golden check failed: {what}")
    print(f"# ok: {what}", file=sys.stderr)


def check_groups():
    for key, (order, degree, nclasses, gens) in inputs.GROUPS.items():
        if isinstance(gens, str):
            text = f"vertex a = {gens}\n"
        else:
            text = (f"vertex a {{ degree {degree}; gens "
                    f"{', '.join(gens) or '()'}; }}\n")
        g = parse_gog(text).vertex_group("a")
        check(g.order == order and g.degree == degree
              and len(subgroup_classes(g)) == nclasses,
              f"group {key}: order {order}, {nclasses} classes")


def is_prime_cyclic_amalgam(spec) -> bool:
    """G *_<x> G with x of prime order p, the same x on both sides, and
    |G| > 2p, the range where cyclic_amalgam_mu applies."""
    if len(spec.vertices) != 2 or len(spec.edges) != 1:
        return False
    (_, ka), (_, kb) = spec.vertices
    _, _, _, ekey, iv, iw = spec.edges[0]
    return (ka == kb and iv == iw and ekey in ("C2", "C3", "C7")
            and inputs.GROUPS[ka][0] > 2 * inputs.GROUPS[ekey][0])


def golden_mu(name: str, spec) -> Fraction:
    g = parse_gog(inputs.to_gog(spec))
    value = mu(g).mu
    if is_prime_cyclic_amalgam(spec):
        grp = g.vertex_group("a")
        x = g.edges[0].embeddings[0].generator_images[0]
        closed, _ = cyclic_amalgam_mu(grp, x)
        check(closed == value, f"{name}: LP mu {value} = closed form {closed}")
    else:
        lp = build_growth_lp(g)
        check(lp.num_vars <= VERTEX_ENUM_CAP,
              f"{name}: {lp.num_vars} LP columns can be enumerated")
        best = max(v for _, v in enumerate_vertices(lp))
        check(best == value, f"{name}: LP mu {value} = best vertex {best}")
    for seed in RELABEL_SEEDS:
        other = mu(parse_gog(inputs.to_gog(spec, random.Random(seed)))).mu
        check(other == value, f"{name}: mu unchanged under relabelling {seed}")
    check(value >= -spec.chi(), f"{name}: mu >= -chi")
    return value


def golden_counts(name: str, spec) -> tuple:
    g = parse_gog(inputs.to_gog(spec))
    totals = hom_count_typesum(g, TYPESUM_TOP, max_n=TYPESUM_TOP).totals
    for n in range(1, ENUM_TOP + 1):
        e = hom_count_enumerate(g, n)
        check(e == totals[n - 1], f"{name}: typesum = enumerate at n={n}")
    for seed in RELABEL_SEEDS:
        other = parse_gog(inputs.to_gog(spec, random.Random(seed)))
        check(hom_count_typesum(other, TYPESUM_TOP, max_n=TYPESUM_TOP).totals
              == totals, f"{name}: totals unchanged under relabelling {seed}")
    return totals


def main():
    check_groups()
    mus = {name: golden_mu(name, spec)
           for name, spec in inputs.warm_specs().items()}
    counts = {name: golden_counts(name, spec)
              for name, spec in inputs.count_specs().items()}
    print('"""Frozen golden values; regenerate with make_goldens.py, which '
          'checks\neach against an independent leg before printing it."""\n')
    print("# graph name -> mu as 'a/b' (warm_solve; cold-* also cold_catalog)")
    print("MU = {")
    for name, value in mus.items():
        print(f"    {name!r}: {str(value)!r},")
    print("}\n")
    print(f"# graph name -> |Hom(Gamma, S_n)| for n = 1..{TYPESUM_TOP};\n"
          f"# typesum = enumerate checked for n <= {ENUM_TOP}")
    print("HOM_TOTALS = {")
    for name, totals in counts.items():
        print(f"    {name!r}: (")
        for t in totals:
            print(f"        {t},")
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
