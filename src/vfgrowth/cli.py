"""Command-line front end.

One subcommand per operation; all numeric output is exact (rationals as
``p/q``, counts as big integers) so runs are byte-reproducible.  ``--json``
switches to a stable machine format where every rational becomes
``{"num": "...", "den": "..."}`` with string values.  Exit codes: 0 on
success, 1 on bad input, 2 when a resource cap stops the computation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .catalog import build_catalog, restriction_matrix
from .errors import CapExceeded, InputError, ParseError
from .gog import (GraphOfGroups, cycle_power_element, euler_characteristic,
                  family_graph_text, load_gog, named_group)
from .groups import DEFAULT_GROUP_CAP, alternating_group, symmetric_group
from .growth import (cyclic_amalgam_mu, family_mu, mu, plan_graph_text,
                     realize)
from .oracle import hom_count_enumerate, hom_count_typesum
from .ratlp import dump_tsv
from .selftest import run_all


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _emit_json(payload):
    print(json.dumps(payload, indent=2))


def _load(path: str, cap: int) -> GraphOfGroups:
    try:
        return load_gog(path, max_group_order=cap)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _max_n(args) -> dict:
    """``--max-n`` as a keyword when given; otherwise the counter's own
    default cap applies."""
    return {} if args.max_n is None else {"max_n": args.max_n}


def _parse_ratio(text: str):
    m = re.match(r"^(\d+)/(\d+)$|^(\d+)$", text.strip())
    if not m:
        raise InputError(f"expected a ratio like 9/10, got {text!r}")
    if m.group(3) is not None:
        return int(m.group(3)), 1
    a, b = int(m.group(1)), int(m.group(2))
    return a, b


def cmd_mu(args) -> int:
    rep = mu(_load(args.file, args.max_group_order))
    if args.json:
        _emit_json({"command": "mu", "mu": _rat(rep.mu)})
    else:
        print(rep.mu)
    return 0


def cmd_chi(args) -> int:
    eu = euler_characteristic(_load(args.file, args.max_group_order))
    if args.json:
        _emit_json({"command": "chi", "chi": _rat(eu.chi),
                    "mu_free": _rat(eu.mu_free)})
    else:
        print(eu.chi)
    return 0


def cmd_report(args) -> int:
    g = _load(args.file, args.max_group_order)
    rep = mu(g)
    lp = rep.program.lp
    if args.json:
        payload = {
            "command": "report",
            "mu": _rat(rep.mu),
            "chi": _rat(rep.chi),
            "mu_free": _rat(rep.mu_free),
            "sigma": {v: _rat(s) for v, s in rep.sigma},
            "tau": {e: _rat(t) for e, t in rep.tau},
            "dominant": rep.dominant,
            "lp": {"variables": lp.num_vars,
                   "constraints": lp.num_constraints},
            "notes": list(rep.notes),
        }
        if args.dump_lp:
            payload["lp_dump"] = dump_tsv(lp, rep.solution)
        _emit_json(payload)
    else:
        print(f"mu = {rep.mu}")
        print(f"chi = {rep.chi}")
        print(f"mu_free = {rep.mu_free}")
        print(f"lp size = {lp.num_vars} variables, "
              f"{lp.num_constraints} constraints")
        print("dominant configuration:")
        for line in rep.dominant.splitlines():
            print(f"  {line}")
        for note in rep.notes:
            print(f"note: {note}")
        if args.dump_lp:
            print(dump_tsv(lp, rep.solution), end="")
    return 0


def _catalog_table(group, heading, columns=()):
    """Rows (one per class) plus restriction columns per embedding."""
    cat = build_catalog(group)
    lines = [heading]
    header = "class\tindex\taut\tsize\tgenerators"
    for label, _ in columns:
        header += f"\t{label}"
    lines.append(header)
    for i, cls in enumerate(cat.classes):
        gens = " ".join(str(p) for p in cls.representative.generators) \
            or "id"
        row = (f"{i + 1}\t{cls.index}\t{cls.aut_count}"
               f"\t{cls.class_size}\t{gens}")
        for _, matrix in columns:
            col = ",".join(str(matrix.rows[j][i])
                           for j in range(len(matrix.rows)))
            row += f"\t{col}"
        lines.append(row)
    return lines


def cmd_catalog(args) -> int:
    cap = args.max_group_order
    group = named_group(args.source, cap)
    if group is not None:
        lines = _catalog_table(group, f"group {args.source} "
                                      f"(order {group.order})")
        if args.json:
            _emit_json({"command": "catalog", "tables": [lines]})
        else:
            print("\n".join(lines))
        return 0
    g = _load(args.source, cap)
    tables = []
    for vname, grp in g.vertices:
        columns = []
        for e in g.edges:
            for side, end in enumerate(e.ends):
                if end != vname:
                    continue
                columns.append((f"{e.name}:{'left' if side == 0 else 'right'}",
                                restriction_matrix(e.embeddings[side])))
        tables.append(_catalog_table(
            grp, f"vertex {vname} (order {grp.order})", columns))
    if args.json:
        _emit_json({"command": "catalog", "tables": tables})
    else:
        print("\n\n".join("\n".join(t) for t in tables))
    return 0


def cmd_homcount(args) -> int:
    g = _load(args.file, args.max_group_order)
    n = args.n
    cap = _max_n(args)
    if args.enumerate:
        # degree n first: a bad degree or the cap stops the run before
        # the lower degrees are counted
        top = hom_count_enumerate(g, n, **cap)
        rows = [(m, hom_count_enumerate(g, m, **cap))
                for m in range(1, n)] + [(n, top)]
        ledger = None
    else:
        ledger = hom_count_typesum(g, n, **cap)
        rows = [(m, ledger.total(m)) for m in range(1, n + 1)]
    if args.json:
        payload = {"command": "homcount", "n": n,
                   "mode": "enumerate" if args.enumerate else "typesum",
                   "totals": {str(m): str(v) for m, v in rows}}
        if args.per_type and ledger is not None:
            payload["per_type"] = [
                {"type": {v: list(c) for v, c in xi.counts},
                 "count": str(cnt)}
                for xi, cnt in ledger.per_type]
        _emit_json(payload)
        return 0
    for m, v in rows:
        print(f"{m}\t{v}")
    if args.per_type and ledger is not None:
        for xi, cnt in ledger.per_type:
            desc = "; ".join(f"{v}={','.join(map(str, c))}"
                             for v, c in xi.counts)
            print(f"type\t{desc}\t{cnt}")
    return 0


def cmd_subcount(args) -> int:
    g = _load(args.file, args.max_group_order)
    ledger = hom_count_typesum(g, args.n, **_max_n(args))
    if args.json:
        _emit_json({"command": "subcount", "n": args.n,
                    "subgroups": {str(m): str(ledger.s(m))
                                  for m in range(1, args.n + 1)}})
        return 0
    for m in range(1, args.n + 1):
        print(f"{m}\t{ledger.s(m)}")
    return 0


def cmd_realize(args) -> int:
    a, b = _parse_ratio(args.value)
    plan = realize(a, b)
    if args.json:
        payload = {"command": "realize",
                   "target": _rat(Fraction(a, b)),
                   "plan": plan.describe(),
                   "predicted_mu": _rat(plan.predicted_mu)}
        if args.emit_gog:
            payload["gog"] = plan_graph_text(plan)
        _emit_json(payload)
        return 0
    print(plan.describe())
    if args.emit_gog:
        print(plan_graph_text(plan), end="")
    return 0


def cmd_family(args) -> int:
    variant = "alternating" if args.alt else "symmetric"
    value = family_mu(args.p, args.k, args.l, variant)
    closed = None
    agree = None
    try:
        base = alternating_group(args.k) if args.alt \
            else symmetric_group(args.k)
        x = cycle_power_element(args.p, args.l, args.k)
        closed, _cls = cyclic_amalgam_mu(base, x)
        agree = closed == value
    except CapExceeded:
        pass    # the vertex group is past the group or the lattice cap
    if args.json:
        payload = {"command": "family",
                   "p": args.p, "k": args.k, "l": args.l,
                   "variant": variant,
                   "formula_mu": _rat(value)}
        if closed is not None:
            payload["closed_form_mu"] = _rat(closed)
            payload["agreement"] = agree
        payload["gog"] = family_graph_text(args.p, args.k, args.l, variant)
        _emit_json(payload)
        return 0
    print(f"formula_mu = {value}")
    if closed is not None:
        print(f"closed_form_mu = {closed}")
        if agree:
            print("agreement: yes")
        else:
            print(f"agreement: NO - closed form gives {closed}, "
                  f"formula gives {value}; the closed form is the "
                  f"exhaustive recomputation")
    print(family_graph_text(args.p, args.k, args.l, variant), end="")
    return 0


def cmd_selftest(args) -> int:
    results = run_all(slow=args.slow)
    if args.json:
        _emit_json({"command": "selftest",
                    "results": [{"name": r.name, "title": r.title,
                                 "passed": r.passed, "detail": r.detail}
                                for r in results],
                    "passed": all(r.passed for r in results)})
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
                  f"({r.title}): {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a stable machine-readable format")
    group_cap = argparse.ArgumentParser(add_help=False)
    group_cap.add_argument("--max-group-order", type=int,
                           default=DEFAULT_GROUP_CAP, metavar="N",
                           help="refuse groups larger than N")
    max_n = argparse.ArgumentParser(add_help=False)
    max_n.add_argument("--max-n", type=int, metavar="N",
                       help="raise or lower the counting-degree cap")
    parser = argparse.ArgumentParser(
        prog="vfgrowth",
        description="Exact subgroup-growth degree of virtually free groups "
                    "presented as finite graphs of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", parents=[common, group_cap],
                       help="growth degree of a graph-of-groups file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("chi", parents=[common, group_cap],
                       help="Euler characteristic of a graph-of-groups file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("report", parents=[common, group_cap],
                       help="full growth report: mu, chi, optimizer, notes")
    p.add_argument("file")
    p.add_argument("--dump-lp", action="store_true",
                   help="append a TSV dump of the linear program")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("catalog", parents=[common, group_cap],
                       help="transitive-class tables with restriction "
                            "columns per incident edge")
    p.add_argument("source", help="a .gog file or a named group like Sym(4)")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("homcount", parents=[common, group_cap, max_n],
                       help="|Hom(Gamma, S_m)| for m = 1..N")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--enumerate", action="store_true",
                   help="use the brute-force counter instead of the "
                        "type-sum formula")
    p.add_argument("--per-type", action="store_true",
                   help="also list admissible types at degree N")
    p.set_defaults(fn=cmd_homcount)

    p = sub.add_parser("subcount", parents=[common, group_cap, max_n],
                       help="number of index-m subgroups for m = 1..N")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.set_defaults(fn=cmd_subcount)

    p = sub.add_parser("realize", parents=[common],
                       help="construct a plan with the requested growth "
                            "degree")
    p.add_argument("value", help="a non-negative rational like 9/10")
    p.add_argument("--emit-gog", action="store_true",
                   help="print the plan as graph-of-groups source")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("family", parents=[common],
                       help="two symmetric or alternating groups over a "
                            "cyclic subgroup: formula value and source")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alt", action="store_true",
                   help="alternating vertex groups")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the acceptance checks")
    p.add_argument("--slow", action="store_true",
                   help="enable the expensive paths")
    p.set_defaults(fn=cmd_selftest)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
