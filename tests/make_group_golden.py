"""Write tests/golden/group_layer.txt, digests of the group layer.

    PYTHONPATH=src python tests/make_group_golden.py

One line per vertex group of the benchmark's cold catalog (A5, S3 wr C2,
S5, S4 x S3, PSL(2,7), A6, S6), tab-separated: the name, the order, a
sha256 of ``tables()`` (element images, the multiplication rows read whole
from the factored store, inverses) and
a sha256 of ``subgroup_classes`` (for each class in order: its members in
order, each as a sorted index list, the representative's generators, the
order and the normalizer order).  The test in tests/test_groups.py
recomputes the same lines and compares, so a change to how the tables or
the lattice are built must keep both value-identical.  A change of the
file is made by running this script and is reviewed as one.
"""

from hashlib import sha256
from pathlib import Path

from vfgrowth.groups import (alternating_group, generate, subgroup_classes,
                             symmetric_group)
from vfgrowth.perm import parse_perm

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "group_layer.txt"


def _gens(degree, *texts):
    return generate([parse_perm(t, degree) for t in texts], degree)


def cold_catalog_groups():
    """(name, group) for each cold-catalog vertex group, orders 60 to 720."""
    return [
        ("A5", alternating_group(5)),
        ("S3wrC2", _gens(6, "(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)")),
        ("S5", symmetric_group(5)),
        ("S4xS3", _gens(7, "(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7)")),
        ("PSL27", _gens(7, "(1 2 3 4 5 6 7)", "(1 2)(3 5)")),
        ("A6", alternating_group(6)),
        ("S6", symmetric_group(6)),
    ]


def _digest(value) -> str:
    return sha256(repr(value).encode("ascii")).hexdigest()


def group_layer_line(name, g) -> str:
    """The golden line of the group g, named ``name``."""
    tab = g.tables()
    rows = [list(tab.row(x)) for x in range(g.order)]
    tables = ([p.images for p in g.elements], rows, tab.inv)
    classes = [([sorted(m) for m in cls.members],
                [p.images for p in cls.generators],
                cls.order, cls.normalizer_order)
               for cls in subgroup_classes(g)]
    return "\t".join([name, str(g.order), _digest(tables), _digest(classes)])


def group_layer_lines() -> list:
    return [group_layer_line(name, g) for name, g in cold_catalog_groups()]


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(group_layer_lines()) + "\n", encoding="utf-8")
