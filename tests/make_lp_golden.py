"""Write tests/golden/lp_solutions.txt, the solved growth LPs.

    PYTHONPATH=src python tests/make_lp_golden.py

One line per LP, tab-separated: the graph (a corpus name or a path under
graphs/), status, optimal value, the sorted basis and the point.  The test
in tests/test_ratlp.py recomputes the same lines and compares, so a kernel
change that lands on a different optimal vertex fails there even where
the CLI prints only mu.  A change of the file is made by running this
script and is reviewed as one.
"""

from pathlib import Path

from vfgrowth.corpus import corpus_graphs
from vfgrowth.gog import load_gog
from vfgrowth.growth import build_growth_program
from vfgrowth.ratlp import solve_max

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "lp_solutions.txt"


def lp_graphs():
    """(name, graph) for every corpus graph and graphs/*.gog."""
    yield from corpus_graphs()
    for path in sorted((ROOT / "graphs").glob("*.gog")):
        yield path.relative_to(ROOT).as_posix(), load_gog(path)


def solution_lines() -> list:
    lines = []
    for name, g in lp_graphs():
        sol = solve_max(build_growth_program(g).lp)
        lines.append("\t".join([
            name, sol.status, str(sol.value),
            " ".join(str(b) for b in sol.basis),
            " ".join(str(x) for x in sol.point)]))
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(solution_lines()) + "\n", encoding="utf-8")
