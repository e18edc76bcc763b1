"""The CLI prints, byte for byte, what ``tests/golden/cli/`` holds.

Each case runs ``cli.run(argv)`` in process from the repository root and
compares its exit code, stdout and stderr with ``<case>.txt``.  A change
of output is a change of those files, made by hand and reviewed as one.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from vfgrowth.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli"
GRAPHS = sorted(p.relative_to(ROOT).as_posix()
                for p in (ROOT / "graphs").glob("*.gog"))


def _cases() -> dict:
    cases = {"catalog-sym5": ["catalog", "Sym(5)"]}
    for path in GRAPHS:
        stem = Path(path).stem
        cases[f"catalog-{stem}"] = ["catalog", path]
        cases[f"report-{stem}"] = ["report", path]
        cases[f"report-json-{stem}"] = ["report", path, "--json"]
    cases.update({
        "report-dump-lp-klein": ["report", "graphs/klein.gog", "--dump-lp"],
        "report-json-dump-lp-klein":
            ["report", "graphs/klein.gog", "--json", "--dump-lp"],
        "report-dump-lp-triangle":
            ["report", "graphs/triangle.gog", "--dump-lp"],
        "report-json-dump-lp-triangle":
            ["report", "graphs/triangle.gog", "--json", "--dump-lp"],
        "homcount-klein-per-type":
            ["homcount", "graphs/klein.gog", "--n", "6", "--per-type"],
        "homcount-modular-enumerate":
            ["homcount", "graphs/modular.gog", "--n", "5", "--enumerate"],
        "subcount-modular": ["subcount", "graphs/modular.gog", "--n", "8"],
        "family-2-6-1": ["family", "--p", "2", "--k", "6", "--l", "1"],
        "family-2-2-1-alt":
            ["family", "--p", "2", "--k", "2", "--l", "1", "--alt"],
        "realize-9-10-gog": ["realize", "9/10", "--emit-gog"],
        "realize-2-3-json": ["realize", "2/3", "--json"],
        "catalog-cyc0": ["catalog", "Cyc(0)"],
        "homcount-max-n-0":
            ["homcount", "graphs/modular.gog", "--n", "3", "--max-n", "0"],
        "selftest": ["selftest"],
        "selftest-json": ["selftest", "--json"],
    })
    return cases


CASES = _cases()


def render(argv) -> str:
    """Exit code, stdout and stderr of one in-process run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return (f"$ vfgrowth {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def test_golden_files_are_the_cases():
    # the glob found the shipped graphs, and no golden file is left over
    assert len(GRAPHS) == 6
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(CASES[case]) == want
