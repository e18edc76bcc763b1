"""Acceptance gate: one test (hence one pass/fail line under pytest -v) per
criterion.  Every comparison inside the criteria is exact Fraction or integer
equality; there are no tolerances anywhere.

The same criteria back the `vfgrowth selftest` command, so the gate can also
be run installed, without pytest.
"""

import pytest

from vfgrowth import selftest


def _check(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} - "
          f"{result.title}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_a1_catalog_and_restriction_tables(deep):
    _check(selftest.criterion_a1(slow=deep))


def test_a2_klein_amalgam_growth_program(deep):
    _check(selftest.criterion_a2(slow=deep))


def test_a3_lp_agrees_with_closed_form(deep):
    _check(selftest.criterion_a3(slow=deep))


def test_a4_family_formula_and_tightness(deep):
    _check(selftest.criterion_a4(slow=deep))


def test_a5_small_graph_growth_values(deep):
    _check(selftest.criterion_a5(slow=deep))


def test_a6_growth_bounded_below_by_euler(deep):
    _check(selftest.criterion_a6(slow=deep))


def test_o1_vertex_hom_count_uses_aut_counts(deep):
    _check(selftest.criterion_o1(slow=deep))


def test_o2_two_counting_oracles_agree(deep):
    _check(selftest.criterion_o2(slow=deep))


def test_o3_subgroup_counts_are_integral(deep):
    _check(selftest.criterion_o3(slow=deep))


def test_r1_every_rational_is_realized(deep):
    _check(selftest.criterion_r1(slow=deep))


def test_p6_triangle_graph_recomputation(deep):
    _check(selftest.criterion_p6(slow=deep))


@pytest.mark.slow
def test_x1_exceptional_double_transposition(deep):
    _check(selftest.criterion_x1(slow=deep))


def test_run_all_is_green(deep):
    results = selftest.run_all(slow=False)
    assert len(results) == 11
    assert all(r.passed for r in results)


def test_run_all_builds_the_corpus_once(monkeypatch):
    # A6 and O3 both read the corpus; run_all builds it once and drops it
    # when the run ends, while a criterion called alone builds its own
    built = []
    corpus_graphs = selftest.corpus_graphs

    def counted(*args, **kwargs):
        built.append(1)
        return corpus_graphs(*args, **kwargs)
    monkeypatch.setattr(selftest, "corpus_graphs", counted)
    assert all(r.passed for r in selftest.run_all())
    assert len(built) == 1
    assert selftest._run_corpus is None
    _check(selftest.criterion_o3())
    assert len(built) == 2
