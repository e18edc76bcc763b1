"""Acceptance gate: one test (hence one pass/fail line under pytest -v) per
criterion.  Every comparison inside the criteria is exact Fraction or integer
equality; there are no tolerances anywhere.

The same criteria back the `vfgrowth selftest` command, so the gate can also
be run installed, without pytest.
"""

from fractions import Fraction

import pytest

from vfgrowth import selftest


def _check(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} - "
          f"{result.title}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_a1_catalog_and_restriction_tables(deep):
    _check(selftest.criterion_a1(slow=deep))


def test_a1_builds_one_coset_action_per_subgroup(monkeypatch):
    # the fixed-point tables read both elements from one action of each
    # of the 6 subgroups of Sym(3) and the 8 of Dih(5)
    calls = []
    action = selftest.coset_action

    def counted(g, sub):
        calls.append(sub)
        return action(g, sub)
    monkeypatch.setattr(selftest, "coset_action", counted)
    _check(selftest.criterion_a1())
    assert len(calls) == 14


def test_a2_klein_amalgam_growth_program(deep):
    _check(selftest.criterion_a2(slow=deep))


def _reweighted(name, factor):
    point = dict(selftest.KLEIN_OPTIMIZER)
    point[name] *= factor
    return point


# each a point that is not an optimum of the Klein amalgam's growth LP
A2_MUTANTS = {
    **{f"{name} scaled by 18/17": _reweighted(name, Fraction(18, 17))
       for name in selftest.KLEIN_OPTIMIZER},
    **{f"{name} zeroed": _reweighted(name, 0)
       for name in selftest.KLEIN_OPTIMIZER},
    **{f"{name} negated": _reweighted(name, -1)
       for name in selftest.KLEIN_OPTIMIZER},
    "extra weight on a.5": {**selftest.KLEIN_OPTIMIZER, "a.5": Fraction(1, 36)},
    # classes 6 and 7 of side a have one LP column, so this point keeps
    # A.x = b and the objective 1/4, and only x >= 0 rejects it
    "a.7 below zero": {**selftest.KLEIN_OPTIMIZER, "a.6": Fraction(1, 36),
                       "a.7": Fraction(-1, 36)},
}


@pytest.mark.parametrize("mutant", sorted(A2_MUTANTS))
def test_a2_fails_on_a_wrong_published_optimizer(mutant, monkeypatch):
    monkeypatch.setattr(selftest, "KLEIN_OPTIMIZER", A2_MUTANTS[mutant])
    result = selftest.criterion_a2()
    assert not result.passed
    assert result.detail.startswith("published optimizer feasible with "
                                    "objective ")


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
