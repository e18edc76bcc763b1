from math import comb, factorial

import pytest

from vfgrowth.corpus import (klein_amalgam, modular_graph, oracle_graphs,
                             s3_c2_amalgam, triangle_graph)
from vfgrowth import oracle
from vfgrowth.errors import CapExceeded, InputError
from vfgrowth.gog import free_group, make_graph
from vfgrowth.groups import (cyclic_group, symmetric_group, trivial_group)
from vfgrowth.oracle import (TypePartition, hom_count_enumerate,
                             hom_count_typesum, type_hom_count,
                             vertex_hom_count)
from vfgrowth.oracle import _transporter_count
from vfgrowth.perm import parse_perm


def test_vertex_hom_count_s3_at_degree_3():
    # classes of Sym(3) have degrees (1, 2, 3, 6) and aut counts (1, 2, 1, 6)
    s3 = symmetric_group(3)
    assert vertex_hom_count(s3, (3, 0, 0, 0), 3) == 1    # trivial image
    assert vertex_hom_count(s3, (1, 1, 0, 0), 3) == 3    # sign-like homs
    assert vertex_hom_count(s3, (0, 0, 1, 0), 3) == 6    # isomorphisms
    total = 1 + 3 + 6
    assert total == 10                                   # |Hom(S3, S3)|


def test_vertex_hom_count_regular_and_trivial():
    c2 = cyclic_group(2)
    assert vertex_hom_count(c2, (0, 1), 2) == 1          # regular action
    assert vertex_hom_count(c2, (2, 0), 2) == 1          # trivial action
    assert vertex_hom_count(trivial_group(), (4,), 4) == 1


def test_vertex_hom_count_input_checks():
    s3 = symmetric_group(3)
    with pytest.raises(InputError, match="length"):
        vertex_hom_count(s3, (1, 1), 3)
    with pytest.raises(InputError, match="non-negative"):
        vertex_hom_count(s3, (-1, 2, 0, 0), 3)
    with pytest.raises(InputError, match="degree"):
        vertex_hom_count(s3, (1, 0, 0, 0), 3)


def test_type_hom_count_free_rank_one():
    # one trivial vertex, one loop: every image is a valid hom
    g = free_group(1)
    xi = TypePartition(3, (("v", (3,)),))
    assert type_hom_count(g, xi) == factorial(3)


def test_type_hom_count_rejects_inadmissible():
    g = s3_c2_amalgam()
    # left vertex faithful, right vertex trivial: edge images disagree
    xi = TypePartition(6, (("a", (0, 0, 0, 1)), ("b", (6, 0, 0, 0))))
    with pytest.raises(InputError, match="not admissible across edge"):
        type_hom_count(g, xi)


def test_per_type_counts_are_positive_and_sum_to_total():
    for g in (modular_graph(), klein_amalgam(), triangle_graph()):
        led = hom_count_typesum(g, 4)
        assert sum(c for _, c in led.per_type) == led.total(4)
        for xi, c in led.per_type:
            assert c >= 0
            assert type_hom_count(g, xi) == c


def _hall_free_rank2(n):
    """Index-n subgroup counts of the rank-2 free group, recomputed from
    scratch: totals are (m!)^2, then the marked-point recursion."""
    totals = [factorial(m) ** 2 for m in range(1, n + 1)]
    trans = []
    for m in range(1, n + 1):
        t = totals[m - 1]
        for k in range(1, m):
            t -= comb(m - 1, k - 1) * trans[k - 1] * totals[m - k - 1]
        trans.append(t)
    return [t // factorial(m) for m, t in enumerate(trans)]


def test_typesum_matches_independent_free_group_recursion():
    led = hom_count_typesum(free_group(2), 6)
    assert led.totals == tuple(factorial(m) ** 2 for m in range(1, 7))
    assert led.subgroups == tuple(_hall_free_rank2(6))
    assert led.subgroups == (1, 3, 13, 71, 461, 3447)


FROZEN_SUBGROUP_COUNTS = {
    "modular": (1, 1, 4, 8, 5, 22),
    "klein": (1, 1, 3, 0, 0),
    "triangle": (1, 3, 25, 47, 1211),
}


def test_frozen_subgroup_counts():
    assert hom_count_typesum(modular_graph(), 6).subgroups == \
        FROZEN_SUBGROUP_COUNTS["modular"]
    assert hom_count_typesum(klein_amalgam(), 5).subgroups == \
        FROZEN_SUBGROUP_COUNTS["klein"]
    assert hom_count_typesum(triangle_graph(), 5).subgroups == \
        FROZEN_SUBGROUP_COUNTS["triangle"]


def test_every_group_has_exactly_one_index_one_subgroup():
    for _name, g in oracle_graphs():
        assert hom_count_typesum(g, 1).s(1) == 1


def test_transitive_counts_divisible_by_factorial():
    for _name, g in oracle_graphs():
        led = hom_count_typesum(g, 5)
        for m in range(1, 6):
            assert led.t(m) % factorial(m - 1) == 0
            assert led.s(m) == led.t(m) // factorial(m - 1)


def test_totals_multiply_over_free_products():
    c2 = make_graph([("v", cyclic_group(2))], [])
    c3 = make_graph([("v", cyclic_group(3))], [])
    prod = modular_graph()
    for m in range(1, 7):
        assert hom_count_typesum(prod, m).total(m) == \
            hom_count_typesum(c2, m).total(m) * hom_count_typesum(c3, m).total(m)


def test_typesum_caps():
    with pytest.raises(CapExceeded):
        hom_count_typesum(free_group(1), 9)
    with pytest.raises(InputError):
        hom_count_typesum(free_group(1), 0)
    hom_count_typesum(free_group(1), 9, max_n=9)   # explicit override works


def test_enumerate_small_graphs():
    assert hom_count_enumerate(free_group(1), 3) == 6
    assert hom_count_enumerate(modular_graph(), 3) == 12
    assert hom_count_enumerate(free_group(2), 3) == 36


def test_enumerate_agrees_with_typesum():
    for _name, g in oracle_graphs():
        for m in range(1, 5):
            assert hom_count_enumerate(g, m) == hom_count_typesum(g, m).total(m)


@pytest.mark.slow
def test_enumerate_agrees_with_typesum_at_degree_five_and_six():
    for _name, g in oracle_graphs():
        assert hom_count_enumerate(g, 5) == hom_count_typesum(g, 5).total(5)
    assert hom_count_enumerate(triangle_graph(), 6) == \
        hom_count_typesum(triangle_graph(), 6).total(6)


def test_enumerate_rejects_degrees_below_one():
    # the same check, and the same error, as the type-sum counter
    for g, n in ((free_group(1), 0), (modular_graph(), 0), (free_group(1), -1)):
        with pytest.raises(InputError, match="degree must be at least 1"):
            hom_count_enumerate(g, n)


def test_enumerate_caps():
    with pytest.raises(CapExceeded):
        hom_count_enumerate(free_group(1), 7)
    big = make_graph([("v", symmetric_group(6))], [])
    with pytest.raises(CapExceeded):
        hom_count_enumerate(big, 2)          # vertex order above the cap
    at_cap = make_graph([("v", symmetric_group(5))], [])
    hom_count_enumerate(at_cap, 2)           # order 120 is exactly allowed


def test_enumerate_degree_ceiling_is_fixed_by_the_group_cap(monkeypatch):
    # 8! = 40320 is past the group cap, so no --max-n reaches degree 8;
    # the refusal comes before any vertex is counted
    def no_counting(*_):
        raise AssertionError("counted before the ceiling check")
    monkeypatch.setattr(oracle, "_vertex_homs", no_counting)
    with pytest.raises(CapExceeded, match="stops at degree 7, got 8"):
        hom_count_enumerate(modular_graph(), 8, max_n=8)


def test_transporter_counts():
    a = parse_perm("(1 2)", 4)
    b = parse_perm("(3 4)", 4)
    c = parse_perm("(1 2 3)", 4)
    assert _transporter_count((), (), 4) == factorial(4)
    assert _transporter_count((a,), (c,), 4) == 0
    # same cycle type: transporter is a centralizer coset, so same size
    assert _transporter_count((a,), (b,), 4) == _transporter_count((a,), (a,), 4)
    assert _transporter_count((a,), (a,), 4) == 4      # 2 * 2 fixed points
    assert _transporter_count((a, c), (a, c), 4) == 1  # joint centralizer
