import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vfgrowth.cli import run
from vfgrowth.oracle import DEFAULT_TYPESUM_CAP
from vfgrowth.perm import Perm

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
SRC = GRAPHS.parent / "src"
KLEIN = str(GRAPHS / "klein.gog")
MODULAR = str(GRAPHS / "modular.gog")
TRIANGLE = str(GRAPHS / "triangle.gog")


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_mu_command(capsys):
    assert run(["mu", KLEIN]) == 0
    assert out_of(capsys)[0] == "1/4\n"


def test_chi_command(capsys):
    assert run(["chi", TRIANGLE]) == 0
    assert out_of(capsys)[0] == "-9/10\n"


def test_report_command(capsys):
    assert run(["report", MODULAR]) == 0
    out, _ = out_of(capsys)
    assert out.startswith("mu = 1/6\nchi = -1/6\nmu_free = 1/6\n")
    assert "lp size = 4 variables, 3 constraints" in out
    assert "dominant configuration:" in out
    assert "note: growth is as slow as free subgroups allow" in out


def test_report_dump_lp(capsys):
    assert run(["report", MODULAR, "--dump-lp"]) == 0
    out, _ = out_of(capsys)
    assert "\nrow\t" in out and "\nobjective\t" in out


def test_report_dump_lp_stays_inside_json(capsys):
    assert run(["report", MODULAR, "--json", "--dump-lp"]) == 0
    payload = json.loads(out_of(capsys)[0])   # a single well-formed object
    assert payload["lp_dump"].startswith("row\t")


def test_report_json_schema(capsys):
    assert run(["report", KLEIN, "--json"]) == 0
    payload = json.loads(out_of(capsys)[0])
    assert payload["mu"] == {"num": "1", "den": "4"}
    assert payload["chi"] == {"num": "-1", "den": "6"}
    assert payload["sigma"]["a"] == {"num": "1", "den": "12"}
    assert payload["tau"]["e"] == {"num": "1", "den": "2"}
    assert payload["notes"] == []


def test_json_output_is_byte_stable(capsys):
    run(["report", TRIANGLE, "--json"])
    first = out_of(capsys)[0]
    run(["report", TRIANGLE, "--json"])
    assert out_of(capsys)[0] == first


def test_homcount_and_subcount_tables(capsys):
    assert run(["homcount", MODULAR, "--n", "4"]) == 0
    assert out_of(capsys)[0] == "1\t1\n2\t2\n3\t12\n4\t90\n"
    assert run(["subcount", MODULAR, "--n", "4"]) == 0
    assert out_of(capsys)[0] == "1\t1\n2\t1\n3\t4\n4\t8\n"


def test_homcount_enumerate_matches_typesum(capsys):
    run(["homcount", MODULAR, "--n", "3"])
    table = out_of(capsys)[0]
    run(["homcount", MODULAR, "--n", "3", "--enumerate"])
    assert out_of(capsys)[0] == table


def test_homcount_per_type(capsys):
    assert run(["homcount", MODULAR, "--n", "2", "--per-type"]) == 0
    lines = out_of(capsys)[0].splitlines()
    assert lines[:2] == ["1\t1", "2\t2"]
    typed = [line for line in lines[2:] if line.startswith("type\t")]
    assert typed == ["type\ta=0,1; b=2,0\t1", "type\ta=2,0; b=2,0\t1"]


def test_catalog_named_group(capsys):
    assert run(["catalog", "Sym(3)"]) == 0
    out = out_of(capsys)[0]
    assert out.splitlines()[0] == "group Sym(3) (order 6)"
    assert out.splitlines()[1] == "class\tindex\taut\tsize\tgenerators"
    assert "1\t1\t1\t1\t" in out
    assert "4\t6\t6\t1\tid" in out


def test_catalog_graph_has_restriction_columns(capsys):
    assert run(["catalog", KLEIN]) == 0
    out = out_of(capsys)[0]
    assert "e:left" in out and "e:right" in out


def test_realize_command(capsys):
    assert run(["realize", "9/10"]) == 0
    assert out_of(capsys)[0] == ("target=9/10 family(p=11, k=110, l=1, "
                                 "symmetric) delta=0 predicted_mu=9/10\n")
    assert run(["realize", "7/3", "--emit-gog"]) == 0
    out = out_of(capsys)[0]
    assert "vertex a = Alt(9)" in out
    assert out.count("edge l") == 2


def test_family_command_agreement(capsys):
    assert run(["family", "--p", "3", "--k", "4", "--l", "1"]) == 0
    out = out_of(capsys)[0]
    assert "formula_mu = 1/4" in out
    assert "agreement: yes" in out

    assert run(["family", "--p", "2", "--k", "6", "--l", "1"]) == 0
    out = out_of(capsys)[0]
    assert "formula_mu = 1/2" in out
    assert "agreement: NO - closed form gives 19/30" in out
    assert "vertex a = Sym(6)" in out


@pytest.mark.parametrize("argv", [
    ["family", "--p", "2", "--k", "7", "--l", "1"],
    ["family", "--p", "3", "--k", "7", "--l", "1", "--alt"],
])
def test_family_skips_closed_form_past_the_lattice_cap(capsys, argv):
    # Sym(7) and Alt(7) exceed the subgroup cap of 1000
    assert run(argv) == 0
    out = out_of(capsys)[0]
    assert out.startswith("formula_mu = ")
    assert "closed_form" not in out


def test_family_large_k_skips_closed_form(capsys):
    assert run(["family", "--p", "11", "--k", "110", "--l", "1"]) == 0
    out = out_of(capsys)[0]
    assert "formula_mu = 9/10" in out
    assert "closed_form" not in out


def test_family_huge_k_prints_the_formula_without_a_check(capsys):
    # Sym(100000) has an order of 456574 digits, past Python's printing limit
    assert run(["family", "--p", "3", "--k", "100000", "--l", "1"]) == 0
    out, err = out_of(capsys)
    assert out.startswith(
        "formula_mu = 99997/100000\nvertex a = Sym(100000)\n")
    assert "closed_form" not in out
    assert err == ""


def test_error_exit_codes(capsys):
    assert run(["mu", str(GRAPHS / "no-such-file.gog")]) == 1
    assert "error:" in out_of(capsys)[1]
    assert run(["catalog", "Sym(110)"]) == 2
    assert "error:" in out_of(capsys)[1]
    assert run(["catalog", "Cyc(0)"]) == 1
    assert run(["catalog", "Dih(2)"]) == 1
    assert run(["realize", "3/-5"]) == 1
    assert run(["homcount", MODULAR, "--n",
                str(DEFAULT_TYPESUM_CAP + 1)]) == 2


@pytest.mark.parametrize("command", ["homcount", "subcount"])
def test_max_n_zero_is_a_cap(capsys, command):
    assert run([command, MODULAR, "--n", "3", "--max-n", "0"]) == 2
    assert "capped at degree 0" in out_of(capsys)[1]


def test_enumerate_degree_ceiling_names_itself(capsys):
    # degree 8 needs Sym(8), past the default group cap; neither flag
    # lifts that, and a raised group cap is not cited as the ceiling
    assert run(["homcount", MODULAR, "--n", "8", "--enumerate",
                "--max-n", "8", "--max-group-order", "50000"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == ("error: brute-force counting stops at degree 7, got 8: "
                   "Sym(8) has order 40320, past the default group cap "
                   "10000; neither --max-n nor --max-group-order raises "
                   "this ceiling\n")


def test_enumerate_group_cap_refusal_says_no_flag_raises_it(capsys):
    # Sym(6) at a vertex is past the brute-force counter's group cap
    assert run(["homcount", str(GRAPHS / "family_2_6_1.gog"), "--n", "2",
                "--enumerate"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == ("error: vertex 'a' too large: order 720 exceeds "
                   "DEFAULT_ENUM_GROUP_CAP 120, which no flag raises\n")


def test_subgroup_cap_refusal_says_no_flag_raises_it(capsys):
    # a raised order cap admits Sym(7), whose lattice the subgroup cap stops
    assert run(["catalog", "Sym(7)", "--max-group-order", "6000"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == ("error: group too large: order 5040 exceeds subgroup cap "
                   "1000, which no flag raises\n")


@pytest.mark.parametrize("argv", [
    ["catalog", "Klein4", "--max-group-order", "3"],
    ["catalog", "Cyc(4)", "--max-group-order", "3"],
    ["catalog", "Trivial", "--max-group-order", "0"],
])
def test_catalog_holds_every_named_group_to_the_order_cap(capsys, argv):
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: group too large: order ")
    assert err.endswith(f" exceeds cap {argv[-1]}\n")


def test_graph_vertex_named_klein4_is_held_to_the_order_cap(capsys,
                                                            tmp_path):
    # Klein4 * C2 over the trivial group: only the order-4 vertex is past 2
    path = tmp_path / "klein4.gog"
    path.write_text("vertex a = Klein4\n"
                    "vertex b { degree 2; gens (1 2); }\n"
                    "edge e a b { degree 1; gens (); into a: (); "
                    "into b: (); }\n", encoding="utf-8")
    assert run(["mu", str(path), "--max-group-order", "4"]) == 0
    assert out_of(capsys)[0] == "1/4\n"
    assert run(["mu", str(path), "--max-group-order", "2"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: group too large: order 4 exceeds cap 2\n"


def test_enumerate_degree_below_one_is_an_input_error(capsys):
    assert run(["homcount", MODULAR, "--n", "0", "--enumerate"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert "degree must be at least 1" in err


def test_catalog_reads_a_file_named_like_a_group(capsys, tmp_path,
                                                 monkeypatch):
    # a relative path that starts like a group name is still a path
    (tmp_path / "Sym.gog").write_text((GRAPHS / "klein.gog").read_text())
    monkeypatch.chdir(tmp_path)
    assert run(["catalog", "Sym.gog"]) == 0
    assert out_of(capsys)[0].startswith("vertex a (order 24)\n")


def test_catalog_refuses_an_argument_too_long_for_int(capsys):
    assert run(["catalog", "Cyc(" + "9" * 5000 + ")"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: group too large: order of more than ")
    assert "Traceback" not in err


def test_mu_refuses_a_degree_too_long_for_int(capsys, tmp_path):
    path = tmp_path / "huge.gog"
    path.write_text("vertex a { degree " + "9" * 5000 + "; gens (); }\n")
    assert run(["mu", str(path)]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: line 1, col 19: bad degree: more than ")
    assert "9999" not in err and "Traceback" not in err


def test_mu_refuses_a_degree_past_the_group_cap(capsys, tmp_path,
                                               monkeypatch):
    # refused as a cap before any permutation of that degree is built
    def no_perms(*_):
        raise AssertionError("a permutation was built")
    monkeypatch.setattr(Perm, "__init__", no_perms)
    path = tmp_path / "wide.gog"
    path.write_text("vertex a { degree 100000; gens (); }\n")
    assert run(["mu", str(path)]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: group too large: degree 100000 exceeds cap 10000\n"


@pytest.mark.parametrize("value", [
    "1/" + "7" * 5000, "7" * 5000 + "/9", "7" * 5000],
    ids=["denominator", "numerator", "integer"])
def test_realize_refuses_a_ratio_too_long_for_int(capsys, value):
    assert run(["realize", value]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: bad ratio: more than ")
    assert "7777" not in err and "Traceback" not in err


def test_realize_does_not_count_leading_zeros(capsys):
    assert run(["realize", "0" * 5000 + "1/2"]) == 0
    assert out_of(capsys)[0].startswith("target=1/2 family(p=3, k=6, l=1,")


@pytest.mark.parametrize("value", [
    "1/1000000000000037", "1/" + "7" * 400], ids=["16-digit", "400-digit"])
def test_realize_stops_at_the_prime_test_cap(capsys, value):
    assert run(["realize", value]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == ("error: prime test capped at 1000000000000, "
                   "got a larger number\n")


@pytest.mark.parametrize("p, code, message", [
    ("10000000000000", 1, "error: p must be prime, got 10000000000000\n"),
    (str(1000003 ** 2), 2, "error: prime test capped at 1000000000000, "
                           "got a larger number\n"),
], ids=["small-divisor", "no-small-divisor"])
def test_family_p_past_the_prime_test_cap(capsys, p, code, message):
    assert run(["family", "--p", p, "--k", "3", "--l", "1"]) == code
    out, err = out_of(capsys)
    assert out == ""
    assert err == message


def test_realize_refuses_a_free_rank_too_long_to_print(capsys):
    # 10**4300 - 1 needs the free group of rank 10**4300: 4301 digits
    assert run(["realize", "9" * 4300]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: free rank of more than 4300 digits\n"


def test_max_n_flag_raises_the_cap(capsys):
    n = str(DEFAULT_TYPESUM_CAP + 1)
    assert run(["homcount", MODULAR, "--n", n]) == 2
    assert f"capped at degree {DEFAULT_TYPESUM_CAP}" in out_of(capsys)[1]
    assert run(["homcount", MODULAR, "--n", n, "--max-n", n]) == 0
    out = out_of(capsys)[0]
    assert out.splitlines()[0] == "1\t1"
    assert len(out.splitlines()) == DEFAULT_TYPESUM_CAP + 1


def test_unknown_arguments_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["mu", KLEIN, "--frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [["--help"], ["family", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert out_of(capsys)[0].startswith("usage: vfgrowth")


def test_argument_error_exit_status():
    # the real process status: a bad argument is bad input (1), not a cap (2)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "vfgrowth.cli", "family", "--p", "x",
         "--k", "4", "--l", "1"], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: vfgrowth family")
    assert "vfgrowth family: error: argument --p: invalid int value: 'x'" \
        in proc.stderr


@pytest.mark.parametrize("argv", [
    ["mu", KLEIN, "--threads", "2"],
    ["mu", KLEIN, "--slow"],
    ["report", KLEIN, "--max-n", "9"],
    ["homcount", MODULAR, "--n", "2", "--slow"],
    # the brute-force counter lists no types
    ["homcount", MODULAR, "--n", "2", "--per-type", "--enumerate"],
    ["homcount", MODULAR, "--n", "2", "--enumerate", "--per-type"],
    ["family", "--p", "3", "--k", "4", "--l", "1", "--max-n", "9"],
    ["family", "--p", "2", "--k", "7", "--l", "1", "--slow"],
    ["family", "--p", "3", "--k", "4", "--l", "1", "--max-group-order", "1"],
    ["realize", "9/10", "--max-group-order", "1"],
    ["selftest", "--max-group-order", "1"],
])
def test_flags_only_where_they_act(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1


def test_selftest_command(capsys):
    assert run(["selftest"]) == 0
    out = out_of(capsys)[0]
    lines = out.strip().splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 10
