import json
from pathlib import Path

import pytest

from vfgrowth.cli import run

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
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


def test_error_exit_codes(capsys):
    assert run(["mu", str(GRAPHS / "no-such-file.gog")]) == 1
    assert "error:" in out_of(capsys)[1]
    assert run(["catalog", "Sym(110)"]) == 2
    assert "error:" in out_of(capsys)[1]
    assert run(["catalog", "Cyc(0)"]) == 1
    assert run(["catalog", "Dih(2)"]) == 1
    assert run(["realize", "3/-5"]) == 1
    assert run(["homcount", MODULAR, "--n", "9"]) == 2


@pytest.mark.parametrize("command", ["homcount", "subcount"])
def test_max_n_zero_is_a_cap(capsys, command):
    assert run([command, MODULAR, "--n", "3", "--max-n", "0"]) == 2
    assert "capped at degree 0" in out_of(capsys)[1]


def test_enumerate_degree_ceiling_names_itself(capsys):
    # degree 8 needs Sym(8), past the group cap; --max-n cannot lift that
    assert run(["homcount", MODULAR, "--n", "8", "--enumerate",
                "--max-n", "8"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "brute-force counting stops at degree 7, got 8" in err
    assert "--max-n cannot raise this ceiling" in err


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


def test_max_n_flag_raises_the_cap(capsys):
    assert run(["homcount", MODULAR, "--n", "9", "--max-n", "9"]) == 0
    out = out_of(capsys)[0]
    assert out.splitlines()[0] == "1\t1"
    assert len(out.splitlines()) == 9


def test_unknown_arguments_rejected():
    with pytest.raises(SystemExit):
        run(["mu", KLEIN, "--frobnicate"])


@pytest.mark.parametrize("argv", [
    ["mu", KLEIN, "--threads", "2"],
    ["mu", KLEIN, "--slow"],
    ["report", KLEIN, "--max-n", "9"],
    ["homcount", MODULAR, "--n", "2", "--slow"],
    ["family", "--p", "3", "--k", "4", "--l", "1", "--max-n", "9"],
    ["family", "--p", "2", "--k", "7", "--l", "1", "--slow"],
    ["family", "--p", "3", "--k", "4", "--l", "1", "--max-group-order", "1"],
    ["realize", "9/10", "--max-group-order", "1"],
    ["selftest", "--max-group-order", "1"],
])
def test_flags_only_where_they_act(argv):
    with pytest.raises(SystemExit):
        run(argv)


def test_selftest_command(capsys):
    assert run(["selftest"]) == 0
    out = out_of(capsys)[0]
    lines = out.strip().splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 10
