"""Command-line interface: formats, scenarios, determinism, exit codes."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from locce import cli
from locce.cli import COLUMNS, Criterion, Row, emit, main
from locce.families import Ensemble, graph_state_basis
from locce.protocols import ProtocolResult
from locce.tensor import Operator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ghz_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "ghz", "--n", "3", "--sizes", "1,1,1")
    assert code == 0
    assert "sequential-bell" in out
    assert "pass" in out


def test_ghz_partitioned_row(capsys):
    code, out, _ = run_cli(capsys, "ghz", "--n", "3", "--sizes", "2,1")
    assert code == 0
    assert "partitioned-ghz" in out


def test_lattice_csv_has_eight_fields(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "2", "--m", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    for line in lines[1:]:
        assert len(line.split(",")) == 8
    row = dict(zip(COLUMNS, lines[1].split(",")))
    assert row["fidelity"] == "0.5"
    assert row["bound"] == "0.25"
    assert row["status"] == "pass"


def test_parametric_json_keys(capsys):
    code, out, _ = run_cli(capsys, "parametric", "--alpha", "0.9", "--gamma", "0.8",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    for entry in payload:
        assert tuple(entry.keys()) == COLUMNS
    assert payload[0]["fidelity"] == "0.725"


def test_example4_passes(capsys):
    code, out, _ = run_cli(capsys, "example4", "--format", "csv")
    assert code == 0
    assert all(line.split(",")[6] == "pass" for line in out.strip().splitlines()[1:])


def _negated_stabilizers(graph):
    ens, resource, stabs = graph_state_basis(graph)
    return ens, resource, [Operator(s.dims, -s.entries) for s in stabs]


@pytest.mark.parametrize("owner, name, mutant, argv, statuses", [
    (ProtocolResult, "survivors_after_measurement_round", lambda self, j: (),
     ("ghz", "--n", "3"), ["fail"]),
    (cli, "graph_state_basis", _negated_stabilizers, ("graph", "--graph", "path3"), ["fail"]),
    (cli, "bell_vectors", lambda: np.eye(4), ("example4",), ["fail", "pass"]),
], ids=["ghz-halving-schedule", "graph-stabilizers", "example4-plus-mapping"])
def test_single_family_command_checks_its_invariant(capsys, monkeypatch, owner, name,
                                                    mutant, argv, statuses):
    # each command makes the check its paper-suite rows make: break the
    # invariant and the command's protocol row fails
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(owner, name, mutant)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 1
    assert [line.split(",")[6] for line in out.splitlines()[1:]] == statuses


def test_graph_named(capsys):
    code, out, _ = run_cli(capsys, "graph", "--graph", "triangle", "--format", "csv")
    assert code == 0
    assert "bell-orbit-decode" in out


def test_graph_edge_list(capsys):
    code, out, _ = run_cli(capsys, "graph", "--edges", "0-1,1-2", "--format", "csv")
    assert code == 0


def test_bounds_ghz(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "ghz", "--n", "3",
                           "--format", "csv")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "0.5" and row[4] == "0.5"


def test_bounds_ghz_checks_orthonormality_once(monkeypatch):
    calls = []
    is_orthonormal = Ensemble.is_orthonormal
    monkeypatch.setattr(Ensemble, "is_orthonormal",
                        lambda self, *a: calls.append(self.size) or is_orthonormal(self, *a))
    (row,) = cli.run_bounds({"bounds_family": "ghz", "n": 4})
    assert row.status == "pass"
    assert calls == [16]


def test_oneway_quick(capsys):
    code, out, _ = run_cli(capsys, "oneway", "--lambdas", "1,1", "--outcomes", "4",
                           "--restarts", "3", "--seed", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert all(len(row) == 8 for row in rows)
    assert [row[0] for row in rows[1:]] == ["oneway-lam1,1"] * 2
    assert rows[1][2] == "explicit-certificate"


def test_missing_field_names_it(capsys):
    code, _, err = run_cli(capsys, "lattice", "--n", "2")
    assert code == 2
    assert "'m'" in err


@pytest.mark.parametrize("argv, field", [
    (("oneway", "--lambdas", "1.6,0.4", "--restarts", "0"), "'restarts'"),
    (("oneway", "--lambdas", "1.6,0.4", "--outcomes", "0"), "'outcomes'"),
    (("bounds", "--family", "ghz", "--n", "0"), "'n'"),
    (("bounds", "--family", "lattice", "--n", "0"), "'n'"),
    (("bounds", "--family", "parametric", "--alpha", "0", "--gamma", "0"), "alpha"),
])
def test_zero_value_is_not_replaced_by_default(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize("lambdas", ["nan,nan", "inf,-inf", "1.5,nan"])
def test_oneway_non_finite_lambdas_name_the_field(capsys, lambdas):
    code, out, err = run_cli(capsys, "oneway", "--lambdas", lambdas, "--restarts", "1")
    assert code == 2
    assert out == ""
    assert "field 'lambdas':" in err and "finite" in err


@pytest.mark.parametrize("family, fields, field", [
    ("ghz", {"n": 3.7}, "'n'"),
    ("ghz", {"n": 3, "sizes": [2, 1.5]}, "'sizes'"),
    ("ghz", {"n": 3, "sizes": "2,1.5"}, "'sizes'"),
    ("lattice", {"n": True, "m": 1}, "'n'"),
    ("graph", {"edges": "0-1", "vertices": 2.5}, "'vertices'"),
    ("oneway", {"restarts": True}, "'restarts'"),
    ("oneway", {"restarts": 1, "seed": 1.5}, "'seed'"),
    ("oneway", {"restarts": 1, "seed": -1}, "'seed'"),
    ("oneway", {"restarts": 1, "lambdas": [True, 1.0]}, "'lambdas'"),
    ("parametric", {"alpha": True, "gamma": 0.8}, "'alpha'"),
    ("bounds", {"bounds_family": "parametric", "gamma": True}, "'gamma'"),
    ("bounds", {"bounds_family": "bogus"}, "'bounds_family'"),
    ("ghz", {"n": 3, "sizes": [2, 2]}, "'sizes'"),
    ("lattice", {"n": 2, "m": 5}, "'m'"),
    ("lattice", {"n": 0, "m": 1}, "'n'"),
    ("graph", {"edges": "0-1", "vertices": -1}, "'vertices'"),
    ("graph", {"edges": "0-1", "vertices": 0}, "'vertices'"),
    ("graph", {"graph": "path3", "edges": "0-1"}, "'edges'"),
    ("graph", {"graph": "path3", "vertices": 3}, "'vertices'"),
])
def test_integer_fields_refuse_fractions_and_bools(tmp_path, capsys, family, fields, field):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(fields))
    code, out, err = run_cli(capsys, family, "--scenario", str(scenario))
    assert code == 2
    assert out == ""
    assert f"field {field}:" in err


def test_bad_timing_and_seed_env_name_the_field(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"n": 2, "timing": "bogus"}))
    code, out, err = run_cli(capsys, "ghz", "--scenario", str(scenario))
    assert code == 2 and out == ""
    assert "field 'timing':" in err and "bogus" in err
    monkeypatch.setenv("LOCCE_SEED", "abc")
    code, out, err = run_cli(capsys, "ghz", "--n", "2")
    assert code == 2 and out == ""
    assert "field 'seed':" in err and "abc" in err
    monkeypatch.setenv("LOCCE_SEED", "-3")
    code, out, err = run_cli(capsys, "oneway", "--restarts", "1")
    assert code == 2 and out == ""
    assert "field 'seed':" in err and "-3" in err


@pytest.mark.parametrize("argv, field", [
    (("ghz", "--n", "6"), "'n'"),  # 2^6 members x joint dim 2^12 x 16 B = 4 MiB
    (("graph", "--edges", "0-1,1-2,2-3,3-4,4-5"), "'edges'"),
    (("graph", "--edges", "0-1", "--vertices", "6"), "'vertices'"),
    (("lattice", "--n", "3", "--m", "3"), "'n' (with 'm')"),
    (("bounds", "--family", "ghz", "--n", "16"), "'n'"),
    (("bounds", "--family", "lattice", "--n", "8"), "'n'"),
    (("bounds", "--family", "ghz", "--n", "6"), "'n'"),  # 31 cuts x 64 KiB of member rows
])
def test_size_guard_refuses_before_building(capsys, monkeypatch, argv, field):
    # a 1 MiB limit keeps this test small even if the guard is broken
    monkeypatch.setattr(cli, "MAX_ROW_BYTES", 1 << 20)
    for builder in ("sequential_bell_protocol", "graph_decode_protocol", "graph_state_basis",
                    "lattice_partial_teleport", "ghz_basis", "lattice_basis"):
        monkeypatch.setattr(cli, builder, lambda *a: pytest.fail("built past the guard"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"field {field}:" in err and "above the limit of 1048576 B" in err


def test_oneway_outcomes_guard_refuses_before_searching(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ROW_BYTES", 1 << 20)
    monkeypatch.setattr(cli, "feasibility_search", lambda *a: pytest.fail("searched past the guard"))
    code, out, err = run_cli(capsys, "oneway", "--lambdas", "1.6,0.4",
                             "--outcomes", "100000000000", "--restarts", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "field 'outcomes':" in err and "above the limit of 1048576 B" in err


def test_oneway_outcomes_guard_boundary(capsys, monkeypatch):
    # the Hessian's arrays: 64 (d^2 K)^2 B, so at d = 2 1024 K^2 B, and
    # 32 outcomes fill 1 MiB exactly
    monkeypatch.setattr(cli, "MAX_ROW_BYTES", 1 << 20)
    searched = []
    monkeypatch.setattr(cli, "feasibility_search", lambda rep, spectrum, outcomes, *a: (
        searched.append(outcomes) or SimpleNamespace(best_residual=1.0)))
    argv = ("oneway", "--lambdas", "1.6,0.4", "--restarts", "1", "--outcomes")
    code, out, err = run_cli(capsys, *argv, "33")
    assert code == 2 and out == "" and searched == []
    assert "field 'outcomes': 33 outcomes need 1115136 B" in err
    code, out, _ = run_cli(capsys, *argv, "32")
    assert code == 0 and searched == [32]
    assert "search-K32-R1" in out


def test_oneway_restarts_guard_boundary(capsys, monkeypatch):
    # a search holds every restart at once: 16384 B each at d = 2, K = 4,
    # so 64 restarts fill 1 MiB exactly
    monkeypatch.setattr(cli, "MAX_ROW_BYTES", 1 << 20)
    searched = []
    monkeypatch.setattr(cli, "feasibility_search", lambda rep, spectrum, outcomes, restarts, *a: (
        searched.append(restarts) or SimpleNamespace(best_residual=1.0)))
    argv = ("oneway", "--lambdas", "1.6,0.4", "--outcomes", "4", "--restarts")
    code, out, err = run_cli(capsys, *argv, "65")
    assert code == 2 and out == "" and searched == []
    assert "field 'restarts': 65 restarts of 4 outcomes need 1064960 B" in err
    assert "above the limit of 1048576 B" in err
    code, out, _ = run_cli(capsys, *argv, "64")
    assert code == 0 and searched == [64]
    assert "search-K4-R64" in out


def test_size_guard_default_is_one_gib(capsys, monkeypatch):
    assert cli.MAX_ROW_BYTES == 1 << 30
    monkeypatch.setattr(cli, "graph_decode_protocol", lambda *a: pytest.fail("built"))
    code, _, err = run_cli(capsys, "graph", "--edges", "0-11")  # about 1 TiB
    assert code == 2
    assert "2^40 B" in err


def test_bad_graph_name(capsys):
    code, _, err = run_cli(capsys, "graph", "--graph", "dodecahedron")
    assert code == 2
    assert "dodecahedron" in err


def test_scenario_file_with_flag_override(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "scenario": "from-file", "family": "lattice", "n": 2, "m": 2, "format": "csv",
    }))
    code, out, _ = run_cli(capsys, "lattice", "--scenario", str(scenario), "--m", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "from-file"
    assert row[3] == "0.5"  # m=1 flag overrode the file's m=2


def test_scenario_family_mismatch(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"family": "ghz", "n": 3}))
    code, _, err = run_cli(capsys, "lattice", "--scenario", str(scenario))
    assert code == 2
    assert "family" in err


def test_scenario_invalid_json(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text("{not json")
    code, _, err = run_cli(capsys, "lattice", "--scenario", str(scenario))
    assert code == 2
    assert "invalid JSON" in err


def test_byte_identical_output_with_timing_off(capsys):
    args = ("oneway", "--lambdas", "1.6,0.4", "--outcomes", "4", "--restarts", "3",
            "--seed", "7", "--format", "csv", "--timing", "off")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_var_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOCCE_SEED", "123")
    code, out, _ = run_cli(capsys, "oneway", "--lambdas", "1,1", "--outcomes", "4",
                           "--restarts", "2", "--format", "csv", "--timing", "off")
    assert code == 0
    monkeypatch.setenv("LOCCE_SEED", "123")
    code2, out2, _ = run_cli(capsys, "oneway", "--lambdas", "1,1", "--outcomes", "4",
                             "--restarts", "2", "--format", "csv", "--timing", "off")
    assert out == out2


def test_emit_empty_is_header_only():
    assert emit([], "csv") == ",".join(COLUMNS)
    table = emit([], "table")
    assert table.splitlines()[0].split() == list(COLUMNS)
    assert json.loads(emit([], "json")) == []


def test_emit_single_row_csv():
    row = Row("s", "f", "p", "0.5", "0.25", "0.5", "pass", 12.3456)
    line = emit([row], "csv").splitlines()[1]
    assert line == "s,f,p,0.5,0.25,0.5,pass,12.346"
    line_no_ms = emit([row], "csv", timing=False).splitlines()[1]
    assert line_no_ms.endswith(",0")


def test_paper_suite_prints_criteria_rows_in_order(capsys, monkeypatch):
    def stub(label):
        return lambda seed: [Row(label, "f", "p", str(seed), "n/a", "-", "pass", 1.0)]
    monkeypatch.delenv("LOCCE_SEED", raising=False)
    monkeypatch.setattr(cli, "CRITERIA", (Criterion("a", "first", stub("first")),
                                          Criterion("b", "second", stub("second"))))
    code, out, _ = run_cli(capsys, "paper-suite", "--format", "csv", "--timing", "off")
    assert code == 0
    assert out.splitlines()[1:] == ["first,f,p,0,n/a,-,pass,0",
                                    "second,f,p,0,n/a,-,pass,0"]


@pytest.mark.parametrize("flag", ["--fast", "--restarts=50"])
def test_paper_suite_has_no_knobs(flag):
    with pytest.raises(SystemExit) as exc:
        main(["paper-suite", flag])
    assert exc.value.code == 2


# -- one table of subcommands, one checker for flags and file fields ---------

# a bad value for every flag of COMMANDS that takes a number, a list or a
# choice, with the flags its field needs beside it
BAD_VALUES = {
    ("ghz", "--n"): ("2.5", ()),
    ("ghz", "--sizes"): ("2,x", ("--n", "3")),
    ("graph", "--graph"): ("dodecahedron", ()),
    ("graph", "--edges"): ("0-x", ()),
    ("graph", "--vertices"): ("2.5", ("--edges", "0-1")),
    ("lattice", "--n"): ("x", ()),
    ("lattice", "--m"): ("1.0", ("--n", "2")),
    ("parametric", "--alpha"): ("x", ()),
    ("parametric", "--gamma"): ("0.8.1", ("--alpha", "0.9")),
    ("oneway", "--lambdas"): ("1,x", ()),
    ("oneway", "--outcomes"): ("4.0", ()),
    ("oneway", "--restarts"): ("x", ()),
    ("bounds", "--family"): ("bogus", ()),
    ("bounds", "--n"): ("3.0", ()),
    ("bounds", "--alpha"): ("x", ("--family", "parametric")),
    ("bounds", "--gamma"): ("x", ("--family", "parametric")),
    **{(command, flag): (value, ()) for command in cli.COMMANDS
       for flag, value in (("--format", "xml"), ("--seed", "x"), ("--timing", "maybe"))},
}


def _field_of(flag):
    return cli.FIELD_OF.get(flag, flag[2:])


def test_bad_values_cover_every_flag_but_the_file_and_the_label():
    flags = {(command, flag) for command, entry in cli.COMMANDS.items()
             for flag, _ in entry.flags + cli.COMMON if flag not in ("--scenario", "--label")}
    assert set(BAD_VALUES) == flags


@pytest.mark.parametrize("command, flag", list(BAD_VALUES))
def test_a_bad_flag_and_the_same_file_field_get_one_message(tmp_path, capsys, command, flag):
    value, beside = BAD_VALUES[command, flag]
    code, out, err = run_cli(capsys, command, *beside, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"bad value for field '{_field_of(flag)}': " in err
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({_field_of(flag): value}))
    assert run_cli(capsys, command, *beside, "--scenario", str(scenario)) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ("ghz", "--n", "3", "--sizes", "2,1"),
    ("graph", "--graph", "path3", "--label", "named"),
    ("graph", "--edges", "0-1,1-2", "--vertices", "3"),
    ("lattice", "--n", "2", "--m", "1", "--format", "json"),
    ("parametric", "--alpha", "0.9", "--gamma", "0.8", "--format", "table"),
    ("example4", "--label", "four"),
    ("oneway", "--lambdas", "1.6,0.4", "--outcomes", "4", "--restarts", "2", "--seed", "3"),
    ("bounds", "--family", "lattice", "--n", "2"),
    ("bounds", "--family", "parametric", "--alpha", "0.8", "--gamma", "0.9"),
], ids=lambda argv: "-".join(argv[:2]))
def test_a_valid_flag_and_the_same_file_field_give_the_same_bytes(tmp_path, capsys, argv):
    argv = argv + ("--timing", "off") + ("--format", "csv") * ("--format" not in argv)
    command, pairs = argv[0], argv[1:]
    flagged = run_cli(capsys, *argv)
    assert flagged[0] == 0 and flagged[1]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({_field_of(f): v for f, v in zip(pairs[::2], pairs[1::2])}))
    assert run_cli(capsys, command, "--scenario", str(scenario)) == flagged


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_flag_of_the_command(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag, text in cli.COMMANDS[command].flags + cli.COMMON:
        assert f"\n  {flag} " in out
        assert " ".join(text.split()) in " ".join(out.split())

