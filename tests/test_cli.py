"""End-to-end runs of the command line interface, in process and as a script."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cagekit
from cagekit import cage as cage_mod
from cagekit import cli, demos, linalg, verify
from cagekit.cage import MAX_NODES, axis_cage, random_cage
from cagekit.cli import MAX_GRID_POINTS, MAX_HILBERT_DEGREE, main
from cagekit.field import FieldDescriptor
from cagekit.poly import LinearForm
from cagekit.serialize import (MAX_DEGREE, cage_to_json,
                               configuration_to_json)
from cagekit.viete import Configuration
from test_serialize import ZERO_DIVISOR_LAMBDA

F = FieldDescriptor.rationals()


def run(tmp_path, *argv):
    """Invoke the CLI with -o, returning (exit code, parsed or raw output)."""
    out = tmp_path / "out.json"
    code = main([*argv, "-o", str(out)])
    if not out.exists():
        return code, None
    text = out.read_text()
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, text


@pytest.fixture
def square_cage(tmp_path):
    cage = axis_cage(F, [(0, 0), (1, 1)])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(cage_to_json(cage)))
    return str(path)


@pytest.fixture
def cube_config(tmp_path):
    config = Configuration(F, [(0, 2, 4), (1, 3, 5)])
    path = tmp_path / "cube-points.json"
    path.write_text(json.dumps(configuration_to_json(config)))
    return str(path)


# -- generation ----------------------------------------------------------------


def test_gen_random_then_validate_and_verify(tmp_path):
    cage_path = tmp_path / "cage.json"
    code = main(["gen", "--kind", "random", "--seed", "5", "--d", "3",
                 "--n", "2", "-o", str(cage_path)])
    assert code == 0
    blob = json.loads(cage_path.read_text())
    assert blob["kind"] == "cage" and (blob["n"], blob["d"]) == (2, 3)

    code, report = run(tmp_path, "validate", "--cage", str(cage_path))
    assert code == 0
    assert report["valid"] is True and report["node_count"] == 9

    code, report = run(tmp_path, "verify", "--cage", str(cage_path),
                       "--checks", "all", "--no-timestamp")
    assert code == 0
    assert report["pass"] is True
    assert "elapsed_s" not in report


@pytest.mark.parametrize("checks", [" , ", "validation,validation",
                                    "validation,bogus"],
                         ids=["empty", "repeated", "unknown"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_verify_refuses_empty_repeated_and_unknown_checks(
        tmp_path, capsys, checks, valid):
    # a report that runs no check, or one twice, proves nothing, and an
    # unknown name is refused before validation, so an invalid cage (one
    # form copied into the second color) exits 2 as a valid one does
    cage_path = tmp_path / "cage.json"
    assert main(["gen", "--kind", "random", "--seed", "4", "--d", "3",
                 "--n", "2", "-o", str(cage_path)]) == 0
    if not valid:
        blob = json.loads(cage_path.read_text())
        blob["groups"][1][0] = blob["groups"][0][0]
        cage_path.write_text(json.dumps(blob))
        assert main(["validate", "--cage", str(cage_path)]) == 1
    out = tmp_path / "report.json"
    assert main(["verify", "--cage", str(cage_path), "--checks", checks,
                 "--no-timestamp", "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_gen_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--kind", "random", "--seed", "7", "--d", "2", "--n", "3"]
    assert main([*argv, "-o", str(a)]) == 0
    assert main([*argv, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_random_needs_its_flags(tmp_path, capsys):
    assert main(["gen", "--kind", "random", "--d", "2", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_random_refuses_oversized_cages(capsys):
    # 40^5 nodes: refused at once with one line naming the limit
    started = time.monotonic()
    assert main(["gen", "--kind", "random", "--seed", "1", "--d", "40",
                 "--n", "5"]) == 2
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_NODES) in err


@pytest.mark.parametrize("d, n", [(0, 2), (2, 0)])
def test_gen_random_refuses_empty_shapes(capsys, d, n):
    assert main(["gen", "--kind", "random", "--seed", "1", "--d", str(d),
                 "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "d >= 1 and n >= 1" in err


def test_extension_degree_past_the_bound_exits_2(tmp_path, capsys):
    # a modulus of degree MAX_DEGREE + 1 is refused at its JSON path before
    # the split-prime scan, by validate and by gen --field alike
    field = {"kind": "extension",
             "min_poly": ["1"] + ["0"] * MAX_DEGREE + ["1"]}
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps(field))
    cage_path = tmp_path / "cage.json"
    cage_path.write_text(json.dumps({
        "schema": "cagekit/1", "kind": "cage", "field": field, "n": 1,
        "d": 1, "groups": [[[["1"] + ["0"] * MAX_DEGREE] * 2]]}))
    started = time.monotonic()
    for argv in (["validate", "--cage", str(cage_path)],
                 ["gen", "--kind", "random", "--seed", "1", "--d", "2",
                  "--n", "2", "--field", str(field_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "$.field.min_poly" in err
        assert str(MAX_DEGREE) in err
    assert time.monotonic() - started < 1


def test_gen_axis_and_viete(tmp_path, cube_config):
    code, blob = run(tmp_path, "gen", "--kind", "axis",
                     "--points", cube_config)
    assert code == 0
    assert (blob["n"], blob["d"]) == (3, 2)

    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(configuration_to_json(
        Configuration(F, [(1, 3), (2, 4)]))))
    code, blob = run(tmp_path, "gen", "--kind", "viete",
                     "--points", str(flat))
    assert code == 0
    assert (blob["n"], blob["d"]) == (2, 2)
    cage_path = tmp_path / "viete-cage.json"
    cage_path.write_text(json.dumps(blob))
    code, report = run(tmp_path, "validate", "--cage", str(cage_path))
    assert code == 0 and report["valid"] is True


# -- inspection -----------------------------------------------------------------


def test_nodes_listing(tmp_path, square_cage):
    code, blob = run(tmp_path, "nodes", "--cage", square_cage)
    assert code == 0
    assert blob["kind"] == "nodes"
    assert [nd["index"] for nd in blob["nodes"]] == [
        [1, 1], [1, 2], [2, 1], [2, 2]]


def test_hilbert_table(tmp_path):
    cage_path = tmp_path / "cage.json"
    main(["gen", "--kind", "random", "--seed", "5", "--d", "3", "--n", "2",
          "-o", str(cage_path)])
    code, blob = run(tmp_path, "hilbert", "--cage", str(cage_path),
                     "--max-k", "4")
    assert code == 0
    assert blob["points"] == 9
    assert blob["k"] == [0, 1, 2, 3, 4]
    assert blob["h"][:2] == [1, 3]
    # nine nodes leave exactly the two group products in degree 3
    assert blob["h"][3] == 8

    code, blob = run(tmp_path, "hilbert", "--cage", str(cage_path),
                     "--max-k", "3", "--selection", "simplicial")
    assert code == 0 and blob["points"] == 6


def test_hilbert_tables_run_no_elimination(tmp_path, monkeypatch):
    # after validation, done here once, every table entry is a count proved
    # from it: no node is built and no rank, kernel or separating form is
    # computed, and each selection prints its counts #{I : |I| - n <= k}
    path = tmp_path / "cage.json"
    cage = random_cage(9, 3, 2)
    path.write_text(json.dumps(cage_to_json(cage)))
    valid = cli._validated_cage(str(path))

    def forbidden(*args, **kwargs):
        raise AssertionError("a node-selection table needs no elimination")
    monkeypatch.setattr(cli, "_validated_cage", {str(path): valid}.get)
    for module, name in ((linalg, "_pivots_mod"), (verify, "_pivots_mod"),
                         (linalg, "_fraction_free"), (linalg, "_gauss_jordan"),
                         (verify, "hilbert_table"),
                         (verify, "_distinct_points"),
                         (verify, "_separating_form"),
                         (cage_mod.Cage, "nodes"),
                         (cage_mod.Cage, "nodes_for")):
        monkeypatch.setattr(module, name, forbidden)
    expected = {"all": [1, 3, 6, 8, 9, 9, 9],
                "simplicial": [1, 3, 6, 6, 6, 6, 6],
                "supra": [1, 3, 6, 8, 8, 8, 8]}
    for selection, table in expected.items():
        code, blob = run(tmp_path, "hilbert", "--cage", str(path),
                         "--max-k", "6", "--selection", selection)
        assert code == 0
        assert blob["h"] == table and blob["points"] == table[-1]


def test_hilbert_degree_bounds(tmp_path, square_cage, capsys):
    out = tmp_path / "table.json"
    for bad in ("-3", str(MAX_HILBERT_DEGREE + 1)):
        assert main(["hilbert", "--cage", square_cage, "--max-k", bad,
                     "-o", str(out)]) == 2
        assert "--max-k" in capsys.readouterr().err
        assert not out.exists()
    # the largest admissible table, one count per degree
    code, blob = run(tmp_path, "hilbert", "--cage", square_cage,
                     "--max-k", str(MAX_HILBERT_DEGREE))
    assert code == 0
    assert blob["h"][:3] == [1, 3, 4] and len(blob["h"]) == \
        MAX_HILBERT_DEGREE + 1 and blob["h"][-1] == 4


# -- inscription ------------------------------------------------------------------


def test_inscribe_documented_example(tmp_path, square_cage):
    code, blob = run(tmp_path, "inscribe", "--cage", square_cage,
                     "--node", "1,1", "--tangent", "1,2", "--s", "1")
    assert code == 0
    assert blob["kind"] == "variety"
    assert blob["s"] == 1
    assert blob["lambda"] == [["-2", "1"]]


def test_inscribe_rejects_wrong_codimension(tmp_path, square_cage, capsys):
    code = main(["inscribe", "--cage", square_cage,
                 "--node", "1,1", "--tangent", "1,2", "--s", "2"])
    assert code == 2
    assert "codimension" in capsys.readouterr().err


def test_inscribe_rejects_bad_index(square_cage, capsys):
    assert main(["inscribe", "--cage", square_cage, "--node", "1;1",
                 "--tangent", "1,2"]) == 2
    assert main(["inscribe", "--cage", square_cage, "--node", "3,1",
                 "--tangent", "1,2"]) == 2
    capsys.readouterr()


def test_exponent_literals_exit_2_quickly(tmp_path, square_cage, capsys):
    # a 12-byte scalar whose Fraction would be 10**999999999
    doc = cage_to_json(axis_cage(F, [(0, 0), (1, 1)]))
    doc["groups"][0][1][2] = "1e999999999"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    for argv, where in (
            (["validate", "--cage", str(huge)], "$.groups[0][1][2]"),
            (["inscribe", "--cage", square_cage, "--node", "1,1",
              "--tangent", "1e999999999,2"], "--tangent"),
            (["propagate", "--cage", square_cage, "--node", "1,1",
              "--tangent", "1,2;3,1e10000000"], "--tangent")):
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 1
        assert f"error: {where}: exponent" in capsys.readouterr().err


def test_propagate(tmp_path, square_cage):
    code, blob = run(tmp_path, "propagate", "--cage", square_cage,
                     "--node", "1,1", "--tangent", "1,2")
    assert code == 0
    assert blob["kind"] == "tangent-field"
    assert blob["start"] == [1, 1]
    assert len(blob["tangents"]) == 4
    assert all(t["kind"] == "tangent" for t in blob["tangents"])


# -- reports ------------------------------------------------------------------------


def test_counterexample(tmp_path):
    code, blob = run(tmp_path, "counterexample", "--no-timestamp")
    assert code == 0
    assert blob["pass"] is True
    assert any("witness" in c for c in blob["checks"])


def test_counterexample_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["counterexample", "--no-timestamp", "-o", str(a)]) == 0
    assert main(["counterexample", "--no-timestamp", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_demo_command(tmp_path, capsys):
    code, blob = run(tmp_path, "demo", "--list")
    assert code == 0
    assert "fermat-conic" in blob["demos"]
    code, blob = run(tmp_path, "demo", "fermat-conic", "--no-timestamp")
    assert code == 0 and blob["pass"] is True
    assert main(["demo", "escher-staircase"]) == 2
    assert main(["demo"]) == 2
    capsys.readouterr()


# -- failure surfaces -----------------------------------------------------------------


def test_invalid_cage_fails_validation_and_verification(tmp_path):
    cage = axis_cage(F, [(0, 0), (1, 1)])
    blob = cage_to_json(cage)
    blob["groups"][0][1] = blob["groups"][0][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(blob))

    code, report = run(tmp_path, "validate", "--cage", str(path))
    assert code == 1
    assert report["valid"] is False
    assert report["failures"]
    code, report = run(tmp_path, "verify", "--cage", str(path),
                       "--no-timestamp")
    assert code == 1 and report["pass"] is False
    # node-consuming commands refuse the broken cage outright
    assert main(["nodes", "--cage", str(path)]) == 2


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{\"kind\": \"cage\",")
    assert main(["validate", "--cage", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert main(["validate", "--cage", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    # the parser's RecursionError is a RuntimeError, which would exit 3
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["validate", "--cage", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: JSON nested too deeply\n"
    assert captured.out == ""


def assert_internal_error(capsys, argv, message):
    # a failed self-check exits 3 with one stderr line and no traceback
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert captured.out == ""


def test_kernel_self_check_exits_3(square_cage, monkeypatch, capsys):
    # validation's line kernels come from the integer core over Q
    real = linalg._fraction_free

    def wrong(rows):
        rows, pivots = real(rows)
        rows[0] = [e + 1 for e in rows[0]]
        return rows, pivots
    monkeypatch.setattr(linalg, "_fraction_free", wrong)
    assert_internal_error(capsys, ["validate", "--cage", square_cage],
                          "kernel vector check failed")


def test_hilbert_kernel_self_check_exits_3(monkeypatch):
    # a wrong row only in the wider eliminations, the Hilbert tables' exact
    # kernels, passes validation and fails the table: the nine nodes of a
    # 3x3 grid have rank 8 in degree 3.  The command line counts its tables
    # and eliminates no node set, so the point-list table is driven, and
    # its RuntimeError is what main turns into exit 3, as
    # test_kernel_self_check_exits_3 shows.  The checked kernel mod
    # 2^89 - 1 declines, so the exact kernel and its self-check run
    nodes = axis_cage(F, [(0, 0), (1, 2), (2, 1)]).nodes()
    real = linalg._fraction_free
    monkeypatch.setattr(verify, "_kernel_mod",
                        lambda rows, picked, cols: None)

    def wrong(rows):
        rows, pivots = real(rows)
        if rows and len(rows[0]) > 3:
            rows[0] = [e + 1 for e in rows[0]]
        return rows, pivots
    monkeypatch.setattr(linalg, "_fraction_free", wrong)
    with pytest.raises(RuntimeError, match="^kernel vector check failed$"):
        verify.hilbert_table(nodes, 4, field=F)


def test_integer_core_self_check_exits_3(square_cage, monkeypatch, capsys):
    # a wrong row from the integer core over Q fails the check on ints
    real = linalg._fraction_free

    def wrong(rows):
        rows, pivots = real(rows)
        rows[0] = [e + 1 for e in rows[0]]
        return rows, pivots
    monkeypatch.setattr(linalg, "_fraction_free", wrong)
    assert_internal_error(capsys, ["verify", "--cage", square_cage],
                          "kernel vector check failed")


def test_separating_form_exhaustion_exits_3(monkeypatch):
    # every candidate form vanishes: the scan tests integer dot products.
    # Only the point-list table reaches the scan, so it is driven on the
    # unit square's nodes
    nodes = axis_cage(F, [(0, 0), (1, 1)]).nodes()
    monkeypatch.setattr(verify, "dot", lambda row, vector: 0)
    with pytest.raises(RuntimeError, match="^separating form scan "
                                           "exhausted its provable bound$"):
        verify.hilbert_table(nodes, 3, field=F)


def test_selection_count_check_exits_3(square_cage, monkeypatch, capsys):
    monkeypatch.setattr(cage_mod, "comb", lambda a, b: 0)
    assert_internal_error(
        capsys, ["hilbert", "--cage", square_cage, "--max-k", "3",
                 "--selection", "supra"],
        "supra-simplicial selection has 4 indices, expected -2")


def test_demo_certification_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(demos, "_CUBIC_OMEGA", [1, 0, 0, 0, 0, 0])
    assert_internal_error(
        capsys, ["demo", "fermat-cubic-surface", "--no-timestamp"],
        "frozen demo data failed its check: omega^2 + omega + 1 = 0")


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, square_cage,
                                            cube_config, capsys, target):
    # every subcommand takes -o; a path it cannot write exits 2, the code
    # of an input error, not 1, the code of a failed check
    cube = tmp_path / "cube.json"
    curve = tmp_path / "curve.json"
    assert main(["gen", "--kind", "axis", "--points", cube_config,
                 "-o", str(cube)]) == 0
    assert main(["inscribe", "--cage", str(cube), "--node", "1,1,1",
                 "--tangent", "1,2,3", "-o", str(curve)]) == 0
    commands = {
        "gen": ["--kind", "random", "--seed", "1", "--d", "2", "--n", "2"],
        "validate": ["--cage", square_cage],
        "nodes": ["--cage", square_cage],
        "verify": ["--cage", square_cage],
        "hilbert": ["--cage", square_cage, "--max-k", "2"],
        "inscribe": ["--cage", square_cage, "--node", "1,1",
                     "--tangent", "1,2"],
        "propagate": ["--cage", square_cage, "--node", "1,1",
                      "--tangent", "1,2"],
        "counterexample": [],
        "demo": ["--list"],
        "sample-grid": ["--variety", str(curve), "--box", "0", "1", "0", "1",
                        "0", "1", "--resolution", "2"],
    }
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == set(sub.choices)
    path = tmp_path / target
    capsys.readouterr()
    for command, argv in commands.items():
        assert main([command, *argv, "-o", str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {path}: cannot write file: "), command
    assert not (tmp_path / "missing-dir").exists()


# -- grid sampling ----------------------------------------------------------------------


def test_sample_grid_csv(tmp_path, cube_config):
    cage_path = tmp_path / "cube.json"
    main(["gen", "--kind", "axis", "--points", cube_config,
          "-o", str(cage_path)])
    variety_path = tmp_path / "curve.json"
    code = main(["inscribe", "--cage", str(cage_path), "--node", "1,1,1",
                 "--tangent", "1,2,3", "-o", str(variety_path)])
    assert code == 0

    code, text = run(tmp_path, "sample-grid", "--variety", str(variety_path),
                     "--box", "0", "1", "2", "3", "4", "5",
                     "--resolution", "3")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == 1 + 27
    # the box corner (0,2,4) is the inscription node, so the curve hits it
    assert lines[1] == "0.0,2.0,4.0,0.0"
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(v >= 0 for v in values)

    assert main(["sample-grid", "--variety", str(variety_path),
                 "--box", "0", "1", "2", "3", "4", "5",
                 "--resolution", "1", "-o", str(tmp_path / "junk.csv")]) == 2


def test_sample_grid_prints_inf_past_the_float_range(tmp_path, cube_config):
    # a coordinate past the float range, or a value that overflows once
    # squared, is printed as the float's own inf; every row is complete
    cage_path = tmp_path / "cube.json"
    assert main(["gen", "--kind", "axis", "--points", cube_config,
                 "-o", str(cage_path)]) == 0
    for name, node, tangent in (("curve", "1,1,1", "1,2,3"),
                                ("surface", "1,2,1", "1,2,3;0,1,-1")):
        variety_path = tmp_path / f"{name}.json"
        assert main(["inscribe", "--cage", str(cage_path), "--node", node,
                     "--tangent", tangent, "-o", str(variety_path)]) == 0
        for high, x in (("1e400", "inf"), ("1e300", "1e+300")):
            code, text = run(tmp_path, "sample-grid", "--variety",
                             str(variety_path), "--box", "0", high,
                             "0", "1", "0", "1", "--resolution", "2")
            assert code == 0
            rows = [row.split(",") for row in text.splitlines()]
            assert rows[0] == ["x", "y", "z", "value"] and len(rows) == 1 + 8
            assert all(len(row) == 4 for row in rows)
            assert [row[0] for row in rows[1:]] == ["0.0"] * 4 + [x] * 4
            assert all(row[3] in ("inf", "-inf") for row in rows[5:])


SAMPLED_ROWS = {
    # x-dependent only on this box; the two-row curve sums squared values
    "curve": ("52.0", "0.8125"),
    "surface": ("-10.0", "1.25"),
}


def test_sample_grid_text_is_pinned(tmp_path, cube_config, capsys):
    # the same bytes on stdout and through -o, for one and two pencils
    cage_path = tmp_path / "cube.json"
    assert main(["gen", "--kind", "axis", "--points", cube_config,
                 "-o", str(cage_path)]) == 0
    for name, node, tangent in (("curve", "1,1,1", "1,2,3"),
                                ("surface", "1,2,1", "1,2,3;0,1,-1")):
        variety_path = tmp_path / f"{name}.json"
        assert main(["inscribe", "--cage", str(cage_path), "--node", node,
                     "--tangent", tangent, "-o", str(variety_path)]) == 0
        low, high = SAMPLED_ROWS[name]
        expected = "x,y,z,value\n" + "".join(
            f"{x},{y},{z},{value}\n" for x, value in (("-1.0", low),
                                                      ("0.5", high))
            for y in ("2.0", "3.0") for z in ("4.0", "5.0"))
        argv = ["sample-grid", "--variety", str(variety_path), "--box",
                "-1", "1/2", "2", "3", "4", "5", "--resolution", "2"]
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["-o", str(out)]) == 0
        assert out.read_text() == expected


def test_sample_grid_guards(tmp_path, square_cage, capsys):
    flat_variety = tmp_path / "flat.json"
    code = main(["inscribe", "--cage", square_cage, "--node", "1,1",
                 "--tangent", "1,2", "-o", str(flat_variety)])
    assert code == 0
    assert main(["sample-grid", "--variety", str(flat_variety),
                 "--box", "0", "1", "0", "1", "0", "1",
                 "--resolution", "3"]) == 2
    capsys.readouterr()
    # the lambda rank meets a zero divisor of Q[t]/(t^2 - 1): exit 2 with
    # the path of the rows, not a bare reducibility message
    zero_divisor = tmp_path / "zero-divisor.json"
    zero_divisor.write_text(json.dumps(ZERO_DIVISOR_LAMBDA))
    assert main(["sample-grid", "--variety", str(zero_divisor), "--box",
                 "0", "1", "0", "1", "0", "1", "--resolution", "2"]) == 2
    err = capsys.readouterr().err
    assert "$.lambda" in err and "reducible" in err
    # a grid above the point limit is refused before any sample is taken
    cube = axis_cage(F, [(0, 0, 0), (1, 1, 1)])
    cube_path = tmp_path / "cube.json"
    cube_path.write_text(json.dumps(cage_to_json(cube)))
    curve = tmp_path / "curve.json"
    assert main(["inscribe", "--cage", str(cube_path), "--node", "1,1,1",
                 "--tangent", "1,2,3", "-o", str(curve)]) == 0
    resolution = round(MAX_GRID_POINTS ** (1 / 3)) + 1
    assert resolution ** 3 > MAX_GRID_POINTS
    out = tmp_path / "grid.csv"
    assert main(["sample-grid", "--variety", str(curve),
                 "--box", "0", "1", "0", "1", "0", "1",
                 "--resolution", str(resolution), "-o", str(out)]) == 2
    assert "--resolution" in capsys.readouterr().err
    assert not out.exists()
    # box bounds go through the same bounded literal parser as cage files
    assert main(["sample-grid", "--variety", str(curve),
                 "--box", "0", "1e999999999", "0", "1", "0", "1",
                 "--resolution", "2", "-o", str(out)]) == 2
    assert "error: --box: exponent" in capsys.readouterr().err
    assert main(["sample-grid", "--variety", str(curve),
                 "--box", "0", "one", "0", "1", "0", "1",
                 "--resolution", "2", "-o", str(out)]) == 2
    assert "error: --box: bad rational literal" in capsys.readouterr().err
    assert not out.exists()
    # dependent lambda rows are refused when the variety is read
    variety = json.loads(curve.read_text())
    variety.update({"lambda": [["1", "2", "3"], ["2", "4", "6"]], "s": 2})
    curve.write_text(json.dumps(variety))
    assert main(["sample-grid", "--variety", str(curve),
                 "--box", "0", "1", "0", "1", "0", "1",
                 "--resolution", "2", "-o", str(out)]) == 2
    assert "$.lambda" in capsys.readouterr().err
    assert not out.exists()


# -- entry points -------------------------------------------------------------


def _child_env(path_dir=None):
    """Environment for a child process that imports this checkout's cagekit.

    The directory holding the imported ``cagekit`` package goes first on
    ``PYTHONPATH``, so the child runs the code the in-process tests import
    rather than an installed copy.  ``path_dir``, if given, goes first on
    ``PATH``.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(cagekit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    if path_dir is not None:
        env["PATH"] = os.pathsep.join(
            filter(None, [str(path_dir), env.get("PATH")]))
    return env


def test_console_script_smoke(tmp_path):
    """The ``cagekit`` script declared in pyproject.toml runs ``demo --list``.

    The launcher is written from the ``[project.scripts]`` entry the same way
    an installer writes it, so the test needs no install and still fails if
    the declared name or target is wrong.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "cagekit" in scripts
    module, attr = scripts["cagekit"].split(":")

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "cagekit"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    launcher.chmod(0o755)

    proc = subprocess.run(["cagekit", "demo", "--list"], capture_output=True,
                          text=True, env=_child_env(bin_dir))
    assert proc.returncode == 0, proc.stderr
    assert "cube-elliptic" in proc.stdout
    assert proc.stderr == ""


def test_module_invocation_smoke():
    proc = subprocess.run([sys.executable, "-m", "cagekit.cli", "demo",
                           "--list"], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0
    assert "fermat-conic" in proc.stdout
    assert proc.stderr == ""
