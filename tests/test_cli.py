"""End-to-end runs of the command-line surface, in process.

One test runs `python -m setseq.cli` in a subprocess, to see that a
malformed document ends in an error line rather than a traceback.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instgen
import setseq
from setseq import cli, pairing
from setseq.cli import _label_auto, _sweep_instances, build_parser, main, parse_duration
from setseq.constructors import fixtures_dir
from setseq.errors import Infeasible, InternalSearchFailed, SetseqError
from setseq.trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    build_caterpillar,
    diameter,
    tree_from_json,
    tree_to_json,
    verify_set_sequential,
)


FIGURE = str(fixtures_dir() / "figure1.json")
SRC = str(Path(setseq.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def star_json() -> str:
    tree = Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "110"})
    return tree_to_json(tree, lab)


# ---------------------------------------------------------------------------
# pair-solve


def test_pair_solve_exact_route(capsys):
    code, out, err = run(
        capsys, "pair-solve", "--n", "2", "--targets", "01,01", "--route", "exact"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["00 01 01", "10 11 01", "route=exact"]


def test_pair_solve_auto_route(capsys):
    code, out, _ = run(capsys, "pair-solve", "--n", "2", "--targets", "01,01")
    assert code == 0
    assert out.splitlines() == ["00 01 01", "10 11 01", "route=dim5"]


def test_pair_solve_rejects_unbalanced_targets(capsys):
    code, out, err = run(capsys, "pair-solve", "--n", "2", "--targets", "01,10")
    assert code == 1 and out == ""
    assert err.startswith("error=PreconditionViolated:")


def test_pair_solve_rejects_malformed_targets(capsys):
    code, _, err = run(capsys, "pair-solve", "--n", "3", "--targets", "01,10")
    assert code == 1
    assert "error=PreconditionViolated" in err


@pytest.mark.parametrize("n", ["0", "1", "31", "x", "٣"])
def test_pair_solve_checks_n_before_the_targets(capsys, n):
    # --n is checked before any target is read, so a bad n is named as
    # such and not reported as a target of the wrong width.
    code, out, err = run(capsys, "pair-solve", "--n", n, "--targets", "1")
    assert code == 2 and out == ""
    assert f"argument --n: n must be an int in 2..30, got '{n}'" in err
    assert "width" not in err


def test_pair_solve_inapplicable_forced_route(capsys):
    code, _, err = run(
        capsys, "pair-solve", "--n", "3", "--targets", "001,010,100,111",
        "--route", "n-values",
    )
    assert code == 1
    assert err.startswith("error=CaseNotApplicable:")


def test_pair_solve_exact_route_needs_n_at_most_six(capsys):
    code, out, err = run(
        capsys, "pair-solve", "--n", "7", "--targets", ",".join(["0000001"] * 64),
        "--route", "exact",
    )
    assert code == 1 and out == ""
    assert err == "error=CaseNotApplicable: exact search needs n <= 6, got n=7\n"


def test_pair_solve_route_output_verifies(capsys):
    code, out, _ = run(
        capsys, "pair-solve", "--n", "4",
        "--targets", "0001,0001,0001,0010,0100,0111,0111,0111",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("route=")
    seen = set()
    for line in lines[:-1]:
        p, q, v = line.split()
        assert int(p, 2) ^ int(q, 2) == int(v, 2)
        seen.update((int(p, 2), int(q, 2)))
    assert seen == set(range(16))


def test_invalid_solver_output_is_internal_search_failed(capsys, monkeypatch):
    # A solver that hands each pair to the wrong target must be caught by the
    # final partition check, as a named error rather than a bare assert.
    restore = pairing._restore
    monkeypatch.setattr(pairing, "_restore", lambda values, queues: restore(values, queues)[::-1])
    inst = pairing.PairingInstance.of(3, [0b001, 0b010, 0b100, 0b111])
    with pytest.raises(InternalSearchFailed):
        pairing.exact_pairing_solver(inst)
    code, out, err = run(
        capsys, "pair-solve", "--n", "3", "--targets", "001,010,100,111", "--route", "exact"
    )
    assert code == 1 and out == ""
    assert err.startswith("error=InternalSearchFailed:")


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every theory check in the
    # package must raise a named error instead.
    package = Path(pairing.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    package = Path(pairing.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in {*sys.stdlib_module_names, "setseq"}
            ]
    assert found == []


def test_every_exported_name_resolves():
    modules = [setseq] + [
        importlib.import_module(f"setseq.{info.name}")
        for info in pkgutil.iter_modules(setseq.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []


# ---------------------------------------------------------------------------
# label and verify


def test_label_pipes_into_verify(capsys, monkeypatch):
    code, out, _ = run(capsys, "label", "--caterpillar", "T[3,3,3]")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "verify", "-")
    assert code == 0
    assert out2.strip() == "valid"


def test_label_methods_agree_on_validity(capsys):
    for method in ("small-diameter", "search"):
        code, out, _ = run(
            capsys, "label", "--caterpillar", "T[3,3,3]", "--method", method
        )
        assert code == 0
        tree, lab = tree_from_json(out)
        assert verify_set_sequential(tree, lab).valid


def test_label_large_method(capsys):
    code, out, _ = run(capsys, "label", "--caterpillar", "T[5,3]", "--method", "large")
    assert code == 0
    tree, lab = tree_from_json(out)
    assert tree.vertex_count == 8
    assert verify_set_sequential(tree, lab).valid


@pytest.fixture
def pipeline_calls(monkeypatch):
    """The labeling calls cli makes, in order, each with the error it raised."""
    calls: list[str] = []
    for name in ("label_small_diameter", "label_large_caterpillar", "search_labeling"):

        def spy(*args, _real=getattr(cli, name), _name=name):
            try:
                out = _real(*args)
            except SetseqError as exc:
                calls.append(f"{_name} {type(exc).__name__}")
                raise
            calls.append(_name)
            return out

        monkeypatch.setattr(cli, name, spy)
    return calls


def test_label_auto_sends_a_low_diameter_spec_to_small_diameter(capsys, pipeline_calls):
    code, out, _ = run(capsys, "label", "--caterpillar", "T[3,13]")
    assert code == 0
    assert pipeline_calls == ["label_small_diameter"]
    tree, lab = tree_from_json(out)
    assert verify_set_sequential(tree, lab).valid


def test_label_auto_sends_an_even_degree_spec_to_search(capsys, pipeline_calls):
    spec = "T[" + ",".join(["2"] * 14) + "]"
    code, out, _ = run(capsys, "label", "--caterpillar", spec)
    assert code == 0
    assert pipeline_calls == [
        "label_small_diameter NotOddDegree",
        "label_large_caterpillar NotOddDegree",
        "search_labeling",
    ]
    # Seed 0 regenerates the bundled labeling of the 16-vertex path (53 restarts).
    assert out == (fixtures_dir() / f"{spec}.json").read_text()


def test_label_auto_picks_large_for_flat_wide_trees(pipeline_calls):
    spec = CaterpillarSpec((3,) * 17 + (262109,))
    assert spec.vertex_count == 1 << 18 and spec.diameter == 19
    tree, lab = _label_auto(spec)
    assert pipeline_calls == ["label_small_diameter OutOfRange", "label_large_caterpillar"]
    # label_large_caterpillar verifies what it returns.
    assert lab.n == 19 and diameter(tree) == 19


def test_label_auto_sends_a_narrow_high_diameter_spec_to_search(monkeypatch, pipeline_calls):
    spec = CaterpillarSpec((3,) * 17 + (131037,))
    assert spec.vertex_count == 1 << 17 and spec.diameter == 19
    found = Labeling(18, {})
    # The search itself would only run out its budget on 2^17 vertices.
    monkeypatch.setattr(cli, "search_labeling", lambda tree, cfg: found)
    tree, lab = _label_auto(spec)
    assert pipeline_calls == [
        "label_small_diameter OutOfRange",
        "label_large_caterpillar TooFewVertices",
    ]
    assert lab is found and tree == build_caterpillar(spec)


def test_label_tree_document_via_search(capsys, tmp_path):
    doc = tmp_path / "star.json"
    doc.write_text(tree_to_json(Tree.of(4, [(0, 1), (0, 2), (0, 3)])))
    code, out, _ = run(capsys, "label", "--tree", str(doc))
    assert code == 0
    tree, lab = tree_from_json(out)
    assert verify_set_sequential(tree, lab).valid


def test_label_domain_error(capsys):
    code, _, err = run(
        capsys, "label", "--caterpillar", "T[2,2]", "--method", "small-diameter"
    )
    assert code == 1
    assert err.startswith("error=NotOddDegree:")


@pytest.mark.parametrize(
    "argv",
    [
        ("--tree", "{path4}"),
        ("--caterpillar", "T[2,2]"),
        ("--caterpillar", "T[2,2]", "--method", "search"),
    ],
    ids=["tree", "caterpillar-auto", "caterpillar-search"],
)
def test_label_proves_the_four_path_infeasible_at_once(capsys, tmp_path, argv):
    # Two even-degree vertices rule out every labeling, so label raises
    # Infeasible before greedy search, which could only run out its budget.
    doc = tmp_path / "p4.json"
    doc.write_text(tree_to_json(Tree.of(4, [(0, 1), (1, 2), (2, 3)])))
    start = time.monotonic()
    code, out, err = run(capsys, "label", *(a.format(path4=doc) for a in argv))
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error=Infeasible: 2 even-degree vertices: their labels cannot XOR to 0\n"


def test_label_rejects_oversized_caterpillars_at_once(capsys):
    start = time.monotonic()
    code, _, err = run(capsys, "label", "--caterpillar", "T[2147483647]")
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert err.startswith("error=OutOfRange:")


def test_label_usage_errors(capsys):
    assert run(capsys, "label")[0] == 2
    assert run(capsys, "label", "--caterpillar", "T[3]", "--tree", "x.json")[0] == 2
    assert run(capsys, "label", "--tree", "x.json", "--method", "large")[0] == 2


def test_verify_bundled_figure(capsys):
    code, out, _ = run(capsys, "verify", FIGURE)
    assert code == 0
    assert out.strip() == "valid"


def test_verify_reports_violations(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    tree = Tree.of(2, [(0, 1)])
    lab = Labeling.of(2, {0: "01", 1: "01"})
    doc.write_text(tree_to_json(tree, lab))
    code, out, _ = run(capsys, "verify", str(doc))
    assert code == 1
    assert any("DuplicateValue" in line for line in out.splitlines())


@pytest.mark.parametrize("command", [["verify"], ["label", "--tree"]])
def test_a_document_that_is_not_utf8_is_a_precondition_error(capsys, tmp_path, command):
    doc = tmp_path / "bytes.json"
    doc.write_bytes(b"\xff")
    code, out, err = run(capsys, *command, str(doc))
    assert (code, out) == (1, "")
    assert err.startswith(f"error=PreconditionViolated: {doc}: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def verify_in_subprocess(doc):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "setseq.cli", "verify", str(doc)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_verify_reports_malformed_documents_without_a_traceback(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text('{"n": 2, "vertices": [{"id": 0, "label": 5}, {"id": 1}], "edges": null}')
    done = verify_in_subprocess(doc)
    assert done.returncode == 1
    assert done.stderr.startswith("error=PreconditionViolated:")
    assert "Traceback" not in done.stderr


def test_verify_reports_deeply_nested_json_in_one_line(tmp_path):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000)
    done = verify_in_subprocess(doc)
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert line.startswith("error=PreconditionViolated:")
    assert line.endswith("not valid JSON: nesting too deep")


def test_verify_unlabeled_document(capsys, tmp_path):
    doc = tmp_path / "bare.json"
    doc.write_text(tree_to_json(Tree.of(2, [(0, 1)])))
    code, _, err = run(capsys, "verify", str(doc))
    assert code == 1
    assert "error=PreconditionViolated" in err


# ---------------------------------------------------------------------------
# construct


def test_construct_pendants(capsys):
    code, out, _ = run(
        capsys, "construct", "pendants",
        "--base", FIGURE, "--plan", "2:1,7:1,3:3,4:1,1:2",
    )
    assert code == 0
    tree, lab = tree_from_json(out)
    assert tree.vertex_count == 16
    assert verify_set_sequential(tree, lab).valid


def test_construct_pendants_rejects_a_malformed_plan(capsys):
    code, out, err = run(capsys, "construct", "pendants", "--base", FIGURE, "--plan", "2-1")
    assert (code, out) == (1, "")
    assert err == "error=PreconditionViolated: expected id:count, got '2-1'\n"


def test_construct_four_copies(capsys, tmp_path):
    doc = tmp_path / "star.json"
    doc.write_text(star_json())
    code, out, _ = run(
        capsys, "construct", "four-copies", "--base", str(doc), "--u", "1", "--v", "2"
    )
    assert code == 0
    tree, lab = tree_from_json(out)
    assert tree.vertex_count == 16
    assert verify_set_sequential(tree, lab).valid


def test_construct_four_copies_rejects_equal_leaves(capsys, tmp_path):
    doc = tmp_path / "star.json"
    doc.write_text(star_json())
    code, _, err = run(
        capsys, "construct", "four-copies", "--base", str(doc), "--u", "1", "--v", "1"
    )
    assert code == 1
    assert err.startswith("error=PreconditionViolated:")


def test_construct_needs_a_subcommand(capsys):
    assert run(capsys, "construct")[0] == 2


# ---------------------------------------------------------------------------
# search and export


def test_search_emits_progress_and_a_verified_tree(capsys, tmp_path):
    doc = tmp_path / "star.json"
    doc.write_text(tree_to_json(Tree.of(4, [(0, 1), (0, 2), (0, 3)])))
    code, out, err = run(
        capsys, "search", "--tree", str(doc), "--seed", "7", "--budget", "10s"
    )
    assert code == 0
    tree, lab = tree_from_json(out)
    assert verify_set_sequential(tree, lab).valid
    assert err
    for line in err.strip().splitlines():
        assert all("=" in field for field in line.split())


def test_search_exhaustive_detects_infeasible(capsys, tmp_path):
    doc = tmp_path / "p4.json"
    doc.write_text(tree_to_json(Tree.of(4, [(0, 1), (1, 2), (2, 3)])))
    code, _, err = run(
        capsys, "search", "--tree", str(doc), "--strategy", "exhaustive"
    )
    assert code == 1
    assert err.splitlines()[-1].startswith("error=Infeasible:")


def test_search_exhaustive_timeout_reports_progress(capsys, tmp_path):
    # The deadline is checked every 1,024 nodes; this tree needs more.
    tree = build_caterpillar(CaterpillarSpec((3, 3, 3, 2, 2, 2, 2, 2, 2, 3)))
    doc = tmp_path / "caterpillar16.json"
    doc.write_text(tree_to_json(tree))
    argv = ("--tree", str(doc), "--strategy", "exhaustive", "--budget", "0.000000001s")
    code, _, err = run(capsys, "search", *argv)
    assert code == 1
    progress, error = err.splitlines()
    assert error.startswith("error=BudgetExhausted:")
    fields = dict(field.split("=") for field in progress.split())
    assert set(fields) == {"nodes", "best_depth"}
    assert all(value.isdigit() for value in fields.values())


def test_search_accepts_minute_budgets(capsys, tmp_path):
    doc = tmp_path / "star.json"
    doc.write_text(tree_to_json(Tree.of(4, [(0, 1), (0, 2), (0, 3)])))
    code, out, _ = run(capsys, "search", "--tree", str(doc), "--budget", "5m")
    assert code == 0
    assert tree_from_json(out)[1] is not None


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--dot", FIGURE)
    assert code == 0
    assert out.startswith("graph setseq {")
    assert '0 [label="0001"];' in out


# ---------------------------------------------------------------------------
# sweep


def test_sweep_n3(capsys):
    code, out, _ = run(capsys, "sweep", "--conjecture2", "--n", "3")
    assert code == 0
    line = out.strip().splitlines()[-1]
    assert line.endswith("failures=0")
    total = int(line.split()[0].split("=")[1])
    assert total > 0


@pytest.mark.parametrize("n, count", [(2, 3), (3, 35), (4, 20295)])
def test_sweep_enumerates_zero_sum_multisets_in_order(n, count):
    # Failure lines come out in this order, so it is part of the contract.
    expected = list(instgen.zero_sum_multisets(n))
    assert len(expected) == count
    assert list(_sweep_instances(n)) == expected


@pytest.mark.parametrize(
    "n, count, forms, frames",
    [(2, 3, 1, 3), (3, 35, 3, 29), (4, 20295, 255, 1324)],
    ids=["2-3-1", "3-35-3", "4-20295-255"],
)
def test_sweep_searches_each_frame_form_once(capsys, monkeypatch, n, count, forms, frames):
    # Each instance maps its partition from its frame form's, and only the
    # distinct forms reach the exact search.  Each distinct frame builds its
    # tables once, n = 2 included, where a frame has as many rows as a form
    # has entries and one memo keeps both.
    solved = []
    built = []
    exact = pairing._exact
    span_table = pairing._span_table

    def counted(m, hist, deadline=None):
        solved.append(tuple(sorted(hist.elements())))
        return exact(m, hist, deadline)

    def counted_table(rows):
        built.append(tuple(rows))
        return span_table(rows)

    monkeypatch.setattr(pairing, "_exact", counted)
    monkeypatch.setattr(pairing, "_span_table", counted_table)
    assert run(capsys, "sweep", "--conjecture2", "--n", str(n)) == (
        0, f"instances={count} failures=0\n", ""
    )
    assert len(solved) == len(set(solved)) == forms
    assert len(built) == len(set(built)) == frames


def test_sweep_reports_a_failed_form_on_each_of_its_instances(capsys, monkeypatch):
    # A form's error is kept like its partition: the search runs once per form,
    # and each instance of the form gets a failure line with its own targets.
    solved = []

    def infeasible(m, hist, deadline=None):
        solved.append(tuple(sorted(hist.elements())))
        raise Infeasible("no partition")

    monkeypatch.setattr(pairing, "_exact", infeasible)
    code, out, _ = run(capsys, "sweep", "--conjecture2", "--n", "3")
    assert code == 1
    expected = [
        "failure: " + ",".join(f"{v:03b}" for v in combo) + " -> Infeasible: no partition"
        for combo in _sweep_instances(3)
    ]
    assert out.splitlines() == expected + ["instances=35 failures=35"]
    assert len(solved) == len(set(solved)) == 3


def test_sweep_reports_invalid_solver_output(capsys, monkeypatch):
    # The sweep checks each instance's mapped pairs once, in _checked: a
    # wrong answer still surfaces as a failure line, never as a pass.
    checked = pairing._checked
    monkeypatch.setattr(pairing, "_checked", lambda inst, raw: checked(inst, list(raw)[::-1]))
    code, out, _ = run(capsys, "sweep", "--conjecture2", "--n", "3")
    lines = out.strip().splitlines()
    assert code == 1
    failures = lines[:-1]
    # 28 of the 35 instances: reversing is harmless where all targets agree.
    assert len(failures) == 28 and lines[-1] == "instances=35 failures=28"
    for line in failures:
        assert re.fullmatch(
            r"failure: [01]{3}(,[01]{3}){3} -> InternalSearchFailed: "
            r"solver produced an invalid partition: .+",
            line,
        ), line


def test_sweep_usage(capsys):
    assert run(capsys, "sweep", "--n", "3")[0] == 2
    assert run(capsys, "sweep", "--conjecture2", "--n", "0")[0] == 2
    assert run(capsys, "sweep", "--conjecture2", "--n", "5")[0] == 2
    assert run(capsys, "sweep", "--conjecture2", "--n", "1")[1] == "instances=0 failures=0\n"
    # int() alone reads "0_2" as 2.
    code, _, err = run(capsys, "sweep", "--conjecture2", "--n", "0_2")
    assert code == 2
    assert err.splitlines()[-1].endswith("argument --n: invalid int value: '0_2'")
    # int() alone reads the Arabic-Indic "٢" as 2.
    code, _, err = run(capsys, "sweep", "--conjecture2", "--n", "٢")
    assert code == 2
    assert err.splitlines()[-1].endswith("argument --n: invalid int value: '٢'")


# ---------------------------------------------------------------------------
# plumbing


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_duration_parsing():
    assert parse_duration("90") == 90.0
    assert parse_duration("10s") == 10.0
    assert parse_duration("5m") == 300.0
    with pytest.raises(Exception):
        parse_duration("ten minutes")
    # Only ASCII digits: float() and \d alone would read these as 3 s and 180 s.
    for text in ("٣s", "３m"):
        with pytest.raises(argparse.ArgumentTypeError, match="bad duration"):
            parse_duration(text)
    for text in ("0", "0s", "0m", "0.0", "9" * 400):
        with pytest.raises(argparse.ArgumentTypeError, match="above zero and finite"):
            parse_duration(text)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--budget", "0", "duration must be above zero and finite, got '0'"),
        ("--budget", "0s", "duration must be above zero and finite, got '0s'"),
        ("--budget", "0m", "duration must be above zero and finite, got '0m'"),
        ("--seed", "-1", "seed must be an int in 0..2**64-1, got '-1'"),
        ("--seed", str(1 << 64), f"seed must be an int in 0..2**64-1, got '{1 << 64}'"),
        ("--seed", "1.5", "seed must be an int in 0..2**64-1, got '1.5'"),
        ("--seed", "٣", "seed must be an int in 0..2**64-1, got '٣'"),
        ("--budget", "٣s", "bad duration '٣s'; use e.g. 10s or 5m"),
    ],
)
def test_search_usage_errors_exit_2_before_the_tree_is_read(capsys, flag, value, message):
    # These used to exit 1 with error=PreconditionViolated once the tree was
    # read; no tree file exists here, so only the argument check can answer.
    code, out, err = run(capsys, "search", "--tree", "missing.json", flag, value)
    assert code == 2 and out == ""
    assert f"argument {flag}: {message}" in err
    assert "error=" not in err


def test_search_accepts_the_largest_seed(capsys, tmp_path):
    doc = tmp_path / "star.json"
    doc.write_text(tree_to_json(Tree.of(4, [(0, 1), (0, 2), (0, 3)])))
    code, out, _ = run(capsys, "search", "--tree", str(doc), "--seed", str((1 << 64) - 1))
    assert code == 0
    assert verify_set_sequential(*tree_from_json(out)).valid


def test_emitted_json_round_trips(capsys, monkeypatch):
    code, out, _ = run(capsys, "label", "--caterpillar", "T[3,5,3,3,3,3]")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "verify", "-")[0] == 0
    parsed = json.loads(out)
    assert {"n", "vertices", "edges"} <= parsed.keys()


# ---------------------------------------------------------------------------
# argv fuzzing


# No "-" (stdin) and no existing path; "4" is left out because a sweep at
# n = 4 runs 20,295 solves.  Specs stay small so a search finishes at once.
JUNK = [
    "", "x", "0", "1", "3", "-1", "1.5", "5m", "--", "-x", "--nope", "T[3,3,3]",
    "T[3]", "T[1]", "T[", "0:1", "0:1,1:1", "01,10", "0,0", ",", "001,001,010,010",
    "no-such-dir/doc.json",
]


def action_tokens(action: argparse.Action):
    """Tokens for one argument: its flag (if any) and a value of its kind."""
    values = st.sampled_from(JUNK)
    if action.choices:
        # argv holds strings whatever the choices' type; n = 4 is left out as in JUNK.
        values |= st.sampled_from(sorted(str(c) for c in action.choices if c != 4))
    elif action.type is int:
        values |= st.sampled_from(["-1", "0", "1", "2", "3", "7", "31", "99"])
    if not action.option_strings:
        return values.map(lambda v: [v])
    flags = st.sampled_from(action.option_strings)
    if action.nargs == 0:
        return flags.map(lambda f: [f])
    return st.tuples(flags, values).map(list)


def argv_strategy(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Argv lists for parser: a subcommand path, then arguments of its kinds."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return st.one_of(
                *[argv_strategy(sub, path + (name,)) for name, sub in action.choices.items()]
            )
    args = st.lists(st.one_of(*[action_tokens(a) for a in parser._actions]), max_size=5)
    return args.map(lambda chunks: [*path, *(t for chunk in chunks for t in chunk)])


ARGVS = argv_strategy(build_parser()) | st.lists(st.sampled_from(JUNK), max_size=4)


@pytest.fixture(scope="module")
def empty_cwd(tmp_path_factory):
    """An empty working directory, so no bare token names a real file."""
    old = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv"))
    yield
    os.chdir(old)


@settings(max_examples=300, deadline=None)
@given(ARGVS)
@example(argv=["pair-solve", "--n", "0", "--targets", ""])
def test_any_argv_exits_with_a_status_code(empty_cwd, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
