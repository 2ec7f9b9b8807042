"""End-to-end runs of the command-line surface, in process."""

from __future__ import annotations

import ast
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest

import instgen
import setseq
from setseq import pairing
from setseq.cli import _sweep_instances, main, parse_duration
from setseq.constructors import fixtures_dir
from setseq.errors import InternalSearchFailed
from setseq.trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    build_caterpillar,
    tree_from_json,
    tree_to_json,
    verify_set_sequential,
)


FIGURE = str(fixtures_dir() / "figure1.json")


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


def test_pair_solve_inapplicable_forced_route(capsys):
    code, _, err = run(
        capsys, "pair-solve", "--n", "3", "--targets", "001,010,100,111",
        "--route", "n-values",
    )
    assert code == 1
    assert err.startswith("error=CaseNotApplicable:")


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
    exact = pairing._exact_aligned
    monkeypatch.setattr(
        pairing, "_exact_aligned", lambda n, values, deadline=None: exact(n, values, deadline)[::-1]
    )
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
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
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


def test_label_auto_picks_large_for_flat_wide_trees(capsys):
    code, out, _ = run(capsys, "label", "--caterpillar", "T[3,13]")
    assert code == 0
    tree, lab = tree_from_json(out)
    assert verify_set_sequential(tree, lab).valid


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


def test_sweep_shards_partition_the_space(capsys):
    _, single, _ = run(capsys, "sweep", "--conjecture2", "--n", "3")
    total = int(single.strip().splitlines()[-1].split()[0].split("=")[1])
    sharded = 0
    for i in range(3):
        code, out, _ = run(
            capsys, "sweep", "--conjecture2", "--n", "3",
            "--shards", "3", "--shard", str(i),
        )
        assert code == 0
        sharded += int(out.strip().splitlines()[-1].split()[0].split("=")[1])
    assert sharded == total
    code, fanned, _ = run(
        capsys, "sweep", "--conjecture2", "--n", "3", "--shards", "3"
    )
    assert code == 0
    assert int(fanned.strip().splitlines()[-1].split()[0].split("=")[1]) == total


@pytest.mark.parametrize("n, count", [(2, 3), (3, 35), (4, 20295)])
def test_sweep_enumerates_zero_sum_multisets_in_order(n, count):
    # Shard ranks index this sequence, so its order is part of the contract.
    expected = list(instgen.zero_sum_multisets(n))
    assert len(expected) == count
    assert list(_sweep_instances(n)) == expected


def test_sweep_reports_invalid_solver_output(capsys, monkeypatch):
    # The sweep checks each partition once, inside the solver: a wrong answer
    # still surfaces as a failure line, never as a pass.
    exact = pairing._exact_aligned
    monkeypatch.setattr(
        pairing, "_exact_aligned", lambda n, values, deadline=None: exact(n, values, deadline)[::-1]
    )
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
    assert run(capsys, "sweep", "--conjecture2", "--n", "3", "--shard", "0")[0] == 2
    assert run(
        capsys, "sweep", "--conjecture2", "--n", "3", "--shards", "2", "--shard", "5"
    )[0] == 2
    assert run(capsys, "sweep", "--conjecture2", "--n", "3", "--shards", "0")[0] == 2
    assert run(capsys, "sweep", "--conjecture2", "--n", "0")[0] == 2
    assert run(capsys, "sweep", "--conjecture2", "--n", "1")[1] == "instances=0 failures=0\n"


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


def test_emitted_json_round_trips(capsys, monkeypatch):
    code, out, _ = run(capsys, "label", "--caterpillar", "T[3,5,3,3,3,3]")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "verify", "-")[0] == 0
    parsed = json.loads(out)
    assert {"n", "vertices", "edges"} <= parsed.keys()
