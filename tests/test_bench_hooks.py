"""The traced benchmark's hooks still name real attributes of setseq.

bench/tracing.py wraps library functions by name; a rename in src that
leaves a stale name there breaks the traced benchmark, and so does a
renamed trace entry, whose reduction counter then reads zero.  These tests
import bench/tracing.py only to read its tables.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import setseq

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from setseq.pairing import PairingInstance, solve_pairing  # noqa: E402
from setseq.search import BACKTRACKING, SearchConfig  # noqa: E402
from test_determinism import trace_instances  # noqa: E402


def test_every_span_hook_resolves():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name, _extract in tracing.SPANS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_every_counter_hook_is_owned():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name in tracing.COUNTERS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_package_has_no_unused_imports():
    # A module-level import that its module never reads is dead code, unless
    # __all__ re-exports it or the traced benchmark wraps it there by name
    # (cli.partition_errors).
    hooked = {(owner.__name__, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS}
    found = []
    for path in sorted(Path(setseq.__file__).parent.glob("*.py")):
        module = "setseq" if path.stem == "__init__" else f"setseq.{path.stem}"
        body = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        for node in body.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                read |= set(ast.literal_eval(node.value))
        for node in body.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name not in read and (module, name) not in hooked
            ]
    assert found == []


def _names_bitvec(node: ast.AST) -> bool:
    return (
        (isinstance(node, ast.Name) and node.id == "BitVec")
        or (isinstance(node, ast.Attribute) and node.attr == "BitVec")
        or (isinstance(node, ast.alias) and "BitVec" in (node.name, node.asname))
        or (isinstance(node, ast.Constant) and node.value == "BitVec")
    )


def test_bitvec_is_named_only_by_the_view_the_benchmark_reads():
    # Labels, findings and parsed targets are ints or text.  Outside gf2,
    # BitVec may be named only by trees' import of it and by
    # Labeling.vertex_labels, which bench/workloads.py reads.
    found = []
    for path in sorted(Path(setseq.__file__).parent.glob("*.py")):
        if path.name == "gf2.py":
            continue
        body = ast.parse(path.read_text())
        allowed = set()
        if path.name == "trees.py":
            for node in body.body:
                if isinstance(node, ast.ImportFrom) and node.module == "gf2":
                    allowed |= {id(n) for n in ast.walk(node)}
                if isinstance(node, ast.ClassDef) and node.name == "Labeling":
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name == "vertex_labels":
                            allowed |= {id(n) for n in ast.walk(item)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(body)
            if _names_bitvec(node) and id(node) not in allowed
        ]
    assert found == []


def test_the_benchmark_search_check_passes_on_a_real_result():
    # The search workload checks each labeling through the BitVec view; run
    # that check as the benchmark does, on the exhaustive search of the star.
    exhaustive = SearchConfig(budget_seconds=workloads.SEARCH_BUDGET_S, strategy=BACKTRACKING)
    op = workloads._search_op("exhaustive-feasible8", workloads.FEASIBLE_8[4], exhaustive)
    assert op.check(op.call()) == []


def test_every_trace_kind_is_a_counted_reduction():
    # The traced benchmark counts trace entries by their first word, one
    # counter per kind in REDUCTIONS; an entry of another kind would go
    # uncounted and leave its counter at zero.
    kinds = set()
    for n, values in trace_instances():
        for entry in solve_pairing(PairingInstance.of(n, values))[1].trace:
            assert "degenerate" not in entry
            kinds.add(entry.split()[0])
    assert kinds <= set(tracing.REDUCTIONS)
    assert kinds
