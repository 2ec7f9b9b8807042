"""Command-line surface for the setseq library.

Batch and non-interactive: every subcommand reads files or stdin, writes
machine-first output (JSON or line-oriented text) to stdout, and reports
failures as a single "error=<Name>: <detail>" line on stderr.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import reduce
from itertools import combinations_with_replacement
from operator import xor
from typing import Sequence

from .constructors import (
    MAX_SMALL_DIAMETER,
    PendantPlan,
    add_pendants,
    four_copies,
    label_large_caterpillar,
    label_small_diameter,
)
from .errors import PreconditionViolated, SetseqError
from .pairing import (
    PairingInstance,
    exact_pairing_solver,
    format_partition,
    # Unused here; kept as cli.partition_errors, which bench/tracing.py wraps.
    partition_errors,  # noqa: F401
    solve_at_most_n_values,
    solve_dim_half_even,
    solve_pairing,
    solve_small_dimension,
)
from .search import BACKTRACKING, GREEDY_RESTART, SearchConfig, search_labeling
from .trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    build_caterpillar,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    verify_set_sequential,
)

#: Flag vocabulary for --route, mapped to the library's route tags.
ROUTE_FLAGS = {
    "exact": "ExactSearch",
    "dim5": "Dim5Coset",
    "dim6-even": "Dim6EvenCoset",
    "n-values": "AtMostNValues",
    "dim-half": "DimHalfEven",
}
_TAG_TO_FLAG = {tag: flag for flag, tag in ROUTE_FLAGS.items()}

_DURATION = re.compile(r"(\d+(?:\.\d+)?)([sm]?)\Z")


def parse_duration(text: str) -> float:
    """Seconds from "90", "10s", or "5m"."""
    match = _DURATION.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}; use e.g. 10s or 5m")
    value = float(match.group(1))
    return value * 60.0 if match.group(2) == "m" else value


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_tree(path: str) -> tuple[Tree, Labeling | None]:
    try:
        return tree_from_json(_read_document(path))
    except OSError as exc:
        raise PreconditionViolated(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise PreconditionViolated(f"{path}: {exc}") from exc


def _parse_targets(n: int, text: str) -> PairingInstance:
    values = []
    for token in text.split(","):
        token = token.strip()
        if len(token) != n or set(token) - {"0", "1"}:
            raise PreconditionViolated(f"target {token!r} is not an {n}-bit string")
        values.append(int(token, 2))
    return PairingInstance.of(n, values)


def _run_pair_solve(args: argparse.Namespace) -> int:
    inst = _parse_targets(args.n, args.targets)
    if args.route == "auto":
        part, route = solve_pairing(inst)
        flag = _TAG_TO_FLAG[route.tag]
    else:
        flag = args.route
        if flag == "exact":
            part = exact_pairing_solver(inst)
        elif flag == "dim5":
            part = solve_small_dimension(inst, min(5, inst.n))
        elif flag == "dim6-even":
            part = solve_small_dimension(inst, 6)
        elif flag == "n-values":
            part = solve_at_most_n_values(inst)
        else:
            part = solve_dim_half_even(inst)
    sys.stdout.write(format_partition(part))
    print(f"route={flag}")
    return 0


def _label_auto(spec: CaterpillarSpec) -> tuple[Tree, Labeling]:
    count = spec.vertex_count
    power_of_two = count & (count - 1) == 0
    all_odd = all(d % 2 for d in spec.degrees)
    if power_of_two and all_odd:
        if spec.diameter <= MAX_SMALL_DIAMETER:
            return label_small_diameter(spec)
        if count >= 1 << (spec.diameter - 1):
            return label_large_caterpillar(spec)
    tree = build_caterpillar(spec)
    return tree, search_labeling(tree, SearchConfig())


def _run_label(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if (args.caterpillar is None) == (args.tree is None):
        parser.error("label needs exactly one of --caterpillar or --tree")
    if args.caterpillar is not None:
        try:
            spec = CaterpillarSpec.parse(args.caterpillar)
        except ValueError as exc:
            raise PreconditionViolated(str(exc)) from exc
        if args.method == "auto":
            tree, lab = _label_auto(spec)
        elif args.method == "small-diameter":
            tree, lab = label_small_diameter(spec)
        elif args.method == "large":
            tree, lab = label_large_caterpillar(spec)
        else:
            tree = build_caterpillar(spec)
            lab = search_labeling(tree, SearchConfig())
    else:
        if args.method not in ("auto", "search"):
            parser.error(f"--method {args.method} needs --caterpillar")
        tree, _ = _load_tree(args.tree)
        lab = search_labeling(tree, SearchConfig())
    sys.stdout.write(tree_to_json(tree, lab))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    tree, lab = _load_tree(args.path)
    if lab is None:
        raise PreconditionViolated(f"{args.path} carries no vertex labels")
    report = verify_set_sequential(tree, lab)
    if report.valid:
        print("valid")
        return 0
    for violation in report.violations:
        print(str(violation))
    return 1


def _run_construct_pendants(args: argparse.Namespace) -> int:
    tree, lab = _load_tree(args.base)
    if lab is None:
        raise PreconditionViolated(f"{args.base} carries no vertex labels")
    try:
        plan = PendantPlan.parse(args.plan)
    except ValueError as exc:
        raise PreconditionViolated(str(exc)) from exc
    out_tree, out_lab = add_pendants(tree, lab, plan)
    sys.stdout.write(tree_to_json(out_tree, out_lab))
    return 0


def _run_construct_four_copies(args: argparse.Namespace) -> int:
    tree, lab = _load_tree(args.base)
    if lab is None:
        raise PreconditionViolated(f"{args.base} carries no vertex labels")
    out_tree, out_lab = four_copies(tree, lab, args.u, args.v)
    sys.stdout.write(tree_to_json(out_tree, out_lab))
    return 0


def _run_search(args: argparse.Namespace) -> int:
    tree, _ = _load_tree(args.tree)
    strategy = GREEDY_RESTART if args.strategy == "greedy" else BACKTRACKING
    config = SearchConfig(seed=args.seed, budget_seconds=args.budget, strategy=strategy)
    lab = search_labeling(tree, config, progress=sys.stderr)
    sys.stdout.write(tree_to_json(tree, lab))
    return 0


def _run_export(args: argparse.Namespace) -> int:
    tree, lab = _load_tree(args.dot)
    sys.stdout.write(tree_to_dot(tree, lab))
    return 0


def _sweep_instances(n: int):
    """All target multisets of dimension n in lexicographic order.

    The last target of a zero-sum multiset is the XOR of the others, so only
    the first 2^(n-1) - 1 are enumerated; the XOR completes a head when it
    is a target no smaller than the head's last.
    """
    for head in combinations_with_replacement(range(1, 1 << n), (1 << (n - 1)) - 1):
        last = reduce(xor, head, 0)
        if last and last >= head[-1]:
            yield head + (last,)


def _sweep_shard(n: int, shards: int, shard: int) -> tuple[int, list[str]]:
    """Solve every shard-th instance; exact_pairing_solver checks each partition."""
    checked = 0
    failures: list[str] = []
    for rank, combo in enumerate(_sweep_instances(n)):
        if rank % shards != shard:
            continue
        try:
            exact_pairing_solver(PairingInstance.of(n, combo))
        except SetseqError as exc:
            targets = ",".join(f"{v:0{n}b}" for v in combo)
            failures.append(f"{targets} -> {type(exc).__name__}: {exc}")
        checked += 1
    return checked, failures


def _run_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.shard is not None and args.shards is None:
        parser.error("--shard needs --shards")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be at least 1")
    shard = args.shard or 0
    # Without --shard, every shard runs: one pass over all instances.
    shards = args.shards if args.shard is not None else 1
    if not 0 <= shard < shards:
        parser.error(f"--shard must be in 0..{shards - 1}")
    checked, failures = _sweep_shard(args.n, shards, shard)
    for line in failures:
        print(f"failure: {line}")
    print(f"instances={checked} failures={len(failures)}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setseq",
        description="Construct and verify set-sequential tree labelings over F_2^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair-solve", help="partition F_2^n into pairs with target sums")
    pair.add_argument("--n", type=int, required=True)
    pair.add_argument("--targets", required=True, help="comma-separated n-bit strings")
    pair.add_argument(
        "--route", choices=["auto", *ROUTE_FLAGS], default="auto",
        help="force one solver route (default: first applicable)",
    )

    label = sub.add_parser("label", help="produce a verified labeling of a tree")
    label.add_argument("--caterpillar", metavar="SPEC", help='degree list, e.g. "T[3,3,3]"')
    label.add_argument("--tree", metavar="JSON", help="tree document (labels ignored)")
    label.add_argument(
        "--method",
        choices=["auto", "small-diameter", "large", "search"],
        default="auto",
    )

    verify = sub.add_parser("verify", help="check a labeled tree document")
    verify.add_argument("path", help='JSON file, or "-" for stdin')

    construct = sub.add_parser("construct", help="grow labeled trees from labeled trees")
    construct_sub = construct.add_subparsers(dest="construction", required=True)
    pendants = construct_sub.add_parser("pendants", help="hang pendant edges, doubling the tree")
    pendants.add_argument("--base", required=True, metavar="JSON")
    pendants.add_argument("--plan", required=True, metavar="ID:COUNT,...")
    copies = construct_sub.add_parser("four-copies", help="quadruple via the long-path sequence")
    copies.add_argument("--base", required=True, metavar="JSON")
    copies.add_argument("--u", type=int, required=True)
    copies.add_argument("--v", type=int, required=True)

    search = sub.add_parser("search", help="randomized or exhaustive labeling search")
    search.add_argument("--tree", required=True, metavar="JSON")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--budget", type=parse_duration, default=60.0, metavar="DURATION")
    search.add_argument("--strategy", choices=["greedy", "exhaustive"], default="greedy")

    export = sub.add_parser("export", help="emit Graphviz DOT")
    export.add_argument("--dot", required=True, metavar="JSON")

    sweep = sub.add_parser("sweep", help="exhaustive pairing verification")
    sweep.add_argument("--conjecture2", action="store_true", required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--shards", type=int, metavar="S")
    sweep.add_argument("--shard", type=int, metavar="I")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "pair-solve":
            return _run_pair_solve(args)
        if args.command == "label":
            return _run_label(args, parser)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "construct":
            if args.construction == "pendants":
                return _run_construct_pendants(args)
            return _run_construct_four_copies(args)
        if args.command == "search":
            return _run_search(args)
        if args.command == "export":
            return _run_export(args)
        return _run_sweep(args, parser)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except SetseqError as exc:
        print(f"error={type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
