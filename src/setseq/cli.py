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
    PendantPlan,
    add_pendants,
    four_copies,
    label_large_caterpillar,
    label_small_diameter,
)
from .errors import (
    NotOddDegree,
    NotPowerOfTwo,
    OutOfRange,
    PreconditionViolated,
    SetseqError,
    TooFewVertices,
)
from .gf2 import MAX_DIM, parse_bits
from .pairing import (
    PairingInstance,
    _exact_in_frame,
    # Unused here; kept as cli.exact_pairing_solver and cli.partition_errors,
    # which bench/tracing.py wraps.
    exact_pairing_solver,  # noqa: F401
    format_partition,
    partition_errors,  # noqa: F401
    solve_pairing,
)
from .search import (
    BACKTRACKING,
    GREEDY_RESTART,
    SearchConfig,
    _require_even_degree_balance,
    search_labeling,
)
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

#: Flag vocabulary for search --strategy.
_STRATEGY_FLAGS = {"greedy": GREEDY_RESTART, "exhaustive": BACKTRACKING}

_DURATION = re.compile(r"(\d+(?:\.\d+)?)([sm]?)\Z")


def parse_duration(text: str) -> float:
    """Seconds from "90", "10s", or "5m": more than zero, and finite."""
    match = _DURATION.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}; use e.g. 10s or 5m")
    value = float(match.group(1)) * (60.0 if match.group(2) == "m" else 1.0)
    if not 0 < value <= sys.float_info.max:
        raise argparse.ArgumentTypeError(f"duration must be above zero and finite, got {text!r}")
    return value


def _dimension(text: str) -> int:
    """The n of pair-solve: an int in 2..MAX_DIM, checked before any target is read."""
    if not text.isdecimal() or not 2 <= int(text) <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"n must be an int in 2..{MAX_DIM}, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """The search seed: an int in 0..2^64-1, checked before the tree is read."""
    if not text.isdecimal() or not int(text) < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be an int in 0..2**64-1, got {text!r}")
    return int(text)


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
    except (PreconditionViolated, UnicodeDecodeError) as exc:
        # A file that is not UTF-8 text is as malformed as a bad document.
        raise PreconditionViolated(f"{path}: {exc}") from exc


def _load_labeled(path: str) -> tuple[Tree, Labeling]:
    tree, lab = _load_tree(path)
    if lab is None:
        raise PreconditionViolated(f"{path} carries no vertex labels")
    return tree, lab


def _run_pair_solve(args: argparse.Namespace) -> int:
    values = [parse_bits(token.strip(), args.n) for token in args.targets.split(",")]
    inst = PairingInstance.of(args.n, values)
    # "auto" is no key of ROUTE_FLAGS, so it forces no route.
    part, route = solve_pairing(inst, ROUTE_FLAGS.get(args.route))
    sys.stdout.write(format_partition(part))
    print(f"route={_TAG_TO_FLAG[route.tag]}")
    return 0


def _label_by_search(tree: Tree) -> Labeling:
    """Greedy search, once the even-degree count does not rule the tree out.

    Greedy search proves nothing, so a tree with one or two even-degree
    vertices raises Infeasible here instead of running out its budget.
    """
    _require_even_degree_balance(tree)
    return search_labeling(tree, SearchConfig())


def _label_auto(spec: CaterpillarSpec) -> tuple[Tree, Labeling]:
    """The small-diameter pipeline, else the large one, else search.

    A pipeline passes the spec on by raising one of its precondition errors.
    """
    for pipeline in (label_small_diameter, label_large_caterpillar):
        try:
            return pipeline(spec)
        except (NotOddDegree, NotPowerOfTwo, OutOfRange, TooFewVertices):
            pass
    tree = build_caterpillar(spec)
    return tree, _label_by_search(tree)


def _run_label(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.caterpillar is not None:
        spec = CaterpillarSpec.parse(args.caterpillar)
        if args.method == "auto":
            tree, lab = _label_auto(spec)
        elif args.method == "small-diameter":
            tree, lab = label_small_diameter(spec)
        elif args.method == "large":
            tree, lab = label_large_caterpillar(spec)
        else:
            tree = build_caterpillar(spec)
            lab = _label_by_search(tree)
    else:
        if args.method not in ("auto", "search"):
            parser.error(f"--method {args.method} needs --caterpillar")
        tree, _ = _load_tree(args.tree)
        lab = _label_by_search(tree)
    sys.stdout.write(tree_to_json(tree, lab))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    tree, lab = _load_labeled(args.path)
    report = verify_set_sequential(tree, lab)
    if report.valid:
        print("valid")
        return 0
    for violation in report.violations:
        print(str(violation))
    return 1


def _run_construct_pendants(args: argparse.Namespace) -> int:
    tree, lab = _load_labeled(args.base)
    out_tree, out_lab = add_pendants(tree, lab, PendantPlan.parse(args.plan))
    sys.stdout.write(tree_to_json(out_tree, out_lab))
    return 0


def _run_construct_four_copies(args: argparse.Namespace) -> int:
    tree, lab = _load_labeled(args.base)
    out_tree, out_lab = four_copies(tree, lab, args.u, args.v)
    sys.stdout.write(tree_to_json(out_tree, out_lab))
    return 0


def _run_search(args: argparse.Namespace) -> int:
    tree, _ = _load_tree(args.tree)
    strategy = _STRATEGY_FLAGS[args.strategy]
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
    the first 2^(n-1) - 1 are enumerated: each prefix of 2^(n-1) - 2 is
    XORed once, and a next target h no smaller than the prefix's last
    completes it when the XOR of prefix and h is no smaller than h.
    """
    if n < 2:
        return
    top = 1 << n
    for prefix in combinations_with_replacement(range(1, top), (1 << (n - 1)) - 2):
        rest = reduce(xor, prefix, 0)
        for h in range(prefix[-1] if prefix else 1, top):
            if rest ^ h >= h:
                yield prefix + (h, rest ^ h)


def _sweep(n: int) -> tuple[int, list[str]]:
    """Solve and check every instance.

    One memo for the whole sweep keeps each frame's tables and each frame
    form's exact solution, so an instance costs a frame lookup, one pass
    that maps its form's pairs into its target order, and its own check.
    """
    checked = 0
    failures: list[str] = []
    memo: dict = {}
    for combo in _sweep_instances(n):
        try:
            _exact_in_frame(PairingInstance.of(n, combo), memo)
        except SetseqError as exc:
            targets = ",".join(f"{v:0{n}b}" for v in combo)
            failures.append(f"{targets} -> {type(exc).__name__}: {exc}")
        checked += 1
    return checked, failures


def _run_sweep(args: argparse.Namespace) -> int:
    checked, failures = _sweep(args.n)
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
    pair.add_argument("--n", type=_dimension, required=True)
    pair.add_argument("--targets", required=True, help="comma-separated n-bit strings")
    pair.add_argument(
        "--route", choices=["auto", *ROUTE_FLAGS], default="auto",
        help="force one route; it fails with CaseNotApplicable when its hypothesis"
        " does not hold, as exact does at n > 6"
        " (default: auto, the first route whose hypothesis holds)",
    )
    pair.set_defaults(run=_run_pair_solve)

    label = sub.add_parser("label", help="produce a verified labeling of a tree")
    shape = label.add_mutually_exclusive_group(required=True)
    shape.add_argument("--caterpillar", metavar="SPEC", help='degree list, e.g. "T[3,3,3]"')
    shape.add_argument("--tree", metavar="JSON", help="tree document (labels ignored)")
    label.add_argument(
        "--method",
        choices=["auto", "small-diameter", "large", "search"],
        default="auto",
    )
    label.set_defaults(run=lambda args: _run_label(args, parser))

    verify = sub.add_parser("verify", help="check a labeled tree document")
    verify.add_argument("path", help='JSON file, or "-" for stdin')
    verify.set_defaults(run=_run_verify)

    construct = sub.add_parser("construct", help="grow labeled trees from labeled trees")
    construct_sub = construct.add_subparsers(dest="construction", required=True)
    pendants = construct_sub.add_parser("pendants", help="hang pendant edges, doubling the tree")
    pendants.add_argument("--base", required=True, metavar="JSON")
    pendants.add_argument("--plan", required=True, metavar="ID:COUNT,...")
    pendants.set_defaults(run=_run_construct_pendants)
    copies = construct_sub.add_parser("four-copies", help="quadruple via the long-path sequence")
    copies.add_argument("--base", required=True, metavar="JSON")
    copies.add_argument("--u", type=int, required=True)
    copies.add_argument("--v", type=int, required=True)
    copies.set_defaults(run=_run_construct_four_copies)

    search = sub.add_parser("search", help="randomized or exhaustive labeling search")
    search.add_argument("--tree", required=True, metavar="JSON")
    search.add_argument("--seed", type=_seed, default=0)
    search.add_argument("--budget", type=parse_duration, default=60.0, metavar="DURATION")
    search.add_argument("--strategy", choices=_STRATEGY_FLAGS, default="greedy")
    search.set_defaults(run=_run_search)

    export = sub.add_parser("export", help="emit Graphviz DOT")
    export.add_argument("--dot", required=True, metavar="JSON")
    export.set_defaults(run=_run_export)

    sweep = sub.add_parser("sweep", help="exhaustive pairing verification")
    sweep.add_argument("--conjecture2", action="store_true", required=True)
    # Above n = 4 the instance count explodes (about 3e10 at n = 5) and the
    # sweep has no time budget, so it refuses rather than run unbounded.
    sweep.add_argument("--n", type=int, choices=range(1, 5), required=True)
    sweep.set_defaults(run=_run_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # The parser is a web of reference cycles; held through a long
        # command such as a sweep, it ages into the collector's oldest
        # generation and waits there long after the call returns.
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except SetseqError as exc:
        print(f"error={type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
