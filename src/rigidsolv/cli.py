"""Command-line front door.

Subcommands cover canonical forms (`normalize`, `mul`, `comm`,
`project`), series membership (`member`), the splitting coordinates
(`fox`, `sigma`), the wreath embedding (`wreath-embed`), principal
dimensions (`pdim`), exact matrix rank (`rank`), the ball equation
solver (`solve`), and the statement harness (`verify`).  `--json`
switches every other subcommand to its documented JSON schema; `solve`
and `verify` always print JSON and take no `--json`.  Exit codes: 0
success, 1 failed checks, 2 usage/parse errors, 3 resource caps.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .equations import DEFAULT_ASSIGNMENT_CAP, MixedWord, solve_ball
from .errors import CapExceededError, WordSyntaxError
from .free_solvable import (
    DEFAULT_BALL_CAP,
    SolvableElement,
    free_solvable_group,
    normalize,
    series_member_commutator,
    standard_witnesses,
)
from .linalg import (
    LaurentPoly,
    closed_form_dimension,
    laurent_rank,
    principal_dimension_metabelian,
    smith_rank,
)
from .magnus import eval_word, sigma
from .verify import run_all
from .words import parse_word
from .wreath import embed_free_solvable, embedding_codomain


def _print_element(e: SolvableElement, as_json: bool) -> None:
    if as_json:
        print(e.json_text())
        return
    print(f"group: S({e.m},{e.n})")
    print(f"trivial: {'true' if e.is_trivial() else 'false'}")
    if e.n == 0:
        print("body: 1")
    elif e.n == 1:
        print(f"vector: {e.key()}")
    else:
        matrix = e.body
        print(f"top: {matrix.top.key()}")
        for i, d in enumerate(matrix.coords, start=1):
            print(f"d[{i}]: {d}")


def _cmd_normalize(args: argparse.Namespace) -> int:
    word = parse_word(args.word, ngens=args.m)
    _print_element(normalize(args.m, args.n, word), args.json)
    return 0


def _cmd_mul(args: argparse.Namespace) -> int:
    group = free_solvable_group(args.m, args.n)
    left = normalize(args.m, args.n, parse_word(args.left, ngens=args.m))
    right = normalize(args.m, args.n, parse_word(args.right, ngens=args.m))
    _print_element(group.mul(left, right), args.json)
    return 0


def _cmd_comm(args: argparse.Namespace) -> int:
    group = free_solvable_group(args.m, args.n)
    left = normalize(args.m, args.n, parse_word(args.left, ngens=args.m))
    right = normalize(args.m, args.n, parse_word(args.right, ngens=args.m))
    _print_element(group.commutator(left, right), args.json)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    # The image of w in S(m, k) is the canonical form of w there, so the
    # word is normalized at class k, not n.
    word = parse_word(args.word, ngens=args.m)
    free_solvable_group(args.m, args.n)
    if not 0 <= args.k <= args.n:
        raise ValueError(f"projection class {args.k} out of range 0..{args.n}")
    _print_element(normalize(args.m, args.k, word), args.json)
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    word = parse_word(args.word, ngens=args.m)
    if args.criterion == "projection":
        # w lies in G_i exactly when its image in S(m, i-1) is trivial.
        free_solvable_group(args.m, args.n)
        if not 1 <= args.i <= args.n + 1:
            raise ValueError(f"series index {args.i} out of range 1..{args.n + 1}")
        answer = normalize(args.m, args.i - 1, word).is_trivial()
    else:
        element = normalize(args.m, args.n, word)
        witnesses = standard_witnesses(args.m, args.n)[args.i - 1 :]
        answer = series_member_commutator(element, args.i, witnesses)
    if args.json:
        print(
            json.dumps(
                {"member": answer, "i": args.i, "criterion": args.criterion}
            )
        )
    else:
        print("true" if answer else "false")
    return 0


def _cmd_fox(args: argparse.Namespace) -> int:
    base = free_solvable_group(args.m, args.n).base
    matrix = eval_word(parse_word(args.word, ngens=args.m), base)
    if args.json:
        print(matrix.json_text())
    else:
        print(f"base: S({args.m},{args.n - 1})")
        print(f"top: {matrix.top.key()}")
        for i, d in enumerate(matrix.coords, start=1):
            print(f"d[{i}]: {d}")
    return 0


def _cmd_sigma(args: argparse.Namespace) -> int:
    base = free_solvable_group(args.m, args.n).base
    value = sigma(eval_word(parse_word(args.word, ngens=args.m), base))
    if args.json:
        print(value.json_text())
    else:
        print(str(value))
    return 0


def _cmd_wreath_embed(args: argparse.Namespace) -> int:
    element = normalize(args.m, args.n, parse_word(args.word, ngens=args.m))
    image = embed_free_solvable(element, as_json=args.json)
    codomain = embedding_codomain(args.m, args.n)
    if args.json:
        print(f'{{"codomain": {json.dumps(codomain)}, "element": {image}}}')
    else:
        print(f"codomain: {codomain}")
        print(image)
    return 0


def _cmd_pdim(args: argparse.Namespace) -> int:
    if args.family:
        dimension = closed_form_dimension(args.family, args.m, args.n)
    else:
        if not args.generators:
            raise ValueError("pdim needs generator words or --family")
        generators = [parse_word(text, ngens=args.m) for text in args.generators]
        dimension = principal_dimension_metabelian(generators, args.m)
    if args.json:
        print(json.dumps({"dimension": dimension.to_json()}))
    else:
        print(str(dimension))
    return 0


def _read_matrix_file(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _matrix_rows(data: Any) -> list[list[Any]]:
    """JSON rows checked to form a rectangular array of arrays."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix must be an array of row arrays")
    if any(len(row) != len(data[0]) for row in data):
        raise ValueError("ragged matrix: rows have different lengths")
    return data


def _cmd_rank(args: argparse.Namespace) -> int:
    data = _read_matrix_file(args.matrix)
    if args.kind == "smith":
        rows = _matrix_rows(data)
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("matrix entries must be integers")
        rank, factors = smith_rank(rows)
        if args.json:
            print(json.dumps({"rank": rank, "invariant_factors": list(factors)}))
        else:
            print(f"rank: {rank}")
            print(f"invariant factors: {list(factors)}")
    else:
        if not isinstance(data, dict):
            raise ValueError('a Laurent matrix must be {"nvars": k, "rows": [...]}')
        nvars = data["nvars"]
        if type(nvars) is not int or nvars < 0:
            raise ValueError("nvars must be a non-negative integer")
        rows = [
            [LaurentPoly.from_json(nvars, entry) for entry in row]
            for row in _matrix_rows(data["rows"])
        ]
        rank = laurent_rank(rows)
        if args.json:
            print(json.dumps({"rank": rank}))
        else:
            print(f"rank: {rank}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    system = []
    texts: list[tuple[int, str]] = []
    if args.equation:
        texts.extend((1, text) for text in args.equation)
    if args.file:
        if args.file == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                texts.append((lineno, stripped))
    for lineno, text in texts:
        system.append(MixedWord.parse(text, ngens=args.m, line=lineno))
    solutions = solve_ball(
        system,
        args.m,
        args.n,
        args.radius,
        nvars=args.nvars,
        assignment_cap=args.assignment_cap,
        ball_cap=args.ball_cap,
    )
    print(solutions.json_text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_all(seed=args.seed, samples=args.samples, only=args.only)
    payload = {
        "seed": args.seed,
        "passed": all(r.passed for r in reports),
        "checks": [r.to_json() for r in reports],
    }
    print(json.dumps(payload))
    if args.verbose:
        for report in reports:
            print(report.summary(), file=sys.stderr)
    return 0 if payload["passed"] else 1


def _add_group_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=int, required=True, help="number of generators")
    parser.add_argument("-n", type=int, required=True, help="solvability class")
    parser.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidsolv",
        description=(
            "Exact computation in free solvable groups and iterated wreath "
            "products: canonical forms, word problem, series membership, "
            "principal dimensions, and a desk-scale equation solver."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a word in S(m,n)")
    _add_group_flags(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", help="product of two words in S(m,n)")
    _add_group_flags(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("comm", help="commutator of two words in S(m,n)")
    _add_group_flags(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_comm)

    p = sub.add_parser("project", help="image in S(m,k)")
    _add_group_flags(p)
    p.add_argument("-k", type=int, required=True, help="target class")
    p.add_argument("word")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("member", help="derived-series membership")
    _add_group_flags(p)
    p.add_argument("-i", type=int, required=True, help="series index")
    p.add_argument(
        "--criterion",
        choices=["projection", "commutator"],
        default="projection",
    )
    p.add_argument("word")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("fox", help="splitting coordinates over S(m,n-1)")
    _add_group_flags(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_fox)

    p = sub.add_parser("sigma", help="sigma image of the coordinate row")
    _add_group_flags(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("wreath-embed", help="image in the iterated wreath product")
    _add_group_flags(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_wreath_embed)

    p = sub.add_parser("pdim", help="principal dimension")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, default=2, help="class for --family")
    p.add_argument(
        "--family",
        choices=["free-solvable", "wreath"],
        help="closed form for a standard family instead of a subgroup",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("generators", nargs="*", help="generator words of a subgroup of S(m,2)")
    p.set_defaults(func=_cmd_pdim)

    p = sub.add_parser("rank", help="exact rank of a matrix (JSON input)")
    p.add_argument("--kind", choices=["smith", "laurent"], default="smith")
    p.add_argument("--json", action="store_true")
    p.add_argument("matrix", help="path to JSON matrix, or - for stdin")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("solve", help="solve a system over a ball")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", "--radius", type=int, required=True)
    p.add_argument("-v", "--nvars", type=int, default=None)
    p.add_argument(
        "-e",
        "--equation",
        action="append",
        help="inline mixed word (repeatable); variables are $1..$v",
    )
    p.add_argument("file", nargs="?", help="system file, one mixed word per line")
    p.add_argument("--assignment-cap", type=int, default=DEFAULT_ASSIGNMENT_CAP)
    p.add_argument("--ball-cap", type=int, default=DEFAULT_BALL_CAP)
    p.set_defaults(func=_cmd_solve)

    from .verify import ALL_CHECKS

    p = sub.add_parser("verify", help="run the statement checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument(
        "--only", choices=sorted(ALL_CHECKS), default=None, help="run a single check"
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WordSyntaxError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    except CapExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
