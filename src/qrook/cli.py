"""Command-line front end.

Subcommands: ``rook`` (q-rook polynomials), ``hit`` (hit polynomials by
any method with a consistency verdict), ``stats`` (word and permutation
statistics), ``matrices`` (finite-field rank counts against the closed
formula), ``verify`` (the named check suites), and ``table`` (the
eight-variant statistic table over a symmetric group).

Exit codes: 0 on success and all-pass verification, 1 when any suite
check fails (a ``hit`` or ``matrices`` computation whose own check
raises prints ``error: <message>`` on stderr), 2 on usage errors (bad
board spec, malformed word, enumeration or dynamic-program budget
exceeded).  Output is
deterministic: identical invocations produce byte-identical output.

``main(argv=None, standalone_mode=True)`` parses ``argv`` (``sys.argv[1:]``
when None) and runs the command.  With ``standalone_mode`` true it ends in
``sys.exit(code)``; with it false it returns the exit code, which is also
how a usage error reports itself in-process.  Lines are written to
``sys.stdout`` as it is at call time, so ``contextlib.redirect_stdout``
captures them; an ``error: ...`` line on stderr follows a flush of stdout,
so the two streams merged keep the order in which they were written.

A ``--board`` spelling names a board only: ``steps:`` and ``gv:`` are ways
of writing its heights, and ``hit``'s step formulas eq24/eq26 read the
board's maximal step decomposition, whichever spelling was given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ffmat, permstat, verify
from .boards import parse_board_spec
from .placements import HIT_METHODS, BudgetExceededError, hit_polys, validate_hit_method
from .placements import rook_poly as rook_poly_fn
from .qpoly import IdentityViolation, LaurentPoly

_JSON = json.JSONEncoder(sort_keys=True)


def _echo(line: str):
    sys.stdout.write(line + "\n")


def _fail(code: int, message: str):
    sys.stdout.flush()
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _fail_usage(message: str):
    _fail(2, message)


def _fail_check(exc: IdentityViolation):
    _fail(1, str(exc))


def _board(spec_text: str):
    try:
        return parse_board_spec(spec_text)
    except ValueError as exc:
        _fail_usage(str(exc))


def _emit_poly(poly: LaurentPoly, fmt: str, labels: dict | None = None):
    """One polynomial; each label is a JSON key, a leading CSV column and a
    key=value text prefix, in the order given.  In CSV the zero polynomial
    is one row with exponent 0 and coefficient 0."""
    labels = labels or {}
    if fmt == "json":
        _echo(_JSON.encode({**labels, **poly.to_dense_dict()}))
    elif fmt == "csv":
        wire = poly.to_dense_dict()
        prefix = "".join(f"{value}," for value in labels.values())
        for e, c in enumerate(wire["coeffs"] or [0], wire["min_exp"]):
            _echo(f"{prefix}{e},{c}")
    else:
        prefix = " ".join(f"{key}={value}" for key, value in labels.items())
        _echo(f"{prefix}: {poly}" if labels else str(poly))


def rook_cmd(board_spec: str, k: int | None, fmt: str):
    """q-rook polynomial(s) of a board."""
    board = _board(board_spec)
    if not board.admissible:
        _fail_usage("rook polynomials need an admissible board")
    ks = range(board.n + 1) if k is None else [k]
    for kk in ks:
        if not 0 <= kk <= board.n:
            _fail_usage(f"k must lie in 0..{board.n}")
        _emit_poly(rook_poly_fn(board, kk), fmt, None if k is not None else {"k": str(kk)})


def hit_cmd(board_spec: str, k: int | None, method: str, fmt: str):
    """Hit polynomial(s) of a board, by one method or all, with a verdict."""
    board = _board(board_spec)
    n = board.n
    methods = HIT_METHODS if method == "all" else (method,)
    try:
        for m in methods:
            validate_hit_method(board, m)
    except ValueError as exc:
        _fail_usage(str(exc))
    if k is not None and not 0 <= k <= n:
        _fail_usage(f"k must lie in 0..{n}")
    try:
        tables = {m: hit_polys(board, m) for m in methods}
    except BudgetExceededError as exc:
        _fail_usage(str(exc))
    except IdentityViolation as exc:
        _fail_check(exc)
    consistent = True
    for kk in range(n + 1) if k is None else [k]:
        values = {m: table[kk] for m, table in tables.items()}
        first = next(iter(values.values()))
        if any(v != first for v in values.values()):
            consistent = False
        for m, poly in values.items():
            _emit_poly(poly, fmt, {"k": kk, "method": m})
    if len(methods) > 1:
        _echo("CONSISTENT" if consistent else "INCONSISTENT")
    if not consistent:
        sys.exit(1)


STAT_NAMES = [
    "des", "maj", "exc", "den",
    "stat1", "stat2", "stat3", "stat4", "stat5", "stat6", "stat7",
    "t5a", "t5b",
]


def stats_cmd(word_text: str, stat_name: str, family: str, variant: int | None):
    """Evaluate a statistic on a word or permutation.  The block-board
    statistics (stat5-7, t5b) take the word's multiplicity vector from
    its letters."""
    try:
        word = permstat.parse_word(word_text)
    except ValueError as exc:
        _fail_usage(str(exc))
    try:
        if stat_name in ("stat1", "stat2", "stat3", "stat4"):
            chosen = variant if variant is not None else int(stat_name[-1])
            value = permstat.stat_family(word, family, chosen)
        elif stat_name == "t5a":
            value = permstat.theorem5_stat(word)
        elif stat_name == "t5b":
            value = permstat.theorem5_statx(word)
        else:
            value = getattr(permstat, stat_name)(word)
    except ValueError as exc:
        _fail_usage(str(exc))
    _echo(str(value))


def matrices_cmd(board_spec: str, prime: int):
    """Rank counts of board-supported matrices, checked against the formula."""
    board = _board(board_spec)
    try:
        counts = ffmat.rank_distribution(board, prime)
    except ValueError as exc:  # BudgetExceededError is a ValueError
        _fail_usage(str(exc))
    _echo("ranks: " + ",".join(str(c) for c in counts))
    try:
        agrees = ffmat.theorem1_check(board, prime)
    except IdentityViolation as exc:
        _fail_check(exc)
    _echo("THEOREM1 PASS" if agrees else "THEOREM1 FAIL")
    if not agrees:
        sys.exit(1)


def verify_cmd(suite: str, max_n: int):
    """Run the named check suites; one PASS/FAIL line per check."""
    names = sorted(verify.SUITES) if suite == "all" else [suite]
    passed = failed = 0
    for result in verify.run_suites(names, max_n):
        _echo(result.line())
        if result.ok:
            passed += 1
        else:
            failed += 1
    _echo(f"TOTAL pass={passed} fail={failed}")
    if failed:
        sys.exit(1)


def table_cmd(family: str, n: int):
    """The eight descent-paired statistics over S_n, one row per permutation."""
    if n < 1 or n > 8:
        _fail_usage("table needs 1 <= n <= 8")
    header = ["perm", "des", "maj"] + [f"stat{i}" for i in range(1, 9)]
    _echo(",".join(header))
    for perm in permstat.permutations_of(n):
        row = ["".join(map(str, perm)), str(permstat.des(perm)), str(permstat.maj(perm))]
        row += [
            str(permstat.stat_family(perm, family, variant)) for variant in range(1, 9)
        ]
        _echo(",".join(row))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrook",
        description="Exact q-rook polynomials, hit polynomials, permutation statistics, "
        "and finite-field rank counts on Ferrers boards.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    formats = ["json", "csv", "text"]
    add = command("rook", rook_cmd)
    add("--board", dest="board_spec", required=True, help="board spec, e.g. heights:0,1,2")
    add("--k", type=int, help="number of rooks; all values if omitted")
    add("--format", dest="fmt", choices=formats, default="json")
    add = command("hit", hit_cmd)
    add("--board", dest="board_spec", required=True)
    add("--k", type=int, help="number of hits; all values if omitted")
    add("--method", choices=[*HIT_METHODS, "all"], default="mat")
    add("--format", dest="fmt", choices=formats, default="json")
    add = command("stats", stats_cmd)
    add("--word", dest="word_text", required=True, help="word literal, e.g. 2313212 or 2,3,1")
    add("--stat", dest="stat_name", required=True, choices=STAT_NAMES)
    add("--family", choices=["mat", "xi"], default="mat")
    add("--variant", type=int, choices=range(1, 9))
    add = command("matrices", matrices_cmd)
    add("--board", dest="board_spec", required=True)
    add("--prime", type=int, required=True)
    add = command("verify", verify_cmd)
    add("--suite", choices=["all"] + sorted(verify.SUITES), default="all")
    add("--max-n", type=_positive_int, default=4)
    add = command("table", table_cmd)
    add("--family", choices=["mat", "xi"], default="mat")
    add("--n", type=int, required=True)
    return parser


_PARSER = _parser()


def main(argv: list[str] | None = None, standalone_mode: bool = True):
    """Run the command that ``argv`` names; see the module docstring."""
    try:
        try:
            options = vars(_PARSER.parse_args(argv))
            options.pop("run")(**options)
            code = 0
        except SystemExit as exc:
            code = exc.code
        if standalone_mode:
            sys.stdout.flush()
    except BrokenPipeError:
        if not standalone_mode:
            raise
        # the reader has gone (``qrook ... | head``): exit 1 without a
        # traceback, sending what is still buffered, which the interpreter
        # flushes on exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
