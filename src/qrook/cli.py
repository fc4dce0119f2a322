"""Command-line front end.

Subcommands: ``rook`` (q-rook polynomials), ``hit`` (hit polynomials by
any method with a consistency verdict), ``stats`` (word and permutation
statistics), ``matrices`` (finite-field rank counts against the closed
formula), ``verify`` (the named check suites), and ``table`` (the
eight-variant statistic table over a symmetric group).

Exit codes: 0 on success and all-pass verification, 1 when any suite
check fails, 2 on usage errors (bad board spec, malformed word,
enumeration budget exceeded).  Output is deterministic: identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import json
import sys

import click

from . import ffmat, permstat, verify
from .boards import parse_board_spec, step_decomposition
from .placements import HIT_METHODS, hit_polys
from .placements import rook_poly as rook_poly_fn
from .qpoly import LaurentPoly


def _echo(line: str):
    # An explicit file: without one, click.echo caches a text wrapper per
    # stdout object in a WeakKeyDictionary whose value, for a StringIO, is
    # the stream itself, so every captured in-process run would stay alive.
    click.echo(line, file=sys.stdout)


def _fail_usage(message: str):
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _board_and_spec(spec_text: str):
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
        _echo(json.dumps({**labels, **poly.to_dense_dict()}, sort_keys=True))
    elif fmt == "csv":
        lo, dense = poly.dense_coeffs()
        prefix = "".join(f"{value}," for value in labels.values())
        for i, c in enumerate(dense or [0]):
            _echo(f"{prefix}{lo + i},{c}")
    else:
        prefix = " ".join(f"{key}={value}" for key, value in labels.items())
        _echo(f"{prefix}: {poly}" if labels else str(poly))


@click.group()
def main():
    """Exact q-rook polynomials, hit polynomials, permutation statistics,
    and finite-field rank counts on Ferrers boards."""


@main.command("rook")
@click.option("--board", "board_spec", required=True, help="board spec, e.g. heights:0,1,2")
@click.option("--k", type=int, default=None, help="number of rooks; all values if omitted")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
def rook_cmd(board_spec: str, k: int | None, fmt: str):
    """q-rook polynomial(s) of a board."""
    board, _ = _board_and_spec(board_spec)
    if not board.admissible:
        _fail_usage("rook polynomials need an admissible board")
    ks = range(board.n + 1) if k is None else [k]
    for kk in ks:
        if not 0 <= kk <= board.n:
            _fail_usage(f"k must lie in 0..{board.n}")
        _emit_poly(rook_poly_fn(board, kk), fmt, None if k is not None else {"k": str(kk)})


@main.command("hit")
@click.option("--board", "board_spec", required=True)
@click.option("--k", type=int, default=None, help="number of hits; all values if omitted")
@click.option(
    "--method",
    type=click.Choice(list(HIT_METHODS) + ["eq24", "eq26", "all"]),
    default="mat",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
def hit_cmd(board_spec: str, k: int | None, method: str, fmt: str):
    """Hit polynomial(s) of a board, by one method or all, with a verdict."""
    board, spec = _board_and_spec(board_spec)
    n = board.n
    methods = list(HIT_METHODS) + ["eq24", "eq26"] if method == "all" else [method]
    needs_spec = any(m in ("eq24", "eq26") for m in methods)
    if needs_spec and spec is None:
        spec = step_decomposition(board)
    if not board.admissible:
        bad = [m for m in methods if m in HIT_METHODS]
        if bad:
            _fail_usage(
                "inadmissible board: only the step formulas eq24/eq26 apply"
            )
    if k is not None and not 0 <= k <= n:
        _fail_usage(f"k must lie in 0..{n}")
    tables = {
        m: hit_polys(board, m) if m in HIT_METHODS else verify.step_formula(spec, m)
        for m in methods
    }
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


@main.command("stats")
@click.option("--word", "word_text", required=True, help="word literal, e.g. 2313212 or 2,3,1")
@click.option("--v", "v_text", default=None, help="multiplicity vector, e.g. 2,3,2")
@click.option("--stat", "stat_name", required=True, type=click.Choice(STAT_NAMES))
@click.option("--family", type=click.Choice(["mat", "xi"]), default="mat")
@click.option("--variant", type=click.IntRange(1, 8), default=None)
def stats_cmd(word_text: str, v_text: str | None, stat_name: str, family: str, variant: int | None):
    """Evaluate a statistic on a word or permutation."""
    try:
        letters = permstat.parse_word(word_text)
        v = (
            tuple(int(x) for x in v_text.split(","))
            if v_text
            else permstat.Word.of(letters).v
        )
        word = permstat.Word.of(letters, v)
    except ValueError as exc:
        _fail_usage(str(exc))
    try:
        if stat_name in ("des", "maj", "exc", "den"):
            value = getattr(permstat, stat_name)(word)
        elif stat_name in ("stat1", "stat2", "stat3", "stat4"):
            chosen = variant if variant is not None else int(stat_name[-1])
            value = permstat.stat_family(letters, family, chosen)
        elif stat_name == "stat5":
            value = permstat.stat5(word, v)
        elif stat_name == "stat6":
            value = permstat.stat6(word, v)
        elif stat_name == "stat7":
            value = permstat.stat7(word, v)
        elif stat_name == "t5a":
            value = permstat.theorem5_stat(word)
        else:
            value = permstat.theorem5_statx(word, v)
    except ValueError as exc:
        _fail_usage(str(exc))
    _echo(str(value))


@main.command("matrices")
@click.option("--board", "board_spec", required=True)
@click.option("--prime", type=int, required=True)
def matrices_cmd(board_spec: str, prime: int):
    """Rank counts of board-supported matrices, checked against the formula."""
    board, _ = _board_and_spec(board_spec)
    try:
        counts = ffmat.rank_distribution(board, prime)
    except ValueError as exc:  # BudgetExceededError is a ValueError
        _fail_usage(str(exc))
    _echo("ranks: " + ",".join(str(c) for c in counts))
    agrees = ffmat.theorem1_check(board, prime)
    _echo("THEOREM1 PASS" if agrees else "THEOREM1 FAIL")
    if not agrees:
        sys.exit(1)


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(["all"] + sorted(verify.SUITES)),
    default="all",
)
@click.option("--max-n", type=click.IntRange(min=1), default=4)
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


@main.command("table")
@click.option("--family", type=click.Choice(["mat", "xi"]), default="mat")
@click.option("--n", type=int, required=True)
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


if __name__ == "__main__":
    main()
