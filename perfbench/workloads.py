"""Seeded inputs, the op plan of each workload, and the output checks.

A workload is a list of steps.  A ``Cli`` step is one in-process ``qrook``
invocation; a ``Suite`` step runs one verification suite and yields one op
per ``CheckResult``.  The checks here are independent of the library: rook
numbers come from the column recurrence at q = 1, hit numbers from the rook
numbers, and rank counts from a column-by-column span count.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

DEFAULT_SEED = 1
BOARD_QUERY_N = 6
BOARD_QUERIES = 50
RANK_PRIMES = (2, 3, 5)
RANK_MAX_N = 5
RANK_MATRICES = (2**6, 2**9)
# the ffmat suite at max_n 2 caches only boards with n <= 2, which no query
# draws, so the seed cannot change which suite checks hit the cache
RANK_SUITE_MAX_N = 2
# a pass takes a second or less, so a run gets twenty or more samples of
# every op; that is why the verify suites stop at n = 4 and the word suites
# at mahonian 4, euler 5 (mahonian 5 with euler 5 also puts p90 on a cliff
# of the latency curve, where it jumps run to run)
VERIFY_SUITES = tuple((name, 4) for name in ("rook", "hit", "reciprocity", "unimodal", "steps"))
WORD_SUITES = (("mahonian", 4), ("euler", 5))


@dataclass(frozen=True)
class Cli:
    args: tuple[str, ...]
    # (exit code, stdout) -> None when the output is right, else the reason
    check: Callable[[int, str], str | None]


@dataclass(frozen=True)
class Suite:
    name: str
    max_n: int


WORKLOADS = {
    "verify-identities": "the paper's machine-checked identities on boards n<=4; qpoly-bound, "
    "thousands of small boards queried many times, so cache hits matter",
    "word-stats": "Mahonian (n<=4) and Euler-Mahonian (n<=5) word suites; permstat-bound (the lift kernels), "
    "qpoly and ffmat near zero",
    "board-queries": "rook and hit --method all CLI queries on seeded n=6 boards, each queried once; "
    "placement- and permutation-enumeration bound, caches barely help",
    "rank-counts": "all 123 matrices CLI queries with 2^6<=p^Area<=2^9 on boards 3<=n<=5, in seeded "
    "order, plus the ffmat suite; bound by finite-field matrix enumeration and rank",
}


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def rook_numbers(heights: tuple[int, ...]) -> tuple[int, ...]:
    """r_0..r_n at q = 1 by adding columns left to right: a new column of
    height c meets k-1 earlier rooks in k-1 distinct rows below c, so
    r_k(B + c) = r_k(B) + (c - k + 1) r_(k-1)(B)."""
    r = [1] + [0] * len(heights)
    for c in heights:
        for k in range(len(heights), 0, -1):
            r[k] += max(c - k + 1, 0) * r[k - 1]
    return tuple(r)


def hit_numbers(heights: tuple[int, ...]) -> tuple[int, ...]:
    """Permutations of n by board squares hit: sum_k h_k x^k equals
    sum_j (n-j)! r_j (x-1)^j."""
    n = len(heights)
    r = rook_numbers(heights)
    return tuple(
        sum((-1) ** (j - k) * math.comb(j, k) * math.factorial(n - j) * r[j] for j in range(k, n + 1))
        for k in range(n + 1)
    )


def rank_counts(heights: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Supported matrices over F_p by rank.  Heights weakly increase, so the
    span of the earlier columns lies inside the coordinates of the next one:
    a new column of height c keeps rank r in p^r ways and raises it in
    p^c - p^r ways."""
    dist = [1] + [0] * len(heights)
    for c in heights:
        nxt = [0] * len(dist)
        for r, count in enumerate(dist):
            if count:
                nxt[r] += count * p**r
                if c > r:
                    nxt[r + 1] += count * (p**c - p**r)
        dist = nxt
    return tuple(dist)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _spec(heights: tuple[int, ...]) -> str:
    return "heights:" + ",".join(map(str, heights))


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def check_rook(heights: tuple[int, ...], code: int, out: str) -> str | None:
    if code:
        return f"exit code {code}"
    try:
        rows = _json_lines(out)
        got = {int(row["k"]): sum(row["coeffs"]) for row in rows}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable rook output: {exc!r}"
    want = dict(enumerate(rook_numbers(heights)))
    if len(rows) != len(want) or got != want:
        return f"rook numbers at q=1 {got} != column recurrence {want}"
    return None


HIT_ALL_METHODS = ("mat", "xi", "defining", "eq24", "eq26")


def check_hit_all(heights: tuple[int, ...], code: int, out: str) -> str | None:
    if code:
        return f"exit code {code}"
    lines = out.splitlines()
    if not lines or lines[-1] != "CONSISTENT":
        return "hit --method all did not print CONSISTENT"
    try:
        rows = _json_lines("\n".join(lines[:-1]))
        got = {(row["k"], row["method"]): sum(row["coeffs"]) for row in rows}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable hit output: {exc!r}"
    want = {
        (k, m): h for k, h in enumerate(hit_numbers(heights)) for m in HIT_ALL_METHODS
    }
    if len(rows) != len(want) or got != want:
        bad = sorted(key for key in want if got.get(key) != want[key])
        return f"hit numbers at q=1 differ from the rook-number reference at {bad[:3]}"
    return None


def check_matrices(heights: tuple[int, ...], p: int, code: int, out: str) -> str | None:
    if code:
        return f"exit code {code}"
    want = "ranks: " + ",".join(map(str, rank_counts(heights, p)))
    if out != want + "\nTHEOREM1 PASS\n":
        return f"matrices output {out!r} != {want!r} + THEOREM1 PASS"
    return None


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _boards(n: int):
    """Admissible boards with grid side n: weakly increasing heights <= n."""
    return itertools.combinations_with_replacement(range(n + 1), n)


def _stratified(pool: list, count: int, rng: random.Random) -> list:
    """One item from each of `count` consecutive slices of a pool sorted by
    cost, so every seed draws the same cost profile."""
    bounds = [round(i * len(pool) / count) for i in range(count + 1)]
    picks = [rng.choice(pool[a:b]) for a, b in zip(bounds, bounds[1:])]
    rng.shuffle(picks)
    return picks


def board_query_steps(seed: int) -> list[Cli]:
    rng = random.Random(seed)
    pool = sorted(_boards(BOARD_QUERY_N), key=lambda h: (sum(rook_numbers(h)), h))
    steps = []
    for h in _stratified(pool, BOARD_QUERIES, rng):
        spec = _spec(h)
        steps.append(Cli(("rook", "--board", spec), lambda c, o, h=h: check_rook(h, c, o)))
        steps.append(
            Cli(
                ("hit", "--board", spec, "--method", "all"),
                lambda c, o, h=h: check_hit_all(h, c, o),
            )
        )
    return steps


def rank_count_steps(seed: int) -> list[Cli | Suite]:
    rng = random.Random(seed)
    lo, hi = RANK_MATRICES
    # every query in range, in seeded order: a query's cost hangs on the
    # board's shape as well as on p^Area, so seeded subsets of this pool
    # cost more or less from seed to seed
    queries = [
        (h, p)
        for n in range(RANK_SUITE_MAX_N + 1, RANK_MAX_N + 1)
        for h in _boards(n)
        for p in RANK_PRIMES
        if lo <= p ** sum(h) <= hi
    ]
    rng.shuffle(queries)
    steps: list[Cli | Suite] = [
        Cli(
            ("matrices", "--board", _spec(h), "--prime", str(p)),
            lambda c, o, h=h, p=p: check_matrices(h, p, c, o),
        )
        for h, p in queries
    ]
    steps.append(Suite("ffmat", RANK_SUITE_MAX_N))
    return steps


def steps_for(workload: str, seed: int) -> list[Cli | Suite]:
    if workload == "verify-identities":
        return [Suite(name, max_n) for name, max_n in VERIFY_SUITES]
    if workload == "word-stats":
        return [Suite(name, max_n) for name, max_n in WORD_SUITES]
    if workload == "board-queries":
        return board_query_steps(seed)
    if workload == "rank-counts":
        return rank_count_steps(seed)
    raise ValueError(f"unknown workload {workload!r}")


def seeded(workload: str) -> bool:
    """Whether the seed changes the inputs; the verify workloads are fixed."""
    return workload in ("board-queries", "rank-counts")
