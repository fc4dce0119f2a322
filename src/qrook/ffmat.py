"""Brute-force rank counts of board-supported matrices over prime fields.

An n x n matrix is *supported* on a board when every entry outside the
board is zero.  Enumerating all p^Area(B) supported matrices and
counting them by rank gives the rank-count numbers; the closed formula
``p_k_formula`` reproduces them from the q-rook polynomial, with q
replaced by 1/q inside it:

    P_k(B) = (q-1)^k * q^(Area-k) * R_k(B; 1/q).

The bridge between the two is the left-to-right, bottom-up elimination
procedure, which maps each supported matrix to a non-attacking rook
placement of its rank; its fibers have size (p-1)^k * p^(Area-k-inv), so
the placements it reaches, each weighted by q^inv, sum to R_k(B) and
``fiber_check`` needs no walk over placements.

Prime moduli only: the formula route covers arbitrary q symbolically,
so extension fields would add no verification power here.  Enumeration
is a deterministic depth-first walk over the rows, bottom-up, each over
its support in lexicographic order, with the top row innermost, and it
yields each matrix as its rows: p is the caller's, so it builds no
``FfMatrix``.  Row i is supported on the columns of height >= i, a
suffix that grows upward, so the walk carries each matrix's rank: a new
row raises it exactly when it lies outside the span of the rows below;
counting by rank eliminates no matrix, and ``rank_ff`` stays the
independent elimination that checks the fibers.  The walk is
partitionable by fixing the lower rows, and rank counting is an
associative reduction with no shared state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .boards import FerrersBoard, staircase_board
from .placements import BudgetExceededError, Placement, _decimal
from .placements import inv_stat, rook_poly
from .qpoly import IdentityViolation, LaurentPoly, _PackedSeries, _integral, _l1_norm, q_stirling

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class FfMatrix:
    """A square matrix with entries reduced mod a prime p."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = _integral(self.p)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        rows = tuple(tuple(_integral(x) % p for x in row) for row in self.entries)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("entries must form an n x n matrix")

    @property
    def n(self) -> int:
        return len(self.entries)

    def supported_on(self, board: FerrersBoard) -> bool:
        n = self.n
        if n != board.n:
            raise ValueError(f"a {n} x {n} matrix cannot lie on a board with {board.n} columns")
        return all(
            self.entries[i][j] == 0
            for i in range(n)
            for j in range(n)
            if i + 1 > board.heights[j]
        )


def _walked(p: int, rows: tuple[tuple[int, ...], ...]) -> FfMatrix:
    """A matrix of the row walk, built without revalidating: the walk has
    checked that p is prime and yields square rows of residues mod p."""
    matrix = object.__new__(FfMatrix)
    object.__setattr__(matrix, "p", p)
    object.__setattr__(matrix, "entries", rows)
    return matrix


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# this bound (Sorenson and Webster, strong pseudoprimes to twelve prime bases)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, in O(log p) modular products per
    base.  Raises ``BudgetExceededError`` at or above MILLER_RABIN_BOUND,
    where these bases are not known to decide."""
    if p < 2:
        return False
    if p >= MILLER_RABIN_BOUND:
        raise BudgetExceededError(
            f"cannot decide whether {p} is prime: the Miller-Rabin test here is"
            f" exact only below {MILLER_RABIN_BOUND}"
        )
    for a in MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    # p - 1 = d * 2^s with d odd
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def enumerate_support_matrices(board: FerrersBoard, p: int) -> Iterator[tuple[tuple, int]]:
    """All p^Area(B) matrices supported on the board, each exactly once, as
    (entries, rank) pairs: the n-tuple of row tuples of residues that
    ``FfMatrix(p, entries).entries`` holds, for the caller's p, and the
    rank over F_p.  An enumeration oracle for the rank counts.

    A depth-first walk over the rows, bottom-up; row i runs over its
    support, the columns of height >= i, in lexicographic order, and the
    top row is the innermost loop, so entries are the top row put before
    the lower rows.  Heights weakly increase, so the support is a suffix of
    the columns that contains the support of every row below, and row i
    raises the rank exactly when it lies outside their span, kept per depth
    as the set of its p^r vectors.  The rows below the tallest column have
    no support and are zero.  The walk is lazy: it holds one prefix of
    lower rows and their spans at a time, never a list of top rows.
    """
    # an integral float walks as its int, whatever rank_distribution caches
    p = _integral(p)
    # p < 2 first, in O(1): a large negative p would otherwise be reported
    # as a budget overrun, not as a non-prime
    if p < 2:
        raise ValueError(f"{p} is not prime")
    area = board.area
    # the budget next, in O(log budget) products and without forming p^Area;
    # the primality test takes O(log p)
    fits = 0  # the largest exponent e with p^e within the budget
    while p ** (fits + 1) <= DEFAULT_BUDGET:
        fits += 1
    if area > fits:
        total = _decimal({p: area})
        shown = f"{p}^{area}" + (f" = {total}" if total else "")
        raise BudgetExceededError(f"p^Area = {shown} exceeds the enumeration budget {DEFAULT_BUDGET}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not board.admissible:
        raise ValueError("matrix enumeration needs an admissible board")
    n = board.n
    if n == 0:
        yield (), 0
        return
    zero = (0,) * n
    # row i (0 at the top) is supported on the columns of height > i, a
    # suffix starting at column starts[i]
    starts = [sum(h <= i for h in board.heights) for i in range(n)]

    def lower_rows(i: int, rows: tuple, span: set, rank: int):
        # every choice of rows i, ..., 1 over the given rows i+1..n-1: the rows
        # below the top one, with their span and rank
        pad = zero[: starts[i]]
        for tail in itertools.product(range(p), repeat=n - starts[i]):
            row = pad + tail
            if row in span:
                chosen = (row,) + rows, span, rank
            else:
                chosen = (row,) + rows, _span_with(span, row, p), rank + 1
            if i == 1:
                yield chosen
            else:
                yield from lower_rows(i - 1, *chosen)

    # rows tallest..n-1 lie below every column: zero
    tallest = board.heights[-1]
    if tallest > 1:
        prefixes = lower_rows(tallest - 1, (zero,) * (n - tallest), {zero}, 0)
    else:
        prefixes = [((zero,) * (n - 1), {zero}, 0)]
    pad = zero[: starts[0]]
    for rows, span, rank in prefixes:
        for tail in itertools.product(range(p), repeat=n - starts[0]):
            row = pad + tail
            yield (row,) + rows, rank + (row not in span)


def _span_with(span: set, column: tuple[int, ...], p: int) -> set:
    """The span of a subspace's vectors and one more column outside it."""
    multiples = [[a * x % p for x in column] for a in range(p)]
    return {tuple([(x + y) % p for x, y in zip(s, m)]) for s in span for m in multiples}


def rank_ff(matrix: FfMatrix) -> int:
    """Rank over the field with p elements, by Gaussian elimination."""
    p = matrix.p
    rows = [list(r) for r in matrix.entries]
    n = matrix.n
    rank = 0
    col = 0
    while col < n and rank < n:
        pivot = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, n):
            f = (rows[r][col] * inv) % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@lru_cache(maxsize=None)
def rank_distribution(board: FerrersBoard, p: int) -> tuple[int, ...]:
    """Counts of supported matrices by rank, indexed 0..n: the ranks the
    row walk carries, summed."""
    counts = [0] * (board.n + 1)
    for _, rank in enumerate_support_matrices(board, p):
        counts[rank] += 1
    return tuple(counts)


def p_k_formula(board: FerrersBoard, k: int) -> LaurentPoly:
    """Closed form for the rank-k count: (q-1)^k q^(Area-k) R_k(B; 1/q)."""
    if not board.admissible:
        raise ValueError("the rank-count formula needs an admissible board")
    # (q-1)^k by the binomial theorem, one dense row of signed coefficients
    q_minus_one_to_k = LaurentPoly.dense(0, [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)])
    poly = q_minus_one_to_k * rook_poly(board, k).subs_q_inverse().shifted(board.area - k)
    if poly and poly.min_exp < 0:
        raise IdentityViolation(f"rank-count polynomial {poly} of {board} at k={k} has negative powers")
    return poly


def elimination_placement(matrix: FfMatrix, board: FerrersBoard) -> Placement:
    """Pivot spots of the left-to-right, bottom-up elimination procedure.

    Scan columns left to right; in each column travel up from the
    bottom to the first nonzero entry, mark it as a pivot, then clear
    the entries right of it in its row (column operations) and above it
    in its column (row operations).  The pivots form a non-attacking
    placement on the board with exactly rank(matrix) rooks.
    """
    if not matrix.supported_on(board):
        raise ValueError("matrix is not supported on the board")
    p = matrix.p
    n = matrix.n
    rows = [list(r) for r in matrix.entries]
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        row = next((r for r in range(n - 1, -1, -1) if rows[r][col]), None)
        if row is None:
            continue
        pivots.append((row + 1, col + 1))
        inv = pow(rows[row][col], -1, p)
        for col2 in range(col + 1, n):
            f = (rows[row][col2] * inv) % p
            if f:
                for r in range(n):
                    rows[r][col2] = (rows[r][col2] - f * rows[r][col]) % p
        for row2 in range(row - 1, -1, -1):
            f = (rows[row2][col] * inv) % p
            if f:
                rows[row2] = [(x - f * y) % p for x, y in zip(rows[row2], rows[row])]
        # column/row operations must never disturb the support pattern
        if any(rows[i][j] for i in range(n) for j in range(n) if i + 1 > board.heights[j]):
            raise IdentityViolation(f"elimination left the support of {board}")
    placement = Placement(pivots)
    rank = rank_ff(matrix)
    if placement.k != rank:
        raise IdentityViolation(f"{placement.k} pivots but rank {rank} on {board} p={p}")
    if not all(board.contains(r, c) for r, c in pivots):
        raise IdentityViolation(f"pivots {sorted(pivots)} leave {board}")
    return placement


# ---------------------------------------------------------------------------
# Verified consequences
# ---------------------------------------------------------------------------


def theorem1_check(board: FerrersBoard, p: int) -> bool:
    """Brute-force rank counts match the closed formula at q = p, all ranks."""
    counts = rank_distribution(board, p)
    return all(
        counts[k] == p_k_formula(board, k).evaluate(p) for k in range(board.n + 1)
    )


def fiber_check(board: FerrersBoard, p: int) -> bool:
    """The elimination's fibers, read off the placements it reaches: the
    fiber over a k-rook placement C has (p-1)^k p^(Area-k-inv(C,B))
    matrices, the reached k-rook placements weighted by q^inv sum to
    R_k(B) for every k, so every placement is reached, and the fibers
    hold all p^Area matrices."""
    p = _integral(p)
    fibers: dict[frozenset, int] = {}
    for entries, _ in enumerate_support_matrices(board, p):
        c = elimination_placement(_walked(p, entries), board)
        fibers[c.cells] = fibers.get(c.cells, 0) + 1
    area = board.area
    reached = [{} for _ in range(board.n + 1)]
    for cells, size in fibers.items():
        c = Placement(cells)
        inv = inv_stat(c, board)
        if size != (p - 1) ** c.k * p ** (area - c.k - inv):
            return False
        reached[c.k][inv] = reached[c.k].get(inv, 0) + 1
    if any(LaurentPoly(counts) != rook_poly(board, k) for k, counts in enumerate(reached)):
        return False
    return sum(fibers.values()) == p**area


def corollary1_check(n: int, p: int) -> bool:
    """Upper-triangular rank counts against the q-Stirling formula.

    Rank-k upper-triangular n x n matrices over F_p (board with heights
    1..n) are counted by (p-1)^k p^(C(n+1,2)-k) S_{n+1,n+1-k}(1/p).
    """
    board = staircase_board(n)
    counts = rank_distribution(board, p)
    binom = n * (n + 1) // 2
    for k in range(n + 1):
        expected = (
            Fraction(p - 1) ** k
            * Fraction(p) ** (binom - k)
            * Fraction(q_stirling(n + 1, n + 1 - k).evaluate(Fraction(1, p)))
        )
        if counts[k] != expected:
            return False
    return True


def corollary2_check(board: FerrersBoard) -> bool:
    """Check sum_k (1-x)(1-xq)...(1-xq^(k-1)) P_{n-k} = prod_i (q^(c_i) - x q^(i-1)),
    an identity of polynomials in x over the Laurent ring, compared
    exactly as packed rows at one width."""
    n = board.n
    # nested: P_n + (1 - x)(P_(n-1) + (1 - xq)(P_(n-2) + ...)); each side's
    # n+1 or n passes at most double the largest row norm, and the right
    # side starts at 1
    ranks = [p_k_formula(board, j) for j in range(n + 1)]
    bound = max(1, *map(_l1_norm, ranks)) << n + 1
    lhs = _PackedSeries(bound)
    for k in range(n, -1, -1):
        lhs.times_linear(0, k)
        lhs.add(0, ((ranks[n - k], 1),))
    rhs = _PackedSeries(bound)
    rhs.add(0, ())
    for i, c in enumerate(board.heights, start=1):
        rhs.times_linear(c, i - 1)
    return lhs == rhs


def rank_sum_check(board: FerrersBoard, p: int) -> bool:
    """Total count over all ranks is p^Area."""
    return sum(rank_distribution(board, p)) == p**board.area
