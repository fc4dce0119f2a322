"""Brute-force rank counts of board-supported matrices over prime fields.

An n x n matrix is *supported* on a board when every entry outside the
board is zero.  Enumerating all p^Area(B) supported matrices and
counting them by rank gives the rank-count numbers; the closed formula
``p_k_formula`` reproduces them from the q-rook polynomial, with q
replaced by 1/q inside it:

    P_k(B) = (q-1)^k * q^(Area-k) * R_k(B; 1/q).

The bridge between the two is the left-to-right, bottom-up elimination
procedure, which maps each supported matrix to a non-attacking rook
placement of its rank; its fibers have size (p-1)^k * p^(Area-k-inv).

Prime moduli only: the formula route covers arbitrary q symbolically,
so extension fields would add no verification power here.  Enumeration
is deterministic (odometer over the support cells in row-major order)
and partitionable by fixing a prefix of cell values; rank counting is
an associative reduction with no shared state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .boards import FerrersBoard, staircase_board
from .placements import Placement, enumerate_placements, inv_stat, rook_poly
from .qpoly import BivariatePoly, IdentityViolation, LaurentPoly, q_stirling

DEFAULT_BUDGET = 10**7


class BudgetExceededError(ValueError):
    """Raised when an enumeration would exceed ``DEFAULT_BUDGET``."""


@dataclass(frozen=True)
class FfMatrix:
    """A square matrix with entries reduced mod a prime p."""

    n: int
    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) % self.p for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError("entries must form an n x n matrix")

    def supported_on(self, board: FerrersBoard) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.n)
            for j in range(self.n)
            if i + 1 > board.heights[j]
        )


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def enumerate_support_matrices(board: FerrersBoard, p: int) -> Iterator[FfMatrix]:
    """All p^Area(B) matrices supported on the board, each exactly once.
    An enumeration oracle for the rank counts."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not board.admissible:
        raise ValueError("matrix enumeration needs an admissible board")
    area = board.area
    total = p**area
    if total > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"p^Area = {p}^{area} = {total} exceeds the enumeration budget {DEFAULT_BUDGET}"
        )
    n = board.n
    # an odometer over the board cells in row-major order, so enumeration
    # is deterministic and restartable
    cells = list(board.cells())
    for values in itertools.product(range(p), repeat=area):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            rows[i - 1][j - 1] = v
        yield FfMatrix(n, p, tuple(tuple(r) for r in rows))


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
    """Counts of supported matrices by rank, indexed 0..n."""
    counts = [0] * (board.n + 1)
    for m in enumerate_support_matrices(board, p):
        counts[rank_ff(m)] += 1
    return tuple(counts)


def p_k_formula(board: FerrersBoard, k: int) -> LaurentPoly:
    """Closed form for the rank-k count: (q-1)^k q^(Area-k) R_k(B; 1/q)."""
    if not board.admissible:
        raise ValueError("the rank-count formula needs an admissible board")
    q_minus_one = LaurentPoly({1: 1, 0: -1})
    poly = (q_minus_one**k) * rook_poly(board, k).subs_q_inverse().shifted(board.area - k)
    if not poly.is_zero and poly.min_exp < 0:
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
    placement = Placement.from_cells(pivots)
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
    """Every elimination fiber has size (p-1)^k p^(Area-k-inv(C,B))."""
    fibers: dict[frozenset, int] = {}
    for m in enumerate_support_matrices(board, p):
        c = elimination_placement(m, board)
        fibers[c.cells] = fibers.get(c.cells, 0) + 1
    area = board.area
    for k in range(board.n + 1):
        for c in enumerate_placements(board, k):
            expected = (p - 1) ** k * p ** (area - k - inv_stat(c, board))
            if fibers.get(c.cells, 0) != expected:
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
    an identity of polynomials in x over the Laurent ring (z plays x)."""
    n = board.n
    # nested: P_n + (1 - x)(P_(n-1) + (1 - xq)(P_(n-2) + ...))
    lhs = BivariatePoly.zero()
    for k in range(n, -1, -1):
        lhs = lhs * BivariatePoly({(0, 0): 1, (k, 1): -1}) + BivariatePoly.from_laurent(
            p_k_formula(board, n - k)
        )
    rhs = BivariatePoly.one()
    for i, c in enumerate(board.heights, start=1):
        rhs = rhs * BivariatePoly({(c, 0): 1, (i - 1, 1): -1})
    return lhs == rhs


def rank_sum_check(board: FerrersBoard, p: int) -> bool:
    """Total count over all ranks is p^Area."""
    return sum(rank_distribution(board, p)) == p**board.area
