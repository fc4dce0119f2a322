"""Rook placements on Ferrers boards and the board statistics.

Conventions (matrix coordinates, row 1 on top):

* a placement is a set of cells with pairwise distinct rows and columns;
* a *full* placement on an n x n grid has one rook per row and column
  and is identified with the permutation sigma via a rook at (i, sigma_i);
* the uncovered-count statistic of a k-rook placement on a board counts
  the board squares that remain after crossing out every square that
  holds a rook, lies above a rook in its column, or lies right of a
  rook in its row -- its generating function over all k-rook placements
  is the q-rook polynomial.  ``rook_poly`` computes it by the
  Garsia-Remmel column recurrence, in polynomial time; the placement
  walk (``enumerate_placements`` with ``inv_stat``) is kept as its
  oracle and for the elimination fibers;
* the hit polynomial with k hits is generated over full placements with
  exactly k rooks on the board, either by the crossing statistic
  (``mat``), by the circle statistic (``xi``), or extracted from the
  rook polynomials through the defining product identity.

The statistic kernels work on plain tuples for speed; the public
functions accept :class:`Placement` values and validate their inputs.
Everything is pure and immutable, so summations over placements may be
partitioned across workers freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .boards import FerrersBoard
from .qpoly import BivariatePoly, LaurentPoly, q_bracket, q_factorial


@dataclass(frozen=True)
class Placement:
    """A set of non-attacking rook positions (row, col), 1-based."""

    cells: frozenset[tuple[int, int]]

    def __post_init__(self):
        cells = frozenset((int(r), int(c)) for r, c in self.cells)
        object.__setattr__(self, "cells", cells)
        rows = {r for r, _ in cells}
        cols = {c for _, c in cells}
        if len(rows) != len(cells) or len(cols) != len(cells):
            raise ValueError("attacking rooks: rows and columns must be distinct")

    @staticmethod
    def from_cells(cells: Iterable[tuple[int, int]]) -> "Placement":
        return Placement(frozenset(cells))

    @staticmethod
    def from_permutation(sigma: Iterable[int]) -> "Placement":
        """The graph of a permutation: a rook at (i, sigma_i) for each i."""
        return Placement(frozenset((i, s) for i, s in enumerate(sigma, start=1)))

    @property
    def k(self) -> int:
        return len(self.cells)

    def sigma(self, n: int) -> tuple[int, ...]:
        """Row -> column map of a full placement, as a permutation tuple."""
        if len(self.cells) != n:
            raise ValueError("not a full placement")
        by_row = dict(self.cells)
        if set(by_row) != set(range(1, n + 1)):
            raise ValueError("full placement must cover rows 1..n")
        return tuple(by_row[i] for i in range(1, n + 1))

    def transpose(self) -> "Placement":
        return Placement(frozenset((c, r) for r, c in self.cells))

    def reflect(self, n: int) -> "Placement":
        """Reflect about the cross diagonal: (i, j) -> (n-j+1, n-i+1)."""
        return Placement(frozenset((n - c + 1, n - r + 1) for r, c in self.cells))

    def on_board_count(self, board: FerrersBoard) -> int:
        return sum(1 for r, c in self.cells if r <= board.heights[c - 1])


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _iter_placements_raw(heights: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """k-rook placements as sorted cell tuples, generated row by row with
    columns in ascending order within a row."""
    n = len(heights)
    cells: list[tuple[int, int]] = []
    used_cols = [False] * (n + 1)

    def rec(row: int, remaining: int):
        if remaining == 0:
            yield tuple(cells)
            return
        if n - row + 1 < remaining:
            return
        # rook in this row
        for col in range(1, n + 1):
            if not used_cols[col] and row <= heights[col - 1]:
                used_cols[col] = True
                cells.append((row, col))
                yield from rec(row + 1, remaining - 1)
                cells.pop()
                used_cols[col] = False
        # or no rook in this row
        yield from rec(row + 1, remaining)

    yield from rec(1, k)


def enumerate_placements(board: FerrersBoard, k: int) -> Iterator[Placement]:
    """Every placement of k non-attacking rooks on the board, exactly once.
    An enumeration oracle: with ``inv_stat`` it gives the q-rook
    polynomial the slow way, and the elimination fibers use it."""
    if not board.admissible:
        raise ValueError("placement enumeration needs an admissible board")
    if k < 0:
        raise ValueError("k must be nonnegative")
    for cells in _iter_placements_raw(board.heights, k):
        yield Placement(frozenset(cells))


# ---------------------------------------------------------------------------
# Statistic kernels on raw tuples
# ---------------------------------------------------------------------------


def _inv_raw(cells: Iterable[tuple[int, int]], heights: tuple[int, ...]) -> int:
    # Uncovered board square: no rook at or below it in its column, no rook
    # at or left of it in its row.
    col_row = {}
    row_col = {}
    for r, c in cells:
        col_row[c] = r
        row_col[r] = c
    count = 0
    for col, h in enumerate(heights, start=1):
        rook_row = col_row.get(col, 0)
        for row in range(1, h + 1):
            if rook_row >= row:
                continue
            rc = row_col.get(row)
            if rc is not None and rc <= col:
                continue
            count += 1
    return count


def _hits(sigma: tuple[int, ...], heights: tuple[int, ...]) -> int:
    # a plain loop: this runs once per permutation in the n! walks
    hits = 0
    for i, c in enumerate(sigma, start=1):
        if i <= heights[c - 1]:
            hits += 1
    return hits


def _cross_raw(sigma: tuple[int, ...], heights: tuple[int, ...]) -> int:
    # Cell count formula: every column j contributes its j cells that hold a
    # rook or sit right of one; the extra cells are counted by rook pairs.
    n = len(sigma)
    extra = 0
    for a in range(1, n):
        sa = sigma[a - 1]
        ca = heights[sa - 1]
        for b in range(a + 1, n + 1):
            sb = sigma[b - 1]
            if sa > sb:
                # above the lower rook, on the board
                if a <= heights[sb - 1]:
                    extra += 1
            elif a > ca:
                # below the upper rook, which is off the board
                extra += 1
    return n * (n + 1) // 2 + extra


def _xi_raw(sigma: tuple[int, ...], heights: tuple[int, ...], area: int, hits: int) -> int:
    # Circle count minus the circles cancelled by sitting right of a rook.
    # The area and the hit count are unused; they keep the signature of
    # _mat_raw.
    n = len(sigma)
    total = 0
    for b in range(1, n + 1):
        col = sigma[b - 1]
        h = heights[col - 1]
        if b <= h:
            # rook on the board: circles fill the board cells below it
            for i in range(b + 1, h + 1):
                if sigma[i - 1] > col:
                    total += 1
        else:
            # rook off the board: circles fill the cells below it and the
            # board cells above it
            for i in range(b + 1, n + 1):
                if sigma[i - 1] > col:
                    total += 1
            for i in range(1, h + 1):
                if sigma[i - 1] > col:
                    total += 1
    return total


def _mat_raw(sigma: tuple[int, ...], heights: tuple[int, ...], area: int, hits: int) -> int:
    n = len(sigma)
    return n * (n - hits) + area - _cross_raw(sigma, heights)


# statistic family -> kernel (sigma, heights, area, hits) -> value, where
# hits = _hits(sigma, heights), which the caller has counted already
_STAT_KERNELS = {"mat": _mat_raw, "xi": _xi_raw}


# ---------------------------------------------------------------------------
# Public statistics
# ---------------------------------------------------------------------------


def inv_stat(placement: Placement, board: FerrersBoard) -> int:
    """Board squares left uncovered by the crossing-out rule; the
    statistic of the placement-walk oracle for ``rook_poly``."""
    for r, c in placement.cells:
        if not board.contains(r, c):
            raise ValueError(f"cell {(r, c)} is off the board")
    return _inv_raw(placement.cells, board.heights)


def cross_stat(placement: Placement, board: FerrersBoard) -> int:
    """Number of grid squares that hold a rook, lie right of a rook, lie
    above a rook while on the board, or lie below an off-board rook.
    Each square counts once however many conditions it satisfies."""
    return _cross_raw(placement.sigma(board.n), board.heights)


def mat_stat(placement: Placement, board: FerrersBoard) -> int:
    """n(n-k) + Area - cross for a full placement with k rooks on the board."""
    sigma = placement.sigma(board.n)
    return _mat_raw(sigma, board.heights, board.area, _hits(sigma, board.heights))


def xi_stat(placement: Placement, board: FerrersBoard) -> int:
    """Circle statistic of a full placement.

    Each on-board rook circles the board cells below it in its column;
    each off-board rook circles the cells below it and the board cells
    above it.  Circles landing right of a rook in their row are
    cancelled; the statistic is circles minus cancellations.
    """
    sigma = placement.sigma(board.n)
    return _xi_raw(sigma, board.heights, board.area, _hits(sigma, board.heights))


# ---------------------------------------------------------------------------
# Rook and hit polynomials
# ---------------------------------------------------------------------------


# rook_poly fills every 64th prefix first: it recurses under 128 + n/64 calls deep
_STRIDE = 64


@lru_cache(maxsize=None)
def rook_poly(board: FerrersBoard, k: int) -> LaurentPoly:
    """q-rook polynomial R_k(B): sum of q^uncovered over k-rook placements.

    Computed by the Garsia-Remmel column recurrence: a column of height c
    added on the right of B gives

        R_k(B + c) = q^(c-k) R_k(B) + [c-k+1] R_(k-1)(B),

    since every earlier column is at most c tall: the k rooks of B cross
    out the squares right of them, k of the new column's c, and a rook
    in one of its c - k + 1 free rows keeps the free rows below it.
    Each value recurses through this cache on the board minus its last
    column, so boards sharing a column prefix share the work.  Defined for
    every Ferrers board, admissible or not, and zero for k outside 0..n.
    The oracle is the placement walk: the sum of q^inv_stat over
    ``enumerate_placements``."""
    n = board.n
    if not 0 <= k <= n:
        return LaurentPoly.zero()
    if n == 0:
        return LaurentPoly.one()
    if n % _STRIDE == 0:
        base = FerrersBoard(board.heights[:-_STRIDE])
        for kk in range(max(0, k - _STRIDE), min(k, base.n) + 1):
            rook_poly(base, kk)
    c = board.heights[-1]
    prefix = FerrersBoard(board.heights[:-1])
    # the prefix has n - 1 columns, so it has no k-rook placement at k = n
    poly = rook_poly(prefix, k).shifted(c - k) if k < n else LaurentPoly.zero()
    if k:
        poly = poly + q_bracket(c - k + 1) * rook_poly(prefix, k - 1)
    return poly


HIT_METHODS = ("mat", "xi", "defining")


@lru_cache(maxsize=None)
def hit_polys(board: FerrersBoard, method: str = "mat") -> tuple[LaurentPoly, ...]:
    """All hit polynomials T_0..T_n of an admissible board at once.

    ``mat`` and ``xi`` are enumeration oracles: they walk all n!
    permutations.  ``defining`` expands the rook polynomials."""
    if not board.admissible:
        raise ValueError("hit polynomials need an admissible board")
    if method not in HIT_METHODS:
        raise ValueError(f"unknown hit method {method!r}")
    n = board.n
    heights = board.heights
    if method in ("mat", "xi"):
        kernel = _STAT_KERNELS[method]
        area = board.area
        counts: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        for sigma in itertools.permutations(range(1, n + 1)):
            k = _hits(sigma, heights)
            e = kernel(sigma, heights, area, k)
            bucket = counts[k]
            bucket[e] = bucket.get(e, 0) + 1
        return tuple(LaurentPoly(c) for c in counts)
    # defining identity: sum_j [j]! R_{n-j} prod_{i=j+1}^{n} (x - q^i), a
    # polynomial in x (z here) whose x^k coefficient is T_k, in Horner form
    acc = BivariatePoly.zero()
    for j in range(n + 1):
        acc = acc * BivariatePoly({(0, 1): 1, (j, 0): -1}) + BivariatePoly.from_laurent(
            q_factorial(j) * rook_poly(board, n - j)
        )
    return tuple(acc.coefficient(k) for k in range(n + 1))


@lru_cache(maxsize=None)
def classical_hit_distribution(board: FerrersBoard) -> tuple[int, ...]:
    """Counts of permutations by the number of board squares hit, from the
    rook numbers r_j = R_j(B; 1):
    h_k = sum_{j>=k} (-1)^(j-k) C(j,k) (n-j)! r_j."""
    if not board.admissible:
        raise ValueError("hit numbers need an admissible board")
    n = board.n
    rooks = [rook_poly(board, j).evaluate(1) for j in range(n + 1)]
    return tuple(
        sum(
            (-1) ** (j - k) * math.comb(j, k) * math.factorial(n - j) * rooks[j]
            for j in range(k, n + 1)
        )
        for k in range(n + 1)
    )


# ---------------------------------------------------------------------------
# The bracket factorization identity
# ---------------------------------------------------------------------------


def factorization_check(board: FerrersBoard) -> bool:
    """Check sum_k [x][x-1]...[x-k+1] R_{n-k} = prod_i [x+c_i-i+1].

    Encoding z = q^x, each bracket [x+m] is (1 - z q^m)/(1-q); clearing
    the common denominator (1-q)^n turns both sides into honest
    two-variable polynomials, which are compared exactly.
    """
    if not board.admissible:
        raise ValueError("factorization check needs an admissible board")
    n = board.n
    one_minus_q = LaurentPoly({0: 1, 1: -1})
    # nested: A_0 + (1 - z)(A_1 + (1 - z/q)(A_2 + ...)), A_k = R_(n-k) (1-q)^(n-k)
    lhs = BivariatePoly.zero()
    for k in range(n, -1, -1):
        lhs = lhs * BivariatePoly({(0, 0): 1, (-k, 1): -1}) + BivariatePoly.from_laurent(
            rook_poly(board, n - k) * one_minus_q ** (n - k)
        )
    rhs = BivariatePoly.one()
    for i, c in enumerate(board.heights, start=1):
        rhs = rhs * BivariatePoly({(0, 0): 1, (c - i + 1, 1): -1})
    return lhs == rhs


def rook_sum_identity(board: FerrersBoard) -> bool:
    """Check sum_k R_k(B) (1-q)^k = 1."""
    one_minus_q = LaurentPoly({0: 1, 1: -1})
    total = LaurentPoly.zero()
    for k in range(board.n + 1):
        total = total + rook_poly(board, k) * one_minus_q ** k
    return total == LaurentPoly.one()
