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
  rook polynomials through the defining product identity.  ``hit_polys``
  gets ``mat`` and ``xi`` from the word tables of the board's maximal
  step decomposition times the block factorials; ``word_stat_polys``
  computes those tables by a dynamic program over word positions whose
  state is the vector of letters used, prod (d_i + 1) states in all.
  The tests keep the walks over every permutation (``mat_stat`` /
  ``xi_stat``) and over every word as its oracles.

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

from .boards import FerrersBoard, StepSpec, step_decomposition
from .qpoly import BivariatePoly, LaurentPoly, q_bracket, q_factorial

_ONE_MINUS_Q = LaurentPoly.dense(0, (1, -1))


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
        if set(by_row.values()) != set(range(1, n + 1)):
            raise ValueError("full placement must cover columns 1..n")
        return tuple(by_row[i] for i in range(1, n + 1))


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
    # a plain loop: this runs once per lifted placement in permstat
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
        base = board._prefix(n - _STRIDE)
        for kk in range(max(0, k - _STRIDE), min(k, base.n) + 1):
            rook_poly(base, kk)
    c = board.heights[-1]
    prefix = board._prefix(n - 1)
    # the prefix has n - 1 columns, so it has no k-rook placement at k = n
    poly = rook_poly(prefix, k).shifted(c - k) if k < n else LaurentPoly.zero()
    if k:
        poly = poly + q_bracket(c - k + 1) * rook_poly(prefix, k - 1)
    return poly


HIT_METHODS = ("mat", "xi", "defining")

# the position scan keeps one table per vector of letters used, prod (d_i + 1)
# over the blocks of a step spec: 2^n on a board of n distinct heights, n + 1
# on a board of one height
HIT_DP_MAX_STATES = 2**14


class BudgetExceededError(ValueError):
    """Raised when an enumeration or a dynamic program would exceed its
    fixed budget."""


@lru_cache(maxsize=None)
def hit_polys(board: FerrersBoard, method: str = "mat") -> tuple[LaurentPoly, ...]:
    """All hit polynomials T_0..T_n of an admissible board at once.

    ``mat`` and ``xi`` are the block factorials times the word tables of
    the board's maximal step decomposition,
    T_k(B) = prod_i [d_i]! W_k(step_decomposition(B)): each word lifts to
    prod_i d_i! full placements with the hits of the word, and within a
    block these differ from the canonical lift by inversions.  They raise
    ``BudgetExceededError`` where :func:`word_stat_polys` does.
    ``defining`` expands the rook polynomials, in polynomial time."""
    if not board.admissible:
        raise ValueError("hit polynomials need an admissible board")
    if method not in HIT_METHODS:
        raise ValueError(f"unknown hit method {method!r}")
    if method in ("mat", "xi"):
        spec = step_decomposition(board)
        factorials = _widths_factorial(spec.widths)
        return tuple(factorials * w for w in word_stat_polys(spec, method))
    # defining identity: sum_j [j]! R_{n-j} prod_{i=j+1}^{n} (x - q^i), a
    # polynomial in x (z here) whose x^k coefficient is T_k, in Horner form
    n = board.n
    acc = BivariatePoly.zero()
    for j in range(n + 1):
        z_minus_qj = BivariatePoly.series((LaurentPoly.dense(j, (-1,)), LaurentPoly.one()))
        acc = acc * z_minus_qj + BivariatePoly.from_laurent(q_factorial(j) * rook_poly(board, n - j))
    return tuple(acc.coefficient(k) for k in range(n + 1))


def _widths_factorial(widths: Iterable[int]) -> LaurentPoly:
    """prod_i [d_i]! over the block widths d_i: the lifts of one word."""
    return math.prod((q_factorial(d) for d in widths), start=LaurentPoly.one())


def word_stat_polys(spec: StepSpec, family: str = "mat") -> tuple[LaurentPoly, ...]:
    """W_0..W_n: the generating polynomials of ``mat_word`` or ``xi_word``
    over all words with the spec's widths, indexed by hits like
    :func:`hit_polys`, where the hits of a word are the positions
    j <= H_(w_j).

    A dynamic program over positions 1..n, placing one letter per step,
    whose state is the vector of letters used so far: prod (d_i + 1)
    states, and ``BudgetExceededError`` past ``HIT_DP_MAX_STATES`` of
    them.  Within a block the standard lift's crossings add exactly
    C(d_i, 2) and the regular lift's circles nothing, so both statistics
    reduce to sums over position pairs j < i of the word, each settled by
    the state when the earlier or the later letter is placed.  With
    "left" meaning the letters not yet placed, letter y at position j
    adds to e:

    * mat: the letters z < y left with H_z >= j, and, when j > H_y, every
      letter z > y left;
    * xi: the letters z < y used with H_z >= j, and, when j > H_y, every
      letter z > y left; besides, once position H_y is filled, each y
      still left adds the letters > y used so far.

    A state's table {(hits, e): count} is packed into one integer, a count
    per ``width`` bits at slot hits * stride + e, so a transition is one
    shift and one addition.  At the end mat is
    n(n - hits) + Area - C(n+1, 2) - sum_i C(d_i, 2) - e and xi is e.
    This is MacMahon's inversion count for the q-multinomial with height
    thresholds added; the tests keep the walks over every word and every
    permutation as its oracles."""
    if not spec.admissible:
        raise ValueError(f"word lifts need an admissible step spec, not {spec}")
    if family not in _STAT_KERNELS:
        raise ValueError(f"unknown statistic family {family!r}")
    widths, block_heights = spec.widths, spec.block_heights
    radix = [1]
    for d in widths:
        radix.append(radix[-1] * (d + 1))
    if radix[-1] > HIT_DP_MAX_STATES:
        raise BudgetExceededError(
            f"{family} tables over block widths {widths} need {radix[-1]} position-scan"
            f" states, past the budget of {HIT_DP_MAX_STATES}"
        )
    n = sum(widths)
    xi = family == "xi"
    stride = n * (n - 1) // 2 + 1  # e counts position pairs, each at most once
    # no count exceeds the number of words, n! / prod d_i!
    width = (math.factorial(n) // math.prod(math.factorial(d) for d in widths)).bit_length()
    letters = range(spec.t)
    tables = [0] * radix[-1]
    tables[0] = 1
    # the state's index is sum_i used_i * radix_i, so placing letter y adds
    # radix[y] and every state comes after the states it is reached from;
    # product() varies its last factor fastest, hence the reversals
    for index, rev_used in enumerate(itertools.product(*(range(d + 1) for d in reversed(widths)))):
        used = rev_used[::-1]
        table = tables[index]
        j = sum(used)
        if xi:
            below = 0  # letters <= y used
            for y in letters:
                below += used[y]
                if block_heights[y] == j:
                    table <<= (j - below) * (widths[y] - used[y]) * width
        if j == n:
            break  # the last state: every letter used
        j += 1
        left = [d - u for d, u in zip(widths, used)]
        counted = used if xi else left
        later = n - j + 1  # all letters left; the letters z > y left once y is taken off
        lower_tall = 0  # the counted letters z < y with H_z >= j
        for y in letters:
            later -= left[y]
            if left[y]:
                slot = lower_tall + (stride if j <= block_heights[y] else later)
                tables[index + radix[y]] += table << slot * width
            if block_heights[y] >= j:
                lower_tall += counted[y]
    mat_base = None if xi else n * n + spec.area - n * (n + 1) // 2 - sum(d * (d - 1) // 2 for d in widths)
    return _unpack_hit_table(tables[-1], n, stride, width, mat_base)


def _unpack_hit_table(
    packed: int, n: int, stride: int, width: int, mat_base: int | None
) -> tuple[LaurentPoly, ...]:
    """T_0..T_n from a table {(hits, e): count} packed a count per ``width``
    bits at slot hits * stride + e.  The exponent is e itself, or
    mat_base - n * hits - e when ``mat_base`` is given."""
    mask, row_bits = (1 << width) - 1, stride * width
    polys = []
    for hits in range(n + 1):
        row = (packed >> hits * row_bits) & ((1 << row_bits) - 1)
        counts = []  # by e
        while row:
            counts.append(row & mask)
            row >>= width
        if mat_base is None:
            polys.append(LaurentPoly.dense(0, counts))
        else:
            polys.append(LaurentPoly.dense(mat_base - n * hits - len(counts) + 1, counts[::-1]))
    return tuple(polys)


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
    # nested: A_0 + (1 - z)(A_1 + (1 - z/q)(A_2 + ...)), A_k = R_(n-k) (1-q)^(n-k)
    lhs = BivariatePoly.zero()
    power = LaurentPoly.one()  # (1-q)^(n-k)
    for k in range(n, -1, -1):
        lhs = lhs * _one_minus_z_q(-k) + BivariatePoly.from_laurent(rook_poly(board, n - k) * power)
        power = power * _ONE_MINUS_Q
    rhs = BivariatePoly.one()
    for i, c in enumerate(board.heights, start=1):
        rhs = rhs * _one_minus_z_q(c - i + 1)
    return lhs == rhs


def _one_minus_z_q(m: int) -> BivariatePoly:
    """1 - z q^m."""
    return BivariatePoly.series((LaurentPoly.one(), LaurentPoly.dense(m, (-1,))))


def rook_sum_identity(board: FerrersBoard) -> bool:
    """Check sum_k R_k(B) (1-q)^k = 1."""
    total = LaurentPoly.zero()
    power = LaurentPoly.one()  # (1-q)^k
    for k in range(board.n + 1):
        total = total + rook_poly(board, k) * power
        power = power * _ONE_MINUS_Q
    return total == LaurentPoly.one()
