"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and shares no code with the
library paths it checks.
"""

import itertools
import math

from qrook.qpoly import LaurentPoly


def partitions_in_box_gf(rows: int, cols: int) -> LaurentPoly:
    """Generating function by size of partitions fitting in a rows x cols box,
    by direct enumeration of weakly decreasing height vectors."""
    counts: dict[int, int] = {}

    def rec(remaining_cols: int, cap: int, size: int):
        if remaining_cols == 0:
            counts[size] = counts.get(size, 0) + 1
            return
        for h in range(cap + 1):
            rec(remaining_cols - 1, h, size + h)

    rec(cols, rows, 0)
    return LaurentPoly(counts)


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of {1..n} into k nonempty blocks: each element
    joins an existing block or opens a new one (restricted growth)."""
    count = 0

    def rec(i: int, blocks: int):
        nonlocal count
        if i == n:
            if blocks == k:
                count += 1
            return
        for _ in range(blocks):
            rec(i + 1, blocks)
        rec(i + 1, blocks + 1)

    rec(0, 0)
    return count


def hit_counts_by_enumeration(heights: tuple[int, ...]) -> list[int]:
    """Permutations counted by how many positions land on the board."""
    n = len(heights)
    counts = [0] * (n + 1)
    for sigma in itertools.permutations(range(1, n + 1)):
        hits = sum(1 for i, c in enumerate(sigma, start=1) if i <= heights[c - 1])
        counts[hits] += 1
    return counts


def rook_poly_by_cells(heights: tuple[int, ...], k: int) -> LaurentPoly:
    """q-rook polynomial of any Ferrers board by trying every k-set of
    cells: a non-attacking set counts q^(uncovered squares), where a
    square is covered when it holds a rook, lies above a rook in its
    column or lies right of a rook in its row."""
    cells = [(r, c) for c, h in enumerate(heights, start=1) for r in range(1, h + 1)]
    counts: dict[int, int] = {}
    for rooks in itertools.combinations(cells, k):
        if len({r for r, _ in rooks}) < k or len({c for _, c in rooks}) < k:
            continue
        uncovered = sum(
            1
            for r, c in cells
            if not any((c == rc and r <= rr) or (r == rr and c >= rc) for rr, rc in rooks)
        )
        counts[uncovered] = counts.get(uncovered, 0) + 1
    return LaurentPoly(counts)


def rook_numbers(heights: tuple[int, ...]) -> list[int]:
    """r_0..r_n at q = 1, adding columns left to right: a new column of
    height c has c - (k-1) rows free of the k-1 earlier rooks."""
    r = [1] + [0] * len(heights)
    for c in heights:
        for k in range(len(heights), 0, -1):
            r[k] += max(c - k + 1, 0) * r[k - 1]
    return r


def stirling2_closed(n: int, k: int) -> int:
    """S(n, k) by inclusion-exclusion over surjections onto k blocks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)
