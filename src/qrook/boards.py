"""Ferrers boards inside an n x n grid and their step decompositions.

A board is stored as its weakly increasing column heights c_1 <= ... <= c_n.
Cells use matrix coordinates: row 1 is the top row, and column j of the
board occupies rows 1..c_j (boards are justified to the top-right).
A board is *admissible* when c_n <= n, i.e. it fits inside the grid;
taller boards can be constructed but are accepted only by the step-board
formula routes that are defined for them.

Boards and step specs are immutable; all operations are pure functions.
``str`` of either is its spelling in the CLI board grammar, which
:func:`parse_board_spec` reads back as a board.

Validation happens where values enter: ``FerrersBoard(...)``,
``StepSpec(...)`` (and so ``dataclasses.replace``), :func:`g_spec`,
:func:`g_board` and :func:`parse_board_spec` check their input.  The
boards and specs derived from validated ones (the transformations, the
families, the named boards) are built by the private ``_built``
constructors, which skip that check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Sequence

from .qpoly import _integral


@dataclass(frozen=True)
class FerrersBoard:
    heights: tuple[int, ...]

    def __post_init__(self):
        hs = tuple(_integral(h) for h in self.heights)
        object.__setattr__(self, "heights", hs)
        if any(h < 0 for h in hs):
            raise ValueError("column heights must be nonnegative")
        if any(a > b for a, b in zip(hs, hs[1:])):
            raise ValueError("not a Ferrers board: heights must weakly increase")

    @classmethod
    def _built(cls, heights: tuple[int, ...]) -> "FerrersBoard":
        """The board of heights, built without revalidating: the caller
        derived them from validated data, as a weakly increasing tuple of
        nonnegative ints."""
        board = object.__new__(cls)
        object.__setattr__(board, "heights", heights)
        return board

    def _prefix(self, n: int) -> "FerrersBoard":
        """The board of the first n columns: every prefix of a Ferrers board is one."""
        return FerrersBoard._built(self.heights[:n])

    @property
    def n(self) -> int:
        """Grid side = number of columns."""
        return len(self.heights)

    @property
    def area(self) -> int:
        return sum(self.heights)

    @property
    def admissible(self) -> bool:
        return not self.heights or self.heights[-1] <= self.n

    def contains(self, row: int, col: int) -> bool:
        """Cell membership: (row, col) is on the board iff row <= c_col."""
        return 1 <= col <= self.n and 1 <= row <= self.heights[col - 1]

    def __str__(self):
        return "heights:" + ",".join(str(h) for h in self.heights)


@dataclass(frozen=True)
class StepSpec:
    """A staircase presentation of a Ferrers board: blocks (h_i, d_i).

    The first d_1 columns have height h_1, the next d_2 columns have
    height h_1 + h_2, and so on; d_i >= 1 and h_i >= 0.  Several specs
    may present the same board (a block may repeat the previous height
    via h_i = 0), and the block structure itself is meaningful: words
    and their canonical rook-placement lifts are defined per block.
    The block data (widths, heights, offsets, n, area) are computed once,
    at construction; ``steps`` is the only field, so equality, hashing and
    ``repr`` read the blocks alone.
    """

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple((_integral(h), _integral(d)) for h, d in self.steps)
        if any(d < 1 for _, d in norm):
            raise ValueError("block widths d_i must be positive")
        if any(h < 0 for h, _ in norm):
            raise ValueError("block rises h_i must be nonnegative")
        self._set_blocks(norm)

    @classmethod
    def _built(cls, steps: tuple[tuple[int, int], ...]) -> "StepSpec":
        """The spec of steps, built without revalidating: the caller derived
        them from validated data, as (rise, width) pairs of ints with every
        rise nonnegative and every width positive."""
        spec = object.__new__(cls)
        spec._set_blocks(steps)
        return spec

    def _set_blocks(self, steps: tuple[tuple[int, int], ...]) -> None:
        """Store steps and the block data read from them, in one update of
        the frozen instance's dict."""
        rises, widths = tuple(zip(*steps)) or ((), ())
        # block_heights and col_offsets are the partial sums H_i and D_i
        heights = tuple(itertools.accumulate(rises))
        vars(self).update(
            steps=steps,
            widths=widths,
            n=sum(widths),
            block_heights=heights,
            col_offsets=tuple(itertools.accumulate(widths)),
            area=sum(map(mul, widths, heights)),
        )

    @property
    def t(self) -> int:
        return len(self.steps)

    @property
    def admissible(self) -> bool:
        return self.t == 0 or self.block_heights[-1] <= self.n

    def condition_overlap(self) -> bool:
        """d_{i-1} + d_i >= h_i for all i, with d_0 = 0."""
        prev = 0
        for h, d in self.steps:
            if prev + d < h:
                return False
            prev = d
        return True

    def condition_dominance(self) -> bool:
        """D_i >= H_i for all i."""
        return all(D >= H for D, H in zip(self.col_offsets, self.block_heights))

    def expand(self) -> FerrersBoard:
        heights: list[int] = []
        for H, d in zip(self.block_heights, self.widths):
            heights.extend([H] * d)
        return FerrersBoard._built(tuple(heights))

    def truncated(self) -> "StepSpec":
        """Drop the last block."""
        return StepSpec._built(self.steps[:-1])

    def __str__(self):
        return "steps:" + ",".join(f"{h}x{d}" for h, d in self.steps)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def triangular_board(n: int) -> FerrersBoard:
    """Heights (0, 1, ..., n-1): the cells (i, j) with 1 <= i < j <= n."""
    if n < 1:
        raise ValueError("triangular board needs n >= 1")
    return FerrersBoard._built(tuple(range(n)))


def staircase_board(n: int) -> FerrersBoard:
    """Heights (1, 2, ..., n): the upper-triangular cells including the diagonal."""
    if n < 1:
        raise ValueError("staircase board needs n >= 1")
    return FerrersBoard._built(tuple(range(1, n + 1)))


def g_board(v: Sequence[int]) -> FerrersBoard:
    """Block board for a multiplicity vector v: the board of
    :func:`g_spec` over the nonzero parts of v."""
    parts = [_integral(x) for x in v]
    if any(x < 0 for x in parts) or sum(parts) < 1:
        raise ValueError("multiplicity vector must be nonnegative with positive sum")
    return g_spec([x for x in parts if x]).expand()


def g_spec(v: Sequence[int]) -> StepSpec:
    """Blocks exactly the v_i (all v_i >= 1): block i has width v_i and
    height v_1 + ... + v_{i-1}, so the first block is empty."""
    parts = tuple(v)
    if any(x < 1 for x in parts):
        raise ValueError("block multiplicities must be positive")
    parts = tuple(map(_integral, parts))
    return StepSpec._built(tuple(zip((0,) + parts[:-1], parts)))


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def complement(board: FerrersBoard) -> FerrersBoard:
    """Complementary board with heights (n-c_n, ..., n-c_1); an involution."""
    if not board.admissible:
        raise ValueError("complement is defined for admissible boards only")
    n = board.n
    return FerrersBoard._built(tuple(n - c for c in reversed(board.heights)))


def flip(board: FerrersBoard) -> FerrersBoard:
    """Reflect the cell set about the cross diagonal: (i, j) -> (n-j+1, n-i+1).

    Preserves the area and, more importantly, all rook numbers.
    """
    if not board.admissible:
        raise ValueError("flip is defined for admissible boards only")
    n = board.n
    # Column j' of the flipped board collects the cells of row n-j'+1.
    heights = tuple(sum(1 for c in board.heights if c >= n - j + 1) for j in range(1, n + 1))
    return FerrersBoard._built(heights)


def step_decomposition(board: FerrersBoard) -> StepSpec:
    """Maximal runs of equal column heights as (rise, width) blocks."""
    steps: list[tuple[int, int]] = []
    prev_height = 0
    for height, run in itertools.groupby(board.heights):
        steps.append((height - prev_height, len(list(run))))
        prev_height = height
    return StepSpec._built(tuple(steps))


# ---------------------------------------------------------------------------
# Families (for the verification suites)
# ---------------------------------------------------------------------------


def all_ferrers_boards(n: int) -> Iterator[FerrersBoard]:
    """All admissible boards with grid side n, i.e. 0 <= c_1 <= ... <= c_n <= n."""
    for heights in itertools.combinations_with_replacement(range(n + 1), n):
        yield FerrersBoard._built(heights)


def compositions(totals: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All compositions of each total in turn: by number of parts, then
    by cut positions in lexicographic order."""
    for n in totals:
        for t in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), t - 1):
                bounds = (0,) + cuts + (n,)
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


# every rise h_i of the step specs the suites sweep lies in 0..MAX_RISE
MAX_RISE = 3


def all_step_specs(n: int, admissible_only: bool = False) -> Iterator[StepSpec]:
    """All step specs with total width n and every rise h_i <= MAX_RISE,
    grouped by width vector in the order of :func:`compositions`."""
    for widths in compositions([n]):
        for rises in itertools.product(range(MAX_RISE + 1), repeat=len(widths)):
            if admissible_only and sum(rises) > n:
                continue
            yield StepSpec._built(tuple(zip(rises, widths)))


# ---------------------------------------------------------------------------
# CLI board grammar
# ---------------------------------------------------------------------------


def parse_board_spec(text: str) -> FerrersBoard:
    """Parse "heights:0,1,2" | "steps:1x1,1x1" | "tri:7" | "stair:4" | "gv:2,3,2".

    Each spelling names a board and nothing more: "steps:" blocks and "gv:"
    vectors are ways of writing its heights, and a formula stated per block
    reads the board's maximal step decomposition.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unknown board spec {text!r}")
    # an empty list ("heights:", "steps:") is the board with no columns
    items = rest.split(",") if rest else []
    try:
        if kind == "heights":
            return FerrersBoard([int(x) for x in items])
        if kind == "steps":
            pairs = []
            for item in items:
                h, _, d = item.partition("x")
                pairs.append((int(h), int(d)))
            return StepSpec(tuple(pairs)).expand()
        if kind == "tri":
            return triangular_board(int(rest))
        if kind == "stair":
            return staircase_board(int(rest))
        if kind == "gv":
            return g_board([int(x) for x in items])
    except ValueError as exc:
        raise ValueError(f"bad board spec {text!r}: {exc}") from exc
    raise ValueError(f"unknown board spec {text!r}")
